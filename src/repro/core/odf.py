"""Offcode Description Files (ODF).

"An Offcode manifesto is the means by which an Offcode defines its
dependencies on peer Offcodes and its requirements from the target
device and software environment" (Section 3.3).  An ODF has three parts:

1. **package** — bind name, GUID and supported interfaces (WSDL);
2. **sw-env** — imports of peer Offcodes, each with a constraint
   reference (Link / Pull / Gang / asymmetric Gang) and priority, plus
   optional software requirements (memory, MMU, dynamic allocation);
3. **targets** — the *classes* of devices the Offcode can run on; "a
   developer is required to supply a list of potential target device
   classes" — never a concrete device (Section 3.4's intentional
   late-binding choice).

ODFs live in an :class:`OdfLibrary`, a virtual filesystem mapping paths
like ``/offcodes/checksum.odf`` to documents, so deployments resolve
imports exactly the way the paper's runtime resolves ``<file>`` entries.
Documents round-trip to the XML schema of the paper's Figure 4.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ODFError
from repro.core.guid import Guid, guid_from_name, parse_guid
from repro.core.interfaces import InterfaceSpec
from repro.core.layout.constraints import ConstraintType, parse_constraint_type
from repro.core.wsdl import parse_wsdl, write_wsdl
from repro.hw.device import DeviceClass

__all__ = [
    "DeviceClassFilter",
    "OdfImport",
    "SoftwareRequirements",
    "OdfDocument",
    "OdfLibrary",
]

# Human names appearing in ODFs mapped to canonical device classes.
_CLASS_NAMES = MappingProxyType({
    "network device": DeviceClass.NETWORK,
    "network": DeviceClass.NETWORK,
    "storage device": DeviceClass.STORAGE,
    "storage": DeviceClass.STORAGE,
    "display device": DeviceClass.DISPLAY,
    "display": DeviceClass.DISPLAY,
    "graphics": DeviceClass.DISPLAY,
    "host": DeviceClass.HOST,
    "host cpu": DeviceClass.HOST,
})


@dataclass(frozen=True)
class DeviceClassFilter:
    """One ``<device-class>`` entry: a class plus optional attribute filters."""

    device_class: str
    bus: Optional[str] = None
    mac: Optional[str] = None
    vendor: Optional[str] = None
    class_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.device_class not in DeviceClass.ALL:
            raise ODFError(f"unknown device class {self.device_class!r}")

    def matches(self, device) -> bool:
        """True if a :class:`ProgrammableDevice` satisfies this filter."""
        return device.matches(self.device_class, bus=self.bus,
                              mac=self.mac, vendor=self.vendor)


@dataclass(frozen=True)
class OdfImport:
    """One ``<import>``: a dependency on a peer Offcode."""

    file: str
    bindname: str
    guid: Guid
    reference: ConstraintType = ConstraintType.LINK
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.file:
            raise ODFError(f"import of {self.bindname!r} has no file")
        if self.priority < 0:
            raise ODFError("import priority must be non-negative")


@dataclass(frozen=True)
class SoftwareRequirements:
    """Software-environment needs checked against a device spec."""

    min_memory_bytes: int = 0
    needs_mmu: bool = False
    needs_dynamic_alloc: bool = False
    features: Tuple[str, ...] = ()

    def satisfied_by(self, spec) -> bool:
        """Check against a :class:`repro.hw.device.DeviceSpec`."""
        if self.min_memory_bytes > spec.local_memory_bytes:
            return False
        if self.needs_mmu and not spec.has_mmu:
            return False
        if self.needs_dynamic_alloc and not spec.has_dynamic_alloc:
            return False
        return all(spec.has_feature(f) for f in self.features)


@dataclass
class OdfDocument:
    """A parsed Offcode Description File."""

    bindname: str
    guid: Guid
    interfaces: List[InterfaceSpec] = field(default_factory=list)
    imports: List[OdfImport] = field(default_factory=list)
    targets: List[DeviceClassFilter] = field(default_factory=list)
    requirements: SoftwareRequirements = field(
        default_factory=SoftwareRequirements)
    # Source form: "source" Offcodes are recompiled per target,
    # "object" Offcodes are dynamically linked (Section 3.4 / Fig. 5).
    form: str = "object"
    image_bytes: int = 64 * 1024      # binary size for the loader

    def __post_init__(self) -> None:
        if not self.bindname:
            raise ODFError("ODF needs a bindname")
        if self.form not in ("source", "object"):
            raise ODFError(f"unknown offcode form {self.form!r}")
        if self.image_bytes <= 0:
            raise ODFError("image size must be positive")
        seen = set()
        for imp in self.imports:
            if imp.bindname in seen:
                raise ODFError(
                    f"{self.bindname}: duplicate import {imp.bindname!r}")
            seen.add(imp.bindname)

    @property
    def host_capable(self) -> bool:
        """Whether the host CPU is an allowed target."""
        return any(t.device_class == DeviceClass.HOST for t in self.targets)

    def interface(self, name: str) -> InterfaceSpec:
        """Declared interface by name (ODFError if absent)."""
        for spec in self.interfaces:
            if spec.name == name:
                return spec
        raise ODFError(f"{self.bindname} exposes no interface {name!r}")

    # -- XML -------------------------------------------------------------------

    @staticmethod
    def from_xml(source: str, library: Optional["OdfLibrary"] = None
                 ) -> "OdfDocument":
        """Parse the Figure-4 XML schema.

        ``<include>`` interface references are resolved through
        ``library`` (they name WSDL documents registered there).
        """
        try:
            root = ET.fromstring(source)
        except ET.ParseError as exc:
            raise ODFError(f"malformed ODF XML: {exc}") from None
        if root.tag != "offcode":
            raise ODFError(f"ODF root must be <offcode>, got <{root.tag}>")

        package = root.find("package")
        if package is None:
            raise ODFError("ODF has no <package> section")
        bindname = _text(package, "bindname")
        guid_text = package.findtext("GUID")
        guid = parse_guid(guid_text) if guid_text else guid_from_name(bindname)

        interfaces: List[InterfaceSpec] = []
        for iface in package.findall("interface"):
            inline = iface.find("definitions")
            if inline is not None:
                interfaces.append(parse_wsdl(ET.tostring(
                    inline, encoding="unicode")))
                continue
            include = iface.findtext("include")
            if include:
                path = include.strip().strip('"')
                if library is None:
                    raise ODFError(
                        f"{bindname}: interface include {path!r} "
                        "needs an OdfLibrary to resolve")
                interfaces.append(library.load_wsdl(path))

        imports: List[OdfImport] = []
        sw_env = root.find("sw-env")
        requirements = SoftwareRequirements()
        if sw_env is not None:
            for imp in sw_env.findall("import"):
                ref = imp.find("reference")
                kind = ConstraintType.LINK
                priority = 0
                if ref is not None:
                    kind = parse_constraint_type(ref.get("type", "Link"))
                    priority = int(ref.get("pri", "0"))
                imports.append(OdfImport(
                    file=_text(imp, "file").strip('"'),
                    bindname=_text(imp, "bindname"),
                    guid=parse_guid(_text(imp, "GUID")),
                    reference=kind,
                    priority=priority,
                ))
            req = sw_env.find("requires")
            if req is not None:
                requirements = SoftwareRequirements(
                    min_memory_bytes=int(req.get("memory", "0")),
                    needs_mmu=req.get("mmu", "false").lower() == "true",
                    needs_dynamic_alloc=(
                        req.get("dynamic-alloc", "false").lower() == "true"),
                    features=tuple(f.text.strip() for f in
                                   req.findall("feature") if f.text),
                )

        targets: List[DeviceClassFilter] = []
        targets_el = root.find("targets")
        if targets_el is not None:
            for dc in targets_el.findall("device-class"):
                name = (dc.findtext("name") or "").strip().lower()
                if name not in _CLASS_NAMES:
                    raise ODFError(f"{bindname}: unknown device class "
                                   f"name {name!r}")
                class_id = dc.get("id")
                targets.append(DeviceClassFilter(
                    device_class=_CLASS_NAMES[name],
                    bus=_opt_text(dc, "bus"),
                    mac=_opt_text(dc, "mac"),
                    vendor=_opt_text(dc, "vendor"),
                    class_id=int(class_id, 0) if class_id else None,
                ))

        form = root.get("form", "object")
        image = int(root.get("image-bytes", str(64 * 1024)))
        return OdfDocument(bindname=bindname, guid=guid,
                           interfaces=interfaces, imports=imports,
                           targets=targets, requirements=requirements,
                           form=form, image_bytes=image)

    def to_xml(self) -> str:
        """Serialize back to the Figure-4 schema (inline interfaces)."""
        root = ET.Element("offcode", {"form": self.form,
                                      "image-bytes": str(self.image_bytes)})
        package = ET.SubElement(root, "package")
        ET.SubElement(package, "bindname").text = self.bindname
        ET.SubElement(package, "GUID").text = str(self.guid.value)
        for spec in self.interfaces:
            iface = ET.SubElement(package, "interface")
            iface.append(ET.fromstring(write_wsdl(spec)))
        if self.imports or self.requirements != SoftwareRequirements():
            sw_env = ET.SubElement(root, "sw-env")
            for imp in self.imports:
                el = ET.SubElement(sw_env, "import")
                ET.SubElement(el, "file").text = imp.file
                ET.SubElement(el, "bindname").text = imp.bindname
                ET.SubElement(el, "reference",
                              {"type": imp.reference.value,
                               "pri": str(imp.priority)})
                ET.SubElement(el, "GUID").text = str(imp.guid.value)
            req = self.requirements
            if req != SoftwareRequirements():
                attrs = {"memory": str(req.min_memory_bytes),
                         "mmu": str(req.needs_mmu).lower(),
                         "dynamic-alloc": str(req.needs_dynamic_alloc).lower()}
                req_el = ET.SubElement(sw_env, "requires", attrs)
                for feature in req.features:
                    ET.SubElement(req_el, "feature").text = feature
        if self.targets:
            reverse = {v: k for k, v in reversed(list(_CLASS_NAMES.items()))}
            targets = ET.SubElement(root, "targets")
            for t in self.targets:
                attrs = {}
                if t.class_id is not None:
                    attrs["id"] = hex(t.class_id)
                dc = ET.SubElement(targets, "device-class", attrs)
                ET.SubElement(dc, "name").text = reverse[t.device_class]
                for tag, value in (("bus", t.bus), ("mac", t.mac),
                                   ("vendor", t.vendor)):
                    if value:
                        ET.SubElement(dc, tag).text = value
        return ET.tostring(root, encoding="unicode")


def _text(parent: ET.Element, tag: str) -> str:
    value = parent.findtext(tag)
    if value is None or not value.strip():
        raise ODFError(f"missing <{tag}> element")
    return value.strip()


def _opt_text(parent: ET.Element, tag: str) -> Optional[str]:
    value = parent.findtext(tag)
    return value.strip() if value and value.strip() else None


class OdfLibrary:
    """A virtual filesystem of ODF and WSDL documents.

    "Typically, the runtime uses a local library that is used for
    storing the actual instances of the Offcodes" (Section 3.4); this is
    the manifest half of that library (the code half is the Depot).
    """

    def __init__(self) -> None:
        self._documents: Dict[str, OdfDocument] = {}
        self._xml: Dict[str, str] = {}
        self._wsdl: Dict[str, InterfaceSpec] = {}

    # -- registration -------------------------------------------------------------

    def register(self, path: str, document: Union[OdfDocument, str]) -> None:
        """Register an ODF under a virtual path (document or XML text)."""
        path = self._norm(path)
        if path in self._documents or path in self._xml:
            raise ODFError(f"ODF path {path!r} already registered")
        if isinstance(document, OdfDocument):
            self._documents[path] = document
        else:
            self._xml[path] = document

    def register_wsdl(self, path: str, spec: Union[InterfaceSpec, str]) -> None:
        """Register a WSDL document (spec or XML text) under a path."""
        path = self._norm(path)
        if path in self._wsdl:
            raise ODFError(f"WSDL path {path!r} already registered")
        self._wsdl[path] = (spec if isinstance(spec, InterfaceSpec)
                            else parse_wsdl(spec))

    # -- loading -------------------------------------------------------------------

    def load(self, path: str) -> OdfDocument:
        """Load (and cache) the ODF registered at ``path``."""
        path = self._norm(path)
        if path in self._documents:
            return self._documents[path]
        if path in self._xml:
            document = OdfDocument.from_xml(self._xml[path], library=self)
            self._documents[path] = document
            return document
        raise ODFError(f"no ODF registered at {path!r}; "
                       f"have {sorted(set(self._documents) | set(self._xml))}")

    def load_wsdl(self, path: str) -> InterfaceSpec:
        """The interface spec registered at ``path``."""
        path = self._norm(path)
        try:
            return self._wsdl[path]
        except KeyError:
            raise ODFError(f"no WSDL registered at {path!r}") from None

    def load_closure(self, path: str) -> List[OdfDocument]:
        """Load an ODF and, transitively, everything it imports.

        Returns documents in dependency-discovery order, root first.
        Import cycles are permitted (mutually-ganged Offcodes are legal);
        each document appears once.
        """
        ordered: List[OdfDocument] = []
        seen = set()
        stack = [self._norm(path)]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            document = self.load(current)
            ordered.append(document)
            stack.extend(self._norm(imp.file) for imp in document.imports)
        return ordered

    def load_directory(self, directory, prefix: str = "/offcodes") -> int:
        """Register every ``*.odf`` and ``*.wsdl`` file under a real
        filesystem directory.

        Files register under ``<prefix>/<relative path>`` so on-disk
        Offcode libraries (the paper's "openly accessed libraries of
        Offcodes ... provided as source code") drop straight in.
        Returns the number of documents registered.
        """
        import pathlib
        root = pathlib.Path(directory)
        if not root.is_dir():
            raise ODFError(f"not a directory: {directory}")
        count = 0
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".odf", ".wsdl") or not path.is_file():
                continue
            virtual = f"{prefix}/{path.relative_to(root).as_posix()}"
            text = path.read_text()
            if path.suffix == ".odf":
                self.register(virtual, text)
            else:
                self.register_wsdl(virtual, text)
            count += 1
        return count

    @staticmethod
    def _norm(path: str) -> str:
        path = path.strip().strip('"')
        if not path:
            raise ODFError("empty ODF path")
        return path if path.startswith("/") else "/" + path
