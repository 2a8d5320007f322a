"""Module state in ``src/`` is constant.

Ids belong to the object that issues them (a provider, a client, a
telemetry hub) and memos live as long as the call that fills them, so
two simulators in one process, or a forked fleet shard, never see each
other's state.  This AST guard keeps it so.  In module and class bodies
it forbids:

* ``global`` statements (anywhere in a module);
* mutable container displays, comprehensions and constructor calls —
  a constant table is a ``tuple``, ``frozenset`` or
  ``MappingProxyType``;
* iterators such as ``itertools.count``;
* ``functools.lru_cache``/``cache`` on module-level functions.

``__all__`` is exempt.  Lambda bodies run per call, so they are not
module state and are not inspected.
"""

import ast
import multiprocessing
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.faults.chaos import run_chaos_scenario
from repro.rdma.kv import run_kv_chaos
from repro.rdma.verbs import CompletionQueue, QueuePair

SRC = Path(__file__).resolve().parent.parent / "src"

# Calls whose result is a mutable container or a stateful iterator.
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "array", "defaultdict",
    "OrderedDict", "Counter", "deque", "ChainMap", "WeakKeyDictionary",
    "WeakValueDictionary", "WeakSet", "count", "cycle", "repeat", "iter",
})
# Calls that freeze their argument: a display passed straight to one of
# these is a constant table, but its elements are still checked.
_FREEZERS = frozenset({"tuple", "frozenset", "MappingProxyType"})
_MEMOS = frozenset({"lru_cache", "cache"})
_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp, ast.GeneratorExp)


def _call_name(node: ast.AST) -> str:
    func = node.func if isinstance(node, ast.Call) else node
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _mutable_parts(node: ast.AST, frozen: bool = False
                   ) -> Iterator[ast.AST]:
    """Sub-expressions of a module/class-level value that build mutable
    state.  ``frozen`` marks the direct argument of a freezer call."""
    if isinstance(node, ast.Lambda):
        return
    if isinstance(node, _MUTABLE_DISPLAYS) and not frozen:
        yield node
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in _MUTABLE_CALLS:
            yield node
        for child in ast.iter_child_nodes(node):
            yield from _mutable_parts(
                child, frozen=name in _FREEZERS and child in node.args)
        return
    for child in ast.iter_child_nodes(node):
        yield from _mutable_parts(child)


def _targets(stmt: ast.stmt) -> str:
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target])
    return ", ".join(ast.unparse(target) for target in targets)


def _body_findings(body: List[ast.stmt], where: str
                   ) -> Iterator[Tuple[int, str]]:
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            yield from _body_findings(stmt.body, f"{where}{stmt.name}.")
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not where:
                for decorator in stmt.decorator_list:
                    if _call_name(decorator) in _MEMOS:
                        yield stmt.lineno, (
                            f"@{ast.unparse(decorator)} memoizes "
                            f"{stmt.name}() for the whole process")
            continue
        if isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For,
                             ast.While)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                for part in getattr(stmt, field, ()):
                    inner = (part.body if isinstance(part, ast.ExceptHandler)
                             else [part])
                    yield from _body_findings(inner, where)
            continue
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if stmt.value is None or _targets(stmt) == "__all__":
                continue
            for part in _mutable_parts(stmt.value):
                yield part.lineno, (f"{where}{_targets(stmt)} = "
                                    f"{ast.unparse(part)}"[:100])
        elif isinstance(stmt, ast.Expr):
            for part in _mutable_parts(stmt.value):
                yield part.lineno, f"{where}{ast.unparse(part)}"[:100]


def findings(root: Path = SRC) -> List[str]:
    """Every process-global mutable state site under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(root)
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{rel}:{node.lineno}: global "
                             f"{', '.join(node.names)}")
        for line, finding in _body_findings(tree.body, ""):
            found.append(f"{rel}:{line}: {finding}")
    return found


def test_src_holds_no_process_global_state():
    found = findings()
    assert not found, ("mutable process-global state in src/ (issue ids "
                       "from their owner, freeze constant tables):\n  "
                       + "\n  ".join(found))


def test_guard_flags_each_kind_of_global_state(tmp_path):
    (tmp_path / "bad.py").write_text(
        "import functools, itertools\n"
        "from types import MappingProxyType\n"
        "__all__ = ['f']\n"
        "_ids = itertools.count(1)\n"
        "_memo = {}\n"
        "_rows = [x for x in range(3)]\n"
        "OK = MappingProxyType({'a': (1, 2)})\n"
        "NESTED = MappingProxyType({'a': [1]})\n"
        "PAIRS = tuple((x, x) for x in range(3))\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f():\n"
        "    global _memo\n"
        "    return lambda: []\n"
        "class C:\n"
        "    cache = dict()\n"
        "    MODES = ('a', 'b')\n")
    found = findings(tmp_path)
    assert found == [
        "bad.py:12: global _memo",
        "bad.py:4: _ids = itertools.count(1)",
        "bad.py:5: _memo = {}",
        "bad.py:6: _rows = [x for x in range(3)]",
        "bad.py:8: NESTED = [1]",
        "bad.py:11: @functools.lru_cache(maxsize=None) memoizes f() for the "
        "whole process",
        "bad.py:15: C.cache = dict()",
    ]


def _kv_chaos_record(log: list) -> tuple:
    """``run_kv_chaos(0)``: its report plus every rkey read, wr_id
    posted and completion pushed, error texts included."""
    log.clear()
    report = run_kv_chaos(0)
    return tuple(sorted(report.items())), tuple(log)


def _a_b_a(log: list) -> tuple:
    first = _kv_chaos_record(log)
    run_chaos_scenario(0)
    return first, _kv_chaos_record(log)


def test_a_run_is_the_same_after_another_and_in_a_forked_child(
        monkeypatch):
    """A -> B -> A in this process, then in a forked child: every run
    of A records the same ids and texts, so nothing one simulator
    issues leaks into the next or into a fork."""
    log: list = []
    post_read, push = QueuePair.post_read, CompletionQueue.push

    def spy_post_read(qp, region, offset, length):
        wr_id = post_read(qp, region, offset, length)
        log.append(("post", region.rkey, offset, wr_id))
        return wr_id

    def spy_push(cq, completion):
        log.append(("cqe", completion.wr_id, completion.status,
                    completion.error, completion.completed_at_ns))
        push(cq, completion)

    monkeypatch.setattr(QueuePair, "post_read", spy_post_read)
    monkeypatch.setattr(CompletionQueue, "push", spy_push)
    here = _a_b_a(log)
    fork = multiprocessing.get_context("fork")
    receiver, sender = fork.Pipe(duplex=False)
    child = fork.Process(target=lambda: sender.send(_a_b_a(log)))
    child.start()
    assert receiver.poll(120), "the forked child sent no result"
    forked = receiver.recv()
    child.join(30)
    assert child.exitcode == 0
    report, records = here[0]
    assert dict(report)["ok"]
    assert any(entry[0] == "cqe" and entry[3] for entry in records)
    assert here == forked == (here[0], here[0])
