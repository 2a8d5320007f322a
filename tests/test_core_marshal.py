"""Tests for the wire marshaler and Call objects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterfaceError, MarshalError
from repro.core import marshal
from repro.core.call import ReturnDescriptor, make_call
from repro.core.interfaces import InterfaceSpec, MethodSpec
from repro.sim import Simulator


# -- marshal basics ---------------------------------------------------------------

@pytest.mark.parametrize("value", [
    None, True, False, 0, 1, -1, 2**200, -(2**200),
    0.0, 3.14159, -1e300, "", "hello", "ünïcödé ☃",
    b"", b"\x00\xff" * 10,
    [], [1, "two", None], [[1, 2], [3, [4]]],
    {}, {"a": 1, "b": [True, None]}, {"nested": {"x": b"bytes"}},
])
def test_roundtrip_values(value):
    assert marshal.decode(marshal.encode(value)) == value


def test_tuple_decodes_as_list():
    assert marshal.decode(marshal.encode((1, 2))) == [1, 2]


def test_unsupported_type_rejected():
    with pytest.raises(MarshalError):
        marshal.encode(object())
    with pytest.raises(MarshalError):
        marshal.encode({1: "non-string key"})


def test_excessive_nesting_rejected():
    value = []
    for _ in range(50):
        value = [value]
    with pytest.raises(MarshalError):
        marshal.encode(value)


def test_truncated_message_rejected():
    data = marshal.encode("hello world")
    with pytest.raises(MarshalError):
        marshal.decode(data[:-3])


def test_trailing_garbage_rejected():
    data = marshal.encode(5)
    with pytest.raises(MarshalError):
        marshal.decode(data + b"x")


def test_unknown_tag_rejected():
    with pytest.raises(MarshalError):
        marshal.decode(b"Z")


def test_encoded_size_matches():
    for value in (None, 42, "abc", [1, 2, 3]):
        assert marshal.encoded_size(value) == len(marshal.encode(value))


json_like = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-(2**63), max_value=2**63),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=40), st.binary(max_size=40)),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6)),
    max_leaves=25)


@given(value=json_like)
@settings(max_examples=150, deadline=None)
def test_property_roundtrip(value):
    assert marshal.decode(marshal.encode(value)) == value


# -- call objects -----------------------------------------------------------------------

ICALC = InterfaceSpec.from_methods(
    "ICalc",
    (MethodSpec("Add", params=(("a", "int"), ("b", "int")), result="int"),
     MethodSpec("Ping", one_way=True)))


def test_make_call_two_way():
    sim = Simulator()
    call = make_call(sim, ICALC, "Add", (2, 3))
    assert call.interface_guid == ICALC.guid
    assert call.method == "Add"
    assert call.args() == (2, 3)
    assert not call.one_way
    assert call.size_bytes > 24


def test_make_call_one_way_has_no_descriptor():
    sim = Simulator()
    call = make_call(sim, ICALC, "Ping", ())
    assert call.one_way
    assert call.return_descriptor is None


def test_make_call_arity_checked():
    sim = Simulator()
    with pytest.raises(InterfaceError):
        make_call(sim, ICALC, "Add", (1,))
    with pytest.raises(InterfaceError):
        make_call(sim, ICALC, "Missing", ())


def test_return_descriptor_delivery():
    sim = Simulator()
    descriptor = ReturnDescriptor(sim)
    descriptor.deliver(marshal.encode(5))
    sim.run()
    assert marshal.decode(descriptor.event.value) == 5
    with pytest.raises(MarshalError):
        descriptor.deliver(b"")


def test_return_descriptor_error_delivery():
    sim = Simulator()
    descriptor = ReturnDescriptor(sim)
    caught = []

    def waiter():
        try:
            yield descriptor.event
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    descriptor.deliver_error(ValueError("remote failure"))
    sim.run()
    assert caught == ["remote failure"]
