"""The value types: equal fields give equal, equally hashed objects whose
repr names the fields in order; fields can be neither assigned nor
deleted; derived and cached slots take no part in any of it; and
pickling and `copy` rebuild an equal object."""
import copy
import pickle

import pytest

from qmap_synth import (
    Circuit,
    Control,
    CostModel,
    Counterexample,
    Cover,
    CoverMode,
    Cube,
    Gate,
    ReversibleFunction,
    StageOrder,
    ToggleTable,
    synthesize,
    verify,
)

# (type, fields, other fields, repr): one instance per type, built
# twice from its fields, and one with other fields
VALUES = [
    (ReversibleFunction, (2, (0, 1, 3, 2)), (2, (0, 1, 2, 3)),
     "ReversibleFunction(width=2, table=(0, 1, 3, 2))"),
    (StageOrder, ((1, 0),), ((0, 1),), "StageOrder(order=(1, 0))"),
    (ToggleTable, (0, 1, 2, 0b0110, (False, False)),
     (1, 1, 2, 0b0110, (True, False)),
     "ToggleTable(stage=0, target=1, width=2, on=6, "
     "primed=(False, False))"),
    (Gate, (2, (Control(0), Control(1, False))), (2, (Control(0),)),
     "Gate(target=2, controls=(Control(line=0, positive=True), "
     "Control(line=1, positive=False)))"),
    (Circuit, (3, 1, (Gate.x(0),)), (3, 0, (Gate.x(0),)),
     "Circuit(data_width=3, ancilla_count=1, "
     "gates=(Gate(target=0, controls=()),))"),
    (CostModel, ("weighted",), ("count",), "CostModel(mode='weighted')"),
    (Cube, (3, 0b101, 0b001), (3, 0b101, 0b100),
     "Cube(width=3, mask=5, value=1)"),
    (Cover, (CoverMode.ESOP, (Cube(2, 1, 1),)), (CoverMode.DISJOINT, ()),
     "Cover(mode=<CoverMode.ESOP: 'esop'>, "
     "cubes=(Cube(width=2, mask=1, value=1),))"),
    (Counterexample, (2, 1, 3, 2), (2, 1, 3, 1),
     "Counterexample(width=2, input=1, got=3, expected=2)"),
]
ids = [case[0].__name__ for case in VALUES]


@pytest.mark.parametrize("kind, fields, other, text", VALUES, ids=ids)
def test_value_semantics(kind, fields, other, text):
    a, b = kind(*fields), kind(*fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert a != kind(*other)
    assert a != fields  # a tuple of the same fields is another value
    assert repr(a) == text
    names = kind._fields
    assert tuple(getattr(a, name) for name in names) == fields
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert not hasattr(a, "__dict__")
    assert a == b and repr(a) == text
    for twin in (copy.copy(a), copy.deepcopy(a),
                 pickle.loads(pickle.dumps(a))):
        assert twin == a and type(twin) is kind


# the fields of each type with a tuple field, that tuple given as a list
LISTED = [(kind, fields, tuple(list(v) if type(v) is tuple else v
                               for v in fields))
          for kind, fields, _, _ in VALUES
          if any(type(v) is tuple for v in fields)]


@pytest.mark.parametrize("kind, fields, listed", LISTED,
                         ids=[case[0].__name__ for case in LISTED])
def test_a_list_field_is_stored_as_a_tuple(kind, fields, listed):
    a = kind(*listed)
    assert a == kind(*fields) and hash(a) == hash(fields)
    assert tuple(getattr(a, name) for name in kind._fields) == fields


def test_a_list_changed_after_construction_changes_no_value():
    table = [0, 1, 2, 3]
    f = ReversibleFunction(2, table)
    table[0], table[1] = table[1], table[0]
    assert f.table == (0, 1, 2, 3)
    circuit = synthesize(f)
    assert circuit.gates == () and verify(circuit, f) is None


def test_derived_slots_stay_out_of_the_value():
    """Derived slots are set by the constructor, never later, take no
    part in ==, hash or repr, and a pickled copy derives them again."""
    f = ReversibleFunction(2, (0, 1, 3, 2))
    x, mct = Gate.ccx(0, 1, 2), Gate.mct([0, 1, 2], 3)
    derived = [(f, "slices", (0b0110, 0b1100)),
               (x, "lines", (0, 1, 2)), (x, "_qasm", "ccx q[0],q[1],q[2];"),
               (mct, "_qasm", None)]
    for value, slot, expected in derived:
        assert getattr(value, slot) == expected
        assert slot not in repr(value)
        with pytest.raises(AttributeError):
            setattr(value, slot, expected)
        twin = pickle.loads(pickle.dumps(value))
        assert twin == value and hash(twin) == hash(value)
        assert getattr(twin, slot) == expected

