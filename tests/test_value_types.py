"""The contract of the value types, the subclasses of ``tensor.Value``:
immutable, equal and hashed by their fields, pickled and copied by value,
with pinned reprs and validation.  ``Tensor`` and ``DiagramSum`` keep that
contract with a hash and a pickle of their own.  A census fails when a
``Value`` subclass in ``twistcalc`` has no row in ``CASES``."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import twistcalc
from twistcalc.casson import CassonReport
from twistcalc.diagrams import DiagramSum, odot, tree, tree_sum
from twistcalc.johnson import TwistEntry
from twistcalc.surface import BarcodeError, HVector
from twistcalc.tensor import DomainError, Tensor, Value

A1 = HVector.basis(2, 1)
B1 = HVector.basis(2, 3)
REPORT_FIELDS = (-24, 0, Fraction(10), Fraction(-3), Fraction(1))

# (class, field names, field values, pinned repr)
CASES = [
    (HVector, ("coords",), ((1, 0, 0, 0),), "HVector((1, 0, 0, 0))"),
    (
        TwistEntry,
        ("coeff", "genus", "barcode"),
        (1, 1, (1, -2, -1, 2)),
        "TwistEntry(coeff=1, genus=1, barcode=(1, -2, -1, 2))",
    ),
    (
        CassonReport,
        ("d_value", "d_prime_value", "n_genus1", "n_genus2", "lambda_value"),
        REPORT_FIELDS,
        "CassonReport(d_value=-24, d_prime_value=0, n_genus1=Fraction(10, 1), "
        "n_genus2=Fraction(-3, 1), lambda_value=Fraction(1, 1))",
    ),
]
IDS = [case[0].__name__ for case in CASES]


class One(Value):
    """A throwaway value type of one field: its contract is all the base's."""

    __slots__ = ("item",)

    def __init__(self, item):
        object.__setattr__(self, "item", item)


class Three(Value):
    """A throwaway value type of three fields: its contract is all the base's."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)


# (throwaway class, field values, pinned repr, a value of another class with
# the same field values)
BASE_CASES = [
    (One, ((1, 0, 0, 0),), "One(item=(1, 0, 0, 0))", HVector((1, 0, 0, 0))),
    (
        Three,
        (1, 1, (1, -2, -1, 2)),
        "Three(x=1, y=1, z=(1, -2, -1, 2))",
        TwistEntry(1, 1, (1, -2, -1, 2)),
    ),
]


@pytest.mark.parametrize("cls, values, text, other", BASE_CASES, ids=["One", "Three"])
def test_the_base_alone_gives_the_contract(cls, values, text, other):
    obj = cls(*values)
    twin = cls(*values)
    assert obj == twin and not obj != twin
    assert obj != cls(*values[:-1], "z")
    assert obj != other and other != obj
    assert obj != values and obj.__eq__(values) is NotImplemented
    assert hash(obj) == hash(twin) == hash(values)
    assert len({obj, twin}) == 1
    assert repr(obj) == text
    for copied in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert copied == obj and copied.__class__ is cls
    for name, value in zip(cls.__slots__, values):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, names, values, text):
    obj = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == values[names.index(name)]


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, names, values, text):
    obj = cls(*values)
    twin = cls(**dict(zip(names, values)))
    assert tuple(getattr(obj, n) for n in names) == values
    assert obj == twin and not obj != twin
    assert hash(obj) == hash(twin) == hash(values)
    assert len({obj, twin}) == 1
    assert obj != values


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_repr_is_pinned(cls, names, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_pickle_and_copy_keep_the_value(cls, names, values, text):
    obj = cls(*values)
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert copy.copy(obj) == obj
    assert copy.deepcopy(obj) == obj


def test_tensor_and_diagram_sum_copy_and_pickle_by_value():
    t = Tensor(2, 3, {(1,): Fraction(1, 3), (2, 3): Fraction(-5, 6)})
    d = tree(A1, B1, A1) + tree(B1, A1, B1)
    for obj in (t, d):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj and twin.__class__ is obj.__class__
    assert t.den == 6
    with pytest.raises(TypeError):
        hash(DiagramSum())
    via_sum = Tensor(2, 3, {(1,): Fraction(1, 6)}) + Tensor(2, 3, {(1,): Fraction(1, 6)})
    assert via_sum == Tensor(2, 3, {(1,): Fraction(1, 3)})
    assert hash(via_sum) == hash(Tensor(2, 3, {(1,): Fraction(1, 3)}))
    one = Tensor(2, 3, {(): 1})
    assert hash(one + one - one) == hash(one)


def test_distinct_fields_compare_unequal():
    assert TwistEntry(1, 1, (1, -2, -1, 2)) != TwistEntry(-1, 1, (1, -2, -1, 2))
    assert HVector((1, 0, 0, 0)) != HVector((0, 1, 0, 0))
    assert tree(A1, B1, A1) != tree(B1, A1, A1)
    assert HVector((1, 0, 0, 0)) != tree(A1, B1, A1)


def test_hvector_sums_refuse_other_types():
    v = HVector((1, 0))
    for other in (1, Tensor(1, 2, {(1,): 1})):
        with pytest.raises(TypeError):
            v + other
        with pytest.raises(TypeError):
            v - other


def test_hvector_coords_become_a_tuple_of_ints():
    v = HVector(iter([Fraction(2, 2), 0, 3, -2]))
    assert v.coords == (1, 0, 3, -2)
    assert all(type(c) is int for c in v.coords)


def test_hvector_rejects_non_integral_coordinates():
    for make in (
        lambda: HVector((0.5, 0, 0, 0)),
        # A bool or a float is refused even when it equals an int.
        lambda: HVector(iter([1.0, 0, True, -2])),
        lambda: HVector((0, False, 0, 0)),
        lambda: HVector((1.0, 0, 0, 0)),
        lambda: Fraction(1, 2) * HVector.basis(2, 1),
        lambda: HVector(("7", 0, 0, 0)),
    ):
        with pytest.raises(DomainError, match="^homology coordinates must be integers$"):
            make()
    assert Fraction(4, 2) * HVector.basis(2, 1) == HVector((2, 0, 0, 0))


def test_twist_entry_validation():
    assert TwistEntry(1, 2, [1, -2]).barcode == (1, -2)
    with pytest.raises(DomainError, match="^twist exponent must be nonzero$"):
        TwistEntry(0, 1, (1, -2, -1, 2))
    for genus in (0, 3):
        with pytest.raises(DomainError, match="^twist genus must be 1 or 2$"):
            TwistEntry(1, genus, (1, -2, -1, 2))


def test_twist_entry_coefficient_is_an_int():
    for coeff in (0.5, 1.0, "x", Fraction(-1, 2), Fraction(2)):
        with pytest.raises(DomainError, match="^twist exponent must be an int$"):
            TwistEntry(coeff, 1, (1, -2, -1, 2))


@pytest.mark.parametrize(
    "coeff, genus, barcode, error, message",
    [
        (True, 1, (1, -2, -1, 2), DomainError, "twist exponent must be an int"),
        (1, True, (1, -2, -1, 2), DomainError, "twist genus must be 1 or 2"),
        (1, 1.0, (1, -2, -1, 2), DomainError, "twist genus must be 1 or 2"),
        (1, 1, (1, "a"), BarcodeError, "barcode entry 'a' is not an int"),
        (1, 1, (1, True), BarcodeError, "barcode entry True is not an int"),
        (1, 1, (1, 0), BarcodeError, "barcode entries must be nonzero"),
    ],
)
def test_twist_entry_rejects_the_wrong_types(coeff, genus, barcode, error, message):
    with pytest.raises(error, match="^%s$" % message):
        TwistEntry(coeff, genus, barcode)


def test_tree_diagram_validation():
    wide, odd, empty = HVector.basis(3, 1), HVector((1, 0, 1)), HVector(())
    builders = (
        tree,
        lambda *labels: tree_sum([(1, labels)]),
        lambda *labels: DiagramSum({labels: Fraction(1, 3)}),
    )
    for build in builders:
        assert list(build(A1, B1, A1, B1).items) == [(A1, B1, A1, B1)]
        assert [len(build(*(A1,) * n).items) for n in (3, 4, 5)] == [1, 1, 1]
        for n in (2, 6):
            with pytest.raises(DomainError, match="^trees carry 3, 4 or 5 leaves$"):
                build(*(A1,) * n)
        for labels in ((A1, B1, wide), (odd, odd, odd)):
            with pytest.raises(DomainError, match="^leaf labels must share an even length$"):
                build(*labels)
        with pytest.raises(DomainError, match="^genus must be >= 1$"):
            build(empty, empty, empty)
        for labels in (("ab", "cd", "ef"), (A1, B1, (1, 0, 0, 0))):
            with pytest.raises(DomainError, match="^leaf labels must be HVectors$"):
                build(*labels)
    assert list(tree_sum([(1, [A1, B1, A1, B1])]).items) == [(A1, B1, A1, B1)]
    assert list(odot(A1, B1).items) == [(A1, B1, A1, B1)]
    for u, v in ((A1, wide), (odd, odd)):
        with pytest.raises(DomainError, match="^leaf labels must share an even length$"):
            odot(u, v)
    with pytest.raises(DomainError, match="^genus must be >= 1$"):
        odot(empty, empty)
    with pytest.raises(DomainError, match="^leaf labels must share an even length$"):
        DiagramSum({"junk": 1})
    with pytest.raises(DomainError, match="^trees carry 3, 4 or 5 leaves$"):
        DiagramSum({(A1, B1): 0})
    # Coefficients are exact: both entry points refuse a float.  A string such
    # as "1/7" is read exactly, and a bool and what Fraction does not read are
    # refused with one DomainError, at both entry points alike.
    for make in (lambda c: DiagramSum({(A1, B1, A1): c}), lambda c: tree_sum([(c, (A1, B1, A1))])):
        with pytest.raises(DomainError, match="^coefficient .+ is a float, not exact$"):
            make(0.1)
        assert make("1/7").items == {(A1, B1, A1): Fraction(1, 7)}
        for bad in (True, None, "x", object()):
            with pytest.raises(DomainError, match="^coefficient .+ is not an exact number$"):
                make(bad)


def test_every_value_type_has_a_contract_row():
    for module in pkgutil.iter_modules(twistcalc.__path__):
        importlib.import_module("twistcalc." + module.name)
    found, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("twistcalc.") and cls not in found:
                found.add(cls)
                todo.append(cls)
    assert found == {case[0] for case in CASES} | {Tensor, DiagramSum}
