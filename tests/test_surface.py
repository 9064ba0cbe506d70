import re

import pytest

from conftest import random_barcode, rng_for
from oracles import omega
from twistcalc.expansion import theta
from twistcalc.johnson import L_k
from twistcalc.surface import (
    BarcodeError,
    HVector,
    barcode_homology,
    barcode_letters,
    boundary_barcode,
    commutator_barcode,
    cyclic_reduce,
    free_reduce,
    inverse_barcode,
    validate_barcode,
)
from twistcalc.tensor import DomainError

G = 2
A1 = HVector.basis(G, 1)
A2 = HVector.basis(G, 2)
B1 = HVector.basis(G, 3)
B2 = HVector.basis(G, 4)


# -- omega -------------------------------------------------------------


def test_omega_basis_pairing():
    assert omega(A1, B1) == 1
    assert omega(B1, A1) == -1
    assert omega(A1 + A2, B2) == 1


def test_omega_gram_matrix():
    basis = [HVector.basis(G, i) for i in range(1, 2 * G + 1)]
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            if j == i + G:
                assert omega(u, v) == 1
            elif i == j + G:
                assert omega(u, v) == -1
            else:
                assert omega(u, v) == 0


def test_omega_antisymmetric_bilinear():
    rng = rng_for("omega")
    for _ in range(30):
        u = HVector(rng.randint(-4, 4) for _ in range(2 * G))
        v = HVector(rng.randint(-4, 4) for _ in range(2 * G))
        w = HVector(rng.randint(-4, 4) for _ in range(2 * G))
        assert omega(u, v) == -omega(v, u)
        assert omega(u + w, v) == omega(u, v) + omega(w, v)


def test_omega_length_mismatch():
    with pytest.raises(Exception):
        omega(HVector((1, 0)), HVector((1, 0, 0, 0)))


# -- HVector ------------------------------------------------------------


def test_basis_index_is_an_int_in_range():
    assert [HVector.basis(G, i).coords.index(1) for i in range(1, 2 * G + 1)] == [0, 1, 2, 3]
    # Index 0 or -1 would wrap to the end of the coordinate list.
    for idx in (0, -1, 2 * G + 1, True, 1.0):
        with pytest.raises(DomainError, match="^generator index %r out of range$" % idx):
            HVector.basis(G, idx)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: HVector.basis(g, 1),
        boundary_barcode,
        lambda g: barcode_letters((1,), g),
        lambda g: barcode_homology((1,), g),
    ],
    ids=["basis", "boundary_barcode", "barcode_letters", "barcode_homology"],
)
def test_basis_checks_the_genus_before_the_index(call):
    # As Tensor and default_expansion check it.  Before the check, True was
    # read as genus 1 (HVector((1, 0)), the word (-2, 1, 2, -1)), 2.0 as genus
    # 2 by barcode_letters and as a bare TypeError by the others, and genus 0
    # as an index or a barcode entry out of range.
    for g, message in (
        (True, "genus True is not an int"),
        (2.0, "genus 2.0 is not an int"),
        (0, "genus must be >= 1"),
    ):
        with pytest.raises(DomainError, match="^%s$" % message):
            call(g)


@pytest.mark.parametrize("coord", ["x", None, float("inf"), float("nan"), 1j], ids=repr)
def test_hvector_coordinates_that_are_not_numbers(coord):
    # int() raises its own ValueError, TypeError or OverflowError on these;
    # HVector reports them as it reports "7".
    with pytest.raises(DomainError, match="^homology coordinates must be integers$"):
        HVector((coord, 0, 0, 0))


# -- barcodes -----------------------------------------------------------


# Generator indices at genus 2: a1 = 1, a2 = 2, b1 = 3, b2 = 4.


def test_barcode_letters_example():
    assert barcode_letters([1, -2, 3], G) == [(1, 1), (3, -1), (2, 1)]


def test_barcode_letters_empty():
    assert barcode_letters([], G) == []


def test_barcode_letters_beta_inverse():
    assert barcode_letters([-4], G) == [(4, -1)]


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: validate_barcode(iter([1, 2])), (1, 2)),
        (lambda: free_reduce(iter([1, 2])), (1, 2)),
        (lambda: cyclic_reduce(iter([1, 2, -1])), (2,)),
        (lambda: commutator_barcode(iter([1]), iter([-2])), (1, -2, -1, 2)),
    ],
    ids=["validate_barcode", "free_reduce", "cyclic_reduce", "commutator_barcode"],
)
def test_barcode_checks_read_an_iterator_once(call, expected):
    assert call() == expected


def test_barcode_rejects_zero_entry():
    with pytest.raises(BarcodeError):
        validate_barcode([1, 0, 2])


def test_barcode_rejects_out_of_range():
    with pytest.raises(BarcodeError):
        barcode_letters([5], 2)


@pytest.mark.parametrize(
    "call, entry",
    [
        (lambda exp: barcode_homology((1.0, 2, -1, -2), 2), 1.0),
        (lambda exp: L_k(exp, (1.5, 2, -1.5, -2), 4), 1.5),
        (lambda exp: theta(exp, (1.0,)), 1.0),
        (lambda exp: L_k(exp, (True, 2, -1, -2), 4), True),
        (lambda exp: free_reduce(("a",)), "a"),
    ],
    ids=["homology-float", "L_k-float", "theta-float", "L_k-bool", "free_reduce-str"],
)
def test_barcode_rejects_entries_that_are_not_ints(exp_g2, call, entry):
    message = "barcode entry %r is not an int" % (entry,)
    with pytest.raises(BarcodeError, match=re.escape(message)):
        call(exp_g2)


def test_commutator_barcode():
    assert commutator_barcode([1], [-2]) == (1, -2, -1, 2)
    assert commutator_barcode([], []) == ()


def test_conjugation_word():
    # u v ubar vbar with ubar the reversed, negated block
    assert commutator_barcode([3], [-1, -4]) == (3, -1, -4, -3, 4, 1)


def test_boundary_barcode():
    assert boundary_barcode(1) == (-2, 1, 2, -1)
    assert boundary_barcode(2) == (-2, 1, 2, -1, -4, 3, 4, -3)
    # at genus 1: a1 = 1, b1 = 2
    assert barcode_letters(boundary_barcode(1), 1) == [(2, -1), (1, 1), (2, 1), (1, -1)]


# -- free reduction ------------------------------------------------------


def test_free_reduce_examples():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, -1, 3]) == (3,)
    assert free_reduce([1, -2, 3]) == (1, -2, 3)


def test_free_reduce_idempotent():
    rng = rng_for("reduce")
    for _ in range(50):
        bc = random_barcode(rng, G, max_len=10)
        once = free_reduce(bc)
        assert free_reduce(once) == once


def random_order_reduce(rng, bc):
    """Oracle: cancel a randomly chosen adjacent inverse pair until none remain."""
    bc = list(bc)
    while True:
        sites = [i for i in range(len(bc) - 1) if bc[i] == -bc[i + 1]]
        if not sites:
            return tuple(bc)
        i = rng.choice(sites)
        del bc[i : i + 2]


def test_free_reduce_confluent():
    rng = rng_for("confluent")
    for _ in range(50):
        bc = random_barcode(rng, G, max_len=12)
        expected = free_reduce(bc)
        for _ in range(3):
            assert random_order_reduce(rng, bc) == expected


# -- cyclic reduction ------------------------------------------------------


def test_cyclic_reduce_examples():
    assert cyclic_reduce(()) == ()
    assert cyclic_reduce((1, -1)) == ()
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((3, 1, -2, -1, -3)) == (-2,)
    assert cyclic_reduce((1, -1, 2, 1, -2)) == (1,)
    assert cyclic_reduce((-3, 1, -2, -1, 2, 3)) == (1, -2, -1, 2)
    assert cyclic_reduce((2, 1, -2, -1)) == (2, 1, -2, -1)


def test_cyclic_reduce_strips_a_conjugating_prefix():
    rng = rng_for("cyclic-reduce")
    shorter = 0
    for _ in range(100):
        x = random_barcode(rng, G, max_len=4)
        bc = x + random_barcode(rng, G, max_len=8) + inverse_barcode(x)
        once = cyclic_reduce(bc)
        assert cyclic_reduce(once) == once
        # No inverse pair is adjacent; i = 0 compares the two ends.
        assert all(once[i] != -once[i - 1] for i in range(len(once)))
        # once is the middle of the freely reduced word, between x' and x'^-1.
        reduced = free_reduce(bc)
        k = (len(reduced) - len(once)) // 2
        assert reduced[k : len(reduced) - k] == once
        assert reduced[:k] == inverse_barcode(reduced[len(reduced) - k :])
        shorter += len(once) < len(reduced)
    assert shorter >= 80


# -- homology and text form ----------------------------------------------


def test_barcode_homology():
    assert barcode_homology([1, -2, 3], G) == HVector((1, 1, -1, 0))
    assert barcode_homology(commutator_barcode([1, 4], [2, -3]), G).is_zero()


def test_inverse_barcode():
    assert inverse_barcode((1, -2, 3)) == (-3, 2, -1)
