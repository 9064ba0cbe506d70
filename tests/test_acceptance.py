"""Acceptance suite: one test per release criterion, exact equality throughout.

Each test prints a PASS line on success so the full gate can be read off
a verbose run.
"""

import time

import pytest

from conftest import random_barcode, random_null_homologous_barcode, rng_for
from oracles import dbar_prime, kappa, morita_tau2, spine_pairs
from twistcalc import psi_data as P
from twistcalc.casson import lambda_J3, twist_audit
from twistcalc.diagrams import eta, odot, tree_sum
from twistcalc.expansion import default_expansion, log_theta, symplectic_defect, theta
from twistcalc.johnson import L_k, apply_derivation, twist_sum
from twistcalc.surface import HVector, free_reduce, inverse_barcode
from twistcalc.tensor import (
    Tensor,
    bracket,
    combination,
    cyclicize,
    dynkin_defect,
    exp_series,
    extract,
    log_series,
)

G = 2
N = 5


@pytest.fixture(scope="module")
def exp():
    return default_expansion(G, N)


@pytest.fixture(scope="module")
def psi():
    return P.psi_twist_entries()


@pytest.fixture(scope="module")
def tau3_psi(exp, psi):
    return twist_sum(exp, psi, 5)[1]


def report(name, started):
    print("ACCEPT %-38s PASS (%.2fs)" % (name, time.perf_counter() - started))


def test_criterion_1_symplectic_audit():
    t0 = time.perf_counter()
    defects = symplectic_defect(default_expansion(2, 5))
    assert all(k > 3 for k, _ in defects)
    assert time.perf_counter() - t0 < 5.0
    report("1 symplectic audit degrees 0-3", t0)


def test_criterion_2_psi_in_J3(exp, psi):
    t0 = time.perf_counter()
    (t2,) = twist_sum(exp, psi, 4)
    assert t2.is_zero()
    assert time.perf_counter() - t0 < 30.0
    report("2 tau2(psi) == 0", t0)


def test_criterion_3_tau3_golden_match(tau3_psi):
    t0 = time.perf_counter()
    full = eta(P.expected_tau3(), N)
    compact = eta(P.expected_tau3_compact(), N)
    assert tau3_psi == full
    assert tau3_psi == compact
    assert full == compact
    report("3 tau3(psi) three-way equality", t0)


def test_criterion_4_bracket_decomposition(tau3_psi):
    t0 = time.perf_counter()
    assert P.bracket_decomposition_value() == tau3_psi
    report("4 bracket decomposition", t0)


def test_criterion_5_odot_identity():
    t0 = time.perf_counter()
    assert eta(P.identity_lhs(), N) == eta(P.identity_rhs(), N)
    report("5 three-tau2 odot identity", t0)


def test_criterion_6_lemma_identity():
    t0 = time.perf_counter()
    assert eta(P.lemma_tree(), N) == eta(P.lemma_odot_combination(), N)
    report("6 lemma odot decomposition", t0)


def test_criterion_7_casson_numbers(exp, psi):
    t0 = time.perf_counter()
    (t2,) = twist_sum(exp, psi, 4)
    report_ = twist_audit(psi, t2)
    assert report_.d_value == -24
    assert report_.d_prime_value == 0
    assert lambda_J3(t2, psi) == 1
    assert report_.n_genus1 == 10
    assert report_.n_genus2 == -3
    report("7 casson numbers", t0)


def test_criterion_8_per_twist_consistency(exp):
    t0 = time.perf_counter()
    for row, tw in zip(P.PSI, P.psi_twist_entries()):
        form = morita_tau2(spine_pairs(row))
        assert dbar_prime(form) == tw.genus * (2 * tw.genus + 1)
        assert eta(form, N) == L_k(exp, tw.barcode, 4)
    report("8 per-twist Morita consistency", t0)


def test_criterion_9_kappa_checks():
    t0 = time.perf_counter()
    rng = rng_for("accept-kappa")
    for _ in range(50):
        u = HVector(rng.randint(-2, 2) for _ in range(2 * G))
        v = HVector(rng.randint(-2, 2) for _ in range(2 * G))
        assert kappa(odot(u, v)) == {}
        a, b, c, d = (
            HVector(rng.randint(-2, 2) for _ in range(2 * G)) for _ in range(4)
        )
        ihx = tree_sum([(1, (a, b, c, d)), (-1, (a, c, b, d)), (-1, (a, d, c, b))])
        assert kappa(ihx) == {}
    assert kappa(P.identity_rhs()) == kappa(P.identity_lhs())  # kappa is linear
    report("9 kappa checks over Z3", t0)


# -- criterion 10: property suites ------------------------------------------


def test_criterion_10a_exp_log_inversion():
    t0 = time.perf_counter()
    rng = rng_for("accept-explog")
    for trunc in range(1, 7):
        for _ in range(10):
            terms = {}
            for _ in range(3):
                deg = rng.randint(1, min(2, trunc))
                w = tuple(rng.randint(1, 2 * G) for _ in range(deg))
                terms[w] = rng.randint(-3, 3)
            x = Tensor(G, trunc, terms)
            assert log_series(exp_series(x)) == x
    assert time.perf_counter() - t0 < 60.0
    report("10a exp/log inversion", t0)


def test_criterion_10b_cyclicize_orbit():
    t0 = time.perf_counter()
    rng = rng_for("accept-cyc")
    for _ in range(30):
        p = rng.randint(1, N)
        w = tuple(rng.randint(1, 2 * G) for _ in range(p))
        x = Tensor(G, N, {w: 1})
        assert cyclicize(cyclicize(x)) == combination(G, N, [(p, cyclicize(x))])
    assert time.perf_counter() - t0 < 60.0
    report("10b cyclicize orbit identity", t0)


def test_criterion_10c_bracket_jacobi():
    t0 = time.perf_counter()
    rng = rng_for("accept-jacobi")
    for _ in range(20):
        x, y, z = (
            Tensor(
                G,
                N,
                {
                    tuple(rng.randint(1, 2 * G) for _ in range(rng.randint(1, 2))): rng.randint(-2, 2)
                },
            )
            for _ in range(3)
        )
        total = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert total.is_zero()
    assert time.perf_counter() - t0 < 60.0
    report("10c bracket Jacobi", t0)


def test_criterion_10d_L_k_invariance_100_barcodes(exp):
    t0 = time.perf_counter()
    rng = rng_for("accept-conj")
    for _ in range(100):
        bc = random_null_homologous_barcode(rng, G)
        rot = rng.randrange(len(bc))
        rotated = bc[rot:] + bc[:rot]
        ref = L_k(exp, bc, 4)
        assert L_k(exp, rotated, 4) == ref
        assert L_k(exp, inverse_barcode(bc), 4) == ref
    assert time.perf_counter() - t0 < 60.0
    report("10d L_k conjugacy/inversion x100", t0)


def test_criterion_10e_free_reduction_invariance(exp):
    t0 = time.perf_counter()
    rng = rng_for("accept-reduce")
    for _ in range(50):
        bc = random_barcode(rng, G, max_len=8)
        assert theta(exp, bc) == theta(exp, free_reduce(bc))
    assert time.perf_counter() - t0 < 60.0
    report("10e free-reduction invariance", t0)


def test_criterion_10f_log_theta_primitive(exp):
    t0 = time.perf_counter()
    rng = rng_for("accept-primitive")
    for _ in range(30):
        bc = random_barcode(rng, G, max_len=5)
        assert dynkin_defect(log_theta(exp, bc)).is_zero()
    assert time.perf_counter() - t0 < 60.0
    report("10f dynkin defect of log theta", t0)


def test_criterion_10g_symplectic_annihilation(exp):
    t0 = time.perf_counter()
    target = Tensor(G, N)
    for i in (1, 2):
        target = target + bracket(Tensor(G, N, {(i,): 1}), Tensor(G, N, {(G + i,): 1}))
    for tw in P.psi_twist_entries():
        for k in (4, 5):
            assert apply_derivation(L_k(exp, tw.barcode, k), target).is_zero()
    assert time.perf_counter() - t0 < 60.0
    report("10g omega-tilde annihilation", t0)
