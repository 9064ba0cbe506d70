import re

import pytest

from conftest import rng_for
from oracles import dbar_prime, morita_tau2, omega, spine_pairs
from twistcalc.casson import (
    d_core,
    d_prime,
    lambda_J3,
    twist_audit,
)
from twistcalc.diagrams import odot, tree, tree_sum
from twistcalc.johnson import TwistEntry, twist_sum
from twistcalc.psi_data import PSI, psi_twist_entries
from twistcalc.surface import HVector, commutator_barcode
from twistcalc.tensor import DomainError, render

G = 2
A1 = HVector.basis(G, 1)
A2 = HVector.basis(G, 2)
B1 = HVector.basis(G, 3)
B2 = HVector.basis(G, 4)

S1 = commutator_barcode([1], [-2])
GAMMA2 = commutator_barcode([3], [-4]) + commutator_barcode([1], [-2])

GENUS1 = TwistEntry(1, 1, S1)
GENUS2 = TwistEntry(1, 2, GAMMA2)


def tau2(exp, twists):
    (t2,) = twist_sum(exp, twists, 4)
    return t2


# -- d and d' -----------------------------------------------------------


def test_d_core_values():
    assert d_core([GENUS2]) == 8
    assert d_core([GENUS1]) == 0
    assert d_core(psi_twist_entries()) == -24


def test_d_prime_values():
    assert d_prime([GENUS1]) == 3
    assert d_prime([GENUS2]) == 10
    assert d_prime(psi_twist_entries()) == 0


def test_d_maps_additive():
    psi = psi_twist_entries()
    double = psi + psi
    assert d_core(double) == 2 * d_core(psi)
    assert d_prime(double) == 2 * d_prime(psi)


# -- dbar' ---------------------------------------------------------------


def test_dbar_prime_odot():
    assert dbar_prime(odot(A1, B1)) == 3
    # 3 omega(u, v)^2 with omega(u, v) = 2 omega(a1, b1) + omega(a2, b2) = 3.
    u, v = A1 + A2, 2 * B1 + B2 + A1
    assert omega(u, v) == 3
    assert dbar_prime(odot(u, v)) == 27


def test_dbar_prime_tree():
    assert dbar_prime(tree(A1, B1, A2, B2)) == 4


def test_dbar_prime_matches_genus_two_twist():
    assert dbar_prime(morita_tau2([(A1, B1), (A2, B2)])) == 10


def test_dbar_prime_wrong_degree():
    with pytest.raises(DomainError):
        dbar_prime(tree(A1, B1, A2))


def test_dbar_prime_kills_ihx():
    rng = rng_for("dbar-ihx")
    for _ in range(50):
        a, b, c, d = (
            HVector(rng.randint(-2, 2) for _ in range(2 * G)) for _ in range(4)
        )
        combo = tree_sum([(1, (a, b, c, d)), (-1, (a, c, b, d)), (-1, (a, d, c, b))])
        assert dbar_prime(combo) == 0


def test_dbar_prime_per_dataset_twist():
    for row, tw in zip(PSI, psi_twist_entries()):
        value = dbar_prime(morita_tau2(spine_pairs(row)))
        assert value == tw.genus * (2 * tw.genus + 1)


# -- lambda ----------------------------------------------------------------


def test_lambda_of_psi(exp_g2):
    psi = psi_twist_entries()
    assert lambda_J3(tau2(exp_g2, psi), psi) == 1


def test_lambda_of_empty_list(exp_g2):
    assert lambda_J3(tau2(exp_g2, []), []) == 0


def test_lambda_additive(exp_g2):
    psi = psi_twist_entries()
    assert lambda_J3(tau2(exp_g2, psi + psi), psi + psi) == 2


def test_lambda_requires_certificate(exp_g2):
    t2 = tau2(exp_g2, [GENUS1])
    assert not t2.is_zero()
    message = "^tau_2 of the twist list is nonzero: %s$" % re.escape(render(t2))
    with pytest.raises(DomainError, match=message):
        lambda_J3(t2, [GENUS1])


# -- twist audit -------------------------------------------------------------


def test_audit_of_psi(exp_g2):
    psi = psi_twist_entries()
    report = twist_audit(psi, tau2(exp_g2, psi))
    assert report.n_genus1 == 10
    assert report.n_genus2 == -3
    assert report.lambda_value == 1


def test_audit_single_twists(exp_g2):
    r1 = twist_audit([GENUS1], tau2(exp_g2, [GENUS1]))
    assert (r1.n_genus1, r1.n_genus2) == (1, 0)
    r2 = twist_audit([GENUS2], tau2(exp_g2, [GENUS2]))
    assert (r2.n_genus1, r2.n_genus2) == (0, 1)


def test_audit_matches_direct_counts(exp_g2):
    rng = rng_for("audit")
    for _ in range(20):
        entries = [
            TwistEntry(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]), S1)
            for _ in range(rng.randint(1, 6))
        ]
        report = twist_audit(entries, tau2(exp_g2, entries))
        n1 = sum(e.coeff for e in entries if e.genus == 1)
        n2 = sum(e.coeff for e in entries if e.genus == 2)
        assert report.n_genus1 == n1
        assert report.n_genus2 == n2


def test_audit_omits_lambda_without_certificate(exp_g2):
    report = twist_audit([GENUS1], tau2(exp_g2, [GENUS1]))
    assert report.lambda_value is None
    assert "lambda" not in report.render()


def test_report_render(exp_g2):
    psi = psi_twist_entries()
    report = twist_audit(psi, tau2(exp_g2, psi))
    assert report.render() == "d -24\nd_prime 0\nn_genus1 10\nn_genus2 -3\nlambda 1"
