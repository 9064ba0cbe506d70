import random
import sys
from fractions import Fraction
from math import gcd

import pytest

sys.dont_write_bytecode = True  # before twistcalc is imported, so no .pyc lands under src/

from twistcalc.expansion import SymplecticExpansion, default_expansion
from twistcalc.surface import commutator_barcode
from twistcalc.tensor import Tensor, bracket, combination


@pytest.fixture(scope="session")
def exp_g2():
    return default_expansion(2, 5)


def random_barcode(rng, g, max_len=4):
    n = rng.randint(1, max_len)
    return tuple(rng.choice([k for k in range(-2 * g, 2 * g + 1) if k != 0]) for _ in range(n))


def random_null_homologous_barcode(rng, g, n_commutators=2):
    """A random product of commutators, hence null-homologous."""
    bc = ()
    for _ in range(rng.randint(1, n_commutators)):
        bc = bc + commutator_barcode(random_barcode(rng, g), random_barcode(rng, g))
    return bc


def rng_for(name):
    return random.Random(name)


def assert_canonical(t):
    assert t.den > 0
    assert 0 not in t.num.values()
    assert gcd(t.den, *t.num.values()) == 1


def gens(g, trunc):
    a = [Tensor(g, trunc, {(i,): 1}) for i in range(1, g + 1)]
    b = [Tensor(g, trunc, {(g + i,): 1}) for i in range(1, g + 1)]
    return a, b


def custom_expansion(g, trunc=5):
    """A Lie (not symplectic) expansion whose letter denominators bring 5 and 7 into m."""
    a, b = gens(g, trunc)
    log_alpha, log_beta = [], []
    for i in range(g):
        ab = bracket(a[i], b[i])
        alpha = [(1, a[i]), (Fraction(1, 7), ab), (Fraction(2, 5), bracket(ab, b[i]))]
        beta = [(1, b[i]), (Fraction(-3, 7), ab), (Fraction(1, 5), bracket(a[i], ab))]
        log_alpha.append(combination(g, trunc, alpha))
        log_beta.append(combination(g, trunc, beta))
    return SymplecticExpansion(g, trunc, log_alpha, log_beta)
