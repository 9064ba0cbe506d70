import random
import sys
from math import gcd

import pytest

sys.dont_write_bytecode = True  # before twistcalc is imported, so no .pyc lands under src/

from twistcalc import default_expansion
from twistcalc.surface import commutator_barcode


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
