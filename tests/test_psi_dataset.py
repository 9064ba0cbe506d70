import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from twistcalc.expansion import log_theta
from twistcalc.johnson import L_k, twist_sum
from twistcalc.psi_data import PSI, psi_twist_entries
from twistcalc.tensor import extract

# The simpler alternative barcode for the t7 curve (same free-group element
# up to conjugation, so the same L_k values).
T7_ALTERNATIVE_BARCODE = (-3, 4, 1, -2, -1, -1, 4, 1, 1, 2, -1, -4, 3, -4)

EXPECTED_COEFFS = (-3, -1, -1, 2, 2, 1, -1, -1, 1, -1, 1, -1, -1, 1, 7, 2)


def test_entry_count():
    assert len(PSI) == len(psi_twist_entries()) == 16


def test_coefficients():
    assert tuple(t.coeff for t in psi_twist_entries()) == EXPECTED_COEFFS


def test_genera():
    genera = [t.genus for t in psi_twist_entries()]
    assert genera[0] == 2
    assert all(h == 1 for h in genera[1:])


def test_signed_genus_counts():
    twists = psi_twist_entries()
    assert sum(t.coeff for t in twists if t.genus == 1) == 10
    assert sum(t.coeff for t in twists if t.genus == 2) == -3


# name: (coeff, genus, barcode) of every twist, in the published order.
GOLDEN = {
    "gamma2": (-3, 2, (3, -4, -3, 4, 1, -2, -1, 2)),
    "t1": (-1, 1, (-2, 1, 2, -1, -4, 1, -2, -1, 4, 1, -2, -1, 2, 2)),
    "t2": (-1, 1, (1, -4, 3, 4, -2, -1, 2, -4, -3, 4)),
    "t3": (2, 1, (1, -4, -3, 4, 1, -2, -1, 2, -2, -1, 2, -2, 1, 2, -1, -4, 3, 4)),
    "t4": (2, 1, (3, -1, -4, -3, 4, 1)),
    "t5": (1, 1, (1, -4, -3, -2, -1, 2, 3, 4)),
    "t6": (-1, 1, (3, -2, -1, -4, -3, 4, 1, 2)),
    "t7": (
        -1,
        1,
        (-3, 4, 1, -2, -1, 2, -2, -1, -4, 4, 4, 1, 2, -2, 1, 2, -1, -4, 3, -4),
    ),
    "t8": (1, 1, (3, 4, 1, -2, -1, -4, -3, 2)),
    "t9": (-1, 1, (1, -4, -2, -1, 2, 4)),
    "t10": (1, 1, (-4, -3, 4, 1, -2, -1, 2, -2, 4, 2, -2, 1, 2, -1, -4, 3, 4, -4)),
    "t11": (-1, 1, (-2, 1, 2, -1, -4, 3, 4, 1, -2, -1, -4, -3, 4, 1, -2, -1, 2, 2)),
    "t12": (
        -1,
        1,
        (
            1, -4, -3, 4, 1, -2, -1, 2, 4, 1, -2, 1, 2, -1, -4, 3, 4, -4, -3, 4,
            1, -2, -1, 2, -2, -4, -3, 4, 1, -2, -1, 2, -1, -4, -2, 1, 2, -1, -4, 3,
            4, -1, 2, -2, 1, 2, -1, -4, 3, 4,
        ),
    ),
    "t13": (
        1,
        1,
        (-4, -3, 4, 1, -2, -1, 2, -2, -1, 1, 2, 4, 1, 2, -2, 1, 2, -1, -4, 3, 4, -4, -2, -1),
    ),
    "s1": (7, 1, (1, -2, -1, 2)),
    "s2": (2, 1, (3, -4, -3, 4)),
}


def by_name():
    """{name: TwistEntry} of psi's twists."""
    return {row[0]: tw for row, tw in zip(PSI, psi_twist_entries())}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_twist_barcode(name):
    tw = by_name()[name]
    coeff, genus, barcode = GOLDEN[name]
    assert tw.barcode == barcode
    assert tw.coeff == coeff
    assert tw.genus == genus


def test_all_barcodes_null_homologous(exp_g2):
    for tw in psi_twist_entries():
        assert extract(log_theta(exp_g2, tw.barcode), 1).is_zero()


def test_t7_alternative_barcode_same_L_values(exp_g2):
    t7 = by_name()["t7"]
    for k in (4, 5):
        assert L_k(exp_g2, T7_ALTERNATIVE_BARCODE, k) == L_k(exp_g2, t7.barcode, k)


def test_twist_entries_match_dataset():
    # Row order is entry order; the genus is the number of spine pairs.
    assert list(GOLDEN) == [row[0] for row in PSI]
    for (name, coeff, spine), entry in zip(PSI, psi_twist_entries()):
        assert (entry.coeff, entry.genus) == (coeff, len(spine)) == GOLDEN[name][:2]


def _kernel(columns):
    """Rank and kernel basis of the matrix with the given columns, in exact arithmetic."""
    rows = sorted({w for col in columns for w in col})
    m = [[Fraction(col.get(w, 0)) for col in columns] for w in rows]
    pivots = []
    r = 0
    for c in range(len(columns)):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    kernel = []
    for free in (c for c in range(len(columns)) if c not in pivots):
        v = [Fraction(0)] * len(columns)
        v[free] = Fraction(1)
        for row, c in enumerate(pivots):
            v[c] = -m[row][free]
        kernel.append(v)
    return len(pivots), kernel


def test_coefficients_span_the_L4_kernel(exp_g2):
    # tau2(psi) = 0 determines psi's coefficient column: the per-twist L_4
    # tensors have a one-dimensional linear relation, the published one.
    twists = psi_twist_entries()
    columns = []
    for tw in twists:
        t = L_k(exp_g2, tw.barcode, 4)
        columns.append({w: Fraction(c, t.den) for w, c in t.num.items()})
    rank, kernel = _kernel(columns)
    assert len({w for col in columns for w in col}) == 204
    assert rank == 15
    (v,) = kernel
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    primitive = tuple(x // gcd(*ints) for x in ints)
    coeffs = tuple(tw.coeff for tw in twists)
    assert primitive in (coeffs, tuple(-x for x in coeffs))


def test_first_nonvanishing_tau_is_integral(exp_g2):
    # tau_3(psi), the first tau that does not vanish, each twist's L_4 and the
    # tau_2 of seeded sub-lists of psi all come out over den 1; a single
    # twist's L_5, over den 2, shows the check can fail.
    rng = random.Random("psi-integral")
    twists = psi_twist_entries()
    tau2, tau3 = twist_sum(exp_g2, twists, 5)
    assert tau2.is_zero()
    assert (len(tau3.num), tau3.den) == (340, 1)
    for tw in twists:
        assert L_k(exp_g2, tw.barcode, 4).den == 1
    for _ in range(8):
        part = rng.sample(twists, rng.randint(1, len(twists) - 1))
        (tau2,) = twist_sum(exp_g2, part, 4)
        assert not tau2.is_zero()
        assert tau2.den == 1
    assert L_k(exp_g2, by_name()["t1"].barcode, 5).den == 2
