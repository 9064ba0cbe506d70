from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from conftest import (
    assert_canonical,
    custom_expansion,
    gens,
    random_barcode,
    random_null_homologous_barcode,
    rng_for,
)
from oracles import theta_at, truncate
from twistcalc.expansion import (
    SymplecticExpansion,
    default_expansion,
    log_theta,
    symplectic_defect,
    theta,
)
from twistcalc.psi_data import psi_twist_entries
from twistcalc.surface import (
    BarcodeError,
    barcode_letters,
    boundary_barcode,
    commutator_barcode,
    free_reduce,
)
from twistcalc.tensor import (
    DomainError,
    Tensor,
    _words,
    antipode,
    bracket,
    combination,
    dynkin_defect,
    exp_series,
    extract,
    product,
    render,
)

GOLDEN = Path(__file__).parent / "golden_defect_g2_N5.txt"


# -- default expansion log-values -----------------------------------------


def test_log_alpha_degree_two():
    exp = default_expansion(1, 5)
    a, b = gens(1, 5)
    expected = combination(1, 5, [(1, a[0]), (Fraction(-1, 2), bracket(a[0], b[0]))])
    assert truncate(exp.log_alpha[0], 2) == expected


def test_log_beta_degree_two():
    exp = default_expansion(1, 5)
    a, b = gens(1, 5)
    expected = combination(1, 5, [(1, b[0]), (Fraction(-1, 2), bracket(a[0], b[0]))])
    assert truncate(exp.log_beta[0], 2) == expected


def test_log_alpha2_lower_genus_term():
    exp = default_expansion(2, 5)
    a, b = gens(2, 5)
    half = Fraction(1, 2)
    expected = combination(
        2,
        5,
        [
            (1, a[1]),
            (-half, bracket(a[1], b[1])),
            (Fraction(1, 12), bracket(bracket(a[1], b[1]), b[1])),
            (-half, bracket(bracket(a[0], b[0]), a[1])),
        ],
    )
    assert exp.log_alpha[1] == expected


def test_log_values_are_lie_series():
    exp = default_expansion(2, 5)
    for t in exp.log_alpha + exp.log_beta:
        assert dynkin_defect(t).is_zero()


def test_expansion_rejects_log_value_that_is_not_lie():
    # a1 b1 lacks its reversed word; in a1 b1 + b1 a1 the reversed word has
    # the same sign, where even degree needs the opposite one.
    exp = default_expansion(1, 5)
    a, b = gens(1, 5)
    for extra in (product(a[0], b[0]), product(a[0], b[0]) + product(b[0], a[0])):
        with pytest.raises(DomainError, match=r"generator 2 \(b1\) fails antipode\(l\) = -l"):
            SymplecticExpansion(1, 5, exp.log_alpha, [exp.log_beta[0] + extra])


@pytest.mark.parametrize(
    "change, fault",
    [
        (lambda l, a, b: l + l, "has a degree-1 part other than its generator"),
        (lambda l, a, b: l + b, "has a degree-1 part other than its generator"),
        (lambda l, a, b: l - a, "has a degree-1 part other than its generator"),
        (lambda l, a, b: l + Tensor(1, 5, {(): 1}), "has a constant term"),
    ],
    ids=["doubled", "plus-b1", "without-a1", "constant-term"],
)
def test_expansion_rejects_log_value_that_is_not_its_generator_in_degree_one(change, fault):
    # theta_1 must be the homology class of the barcode: the null-homology
    # check of the L_k fold and the parser's homology check both read it.
    exp = default_expansion(1, 5)
    a, b = gens(1, 5)
    log_alpha = [change(exp.log_alpha[0], a[0], b[0])]
    with pytest.raises(DomainError, match=r"^log-value of generator 1 \(a1\) %s$" % fault):
        SymplecticExpansion(1, 5, log_alpha, exp.log_beta)


@pytest.mark.parametrize(
    "g, source, n_alpha, n_beta, message",
    [
        (2, (2, 3), 2, 2, r"generator 1 \(a1\) has genus 2 and truncation 3$"),
        (2, (3, 5), 2, 2, r"generator 1 \(a1\) has genus 3 and truncation 5$"),
        (2, (2, 5), 1, 1, r"^expected 2 alpha and 2 beta log-values$"),
        (2, (3, 5), 3, 3, r"^expected 2 alpha and 2 beta log-values$"),
        (True, (1, 5), 1, 1, r"^genus True is not an int$"),
    ],
    ids=[
        "short-truncation",
        "other-genus",
        "one-handle-at-genus-2",
        "three-handles-at-genus-2",
        "bool-genus",
    ],
)
def test_expansion_rejects_log_values_that_do_not_fit(g, source, n_alpha, n_beta, message):
    exp = default_expansion(*source)
    with pytest.raises(DomainError, match=message):
        SymplecticExpansion(g, 5, exp.log_alpha[:n_alpha], exp.log_beta[:n_beta])


def test_expansion_rejects_log_values_that_are_not_tensors():
    # An int once died with a bare AttributeError on its missing genus.
    with pytest.raises(DomainError, match=r"^log-value of generator 1 \(a1\) is not a Tensor$"):
        SymplecticExpansion(2, 5, [1, 2], [3, 4])
    exp = default_expansion(2, 5)
    log_beta = [exp.log_beta[0], exp.log_beta[1].terms]
    with pytest.raises(DomainError, match=r"^log-value of generator 4 \(b2\) is not a Tensor$"):
        SymplecticExpansion(2, 5, exp.log_alpha, log_beta)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_inverse_letter_values_are_inverse(g):
    exp = default_expansion(g, 5)
    for degree in range(1, 6):
        for k in range(1, 2 * g + 1):
            pair = theta_at(exp, (k,), degree), theta_at(exp, (-k,), degree)
            assert product(*pair) == Tensor(g, degree, {(): 1})


def test_antipode_of_exp_is_exp_of_negative_on_lie_series():
    rng = rng_for("antipode-lie")
    g, trunc = 2, 5
    a, b = gens(g, trunc)
    letters = a + b
    for _ in range(10):
        pairs = []
        for _ in range(4):
            x = rng.choice(letters)
            for _ in range(rng.randint(0, 3)):
                y = rng.choice(letters)
                x = bracket(x, y) if rng.random() < 0.5 else bracket(y, x)
            pairs.append((rng.choice([Fraction(1, 2), -1, 3, Fraction(-2, 3)]), x))
        l = combination(g, trunc, pairs)
        assert antipode(l) == -l
        assert antipode(exp_series(l)) == exp_series(-l)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_log_values_match_the_pinned_formulas(g):
    trunc = 5
    exp = default_expansion(g, trunc)
    a, b = gens(g, trunc)
    half, twelfth, quarter = Fraction(1, 2), Fraction(1, 12), Fraction(1, 4)
    lower = Tensor(g, trunc)
    for i in range(g):
        ab = bracket(a[i], b[i])
        alpha = combination(
            g,
            trunc,
            [(1, a[i]), (-half, ab), (twelfth, bracket(ab, b[i])), (-half, bracket(lower, a[i]))],
        )
        beta = combination(
            g,
            trunc,
            [
                (1, b[i]),
                (-half, ab),
                (quarter, bracket(ab, b[i])),
                (twelfth, bracket(a[i], ab)),
                (half, bracket(b[i], lower)),
            ],
        )
        assert (exp.log_alpha[i], exp.log_beta[i]) == (alpha, beta)
        lower = lower + ab


@pytest.mark.parametrize("make", [default_expansion, custom_expansion])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_letter_table_matches_per_letter_values(make, g):
    # A read of theta at degree n builds the table through n: each letter's
    # value is exp_series of its log-value lowered to n and each inverse
    # letter's the antipode of that, as tensors; the table holds them scaled
    # by m^|w|, m their common denominator at n, split by degree and keyed by
    # each word's base-2g code (spelled here through _words), in the order of
    # the value's terms.  Degree 1 is the letter's one word, as theta's
    # degree-1 step takes it.  Reading n = 1..trunc in turn on one expansion
    # rebuilds the table at every degree.
    trunc = 5
    exp = make(g, trunc)
    for n in range(1, trunc + 1):
        theta_at(exp, (1,), n)
        full = {}
        for idx, l in enumerate(exp.log_alpha + exp.log_beta, start=1):
            full[idx, 1] = exp_series(Tensor(g, n, dict(l.terms)))
            full[idx, -1] = antipode(full[idx, 1])
        m = lcm(*(t.den for t in full.values()))
        assert exp._m == m
        assert sorted(exp._table) == [k for k in range(-2 * g, 2 * g + 1) if k]
        for k in exp._table:
            (key,) = barcode_letters((k,), g)
            t = full[key]
            want = [
                [(w, c * m**d // t.den) for w, c in t.num.items() if len(w) == d]
                for d in range(n + 1)
            ]
            got = [
                [(_words(2 * g, d)[code], c) for code, c in part]
                for d, part in enumerate(exp._table[k])
            ]
            assert got == want
            assert want[1] == [((key[0],), key[1] * m)]


@pytest.mark.parametrize("g", [2, 3])
def test_theta_at_each_degree_is_independent_of_read_order(g):
    # The table is built through the degree of the first read and rebuilt
    # only for a higher one: read ascending, it is rebuilt at every degree;
    # read descending, every lower degree is taken from the degree-5 table,
    # whose m is that of degree 5.
    bcs = [e.barcode for e in psi_twist_entries()] + [boundary_barcode(g)]
    reference = default_expansion(g, 5)
    want = {bc: theta(reference, bc) for bc in bcs}
    for degrees in (range(2, 6), range(5, 1, -1)):
        exp = default_expansion(g, 5)
        for n in degrees:
            for bc in bcs:
                assert theta_at(exp, bc, n) == Tensor(g, n, dict(want[bc].terms))


def test_theta_reads_the_log_values_as_checked():
    # The table is built at the first theta, after the constructor's checks,
    # from the log-values it checked: rebinding or changing the public lists
    # first, here to values the constructor refuses (a constant term, a
    # doubled generator), changes no theta.  The constructor itself raises
    # each of its DomainErrors, as the tests above show, before any theta.
    g = 2
    reference = default_expansion(g, 5)
    exp = default_expansion(g, 5)
    _, b = gens(g, 5)
    exp.log_alpha = [l + Tensor(g, 5, {(): 1}) for l in exp.log_alpha]
    exp.log_beta[0] = exp.log_beta[0] + b[0]
    with pytest.raises(DomainError, match=r"generator 1 \(a1\) has a constant term$"):
        SymplecticExpansion(g, 5, exp.log_alpha, exp.log_beta)
    for bc in ((1,), (-3,), (1, 3, -1, -3), boundary_barcode(g)):
        for n in (2, 5):
            assert theta_at(exp, bc, n) == theta_at(reference, bc, n)


def test_expansion_rejects_bad_arguments():
    for g, trunc in ((0, 5), (2, 1), (2, 5.5), (2.0, 5), (True, 5)):
        with pytest.raises(DomainError):
            default_expansion(g, trunc)


# -- theta ------------------------------------------------------------------


def test_theta_of_empty_word(exp_g2):
    assert theta(exp_g2, ()) == Tensor(2, 5, {(): 1})


def test_theta_degree_one_part(exp_g2):
    t = theta(exp_g2, (1,))
    assert truncate(t, 1) == Tensor(2, 5, {(): 1, (1,): 1})


def test_theta_of_inverse_pair(exp_g2):
    assert theta(exp_g2, (1, -1)) == Tensor(2, 5, {(): 1})


def test_theta_monoid_morphism(exp_g2):
    rng = rng_for("monoid")
    for _ in range(20):
        u = random_barcode(rng, 2, max_len=4)
        v = random_barcode(rng, 2, max_len=4)
        assert theta(exp_g2, u + v) == product(theta(exp_g2, u), theta(exp_g2, v))


@pytest.mark.parametrize("bc", [(1, 0, -1), (1, 5, -5, -1)], ids=["zero", "five"])
def test_theta_checks_its_letters(exp_g2, bc):
    # The letter table has no entry 0 or 5 at genus 2; theta raises before it
    # would look one up, also where the letter cancels.
    with pytest.raises(BarcodeError):
        theta(exp_g2, bc)


def test_theta_free_reduce_invariance(exp_g2):
    rng = rng_for("theta-reduce")
    for _ in range(20):
        bc = random_barcode(rng, 2, max_len=8)
        assert theta(exp_g2, bc) == theta(exp_g2, free_reduce(bc))


def theta_test_barcodes(rng, g):
    """Seeded barcodes: empty, with inverse pairs, not bounding, and one of 40+ letters."""
    letters = [k for k in range(-2 * g, 2 * g + 1) if k]
    bcs = [(), (1, -1), random_null_homologous_barcode(rng, g)]
    for _ in range(6):
        bc = list(random_barcode(rng, g, max_len=6))
        k = rng.choice(letters)
        bc[rng.randint(0, len(bc)) : 0] = [k, -k]
        bcs.append(tuple(bc))
    bcs.append(tuple(rng.choice(letters) for _ in range(40 + rng.randint(0, 4))))
    return bcs


@pytest.mark.parametrize("make", [default_expansion, custom_expansion])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_integer_theta_matches_product_fold(make, g):
    # The reference letters come from exp_series of the log-values, lowered to
    # each degree by the checked constructor, and theta is checked against the
    # left fold of product over them.  g = 4 puts theta's word codes in base
    # 8, against 2, 4 and 6 below it; its reference fold still affords every
    # degree up to the cap, the truncation 5, in under 1 s per expansion.
    trunc = 5
    exp = make(g, trunc)
    rng = rng_for("integer-theta-%s-%d" % (make.__name__, g))
    full = {}
    for idx, l in enumerate(exp.log_alpha + exp.log_beta, start=1):
        full[idx, 1] = exp_series(l)
        full[idx, -1] = exp_series(-l)
    bcs = theta_test_barcodes(rng, g)
    for degree in range(1, trunc + 1):
        letters = {key: Tensor(g, degree, dict(t.terms)) for key, t in full.items()}
        for k in range(-2 * g, 2 * g + 1):
            if k:
                (key,) = barcode_letters((k,), g)
                assert theta_at(exp, (k,), degree) == letters[key]
        for bc in bcs:
            want = Tensor(g, degree, {(): 1})
            for key in barcode_letters(bc, g):
                want = product(want, letters[key])
            got = theta_at(exp, bc, degree)
            assert_canonical(got)
            assert got == want


# -- log_theta ---------------------------------------------------------------


def test_log_theta_of_generator(exp_g2):
    assert log_theta(exp_g2, (1,)) == exp_g2.log_alpha[0]


def test_log_theta_commutator_degree_two(exp_g2):
    # [alpha_1, beta_1^-1]: the degree-2 part is [u, v] with u=a1, v=-b1.
    a1 = Tensor(2, 5, {(1,): 1})
    b1 = Tensor(2, 5, {(3,): 1})
    l = log_theta(exp_g2, commutator_barcode([1], [-2]))
    assert extract(l, 2) == bracket(b1, a1)


def test_log_theta_is_primitive(exp_g2):
    rng = rng_for("primitive")
    for _ in range(15):
        bc = random_barcode(rng, 2, max_len=5)
        assert dynkin_defect(log_theta(exp_g2, bc)).is_zero()


def test_log_theta_null_homologous_starts_degree_two(exp_g2):
    rng = rng_for("nullh")
    for _ in range(10):
        bc = random_null_homologous_barcode(rng, 2)
        l = log_theta(exp_g2, bc)
        assert extract(l, 1).is_zero()


# -- symplectic defect ---------------------------------------------------------


@pytest.mark.parametrize("g", [1, 2, 3])
def test_defect_vanishes_through_degree_three(g):
    exp = default_expansion(g, 5)
    assert all(k > 3 for k, _ in symplectic_defect(exp))


def test_defect_golden_g2():
    defects = symplectic_defect(default_expansion(2, 5))
    assert [k for k, _ in defects] == [5]
    assert render(defects[0][1]) == GOLDEN.read_text().strip()
