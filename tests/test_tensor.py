import re
from fractions import Fraction

from itertools import product as word_product
from math import factorial, gcd, lcm

import pytest

from conftest import assert_canonical, random_barcode, rng_for
from oracles import truncate
from twistcalc.expansion import default_expansion, log_theta, theta
from twistcalc.tensor import (
    DomainError,
    Tensor,
    _code,
    _codes,
    _log,
    _spell,
    _words,
    antipode,
    bracket,
    combination,
    cyclicize,
    dynkin_defect,
    exp_series,
    extract,
    generator_name,
    log_series,
    product,
    render,
)

G = 2
N = 5


def gen(idx, g=G, trunc=N):
    return Tensor(g, trunc, {(idx,): 1})


def words(terms, g=G, trunc=N):
    return Tensor(g, trunc, terms)


A1, A2, B1, B2 = 1, 2, 3, 4


# -- independent dense oracle (no truncation) ---------------------------


def dense_mul(x, y):
    """Naive concatenation product on raw term dicts, no truncation."""
    out = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            w = wx + wy
            out[w] = out.get(w, 0) + cx * cy
    return {w: c for w, c in out.items() if c != 0}


def as_dense(t):
    return dict(t.terms)


def from_dense(d, g=G, trunc=N):
    return Tensor(g, trunc, {w: c for w, c in d.items() if len(w) <= trunc})


def random_tensor(rng, g=G, trunc=N, max_deg=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        deg = rng.randint(0, max_deg)
        w = tuple(rng.randint(1, 2 * g) for _ in range(deg))
        terms[w] = terms.get(w, 0) + Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return Tensor(g, trunc, terms)


# -- equality ------------------------------------------------------------


def test_fields_cannot_be_set_or_deleted():
    x = words({(A1,): 1}, G, 3)
    for name in ("g", "trunc", "num", "den"):
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == words({(A1,): 1}, G, 3)


def test_terms_is_a_new_dict_of_fractions():
    coeffs = {(1,): Fraction(1, 2), (2, 3): Fraction(-2, 3)}
    t = words(coeffs)
    terms = t.terms
    assert type(terms) is dict
    assert terms == {w: Fraction(c, t.den) for w, c in t.num.items()} == coeffs
    terms[(1,)] = 5
    terms[(4,)] = 1
    del terms[(2, 3)]
    assert t == words(coeffs)
    assert t.terms == coeffs


def test_equality_compares_genus_and_truncation():
    x = words({(A1,): 1})
    assert x == words({(A1,): Fraction(2, 2)})
    assert x != words({(A1,): 1}, g=3)
    assert x != words({(A1,): 1}, trunc=4)
    assert Tensor(G, N) != Tensor(3, N)


def test_constructor_checks_the_indices_of_every_word():
    assert Tensor(G, 1, {(A1, B1): 1, (A1,): 0}).is_zero()
    for terms in ({(9, 9): 1}, {(9,): 1}, {(0,): 0}):
        with pytest.raises(DomainError, match="^generator index [09] out of range$"):
            Tensor(G, 1, terms)
    for terms in ({(1.0,): 1}, {(True, 2): 1}, {"ab": 1}):
        with pytest.raises(DomainError, match="^generator index .+ is not an int$"):
            Tensor(G, 1, terms)
    # The genus and the truncation are ints too, and no bools.
    shapes = ((True, N, "genus True"), (2.0, N, "genus 2.0"), (G, 5.5, "truncation degree 5.5"))
    for g, trunc, name in shapes:
        with pytest.raises(DomainError, match="^%s is not an int$" % re.escape(name)):
            Tensor(g, trunc, {(A1,): 1})
    # Coefficients are exact: a float, even 0.0, is refused; a string such
    # as "1/7" is read exactly.
    for c in (0.1, 0.5, 0.0):
        with pytest.raises(DomainError, match="^coefficient .+ is a float, not exact$"):
            Tensor(G, 1, {(A1,): c})
    assert Tensor(G, 1, {(A1,): "1/7"}).terms == {(A1,): Fraction(1, 7)}
    # A bool is not a number, as for an index, and whatever Fraction does
    # not read fails with the same DomainError.
    for c in (True, "x", "1/0", None, object()):
        with pytest.raises(DomainError, match="^coefficient .+ is not an exact number$"):
            Tensor(G, 1, {(A1,): c})


def test_combination_reads_coefficients_as_the_constructor_does():
    # An int or a Fraction is used as it is; any other coefficient goes
    # through the constructor's check, so a float or a bool raises its
    # DomainError, in any position, and a string such as "1/2" is read exactly.
    x = gen(A1)
    for c, message in ((0.5, "is a float, not exact"), (True, "is not an exact number"), (None, "is not an exact number")):
        for pairs in ([(c, x)], [(1, x), (c, x)]):
            with pytest.raises(DomainError, match="^coefficient %s %s$" % (re.escape(repr(c)), message)):
                combination(G, N, pairs)
    assert combination(G, N, [("1/2", x)]) == words({(A1,): Fraction(1, 2)})
    assert combination(G, N, [(Fraction(1, 2), x), (3, x)]) == words({(A1,): Fraction(7, 2)})


# -- product -------------------------------------------------------------


def test_product_single_words():
    assert product(gen(A1), gen(B1)) == words({(A1, B1): 1})


def test_star_is_neither_product_nor_scale():
    # product and combination are the one spelling of each.
    t, u = gen(A1), gen(B1)
    for make in (lambda: 2 * t, lambda: t * 2, lambda: t * u):
        with pytest.raises(TypeError):
            make()


def test_product_distributes():
    one = words({(): 1})
    lhs = product(one + gen(A1), one - gen(A1))
    assert lhs == one - words({(A1, A1): 1})


def test_product_truncates():
    x = words({(A1, B1): 1}, trunc=2)
    y = gen(A1, trunc=2)
    assert product(x, y).is_zero()


def test_product_trunc_mismatch():
    with pytest.raises(DomainError, match="^truncation degrees differ: 3 vs 4$"):
        product(gen(A1, trunc=3), gen(A1, trunc=4))


def test_product_matches_dense_oracle():
    rng = rng_for("product-oracle")
    for _ in range(50):
        x = random_tensor(rng, max_deg=N, nterms=8)
        y = random_tensor(rng, max_deg=N, nterms=8)
        expected = from_dense(dense_mul(as_dense(x), as_dense(y)))
        assert product(x, y) == expected


def test_product_associative_and_bilinear():
    rng = rng_for("assoc")
    for _ in range(30):
        x, y, z = (random_tensor(rng) for _ in range(3))
        assert product(product(x, y), z) == product(x, product(y, z))
        assert product(x + y, z) == product(x, z) + product(y, z)
        assert product(x, y + z) == product(x, y) + product(x, z)


# -- bracket -------------------------------------------------------------


def test_bracket_basic():
    assert bracket(gen(A1), gen(B1)) == words({(A1, B1): 1, (B1, A1): -1})


def test_bracket_alternating():
    x = words({(A1,): 2, (A2, B1): 1})
    assert bracket(x, x).is_zero()


def test_bracket_nested_frozen():
    # [a1,[a1,b1]] expanded by the dense oracle: a1a1b1 - 2 a1b1a1 + b1a1a1
    inner = dense_mul({(A1,): 1}, {(B1,): 1})
    inner = {w: c for w, c in {**inner, (B1, A1): -1}.items() if c}
    outer = dense_mul({(A1,): 1}, inner)
    for w, c in dense_mul(inner, {(A1,): 1}).items():
        outer[w] = outer.get(w, 0) - c
    expected = from_dense(outer)
    assert expected == words({(A1, A1, B1): 1, (A1, B1, A1): -2, (B1, A1, A1): 1})
    assert bracket(gen(A1), bracket(gen(A1), gen(B1))) == expected


def test_bracket_jacobi():
    rng = rng_for("jacobi")
    for _ in range(20):
        x, y, z = (random_tensor(rng, max_deg=1) for _ in range(3))
        total = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert total.is_zero()


# -- cyclicize -----------------------------------------------------------


def test_cyclicize_degree_one():
    assert cyclicize(gen(A1)) == gen(A1)


def test_cyclicize_two_rotations():
    assert cyclicize(words({(A1, B1): 1})) == words({(A1, B1): 1, (B1, A1): 1})


def test_cyclicize_orbit_identity():
    rng = rng_for("cyc")
    for _ in range(20):
        p = rng.randint(1, N)
        w = tuple(rng.randint(1, 2 * G) for _ in range(p))
        x = words({w: 1})
        assert cyclicize(cyclicize(x)) == combination(G, N, [(p, cyclicize(x))])


def test_cyclicize_commutes_with_extract():
    rng = rng_for("cyc-extract")
    for _ in range(10):
        x = random_tensor(rng, max_deg=4, nterms=5)
        x = x - extract(x, 0)
        for k in range(1, N + 1):
            assert cyclicize(extract(x, k)) == extract(cyclicize(x), k)


def test_cyclicize_rejects_constant():
    with pytest.raises(DomainError):
        cyclicize(words({(): 1}))


# -- extract / truncate ----------------------------------------------------


def test_extract_truncate():
    x = words({(): 1}) + gen(A1) + words({(A1, B1): 1})
    assert extract(x, 2) == words({(A1, B1): 1})
    assert truncate(x, 1) == words({(): 1, (A1,): 1})


# -- exp / log -------------------------------------------------------------


def test_exp_of_zero():
    assert exp_series(Tensor(G, N)) == words({(): 1})


def test_log_of_one():
    assert log_series(words({(): 1})) == Tensor(G, N)


def test_exp_series_definition():
    x = gen(A1, trunc=3)
    expected = Tensor(
        G,
        3,
        {
            (): 1,
            (A1,): 1,
            (A1, A1): Fraction(1, 2),
            (A1, A1, A1): Fraction(1, 6),
        },
    )
    assert exp_series(x) == expected


@pytest.mark.parametrize("trunc", range(1, 7))
def test_exp_log_mutually_inverse(trunc):
    rng = rng_for("explog-%d" % trunc)
    for _ in range(10):
        x = random_tensor(rng, trunc=trunc, max_deg=min(2, trunc))
        x = x - extract(x, 0)
        assert log_series(exp_series(x)) == x
        y = words({(): 1}, trunc=trunc) + x
        assert exp_series(log_series(y)) == y


def test_exp_log_preconditions():
    with pytest.raises(DomainError):
        exp_series(words({(): 1}))
    with pytest.raises(DomainError):
        log_series(gen(A1))


# -- dynkin defect ----------------------------------------------------------


def test_dynkin_defect_on_bracket():
    assert dynkin_defect(bracket(gen(A1), gen(B1))).is_zero()


def test_dynkin_defect_frozen():
    x = words({(A1, B1): 1})
    # beta(a1 b1) - 2 a1 b1 = [a1,b1] - 2 a1 b1 = -a1 b1 - b1 a1
    assert dynkin_defect(x) == words({(A1, B1): -1, (B1, A1): -1})


def test_dynkin_defect_degree_one():
    assert dynkin_defect(gen(A1)).is_zero()


def test_dynkin_defect_on_iterated_brackets():
    rng = rng_for("dynkin")
    gens = [gen(i) for i in range(1, 2 * G + 1)]
    for _ in range(20):
        x = rng.choice(gens)
        for _ in range(rng.randint(1, 3)):
            x = bracket(x, rng.choice(gens))
        y = bracket(rng.choice(gens), rng.choice(gens))
        assert dynkin_defect(x + y).is_zero()


def test_dynkin_defect_matches_bracket_chain():
    # Reference: beta(w) - n w with beta(w) the left-nested chain of brackets
    # [[...[x1,x2],...],xn], on random non-Lie tensors with words of degree 1..N.
    rng = rng_for("dynkin-chain")
    for _ in range(20):
        terms = {}
        for n in list(range(1, N + 1)) + [rng.randint(2, N) for _ in range(3)]:
            w = tuple(rng.randint(1, 2 * G) for _ in range(n))
            terms[w] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
        x = words(terms)
        pairs = []
        for word, coeff in x.terms.items():
            nested = gen(word[0])
            for idx in word[1:]:
                nested = bracket(nested, gen(idx))
            pairs.append((coeff, nested - words({word: len(word)})))
        expected = combination(G, N, pairs)
        assert not expected.is_zero()
        assert dynkin_defect(x) == expected


def test_dynkin_defect_rejects_constant():
    with pytest.raises(DomainError):
        dynkin_defect(words({(): 1}))


# -- differential test against a Fraction-dict reference --------------------
#
# The reference runs every operation on plain dicts of Fractions, with the
# product taken from dense_mul; it shares no code with the kernel's integer
# numerators over a common denominator.  Results are compared as rational
# term dicts, so the kernel's canonical form is checked separately.


def ref_clean(d, trunc):
    return {w: Fraction(c) for w, c in d.items() if c != 0 and len(w) <= trunc}


def ref_lin(x, y, s):
    out = dict(x)
    for w, c in y.items():
        out[w] = out.get(w, 0) + s * c
    return out


def ref_mul(x, y, trunc):
    return ref_clean(dense_mul(x, y), trunc)


def ref_series(x, trunc, coeff):
    """sum_{i >= 1} coeff(i) x^i, truncated."""
    out, power = {}, {(): Fraction(1)}
    for i in range(1, trunc + 1):
        power = ref_mul(power, x, trunc)
        out = ref_lin(out, power, coeff(i))
    return ref_clean(out, trunc)


def ref_cyclicize(x):
    out = {}
    for w, c in x.items():
        for i in range(len(w)):
            out = ref_lin(out, {w[i:] + w[:i]: c}, 1)
    return out


def ref_dynkin(x, trunc):
    out = {}
    for w, c in x.items():
        nested = {w[:1]: Fraction(1)}
        for idx in w[1:]:
            letter = {(idx,): 1}
            nested = ref_lin(ref_mul(nested, letter, trunc), ref_mul(letter, nested, trunc), -1)
        out = ref_lin(out, ref_lin({w: -len(w) * c}, nested, c), 1)
    return out


def random_terms(rng, g, trunc):
    """Fraction coefficients on words of every degree 0..trunc, and a few more."""
    terms = {}
    for deg in list(range(trunc + 1)) + [rng.randint(1, trunc) for _ in range(3)]:
        w = tuple(rng.randint(1, 2 * g) for _ in range(deg))
        num = rng.choice([-6, -3, -2, -1, 1, 2, 4, 9])
        terms[w] = Fraction(num, rng.choice([1, 2, 3, 4, 6, 12]))
    return terms


@pytest.mark.parametrize("trunc", range(1, N + 1))
@pytest.mark.parametrize("g", [1, 2, 3])
def test_kernel_matches_fraction_reference(g, trunc):
    rng = rng_for("kernel-%d-%d" % (g, trunc))
    for _ in range(4):
        xd, yd = random_terms(rng, g, trunc), random_terms(rng, g, trunc)
        x, y = Tensor(g, trunc, xd), Tensor(g, trunc, yd)
        x0d = {w: c for w, c in xd.items() if w}
        x0 = Tensor(g, trunc, x0d)
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        exp_ref = ref_series(x0d, trunc, lambda i: Fraction(1, factorial(i)))
        log_ref = ref_series(x0d, trunc, lambda i: Fraction((-1) ** (i + 1), i))
        cases = [
            (product(x, y), ref_mul(xd, yd, trunc)),
            (product(x0, y), ref_mul(x0d, yd, trunc)),
            (x + y, ref_lin(xd, yd, 1)),
            (x - y, ref_lin(xd, yd, -1)),
            (x - x, {}),
            (-x, {w: -c for w, c in xd.items()}),
            (combination(g, trunc, [(s, x)]), {w: s * c for w, c in xd.items()}),
            (cyclicize(x0), ref_cyclicize(x0d)),
            (exp_series(x0), ref_lin({(): 1}, exp_ref, 1)),
            (log_series(Tensor(g, trunc, {(): 1}) + x0), log_ref),
            (dynkin_defect(x0), ref_dynkin(x0d, trunc)),
            (antipode(x), {w[::-1]: (-1) ** len(w) * c for w, c in xd.items()}),
        ]
        # product applies the right factor's constant term as one copy of
        # the left factor: constant term exactly 1, absent, -1 and 3/2.  The
        # other coefficients are ints, so the stored numerator of the
        # constant term is 1, absent, -1 and 3.
        for c0 in (1, None, -1, Fraction(3, 2)):
            zd = {w: 12 * c for w, c in yd.items() if w}
            if c0 is not None:
                zd[()] = c0
            z = Tensor(g, trunc, zd)
            cases.append((product(x, z), ref_mul(xd, zd, trunc)))
            cases.append((product(x0, z), ref_mul(x0d, zd, trunc)))
        for k in range(trunc + 1):
            cases.append((extract(x, k), {w: c for w, c in xd.items() if len(w) == k}))
            cases.append((truncate(x, k), {w: c for w, c in xd.items() if len(w) <= k}))
        for n in range(5):
            # int, zero and negative coefficients; mixed denominators make
            # the common denominator grow from term to term.
            pairs = [
                (
                    rng.choice([0, -1, 3, Fraction(rng.randint(-4, 4), rng.randint(1, 6))]),
                    random_terms(rng, g, trunc),
                )
                for _ in range(n)
            ]
            want = {}
            for c, d in pairs:
                want = ref_lin(want, d, c)
            got = combination(g, trunc, ((c, Tensor(g, trunc, d)) for c, d in pairs))
            cases.append((got, want))
        for got, want in cases:
            assert_canonical(got)
            assert dict(got.terms) == ref_clean(want, trunc)
    assert combination(g, trunc, iter(())) == Tensor(g, trunc)
    for other, message in (
        (Tensor(g + 1, trunc), "tensors live over different genera"),
        (Tensor(g, trunc + 1), "truncation degrees differ: %d vs %d" % (trunc, trunc + 1)),
    ):
        with pytest.raises(DomainError, match="^%s$" % message):
            combination(g, trunc, [(1, Tensor(g, trunc, {(): 1})), (0, other)])


@pytest.mark.parametrize("trunc", range(1, N + 1))
@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("low", [2, 3])
def test_series_match_fraction_reference_above_degree_one(low, g, trunc):
    # The series' nesting depth is trunc // low and each level's truncation
    # falls by low, so inputs whose lowest degree exceeds 1 check both.
    rng = rng_for("series-%d-%d-%d" % (low, g, trunc))
    for _ in range(4):
        xd = {w: c for w, c in random_terms(rng, g, trunc).items() if len(w) >= low}
        if low <= trunc:
            xd[tuple(rng.randint(1, 2 * g) for _ in range(low))] = Fraction(rng.choice([-2, 1, 3]))
        x = Tensor(g, trunc, xd)
        exp_ref = ref_series(xd, trunc, lambda i: Fraction(1, factorial(i)))
        log_ref = ref_series(xd, trunc, lambda i: Fraction((-1) ** (i + 1), i))
        for got, want in (
            (exp_series(x), ref_lin({(): 1}, exp_ref, 1)),
            (log_series(Tensor(g, trunc, {(): 1}) + x), log_ref),
        ):
            assert_canonical(got)
            assert dict(got.terms) == ref_clean(want, trunc)


@pytest.mark.parametrize("top", [0, 1, 2])
def test_series_match_fraction_reference_at_each_nesting_depth(top):
    # Horner's rule runs top = n // m levels, m the lowest degree of x (n + 1
    # for x = 0): none, only the one read from x's bucket, and one more.
    rng = rng_for("series-depth-%d" % top)
    g = 2
    for n in range(1, N + 1):
        for m in range(1, n + 2):
            if n // m != top:
                continue
            xd = {w: c for w, c in random_terms(rng, g, n).items() if len(w) >= m}
            if m <= n:
                xd[tuple(rng.randint(1, 2 * g) for _ in range(m))] = Fraction(rng.choice([-2, 1, 3]))
            x = Tensor(g, n, xd)
            exp_ref = ref_series(xd, n, lambda i: Fraction(1, factorial(i)))
            log_ref = ref_series(xd, n, lambda i: Fraction((-1) ** (i + 1), i))
            for got, want in (
                (exp_series(x), ref_lin({(): 1}, exp_ref, 1)),
                (log_series(Tensor(g, n, {(): 1}) + x), log_ref),
            ):
                assert_canonical(got)
                assert dict(got.terms) == ref_clean(want, n)
            raw, _ = _log(x.num, x.den, n)
            assert 0 not in raw.values()


@pytest.mark.parametrize("top", [1, 2, 3, 4, 5])
def test_series_match_fraction_reference_when_levels_are_reduced(top):
    # Horner's rule divides a level by the gcd of its numerators and its
    # denominator once that denominator, den^depth, passes 2^30; with
    # random_terms' denominators (<= 12) it never gets there.  Here each
    # coefficient's denominator divides 7 * 11 * 13 * 17 * 19 = 323323, so
    # den^2 > 2^30 for most inputs, and at top = 5 theta of a letter at
    # degree 5 has den 720 and its log reaches 720^4.
    rng = rng_for("series-reduced-%d" % top)
    g = 2
    n = top if top in (3, 4) else 5
    m = min(m for m in range(1, n + 1) if n // m == top)
    dens = [1]
    for q in (7, 11, 13, 17, 19):
        dens += [d * q for d in dens]
    cases = []
    for _ in range(4):
        xd = {}
        for deg in list(range(m, n + 1)) + [rng.randint(m, n) for _ in range(3)]:
            w = tuple(rng.randint(1, 2 * g) for _ in range(deg))
            xd[w] = Fraction(rng.choice([-6, -3, -2, -1, 1, 2, 4, 9]), rng.choice(dens))
        cases.append((Tensor(g, n, xd), False))
    if top == 5:
        # log theta of a letter is its short log-value, so most raw sums
        # of its Horner levels cancel to zero.
        exp = default_expansion(g, n)
        cases += [(theta(exp, (k,)) - Tensor(g, n, {(): 1}), True) for k in (1, -2, 3, -4)]
    reduced = 0
    for x, cancels in cases:
        xd = dict(x.terms)
        exp_ref = ref_series(xd, n, lambda i: Fraction(1, factorial(i)))
        log_ref = ref_series(xd, n, lambda i: Fraction((-1) ** (i + 1), i))
        for got, want in (
            (exp_series(x), ref_lin({(): 1}, exp_ref, 1)),
            (log_series(Tensor(g, n, {(): 1}) + x), log_ref),
        ):
            assert_canonical(got)
            assert dict(got.terms) == ref_clean(want, n)
        raw, raw_den = _log(x.num, x.den, n)
        assert () not in raw
        assert cancels or 0 not in raw.values()
        reduced += raw_den < lcm(*range(1, n + 1)) * x.den**top
    # A level is only reduced below the top one, so never at top = 1.
    assert (reduced > 0) == (top > 1)


def test_dynkin_defect_matches_fraction_reference_on_dense_parts():
    # Every word of degree <= 4 at genus 2, so the words share their prefixes
    # and the brackets of different words merge; the second tensor is a Lie
    # series plus one word, so the nested brackets cancel almost everywhere.
    g, trunc = 2, 4
    rng = rng_for("dynkin-dense")
    dense = {
        w: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for n in range(1, trunc + 1)
        for w in word_product(range(1, 2 * g + 1), repeat=n)
    }
    gens = [gen(i, g, trunc) for i in range(1, 2 * g + 1)]
    lie = combination(
        g,
        trunc,
        [
            (rng.randint(-3, 3), bracket(bracket(bracket(u, v), w), z))
            for u, v, w, z in word_product(gens, repeat=4)
        ],
    )
    lie = lie + words({(A1, B1, A2, B2): 1}, g, trunc)
    for x in (Tensor(g, trunc, dense), lie):
        got = dynkin_defect(x)
        assert_canonical(got)
        assert dict(got.terms) == ref_clean(ref_dynkin(dict(x.terms), trunc), trunc)


@pytest.mark.parametrize("g", [1, 3])
def test_dynkin_defect_matches_fraction_reference_at_other_bases(g):
    # Base 2g = 2 and 6: the block transposes run on contiguous slices of the
    # suffixes where those are longer than the prefixes, and on strided
    # slices otherwise, so other bases than 4 change which steps take which.
    trunc = 5
    rng = rng_for("dynkin-base-%d" % g)

    def letters(k):
        return tuple(rng.randint(1, 2 * g) for _ in range(k))

    def check(x):
        got = dynkin_defect(x)
        assert_canonical(got)
        assert dict(got.terms) == ref_clean(ref_dynkin(dict(x.terms), trunc), trunc)
        return got

    for _ in range(4):
        # Words that share prefixes, on every degree 1..trunc.
        prefixes = [letters(rng.randint(1, 3)) for _ in range(3)]
        terms = {}
        for _ in range(12):
            w = rng.choice(prefixes) + letters(rng.randint(0, 2))
            terms[w] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
        assert not check(Tensor(g, trunc, terms)).is_zero()
    # Only degrees 2 and 5: the blocks of degrees 3 and 4 are absent.
    gapped = {letters(2): 3, letters(5): Fraction(-1, 2), letters(5): 1}
    assert not check(Tensor(g, trunc, gapped)).is_zero()


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("b", [2, 4, 6])
def test_word_codes_count_in_base_b_first_letter_most_significant(b, n):
    # The one word layout of the dense blocks: _words lists the words of
    # degree n by code, _codes inverts it and _code encodes one word alone.
    assert _code((2, 1), 4) == 4
    listed, codes = _words(b, n), _codes(b, n)
    assert listed == sorted(word_product(range(1, b + 1), repeat=n))
    assert len(codes) == b**n
    for i, w in enumerate(listed):
        assert codes[w] == i == _code(w, b)
        assert i == sum((a - 1) * b ** (n - 1 - k) for k, a in enumerate(w))
        # The one layout rule the other modules use: the code of a product.
        k = n // 2
        assert i == _code(w[:k], b) * b ** (n - k) + _code(w[k:], b)
    rng = rng_for("spell-%d-%d" % (b, n))
    block = [rng.choice([0, 0, -2, 1, 3]) for _ in range(b**n)]
    assert _spell(block, b, n) == {w: c for w, c in zip(listed, block) if c}
    assert _spell([0] * b**n, b, n) == {}


def test_dynkin_defect_of_log_theta_at_genus_three():
    g, trunc = 3, 5
    l = log_theta(default_expansion(g, trunc), (1, -4, 6))
    assert sum(len(w) == trunc for w in l.num) > 100
    assert dynkin_defect(l).is_zero()
    # One word more: the defect is linear and l is a Lie series, so the
    # reference defect is that of the word alone, a sparse input.
    w = {(2, 5, 5, 1, 6): Fraction(1, 3)}
    got = dynkin_defect(l + Tensor(g, trunc, w))
    assert_canonical(got)
    assert dict(got.terms) == ref_clean(ref_dynkin(w, trunc), trunc)
    assert not got.is_zero()


# -- canonical text ---------------------------------------------------------


def test_render_zero():
    assert render(Tensor(G, N)) == "0"


def test_render_sorted_and_signed():
    x = words({(B1, A1): -1, (A1,): Fraction(1, 2), (): 3})
    assert render(x) == "3/1 + 1/2 a1 - 1/1 b1*a1"


def test_render_uses_generator_names():
    x = words({(A1, A2, B1, B2): 1})
    assert render(x) == "1/1 a1*a2*b1*b2"


def render_reference(x):
    """render as written before it read a name table: one key lambda for the
    sort and one generator_name call per letter."""
    if not x.num:
        return "0"
    parts = []
    den = x.den
    for word in sorted(x.num, key=lambda w: (len(w), w)):
        coeff = x.num[word]
        d = gcd(coeff, den)
        mag = "%d/%d" % (abs(coeff) // d, den // d)
        body = "*".join(generator_name(x.g, i) for i in word)
        term = mag + (" " + body if body else "")
        if not parts:
            parts.append(term if coeff > 0 else "- " + term)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + term)
    return " ".join(parts)


@pytest.mark.parametrize("g", [1, 2, 5, 10])
def test_render_matches_reference(g):
    # Indices reach two digits at g = 5 and names (a10, b10) at g = 10; words
    # sort by their indices, not by their names.
    rng = rng_for("render-%d" % g)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(0, 30)):
            w = tuple(rng.randint(1, 2 * g) for _ in range(rng.randint(0, N)))
            terms[w] = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 7, 12]))
        x = Tensor(g, N, terms)
        assert render(x) == render_reference(x)
        assert render(-x) == render_reference(-x)
