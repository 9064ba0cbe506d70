from fractions import Fraction

import pytest

from conftest import (
    assert_canonical,
    custom_expansion,
    random_barcode,
    random_null_homologous_barcode,
    rng_for,
)
from oracles import morita_tau2, theta_at
from twistcalc.diagrams import eta, odot
from twistcalc.expansion import SymplecticExpansion, _theta, default_expansion, theta
from twistcalc.johnson import (
    L_k,
    TwistEntry,
    _dense_cyclic as dense_cyclic,
    _ell2,
    apply_derivation,
    derivation_bracket,
    twist_sum,
)
from twistcalc import expansion, johnson, surface
from twistcalc.surface import (
    BarcodeError,
    HVector,
    commutator_barcode,
    cyclic_reduce,
    inverse_barcode,
    validate_barcode,
)
from twistcalc.psi_data import psi_twist_entries
from twistcalc.tensor import (
    DomainError,
    Tensor,
    _log,
    bracket,
    combination,
    cyclicize,
    extract,
    log_series,
    product,
)

G = 2
N = 5
A1 = HVector.basis(G, 1)
A2 = HVector.basis(G, 2)
B1 = HVector.basis(G, 3)
B2 = HVector.basis(G, 4)

S1 = commutator_barcode([1], [-2])
GAMMA2 = commutator_barcode([3], [-4]) + commutator_barcode([1], [-2])


def words(terms, trunc=N):
    return Tensor(G, trunc, terms)


def omega_tilde(trunc=N):
    res = Tensor(G, trunc)
    for i in (1, 2):
        res = res + bracket(Tensor(G, trunc, {(i,): 1}), Tensor(G, trunc, {(G + i,): 1}))
    return res


# -- L_k ---------------------------------------------------------------


def test_L4_genus_one_is_odot(exp_g2):
    assert L_k(exp_g2, S1, 4) == eta(odot(A1, B1), 5)


def test_L4_genus_two_is_morita(exp_g2):
    assert L_k(exp_g2, GAMMA2, 4) == eta(morita_tau2([(A1, B1), (A2, B2)]), 5)


def test_L_k_conjugacy_and_inversion_invariance(exp_g2):
    rng = rng_for("conj")
    for _ in range(25):
        bc = random_null_homologous_barcode(rng, G)
        rot = rng.randrange(len(bc))
        rotated = bc[rot:] + bc[:rot]
        for k in (4, 5):
            ref = L_k(exp_g2, bc, k)
            assert L_k(exp_g2, rotated, k) == ref
            assert L_k(exp_g2, inverse_barcode(bc), k) == ref


@pytest.mark.parametrize("g", [2, 3])
def test_L_k_of_a_conjugate_is_L_k_of_its_cyclic_reduction(g):
    # twist_sum folds log theta of the cyclically reduced barcode; that is
    # exact because L_k of a null-homologous word is invariant under
    # conjugation, not only under the rotations above.
    exp = default_expansion(g, N)
    rng = rng_for("cyclic-reduce-L-%d" % g)
    for _ in range(8):
        x = random_barcode(rng, g, max_len=3)
        bc = x + random_null_homologous_barcode(rng, g) + inverse_barcode(x)
        reduced = cyclic_reduce(bc)
        assert len(reduced) < len(bc)
        for k in (4, 5):
            assert L_k(exp, bc, k) == L_k(exp, reduced, k)


def test_twist_sum_checks_the_letters_cyclic_reduction_cancels(exp_g2):
    # alpha_3 is no letter at genus 2, even where it cancels.
    with pytest.raises(BarcodeError, match="barcode entry 5 out of range for genus 2"):
        twist_sum(exp_g2, [TwistEntry(1, 1, (5,) + S1 + (-5,))], 4)


def test_twist_sum_checks_each_barcode_once(exp_g2, monkeypatch):
    # A letter outside the genus raises even where cyclic reduction cancels it.
    with pytest.raises(BarcodeError, match="barcode entry 9 out of range for genus 2"):
        twist_sum(exp_g2, [TwistEntry(1, 1, (1, 2, -1, -2, 9, -9))], 4)
    entries = psi_twist_entries()
    calls = []

    def counting_validate_barcode(bc, g=None):
        calls.append(bc)
        return validate_barcode(bc, g)

    for module in (surface, expansion, johnson):
        monkeypatch.setattr(module, "validate_barcode", counting_validate_barcode, raising=False)
    # Also with a cold alphabet and letter table: decoding the alphabet checks
    # no barcode.
    surface._alphabet.cache_clear()
    for k in (4, 5):
        calls.clear()
        twist_sum(default_expansion(G, N), entries, k)
        assert calls == [e.barcode for e in entries]


@pytest.mark.parametrize("bc", [(1, 2, 0, -1, -2), (1, 2, -1, -2, 9, -9)], ids=["zero", "nine"])
def test_L_k_checks_its_letters(exp_g2, bc):
    with pytest.raises(BarcodeError):
        L_k(exp_g2, bc, 4)


def test_fold_builds_letter_values_only_through_the_degree_it_reads():
    # L_4 reads l_2 off the letters, so casson's k = 4 expands no letter
    # value; L_5 reads theta through degree 3, so verify-psi's k = 5 expands
    # the letters through degree 3; no command that folds psi expands degrees
    # 4 and 5 of the letter values.
    exp = default_expansion(G, 5)
    assert exp._table == {}
    twist_sum(exp, psi_twist_entries(), 4)
    L_k(exp, S1, 4)
    assert exp._table == {}
    twist_sum(exp, psi_twist_entries(), 5)
    assert sorted(exp._table) == [i for i in range(-2 * G, 2 * G + 1) if i]
    assert {len(y) - 1 for y in exp._table.values()} == {3}


def test_twist_sum_reads_theta_of_cyclically_reduced_barcodes(exp_g2, monkeypatch):
    # psi's 16 barcodes have 224 letters; their cyclic reductions have 176.
    entries = psi_twist_entries()
    assert sum(len(e.barcode) for e in entries) == 224
    read = []

    def recording_theta(exp, bc, n):
        read.append(bc)
        return _theta(exp, bc, n)

    monkeypatch.setattr("twistcalc.johnson._theta", recording_theta)
    twist_sum(exp_g2, entries, 5)
    assert read == [cyclic_reduce(e.barcode) for e in entries]
    assert sum(map(len, read)) == 176


def test_L_4_reads_no_theta(monkeypatch):
    # L_4 reads l_2 off the letters of the cyclically reduced barcode: no
    # theta call, and a fresh expansion builds no letter table.
    read = []

    def recording_theta(exp, bc, n):
        read.append(bc)
        return _theta(exp, bc, n)

    monkeypatch.setattr("twistcalc.johnson._theta", recording_theta)
    exp = default_expansion(G, N)
    L_k(exp, GAMMA2, 4)
    twist_sum(exp, psi_twist_entries(), 4)
    assert read == []
    assert exp._table == {}


def theta_2(exp, bc):
    """theta - 1 of a barcode at truncation 2."""
    num, den = _theta(exp, bc, 2)
    del num[()]
    return Tensor(exp.g, 2, {w: Fraction(c, den) for w, c in num.items()})


def perturbed_expansion(g):
    """default_expansion(g, N) with (2/3) [a_1, b_2] added to every log-value."""
    exp = default_expansion(g, N)
    extra = bracket(Tensor(g, N, {(1,): Fraction(2, 3)}), Tensor(g, N, {(g + 2,): 1}))
    shift = [v + extra for v in exp.log_alpha + exp.log_beta]
    return SymplecticExpansion(g, N, shift[:g], shift[g:])


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_letters_l_2_is_theta_2_for_every_expansion(g):
    # On a null-homologous word l_2 = theta_2 = (1/2) sum_{i<j} [x_i, x_j]:
    # the letters' degree-2 log-values meet the homology class, which is 0.
    # So the perturbed expansion, whose letters differ in degree 2, has the
    # same theta_2 there, and the same L_4 from theta (k = 5) as off the
    # letters (k = 4).
    rng = rng_for("letters-l2-%d" % g)
    barcodes = [random_null_homologous_barcode(rng, g) for _ in range(6)]
    exps = [default_expansion(g, N)]
    if g >= 2:
        barcodes += [cyclic_reduce(e.barcode) for e in psi_twist_entries()]
        exps.append(perturbed_expansion(g))
    for bc in barcodes:
        num, den = _ell2(g, bc)
        got = Tensor(g, 2, {w: Fraction(c, den) for w, c in num.items()})
        assert extract(got, 1).is_zero()
        for exp in exps:
            assert got == theta_2(exp, bc)
    if g >= 2:
        psi = psi_twist_entries()
        default, perturbed = exps
        tau2 = twist_sum(default, psi, 4)
        assert twist_sum(perturbed, psi, 4) == tau2
        assert twist_sum(perturbed, psi, 5)[:1] == tau2
        # Negative control: theta_2 of a word off the Johnson kernel does see
        # the perturbation.
        for bc in ((1,), (1, 2, -1)):
            assert theta_2(perturbed, bc) != theta_2(default, bc)


def test_fold_takes_no_log_series_through_L_5(exp_g2, monkeypatch):
    # theta_1 = 0, so (theta - 1)^2 starts in degree 4 and log theta is
    # theta - 1 through degree k - 2 <= 3; only k >= 6 takes the series.
    exp6 = default_expansion(G, 6)
    calls = []

    def counting_log(num, den, n):
        calls.append(n)
        return _log(num, den, n)

    monkeypatch.setattr("twistcalc.tensor._log", counting_log)
    twist_sum(exp_g2, psi_twist_entries(), 5)
    L_k(exp_g2, S1, 4)
    assert calls == []
    twists = [TwistEntry(1, 1, S1), TwistEntry(-2, 2, GAMMA2), TwistEntry(3, 1, S1)]
    twist_sum(exp6, twists, 6)
    assert calls == [4, 4, 4]


def test_twist_sum_of_cancelling_twists(exp_g2):
    # A twist and its inverse cancel in every cross sum and square, which N
    # then leaves unturned: the sums are zero and canonical, and the pair adds
    # nothing to psi's.
    exp6 = default_expansion(G, 6)
    pair = [TwistEntry(-2, 2, GAMMA2), TwistEntry(2, 2, GAMMA2)]
    for exp, k in ((exp_g2, 4), (exp_g2, 5), (exp6, 6)):
        sums = twist_sum(exp, pair, k)
        assert sums == [Tensor(G, exp.trunc)] * (k - 3)
        for value in sums:
            assert_canonical(value)
    psi = psi_twist_entries()
    for k in (4, 5):
        got = twist_sum(exp_g2, psi[:8] + pair[:1] + psi[8:] + pair[1:], k)
        for value in got:
            assert_canonical(value)
        assert got == twist_sum(exp_g2, psi, k)


def full_degree_L_k(exp, bc):
    """{k: L_k} for 4 <= k <= exp.trunc by the formula
    (1/2) sum_{i=2}^{k-2} N(l_i l_{k-i}), with l = log theta(bc) at the full
    truncation degree: every square l_{k/2}^2 turns k times and is halved."""
    l = log_series(theta(exp, bc))
    res = {}
    half = Fraction(1, 2)
    for k in range(4, exp.trunc + 1):
        res[k] = combination(
            exp.g,
            exp.trunc,
            [(half, cyclicize(product(extract(l, i), extract(l, k - i)))) for i in range(2, k - 1)],
        )
    return res


@pytest.mark.parametrize("g, count", [(1, 8), (2, 6), (3, 3)])
def test_L_k_matches_full_degree_formula(g, count):
    exp = default_expansion(g, N)
    rng = rng_for("full-degree-%d" % g)
    barcodes = [random_null_homologous_barcode(rng, g) for _ in range(count)]
    if g == G:
        barcodes += [tw.barcode for tw in psi_twist_entries()]
    for bc in barcodes:
        full = theta(exp, bc)
        for d in range(1, N + 1):
            truncated = {w: c for w, c in full.terms.items() if len(w) <= d}
            assert theta_at(exp, bc, d) == Tensor(g, d, truncated)
        for k, expected in full_degree_L_k(exp, bc).items():
            got = L_k(exp, bc, k)
            assert_canonical(got)
            assert got == expected


@pytest.mark.parametrize(
    "make, g, trunc",
    [
        pytest.param(make, g, t, id=prefix + "%d-%d" % (g, t))
        for make, prefix, cases in [
            (default_expansion, "", [(1, 6), (1, 7), (2, 6), (2, 7), (3, 6)]),
            (custom_expansion, "custom-", [(1, 7), (2, 7), (3, 6)]),
        ]
        for g, t in cases
    ],
)
def test_L_k_and_twist_sum_match_full_degree_formula_to_degree_7(make, g, trunc):
    # Degrees 6 and 7 hold the squares l_3^2 and the pairs l_2 l_5, l_3 l_4.
    # custom_expansion brings the letter denominators 5 and 7 into m, which the
    # gcd reductions of theta - 1 over m^(k-2) and of its log must divide out.
    exp = make(g, trunc)
    rng = rng_for("full-degree-%d-%d" % (g, trunc))
    barcodes = [random_null_homologous_barcode(rng, g) for _ in range(3)]
    refs = {bc: full_degree_L_k(exp, bc) for bc in barcodes}
    for bc, ref in refs.items():
        for k, expected in ref.items():
            got = L_k(exp, bc, k)
            assert_canonical(got)
            assert got == expected
    coeffs = [-3, -2, -1, 1, 2, 5]
    for n in (2, 3):
        twists = [TwistEntry(rng.choice(coeffs), 1, bc) for bc in rng.sample(barcodes, n)]
        sums = twist_sum(exp, twists, trunc)
        assert len(sums) == trunc - 3
        for k, got in zip(range(4, trunc + 1), sums):
            assert_canonical(got)
            expected = combination(g, trunc, [(t.coeff, refs[t.barcode][k]) for t in twists])
            assert got == expected


def test_L_k_rejects_non_null_homologous(exp_g2):
    with pytest.raises(DomainError):
        L_k(exp_g2, (1,), 4)


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("bc", [(1,), (1, 2, -1)])
def test_L_k_and_twist_sum_reject_non_null_homologous(exp_g2, bc, k):
    # The fold reads the check from log theta's degree-1 part, which is theta's
    # for k = 5 and the letters' homology class for k = 4; in a twist list, a
    # bad last entry raises after good ones.
    message = "barcode is not null-homologous"
    with pytest.raises(DomainError, match=message):
        L_k(exp_g2, bc, k)
    for twists in ([TwistEntry(1, 1, bc)], psi_twist_entries() + [TwistEntry(1, 1, bc)]):
        with pytest.raises(DomainError, match=message):
            twist_sum(exp_g2, twists, k)


def test_L_k_rejects_bad_degree(exp_g2):
    for k in (6, 4.0, 4.5):
        with pytest.raises(DomainError, match="L_k needs 4 <= k <= truncation degree"):
            L_k(exp_g2, S1, k)


def test_L_k_concatenation_squares(exp_g2):
    # log theta of bc^n is n
    # times log theta of bc, so L_k of the concatenated word scales by n^2;
    # the exponent in a TwistEntry scales the contribution linearly instead.
    for n in (2, 3):
        repeated = S1 * n
        assert L_k(exp_g2, repeated, 4) == combination(G, N, [(n * n, L_k(exp_g2, S1, 4))])


def test_twist_exponent_is_linear(exp_g2):
    for n in (2, 3):
        expected = combination(G, N, [(n, L_k(exp_g2, S1, 4))])
        assert twist_sum(exp_g2, [TwistEntry(n, 1, S1)], 4) == [expected]


def test_tau2_of_empty_list(exp_g2):
    assert twist_sum(exp_g2, [], 4) == [Tensor(G, N)]
    assert twist_sum(exp_g2, [], 5) == [Tensor(G, N)] * 2


def test_twist_sum_rejects_bad_degree(exp_g2):
    # Also on an empty list, where no twist's log theta checks the degree;
    # test_tau2_of_empty_list covers k = 4 and 5.
    for twists in ([], [TwistEntry(1, 1, S1)]):
        for k in (3, 6, 4.0, 4.5):
            with pytest.raises(DomainError, match="L_k needs 4 <= k <= truncation degree"):
                twist_sum(exp_g2, twists, k)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_twist_sum_matches_per_twist_L_k(g):
    # The fold reads L_4 and L_5 from one log theta per twist; the reference
    # sums L_k twist by twist, each from its own log theta at degree k-2.
    exp = default_expansion(g, N)
    rng = rng_for("twist-sum-%d" % g)
    lists = [
        [
            TwistEntry(rng.choice([-3, -2, -1, 1, 2, 3]), 1, random_null_homologous_barcode(rng, g))
            for _ in range(rng.randint(1, 3))
        ]
        for _ in range(3)
    ]
    if g == G:
        lists.append(psi_twist_entries())
    for twists in lists:
        sums = twist_sum(exp, twists, 5)
        assert len(sums) == 2
        for k, value in zip((4, 5), sums):
            assert_canonical(value)
            expected = combination(g, N, [(t.coeff, L_k(exp, t.barcode, k)) for t in twists])
            assert value == expected
        assert twist_sum(exp, twists, 4) == sums[:1]
    assert twist_sum(exp, [], 5) == [Tensor(g, N)] * 2


def record_dense_degrees(monkeypatch):
    """The degrees j that the fold then sums on dense blocks, as they happen."""
    seen = []

    def recording(logs, den, j, b):
        seen.append(j)
        return dense_cyclic(logs, den, j, b)

    monkeypatch.setattr("twistcalc.johnson._dense_cyclic", recording)
    return seen


def dense_case_barcodes(g):
    """Seeded twist barcodes whose products together outnumber the (2g)^j
    words in some degree j, though one curve's products mostly do not."""
    rng = rng_for("dense-cyclic-%d" % g)
    if g == 3:
        return [random_null_homologous_barcode(rng, g) for _ in range(20)]
    length, count = {1: (2, 16), 2: (4, 8)}[g]
    return [
        commutator_barcode(random_barcode(rng, g, length), random_barcode(rng, g, length))
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "g, k, dense, single_dense",
    [(1, 7, [4, 5, 6, 7], {7}), (2, 5, [4, 5], set()), (2, 6, [6], set()), (3, 5, [4, 5], set())],
    ids=["g1-k7", "psi-k5", "g2-k6", "g3-k5"],
)
def test_dense_cyclic_sums_match_the_dict_path(monkeypatch, g, k, dense, single_dense):
    # The single curves stay on the dict path, so the per-twist L_k sum is a
    # reference from the other path, except at genus 1 in degree 7, where
    # even [b, a^-1] makes 132 products into 2^7 words; full_degree_L_k takes
    # neither path and is the reference in every degree.
    exp = default_expansion(g, k)
    rng = rng_for("dense-cyclic-coefficients-%d-%d" % (g, k))
    if (g, k) == (2, 5):
        twists = psi_twist_entries()
    else:
        coeffs = [-3, -2, -1, 1, 2, 3]
        twists = [TwistEntry(rng.choice(coeffs), 1, bc) for bc in dense_case_barcodes(g)]
    barcodes = {t.barcode for t in twists}
    seen = record_dense_degrees(monkeypatch)
    singles = {bc: {j: L_k(exp, bc, j) for j in range(4, k + 1)} for bc in barcodes}
    assert set(seen) == single_dense
    seen.clear()
    sums = twist_sum(exp, twists, k)
    assert seen == dense
    refs = {bc: full_degree_L_k(exp, bc) for bc in barcodes}
    for j, got in zip(range(4, k + 1), sums):
        assert_canonical(got)
        assert got == combination(g, k, [(t.coeff, singles[t.barcode][j]) for t in twists])
        assert got == combination(g, k, [(t.coeff, refs[t.barcode][j]) for t in twists])


def test_fold_takes_dense_blocks_only_when_products_outnumber_words(exp_g2, monkeypatch):
    # psi's L_4 square makes 444 products into 4^4 = 256 words and its L_5
    # cross sum 1,870 into 1,024; a sweep-style genus-3 L_4 makes at most 36
    # into 6^4 = 1,296 and stays on the dict path.
    seen = record_dense_degrees(monkeypatch)
    twist_sum(exp_g2, psi_twist_entries(), 5)
    assert seen == [4, 5]
    seen.clear()
    sweep = sum((commutator_barcode([u], [v]) for u, v in ((1, -4), (-3, 6), (5, 2))), ())
    L_k(default_expansion(3, N), sweep, 4)
    assert seen == []


# -- derivations ----------------------------------------------------------


def test_derivation_requires_homogeneous():
    t = words({(1, 3, 3): 1, (1, 3): 1})
    d = words({(1, 3, 3): 1})
    with pytest.raises(DomainError):
        apply_derivation(t, Tensor(G, N, {(1,): 1}))
    with pytest.raises(DomainError):
        derivation_bracket(t, d)
    with pytest.raises(DomainError):
        derivation_bracket(d, t)


def test_derivation_rejects_another_genus():
    with pytest.raises(DomainError, match="^tensors live over different genera$"):
        apply_derivation(words({(1, 3, 3): 1}), Tensor(3, N, {(1,): 1}))


def test_derivation_pairing_convention():
    d = words({(1, 3, 3): 1})  # a1 (x) b1 b1
    assert apply_derivation(d, Tensor(G, N, {(3,): 1})) == words({(3, 3): 1})
    assert apply_derivation(d, Tensor(G, N, {(1,): 1})).is_zero()


def test_derivation_drops_words_past_the_truncation():
    d = words({(1, 3, 3): 1})  # a1 (x) b1 b1 sends b1 to b1 b1
    assert apply_derivation(d, words({(3,) * 4: 1})) == words({(3,) * 5: 4})
    assert apply_derivation(d, words({(3,) * 5: 1})).is_zero()


def test_derivation_of_zero():
    d = Tensor(G, N)
    assert apply_derivation(d, Tensor(G, N, {(1,): 1})).is_zero()


def test_derivation_kills_constants():
    d = words({(1, 3, 3): 1})
    assert apply_derivation(d, words({(): 1})).is_zero()


def test_derivation_leibniz():
    rng = rng_for("leibniz")
    gens = [Tensor(G, N, {(i,): 1}) for i in range(1, 2 * G + 1)]
    for _ in range(20):
        d = words({(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)): Fraction(rng.randint(-3, 3))})
        x = rng.choice(gens) + rng.choice(gens)
        y = product(rng.choice(gens), rng.choice(gens))
        lhs = apply_derivation(d, product(x, y))
        assert lhs == product(apply_derivation(d, x), y) + product(x, apply_derivation(d, y))


def test_derivation_bracket_self_is_zero():
    rng = rng_for("selfbr")
    t = words({(1, 3, 4): 2, (2, 1, 3): -1})
    assert derivation_bracket(t, t).is_zero()


def test_derivation_bracket_antisymmetry_and_jacobi():
    rng = rng_for("brjacobi")

    def rand_d():
        terms = {}
        for _ in range(3):
            w = tuple(rng.randint(1, 4) for _ in range(3))
            terms[w] = terms.get(w, 0) + rng.randint(-2, 2)
        return words(terms)

    for _ in range(10):
        d1, d2, d3 = rand_d(), rand_d(), rand_d()
        assert derivation_bracket(d1, d2) == -derivation_bracket(d2, d1)
        jac = (
            derivation_bracket(d1, derivation_bracket(d2, d3))
            + derivation_bracket(d2, derivation_bracket(d3, d1))
            + derivation_bracket(d3, derivation_bracket(d1, d2))
        )
        assert jac.is_zero()


def test_derivation_bracket_is_the_commutator():
    # As a derivation, [d1, d2] acts on every tensor as d1 d2 - d2 d1.
    rng = rng_for("brcommutator")

    def rand_words(degree, count):
        terms = {}
        for _ in range(count):
            w = tuple(rng.randint(1, 2 * G) for _ in range(degree))
            terms[w] = terms.get(w, 0) + rng.randint(-2, 2)
        return words(terms)

    for n1, n2 in ((3, 3), (3, 4)):
        d1, d2 = rand_words(n1, 4), rand_words(n2, 4)
        br = derivation_bracket(d1, d2)
        for _ in range(5):
            x = rand_words(rng.randint(1, 2), 3)
            lhs = apply_derivation(br, x)
            rhs = apply_derivation(d1, apply_derivation(d2, x)) - apply_derivation(
                d2, apply_derivation(d1, x)
            )
            assert lhs == rhs


def test_derivation_bracket_degree_overflow(exp_g2):
    d2 = L_k(exp_g2, S1, 4)
    with pytest.raises(DomainError):
        derivation_bracket(d2, d2)


def test_L_derivations_annihilate_omega_tilde(exp_g2):
    target = omega_tilde()
    for tw in psi_twist_entries():
        for k in (4, 5):
            assert apply_derivation(L_k(exp_g2, tw.barcode, k), target).is_zero()
