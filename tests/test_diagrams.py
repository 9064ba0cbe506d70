from fractions import Fraction
from itertools import chain, combinations, permutations

import pytest

from conftest import rng_for
from oracles import kappa, morita_tau2
from twistcalc import psi_data
from twistcalc.diagrams import (
    DiagramSum,
    eta,
    odot,
    tree,
    tree_sum,
)
from twistcalc.surface import HVector
from twistcalc.tensor import DomainError, Tensor, bracket, combination, cyclicize, product

G = 2
N = 5
A1 = HVector.basis(G, 1)
A2 = HVector.basis(G, 2)
B1 = HVector.basis(G, 3)
B2 = HVector.basis(G, 4)


def random_hv(rng, lo=-2, hi=2):
    return HVector(rng.randint(lo, hi) for _ in range(2 * G))


def ihx_combination(a, b, c, d):
    return tree_sum([(1, (a, b, c, d)), (-1, (a, c, b, d)), (-1, (a, d, c, b))])


# -- eta ---------------------------------------------------------------


def test_eta_multilinear():
    rng = rng_for("multilinear")
    for _ in range(10):
        u, v, w, x, y = (random_hv(rng) for _ in range(5))
        lhs = eta(tree(u + v, w, x, y), N)
        rhs = eta(tree(u, w, x, y), N) + eta(tree(v, w, x, y), N)
        assert lhs == rhs
        lhs3 = eta(tree(u, v + w, x), N)
        rhs3 = eta(tree(u, v, x), N) + eta(tree(u, w, x), N)
        assert lhs3 == rhs3


def test_eta_antisymmetry_degree_one():
    # AS at the single trivalent vertex: swapping two adjacent subtrees negates.
    assert eta(tree(A1, B1, A2), N) == -eta(tree(A1, A2, B1), N)


def test_eta_antisymmetry_degree_two():
    assert eta(tree(A1, B1, A2, B2), N) == -eta(tree(B1, A1, A2, B2), N)
    assert eta(tree(A1, B1, A2, B2), N) == -eta(tree(A1, B1, B2, A2), N)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_antisymmetry_holds_through_eta_not_formally(degree):
    # Swapping the two leaves at an end vertex negates a tree in the diagram
    # space; DiagramSum == compares formal sums, so only eta sees it.
    rng = rng_for("as-eta-%d" % degree)
    for _ in range(10):
        labels = [random_hv(rng) for _ in range(degree + 2)]
        t = tree(*labels)
        for i in (0, degree):
            swapped = labels[:i] + [labels[i + 1], labels[i]] + labels[i + 2 :]
            assert eta(t, N) == -eta(tree(*swapped), N)
            assert t != tree_sum([(-1, swapped)])


def test_eta_ihx_vanishes():
    rng = rng_for("ihx")
    for _ in range(15):
        a, b, c, d = (random_hv(rng) for _ in range(4))
        assert eta(ihx_combination(a, b, c, d), N).is_zero()


def test_eta_degree_one_reading():
    # eta(T(x,y,z)) = x (x) [z,y] + y (x) [x,z] + z (x) [y,x]
    a1 = Tensor(G, N, {(1,): 1})
    b1 = Tensor(G, N, {(3,): 1})
    a2 = Tensor(G, N, {(2,): 1})
    expected = (
        product(a1, bracket(a2, b1))
        + product(b1, bracket(a1, a2))
        + product(a2, bracket(b1, a1))
    )
    assert eta(tree(A1, B1, A2), N) == expected


def test_eta_genus_inferred_from_labels():
    assert eta(tree(A1, A2, B1, B2), N).g == G
    with pytest.raises(DomainError):
        eta(DiagramSum(), N)


def test_eta_uses_the_given_genus():
    assert eta(tree(A1, A2, B1, B2), N, G) == eta(tree(A1, A2, B1, B2), N)
    assert eta(DiagramSum(), N, 3) == Tensor(3, N)


@pytest.mark.parametrize(
    "trunc, g, message",
    [
        (0, 2, "truncation degree must be >= 1"),
        (5, 0, "genus must be >= 1"),
        (5, -3, "genus must be >= 1"),
        (5.5, 2, "truncation degree 5.5 is not an int"),
        (5, True, "genus True is not an int"),
        (5, 2.0, "genus 2.0 is not an int"),
    ],
)
def test_eta_rejects_what_a_tensor_rejects(trunc, g, message):
    # The same shapes and messages as the checked Tensor constructor.
    with pytest.raises(DomainError, match="^%s$" % message):
        Tensor(g, trunc)
    with pytest.raises(DomainError, match="^%s$" % message):
        eta(DiagramSum(), trunc, g)


def test_eta_rejects_labels_of_another_genus():
    with pytest.raises(DomainError, match="^diagram labels have genus 2, not 3$"):
        eta(tree(A1, A2, B1, B2), N, 3)
    genus3 = [HVector.basis(3, i) for i in (1, 2, 4, 5)]
    with pytest.raises(DomainError, match="^diagram labels have genus 3, not 2$"):
        eta(tree(A1, A2, B1, B2) + tree(*genus3), N)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_eta_rejects_a_truncation_below_the_reading(degree):
    # A degree-d tree reads in degree d + 2; a lower truncation would drop
    # every word of its reading and return 0.
    d = tree(*(A1, B1, A2, B2, A1)[: degree + 2])
    assert not eta(d, degree + 2).is_zero()
    message = "a degree-%d tree needs truncation >= %d" % (degree, degree + 2)
    for trunc in range(1, degree + 2):
        with pytest.raises(DomainError, match=message):
            eta(d, trunc)
    if degree > 1:  # next to a degree-1 tree that fits
        with pytest.raises(DomainError, match=message):
            eta(tree(A1, B1, A2) + d, degree + 1)


def module_reading(labels, g):
    """The bracket reading of the module docstring, before N, from public products."""
    hv = [Tensor(g, N, {(i + 1,): c for i, c in enumerate(v.coords)}) for v in labels]
    if len(hv) == 2:
        ab = bracket(*hv)
        return combination(g, N, [(Fraction(1, 2), product(ab, ab))])
    if len(hv) == 3:
        a, b, c = hv
        return product(a, bracket(c, b))
    if len(hv) == 4:
        a, b, c, d = hv
        return product(bracket(a, b), bracket(c, d))
    a, b, c, d, e = hv
    return product(bracket(a, b), bracket(c, bracket(d, e)))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_eta_is_the_sum_of_cyclicized_readings(g):
    # eta cyclicizes the sum of the readings once; the reference cyclicizes
    # each node's reading and sums the rational coefficients node by node.
    rng = rng_for("eta-route-%d" % g)
    for _ in range(12):
        pairs, terms = [], {}
        for _ in range(rng.randint(1, 6)):
            labels = [
                HVector(rng.choice((-2, -1, 0, 0, 0, 1)) for _ in range(2 * g))
                for _ in range(rng.choice([2, 3, 4, 5]))
            ]
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            # u (.) v is (1/2) T(u, v, u, v)
            pairs.append((c / 2, labels * 2) if len(labels) == 2 else (c, labels))
            for w, v in cyclicize(module_reading(labels, g)).terms.items():
                terms[w] = terms.get(w, 0) + c * v
        assert eta(tree_sum(pairs), N, g) == Tensor(g, N, terms)


# -- one-pass sums ---------------------------------------------------------


def sum_of_diagram_sums(terms):
    """The route tree_sum replaces: one DiagramSum per term, added one by one."""
    return sum((DiagramSum({tuple(labels): c}) for c, labels in terms), DiagramSum())


@pytest.mark.parametrize(
    "build",
    [
        psi_data.expected_tau3,
        psi_data.expected_tau3_compact,
        psi_data.identity_lhs,
        psi_data.identity_rhs,
        psi_data.lemma_odot_combination,
    ],
)
def test_psi_sums_match_the_sum_of_diagram_sums(build, monkeypatch):
    seen = []

    def recording_tree_sum(terms):
        seen.append(list(terms))
        return tree_sum(seen[-1])

    monkeypatch.setattr(psi_data, "tree_sum", recording_tree_sum)
    got = build()
    (terms,) = seen
    assert got == sum_of_diagram_sums(terms)


def test_identity_lhs_and_lemma_odot_combination_match_their_odot_sums():
    # The sums of DiagramSums these two were written as before tree_sum.
    # The lemma's negative terms are moved to the right.
    tau2 = odot(A1, B1) + tree(A1, B1, A2, B2) + odot(A2, B2)
    assert psi_data.identity_lhs() == tau2 + tau2 + tau2
    lemma = psi_data.lemma_odot_combination() + odot(A1, B1 + A2) + odot(A1 + A2, B1)
    assert lemma == odot(A1, B1) + odot(A1 + A2, B1 + A2)


def test_morita_tau2_matches_the_sum_of_diagram_sums():
    g = 3
    a, b = ([HVector.basis(g, i + h) for i in range(1, g + 1)] for h in (0, g))
    pairs = [(a[0], b[0]), (a[1] + a[2], b[1]), (a[2], b[2] - b[1])]
    odots = (odot(u, v) for u, v in pairs)
    trees = (tree(*p, *q) for p, q in combinations(pairs, 2))
    assert morita_tau2(pairs) == sum(chain(odots, trees), DiagramSum())


def test_tree_sum_merges_repeated_trees_and_drops_cancelled_ones():
    # The DiagramSum constructor sums a repeated tree, not only tree_sum.
    labels = (A1, B1, A2)
    assert DiagramSum([(labels, 1), (labels, 2)]).items == {labels: 3}
    assert DiagramSum([(labels, 1), (labels, -1)]).items == {}
    rng = rng_for("tree-sum")
    for _ in range(20):
        pool = [tuple(random_hv(rng) for _ in range(rng.choice([3, 4, 5]))) for _ in range(4)]
        terms = [
            (rng.randint(-3, 3) * rng.choice((1, Fraction(1, rng.randint(2, 4)))), rng.choice(pool))
            for _ in range(10)
        ]
        cancelled = rng.choice(pool)
        terms.append((-sum(c for c, labels in terms if labels == cancelled), cancelled))
        got = tree_sum(terms)
        assert got == sum_of_diagram_sums(terms)
        assert cancelled not in got.items
        assert 0 not in got.items.values()
        assert all(type(c) is Fraction for c in got.items.values())


# -- odot ----------------------------------------------------------------


def test_odot_is_half_symmetric_tree():
    half = Fraction(1, 2)
    assert eta(odot(A1, B1), N) == combination(G, N, [(half, eta(tree(A1, B1, A1, B1), N))])
    for u, v in ((A1, B1), (A1 + B2, 2 * B1 - A2)):
        assert odot(u, v) == tree_sum([(half, (u, v, u, v))])
        assert odot(u, v) + odot(u, v) == tree(u, v, u, v)


def test_odot_rejects_odd_length_labels():
    # Labels of length 3 belong to no genus.  u (.) v is rejected at
    # construction; eta would otherwise read the third coordinate as
    # generator 3 of a genus-1 tensor.
    with pytest.raises(DomainError):
        odot(HVector((1, 0, 1)), HVector((0, 1, 0)))


def test_odot_symmetric():
    rng = rng_for("odotsym")
    for _ in range(10):
        u, v = random_hv(rng), random_hv(rng)
        assert eta(odot(u, v), N) == eta(odot(v, u), N)


def test_odot_bilinearity_defect_is_tree_sum():
    lhs = eta(odot(A1, B1 + A2), N) - eta(odot(A1, B1), N) - eta(odot(A1, A2), N)
    half = Fraction(1, 2)
    rhs = combination(
        G, N, [(half, eta(tree(A1, B1, A1, A2), N)), (half, eta(tree(A1, A2, A1, B1), N))]
    )
    assert lhs == rhs


# -- morita formula ---------------------------------------------------------


def test_morita_tau2_genus_one():
    assert morita_tau2([(A1, B1)]) == odot(A1, B1)


def test_morita_tau2_genus_two():
    expected = odot(A1, B1) + odot(A2, B2) + tree(A1, B1, A2, B2)
    assert morita_tau2([(A1, B1), (A2, B2)]) == expected


def test_morita_tau2_rejects_non_symplectic():
    with pytest.raises(DomainError):
        morita_tau2([(A1, A2)])
    with pytest.raises(DomainError):
        morita_tau2([(A1, B1), (A1 + A2, B2)])


# -- kappa -------------------------------------------------------------------


def test_kappa_kills_odot():
    assert kappa(odot(A1, B1)) == {}
    assert kappa(odot(A1 + B2, B1 - A2)) == {}
    # A coefficient with no inverse mod 3 is never reduced: the wedge is 0.
    assert kappa(tree_sum([(Fraction(1, 6), (A1, B1, A1, B1))])) == {}


def test_kappa_of_basis_tree():
    # a1 ^ b1 ^ a2 ^ b2 sorted to indices (0,1,2,3) picks up one transposition.
    assert kappa(tree(A1, B1, A2, B2)) == {(0, 1, 2, 3): 2}
    assert kappa(tree(A1, A2, B1, B2)) == {(0, 1, 2, 3): 1}


def test_kappa_kills_ihx_mod_three():
    rng = rng_for("kappa-ihx")
    for _ in range(50):
        a, b, c, d = (random_hv(rng) for _ in range(4))
        assert kappa(ihx_combination(a, b, c, d)) == {}


def test_kappa_linear_in_labels_mod_three():
    rng = rng_for("kappa-lin")
    for _ in range(20):
        u, v, w, x, y = (random_hv(rng) for _ in range(5))
        lhs = kappa(tree(u + v, w, x, y))
        rhs = kappa(tree(u, w, x, y) + tree(v, w, x, y))
        assert lhs == rhs


def leibniz_wedge4(labels, n):
    """v1 ^ v2 ^ v3 ^ v4 over the integers: 4-set -> sum over permutations."""
    out = {}
    for key in combinations(range(n), 4):
        total = 0
        for perm in permutations(range(4)):
            inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
            term = (-1) ** inversions
            for row, col in enumerate(perm):
                term *= labels[row].coords[key[col]]
            total += term
        out[key] = total
    return out


def test_kappa_matches_leibniz_sum():
    # Genus 3: 15 index 4-sets, so the keys and their order are exercised.
    g = 3
    rng = rng_for("kappa-leibniz")
    nonzero = 0
    for _ in range(40):
        pairs = []
        expected = {}
        for _ in range(rng.randint(1, 3)):
            labels = [HVector(rng.randint(-2, 2) for _ in range(2 * g)) for _ in range(4)]
            coeff = Fraction(rng.choice([-2, -1, 1, 2, 4]), rng.choice([1, 2, 4]))
            pairs.append((coeff, labels))
            c = coeff.numerator * pow(coeff.denominator, -1, 3)
            for key, val in leibniz_wedge4(labels, 2 * g).items():
                expected[key] = expected.get(key, 0) + c * val
        expected = {key: val % 3 for key, val in expected.items() if val % 3}
        nonzero += bool(expected)
        assert kappa(tree_sum(pairs)) == expected
    assert nonzero >= 30


def test_kappa_rejects_wrong_degree():
    with pytest.raises(DomainError):
        kappa(tree(A1, B1, A2))


def test_diagram_sum_cannot_be_set_or_deleted():
    d = tree(A1, B1, A2)
    with pytest.raises(AttributeError):
        d.items = {}
    with pytest.raises(AttributeError):
        del d.items
    assert d == tree(A1, B1, A2)


def test_diagram_sum_adds_only_diagram_sums():
    # Sums of trees with other coefficients are tree_sums.
    d = tree(A1, B1, A2)
    for other in (1, 0, Fraction(1, 2), "x"):
        with pytest.raises(TypeError):
            d + other
        with pytest.raises(TypeError):
            other * d
    for make in (lambda: d - d, lambda: -d):
        with pytest.raises(TypeError):
            make()
    with pytest.raises(TypeError):
        sum([d, d])  # no start: 0 + d
    expected = tree_sum([(2, (A1, B1, A2)), (1, (A1, B1, B2))])
    assert sum([d, tree(A1, B1, B2), d], DiagramSum()) == expected
    assert sum([], DiagramSum()) == DiagramSum()
