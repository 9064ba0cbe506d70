"""Cross-check routes that only the tests take, no twistcalc command: the
symplectic form omega, Morita's twist formula with dbar_prime and psi's spine
pairs, the mod-3 map kappa, the low-degree part of a tensor, and theta at a
truncation below the expansion's."""

from fractions import Fraction
from itertools import chain, combinations

from twistcalc import tensor as T
from twistcalc.diagrams import tree_sum
from twistcalc.expansion import _theta
from twistcalc.psi_data import GENUS
from twistcalc.surface import barcode_homology, validate_barcode


def omega(u, v):
    """The symplectic form with omega(a_i, b_i) = 1 on the standard basis."""
    if len(u) != len(v):
        raise T.DomainError("omega requires vectors of equal length")
    if len(u) % 2 != 0:
        raise T.DomainError("omega requires even-length vectors")
    g = len(u) // 2
    uc, vc = u.coords, v.coords
    return sum(uc[i] * vc[g + i] - uc[g + i] * vc[i] for i in range(g))


def truncate(x, k):
    """All parts of degree <= k."""
    return T._tensor(x.g, x.trunc, {w: c for w, c in x.num.items() if len(w) <= k}, x.den)


def dbar_prime(d2):
    """The factored map on degree-2 diagram sums.

    dbar'(T(a,b,c,d)) = 4 w(a,b) w(c,d) - 2 w(a,d) w(b,c) + 2 w(a,c) w(b,d),
    so dbar'(a (.) b) = (1/2)(4 w(a,b)^2 + 2 w(a,b)^2) = 3 w(a,b)^2.
    """
    total = Fraction(0)
    for labels, coeff in d2.items.items():
        if len(labels) != 4:
            raise T.DomainError("dbar_prime is defined on degree-2 diagrams only")
        a, b, c, d = labels
        total += coeff * (
            4 * omega(a, b) * omega(c, d)
            - 2 * omega(a, d) * omega(b, c)
            + 2 * omega(a, c) * omega(b, d)
        )
    return total


def morita_tau2(pairs):
    """tau_2 of a twist along a BSCC with the given symplectic spine pairs.

    Equals sum_i u_i (.) v_i + sum_{i<j} T(u_i, v_i, u_j, v_j); requires
    omega(u_i, v_i) = 1 and all cross pairings zero.
    """
    pairs = [tuple(p) for p in pairs]
    for i, (u, v) in enumerate(pairs):
        if omega(u, v) != 1:
            raise T.DomainError("pair %d is not symplectically normalized" % i)
        for j in range(i):
            w, x = pairs[j]
            if any(omega(p, q) != 0 for p in (u, v) for q in (w, x)):
                raise T.DomainError("pairs %d and %d are not orthogonal" % (j, i))
    odots = ((Fraction(1, 2), (u, v, u, v)) for u, v in pairs)
    trees = ((1, p + q) for p, q in combinations(pairs, 2))
    return tree_sum(chain(odots, trees))


def spine_pairs(row):
    """Normalized homology pairs of the spine of a (name, exponent, spine) row
    of psi_data.PSI, for the Morita formula."""
    name, _, spine = row
    pairs = []
    for a_bc, b_bc in spine:
        u = barcode_homology(a_bc, GENUS)
        v = barcode_homology(b_bc, GENUS)
        w = omega(u, v)
        if w == -1:
            u, v = v, u
        elif w != 1:
            raise T.DomainError("spine pair of %s is not unimodular" % name)
        pairs.append((u, v))
    return pairs


def _det(m):
    """Integer determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _wedge4(vectors):
    """v1 ^ v2 ^ v3 ^ v4 over Z/3, keyed by sorted index 4-sets.

    The coefficient of a 4-set is the 4x4 minor of the label coordinates on
    those indices, mod 3; zero coefficients are left out.
    """
    out = {}
    for key in combinations(range(len(vectors[0])), 4):
        c = _det([[v.coords[i] for i in key] for v in vectors]) % 3
        if c:
            out[key] = c
    return out


def kappa(d):
    """The map to Lambda^4(H/3H): a tree goes to the wedge of its labels.

    Defined on degree-2 DiagramSums only; returns a dict keyed by sorted
    index 4-tuples with values in {1, 2} mod 3 (empty dict for zero).  A
    tree whose wedge vanishes, such as u (.) v = (1/2) T(u,v,u,v), is
    skipped before its coefficient is reduced mod 3, so it contributes 0
    whatever its coefficient.
    """
    out = {}
    for labels, coeff in d.items.items():
        if len(labels) != 4:
            raise T.DomainError("kappa is defined on degree-2 diagrams only")
        wedge = _wedge4(labels)
        if not wedge:
            continue
        if coeff.denominator % 3 == 0:
            raise T.DomainError("coefficient not reducible mod 3")
        c = (coeff.numerator * pow(coeff.denominator, -1, 3)) % 3
        if c == 0:
            continue
        for key, val in wedge.items():
            total = (out.get(key, 0) + c * val) % 3
            if total == 0:
                out.pop(key, None)
            else:
                out[key] = total
    return out


def theta_at(exp, bc, n):
    """theta of a barcode at truncation n, 1 <= n <= exp.trunc, through
    _theta, the evaluation that the L_k fold runs at degree k - 2."""
    return T._tensor(exp.g, n, *_theta(exp, validate_barcode(bc, exp.g), n))
