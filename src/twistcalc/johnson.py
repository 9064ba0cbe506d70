"""Johnson homomorphisms of twist products via the Kawazumi-Kuno maps.

L_k evaluates the degree-k part of (1/2) N(l(x)^2) on a null-homologous
barcode, reading l = log theta only through degree k-2 and pairing the
symmetric summands N(l_i l_{k-i}) = N(l_{k-i} l_i).  twist_sum folds a
signed twist list into sum c L_4 (tau_2) and sum c L_5 (tau_3 when tau_2
vanishes), reading both from one log theta per twist; as N is linear, it
sums the twists' products before N and cyclicizes once per degree.
A homogeneous tensor is itself a derivation, read as a Hom(H, .) map
through the duality x -> omega(x, -).
"""

from fractions import Fraction

from . import tensor as T
from .expansion import log_theta


class TwistEntry(T.Value):
    """A signed Dehn twist along a bounding simple closed curve."""

    __slots__ = ("coeff", "genus", "barcode")

    def __init__(self, coeff, genus, barcode):
        if coeff == 0:
            raise T.DomainError("twist exponent must be nonzero")
        if genus not in (1, 2):
            raise T.DomainError("twist genus must be 1 or 2")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "barcode", tuple(barcode))


def _check_degree(exp, k):
    if not 4 <= k <= exp.trunc:
        raise T.DomainError("L_k needs 4 <= k <= truncation degree")


def _log_parts(exp, bc, k):
    """The homogeneous parts l_0, ..., l_{k-2} of l = log(theta(bc)).

    theta and log are evaluated at degree k-2, the last one L_k reads; the
    parts are lifted to the output truncation exp.trunc.
    """
    _check_degree(exp, k)
    l = log_theta(exp, bc, k - 2)
    parts = [
        T._tensor(exp.g, exp.trunc, {w: c for w, c in l.num.items() if len(w) == i}, l.den)
        for i in range(k - 1)
    ]
    if not parts[1].is_zero():
        raise T.DomainError("barcode is not null-homologous")
    return parts


def _pairs(parts, k):
    """The paired Kawazumi-Kuno sum of L_k before N, from the parts of _log_parts.

    Reads parts[2..k-2] only, so parts taken for a higher degree serve too.
    """
    return T.combination(
        parts[0].g,
        parts[0].trunc,
        (
            (Fraction(1, 2) if 2 * i == k else 1, T.product(parts[i], parts[k - i]))
            for i in range(2, k // 2 + 1)
        ),
    )


def L_k(exp, bc, k):
    """Degree-k part of the Kawazumi-Kuno tensor for a null-homologous barcode.

    The degree-k part of (1/2) N(l^2) is (1/2) sum_{i=2}^{k-2} N(l_i l_{k-i}),
    where l_i is the degree-i part of l = log(theta(bc)); it reads l only
    through degree k-2, so theta and log are evaluated at that degree.  As
    N(xy) = N(yx) for homogeneous x, y, the summands i and k-i are paired:
    L_k = N(sum_{2 <= i < k-i} l_i l_{k-i} + [k even] (1/2) l_{k/2}^2).
    """
    return T.cyclicize(_pairs(_log_parts(exp, bc, k), k))


def twist_sum(exp, twists, k):
    """The signed sums [sum c L_4, ..., sum c L_k] over a twist list.

    Each twist's log theta is evaluated once, at degree k-2, and every L_j
    with j <= k is read from it.  N is linear, so each sum is
    N(sum c pairs_j), cyclicized once per degree j rather than once per
    twist.  The first sum is tau_2 of the product; the second, sum c L_5,
    is its tau_3 only when the first vanishes.
    """
    _check_degree(exp, k)
    logs = [(entry.coeff, _log_parts(exp, entry.barcode, k)) for entry in twists]
    return [
        T.cyclicize(T.combination(exp.g, exp.trunc, ((c, _pairs(p, j)) for c, p in logs)))
        for j in range(4, k + 1)
    ]


# -- derivations -------------------------------------------------------


def _leibniz(d, t, start):
    """d applied by the Leibniz rule to t's letters from ``start`` on.

    Returns raw int numerators over the denominator d.den * t.den, without
    the words that would grow past the truncation.  The homogeneous tensor d
    is a derivation through the duality x -> omega(x, -): its term u (x) r
    sends h to omega(u, h) r, nonzero only when h is the dual partner of the
    letter u.
    """
    T._check_compatible(d.g, d.trunc, t)
    degrees = {len(w) for w in d.num}
    if len(degrees) > 1:
        raise T.DomainError("derivation tensor must be homogeneous")
    grow = degrees.pop() - 2 if degrees else 0
    g = d.g
    images = {}
    for word, coeff in d.num.items():
        u = word[0]
        target, c = (u + g, coeff) if u <= g else (u - g, -coeff)
        images.setdefault(target, []).append((word[1:], c))
    num = {}
    for word, coeff in t.num.items():
        if len(word) + grow > t.trunc:
            continue
        for pos in range(start, len(word)):
            for iw, ic in images.get(word[pos], ()):
                w = word[:pos] + iw + word[pos + 1 :]
                num[w] = num.get(w, 0) + coeff * ic
    return num


def apply_derivation(d, t):
    """Extend the derivation d to tensors by the Leibniz rule."""
    return T._tensor(t.g, t.trunc, _leibniz(d, t, 0), d.den * t.den)


def derivation_bracket(d1, d2):
    """The commutator derivation d1 d2 - d2 d1 as a tensor.

    It is sum_{u r in d2} u (x) d1(r) - sum_{u r in d1} u (x) d2(r): each
    derivation applied to every letter of the other's terms but the first.
    """
    if sum(max(map(len, d.num), default=0) for d in (d1, d2)) - 2 > d1.trunc:
        raise T.DomainError("bracket degree exceeds the truncation degree")
    num = _leibniz(d1, d2, 1)
    for w, c in _leibniz(d2, d1, 1).items():
        num[w] = num.get(w, 0) - c
    return T._tensor(d1.g, d1.trunc, num, d1.den * d2.den)
