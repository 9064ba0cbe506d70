"""Johnson homomorphisms of twist products via the Kawazumi-Kuno maps.

L_k is the degree-k part of (1/2) N(l^2), l = log theta of a null-homologous
barcode; twist_sum gives sum c L_4 (tau_2) and sum c L_5 (tau_3 when tau_2
vanishes) of a signed twist list from one log theta per twist.  Both are one
int fold that sums the twists' products before N and turns the middle
square l_{k/2}^2 only k/2 times (on dense blocks when a degree's products
outnumber its words); L_4 and L_5 take no series, as
log theta = theta - 1 below degree 4.
A homogeneous tensor is itself a derivation, read as a Hom(H, .) map
through the duality x -> omega(x, -).
"""

from math import gcd, lcm
from operator import add

from . import tensor as T
from .expansion import _theta
from .surface import cyclic_reduce, validate_barcode


class TwistEntry(T.Value):
    """A signed Dehn twist along a bounding simple closed curve: a nonzero int
    exponent, an int genus in {1, 2} (neither a bool), a checked barcode."""

    __slots__ = ("coeff", "genus", "barcode")

    def __init__(self, coeff, genus, barcode):
        if type(coeff) is not int:
            raise T.DomainError("twist exponent must be an int")
        if coeff == 0:
            raise T.DomainError("twist exponent must be nonzero")
        if type(genus) is not int or genus not in (1, 2):
            raise T.DomainError("twist genus must be 1 or 2")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "barcode", validate_barcode(barcode))


def _fold(exp, twists, k):
    """[sum c L_j for j = 4..k] over (int c, checked barcode) pairs, as in L_k:
    l = log theta on ints (theta - 1 for k <= 5), reduced by one gcd and
    bucketed by degree; each degree is summed in int dicts over one den, and
    N turns its nonzero entries, unless its products outnumber its (2g)^j
    words (_dense_cyclic).  As l_1 = theta_1, the barcode is
    null-homologous exactly when l has no degree-1 word.
    """
    if type(k) is not int or not 4 <= k <= exp.trunc:
        raise T.DomainError("L_k needs 4 <= k <= truncation degree")
    n = k - 2
    logs = []
    for c, bc in twists:
        l, den = _theta(exp, bc, n)
        del l[()]
        if n > 3:
            l, den = T._log(l, den, n)
        q = gcd(den, *l.values())
        parts = [[] for _ in range(n + 1)]
        for w, v in l.items():
            if v:
                parts[len(w)].append((w, v // q))
        if parts[1]:
            raise T.DomainError("barcode is not null-homologous")
        logs.append((c, (den // q) ** 2, parts))
    den = lcm(*(d for _, d, _ in logs))
    base = 2 * exp.g
    sums = []
    for j in range(4, k + 1):
        count = 0
        for _, _, p in logs:
            for i in range(2, j // 2 + 1):
                count += len(p[i]) * len(p[j - i])
        if count > base**j:
            sums.append(T._tensor(exp.g, exp.trunc, _dense_cyclic(logs, den, j, base), den))
            continue
        cross, square = {}, {}
        for c, d, parts in logs:
            f = c * (den // d)
            for i in range(2, j // 2 + 1):
                acc = square if 2 * i == j else cross
                for u, a in parts[i]:
                    fa = f * a
                    for v, b in parts[j - i]:
                        w = u + v
                        acc[w] = acc.get(w, 0) + fa * b
        num = {w: v for w, v in cross.items() if v}
        for turns, acc in ((range(1, j), cross), (range(j // 2), square)):
            for w, v in acc.items():
                if v:
                    ww = w + w
                    for r in turns:
                        x = ww[r : r + j]
                        num[x] = num.get(x, 0) + v
        sums.append(T._tensor(exp.g, exp.trunc, num, den))
    return sums


def _dense_cyclic(logs, den, j, b):
    """_fold's degree-j numerators from dense blocks of b^j ints in tensor's
    word layout.  N is Horner's rule in T._turn (rot^-1) over the
    levels cross + [r < j/2] square: the square is rot^(j/2)-invariant, so
    its turns may run either way; at j = 4 the cross is empty."""
    size = b**j
    cross, square = [0] * size, [0] * size
    codes = [T._codes(b, i) for i in range(j - 1)]
    for c, d, parts in logs:
        f = c * (den // d)
        for i in range(2, j // 2 + 1):
            acc = square if 2 * i == j else cross
            shift = b ** (j - i)
            code = codes[j - i]
            right = [(code[v], y) for v, y in parts[j - i]]
            for u, x in parts[i]:
                at, fx = codes[i][u] * shift, f * x
                for n, y in right:
                    acc[at + n] += fx * y
    both = list(map(add, cross, square)) if j % 2 == 0 else cross
    h, *levels = [cross] * (j - j // 2) * (j > 4) + [both] * (j // 2)
    for x in levels:
        h = list(map(add, x, T._turn(h, b, j, j)))
    return T._spell(h, b, j)


def L_k(exp, bc, k):
    """Degree-k part of the Kawazumi-Kuno tensor for a null-homologous barcode.

    It is (1/2) sum_{i=2}^{k-2} N(l_i l_{k-i}), l_i the degree-i part of
    l = log(theta(bc)), so theta is evaluated at degree k-2; as theta_1 = 0,
    (theta - 1)^2 starts in degree 4, so log is taken only for k >= 6.  As
    N(xy) = N(yx) for homogeneous x, y, the summands i and k-i pair up; for
    |u| = |v| = i the turns r >= i of uv are the turns r < i of vu, so the
    symmetric square needs no 1/2: with rot^r moving r first letters last,
    L_k = N(sum_{2 <= i < k-i} l_i l_{k-i}) + [k even] sum_{r<k/2} rot^r(l_{k/2}^2).
    """
    return _fold(exp, ((1, validate_barcode(bc, exp.g)),), k)[-1]


def twist_sum(exp, twists, k):
    """The signed sums [sum c L_4, ..., sum c L_k] over a twist list.

    Each log theta is evaluated once, at degree k-2, of the cyclically reduced
    barcode: L_k is conjugation-invariant, as N kills the commutators that
    conjugating l (l_1 = 0) adds to l^2.  The first sum is tau_2 of the
    product; the second, sum c L_5, is its tau_3 only when the first vanishes.
    """
    twists = [(e.coeff, cyclic_reduce(e.barcode, exp.g)) for e in twists]
    return _fold(exp, twists, k)


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
            here = images.get(word[pos])
            if here:
                head, tail = word[:pos], word[pos + 1 :]
                for iw, ic in here:
                    w = head + iw + tail
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
