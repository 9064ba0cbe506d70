"""Johnson homomorphisms of twist products via the Kawazumi-Kuno maps.

L_k evaluates the degree-k part of (1/2) N(l(x)^2) on a null-homologous
barcode, reading l = log theta only through degree k-2 and pairing the
symmetric summands N(l_i l_{k-i}) = N(l_{k-i} l_i); tau2 and tau3 sum
L_4 / L_5 over a signed list of twists.
Derivations wrap homogeneous tensors as Hom(H, .) maps through the
duality x -> omega(x, -).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import tensor as T
from .expansion import log_theta


@dataclass(frozen=True)
class TwistEntry:
    """A signed Dehn twist along a bounding simple closed curve."""

    coeff: int
    genus: int
    barcode: tuple

    def __post_init__(self):
        if self.coeff == 0:
            raise T.DomainError("twist exponent must be nonzero")
        if self.genus not in (1, 2):
            raise T.DomainError("twist genus must be 1 or 2")
        object.__setattr__(self, "barcode", tuple(self.barcode))


def L_k(exp, bc, k):
    """Degree-k part of the Kawazumi-Kuno tensor for a null-homologous barcode.

    The degree-k part of (1/2) N(l^2) is (1/2) sum_{i=2}^{k-2} N(l_i l_{k-i}),
    where l_i is the degree-i part of l = log(theta(bc)); it reads l only
    through degree k-2, so theta and log are evaluated at that degree.  As
    N(xy) = N(yx) for homogeneous x, y, the summands i and k-i are paired:
    L_k = sum_{2 <= i < k-i} N(l_i l_{k-i}) + [k even] (1/2) N(l_{k/2}^2).
    """
    if not 4 <= k <= exp.trunc:
        raise T.DomainError("L_k needs 4 <= k <= truncation degree")
    l = log_theta(exp, bc, k - 2)
    # Lift the homogeneous parts to the output truncation exp.trunc.
    parts = [
        T.Tensor(exp.g, exp.trunc, {w: c for w, c in l.terms.items() if len(w) == i})
        for i in range(k - 1)
    ]
    if not parts[1].is_zero():
        raise T.DomainError("barcode is not null-homologous")
    res = T.Tensor.zero(exp.g, exp.trunc)
    for i in range(2, (k + 1) // 2):
        res = res + T.cyclicize(T.product(parts[i], parts[k - i]))
    if k % 2 == 0:
        half = parts[k // 2]
        res = res + T.cyclicize(T.product(half, half)).scale(Fraction(1, 2))
    return res


def twist_sum(exp, twists, k):
    """Signed sum of L_k over a twist list."""
    res = T.Tensor.zero(exp.g, exp.trunc)
    for entry in twists:
        res = res + L_k(exp, entry.barcode, k).scale(entry.coeff)
    return res


def tau2(exp, twists):
    """tau_2 of a product of BSCC twists: signed sum of L_4."""
    return twist_sum(exp, twists, 4)


def tau3(exp, twists):
    """Signed sum of L_5; equals tau_3 of the product only when tau2 vanishes."""
    return twist_sum(exp, twists, 5)


# -- derivations -------------------------------------------------------


class Derivation:
    """A homogeneous tensor of degree k+2 read as a map H -> H^(k+1).

    A term u (x) t acts by h -> omega(u, h) t; generator images are
    precomputed for all 2g basis vectors.
    """

    __slots__ = ("tensor", "degree", "images")

    def __init__(self, tensor, degree):
        if any(len(w) != degree + 2 for w in tensor.terms):
            raise T.DomainError("derivation tensor must be homogeneous of degree k+2")
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "degree", degree)
        g, trunc = tensor.g, tensor.trunc
        images = {idx: {} for idx in range(1, 2 * g + 1)}
        for word, coeff in tensor.terms.items():
            first, rest = word[0], word[1:]
            # omega(e_first, e_target) is nonzero only on the dual partner.
            if first <= g:
                target, sign = first + g, 1
            else:
                target, sign = first - g, -1
            acc = images[target]
            acc[rest] = acc.get(rest, 0) + sign * coeff
        object.__setattr__(
            self, "images", {idx: T.Tensor(g, trunc, ws) for idx, ws in images.items()}
        )

    def __setattr__(self, name, value):
        raise AttributeError("Derivation is immutable")

    def of_generator(self, idx):
        return self.images[idx]

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.degree == other.degree and self.tensor == other.tensor


def apply_derivation(d, t):
    """Extend d to tensors by the Leibniz rule, summing over letter positions."""
    g, trunc = t.g, t.trunc
    terms = {}
    for word, coeff in t.terms.items():
        for pos in range(len(word)):
            image = d.of_generator(word[pos])
            for iw, ic in image.terms.items():
                w = word[:pos] + iw + word[pos + 1 :]
                if len(w) > trunc:
                    continue
                terms[w] = terms.get(w, 0) + coeff * ic
    return T.Tensor(g, trunc, terms)


def derivation_tensor_from_map(g, trunc, f):
    """Rebuild sum_i (a_i (x) f(b_i) - b_i (x) f(a_i)) from generator images."""
    terms = {}
    for i in range(1, g + 1):
        for first, image, sign in ((i, f(g + i), 1), (g + i, f(i), -1)):
            for iw, ic in image.terms.items():
                w = (first,) + iw
                if len(w) > trunc:
                    continue
                terms[w] = terms.get(w, 0) + sign * ic
    return T.Tensor(g, trunc, terms)


def derivation_bracket(d1, d2):
    """The commutator derivation d1 d2 - d2 d1, repackaged as a tensor."""
    k = d1.degree + d2.degree
    t1, t2 = d1.tensor, d2.tensor
    t1._check_compatible(t2)
    if k + 2 > t1.trunc:
        raise T.DomainError("bracket degree exceeds the truncation degree")

    def f(idx):
        return apply_derivation(d1, d2.of_generator(idx)) - apply_derivation(
            d2, d1.of_generator(idx)
        )

    return Derivation(derivation_tensor_from_map(t1.g, t1.trunc, f), k)
