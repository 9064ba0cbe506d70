"""The symplectic Magnus expansion: log-values on generators and evaluation.

The default expansion is pinned in degree <= 3; its evaluation theta is a
monoid map from words in pi_1 (given as barcodes) to the truncated tensor
algebra.  The value of an inverse letter is the antipode of its letter's
value.  w -> m^|w| w is an algebra automorphism, so theta multiplies the letter
values as ints scaled by it, m their common denominator, and divides once.
"""

from fractions import Fraction
from math import lcm

from . import tensor as T
from .surface import barcode_letters, boundary_barcode


class SymplecticExpansion:
    """Log-values l(alpha_i), l(beta_i) of a symplectic expansion, 1-indexed.

    Immutable.  Each log-value l must satisfy antipode(l) = -l, as every Lie
    series does, so that the inverse letter's value exp(-l) is
    antipode(exp(l)).  The letter values are kept once, scaled by m^|w| and
    bucketed by degree for tensor._mul, which serves every degree 1..trunc.
    """

    def __init__(self, g, trunc, log_alpha, log_beta):
        self.g = g
        self.trunc = trunc
        self.log_alpha = list(log_alpha)
        self.log_beta = list(log_beta)
        full = {}
        for idx, l in enumerate(self.log_alpha + self.log_beta, start=1):
            if T.antipode(l) != -l:
                raise T.DomainError(
                    "log-value of generator %d (%s) fails antipode(l) = -l, "
                    "which every Lie series satisfies" % (idx, T.generator_name(g, idx))
                )
            full[idx, 1] = T.exp_series(l)
            full[idx, -1] = T.antipode(full[idx, 1])
        # Every constant term is exactly 1 and every den divides m, so the
        # scaled values are ints and the constant terms stay 1.
        self._m = m = lcm(*(t.den for t in full.values()))
        self._table = {
            key: T._bucket({w: c * m ** len(w) // t.den for w, c in t.num.items()}, trunc)
            for key, t in full.items()
        }

    def _scaled_letters(self, degree):
        if not 1 <= degree <= self.trunc:
            raise T.DomainError("evaluation degree must be in 1..truncation degree")
        return self._table

    def _unscaled(self, degree, pairs):
        """The tensor at truncation degree of scaled (word, value) pairs."""
        shift = [self._m ** (degree - k) for k in range(degree + 1)]
        return T._tensor(self.g, degree, {w: c * shift[len(w)] for w, c in pairs}, shift[0])

    def letter_values(self, degree):
        """theta of each letter at the given degree, keyed by (index, sign)."""
        table = self._scaled_letters(degree)
        return {k: self._unscaled(degree, [((), c0)] + f[degree]) for k, (c0, f) in table.items()}


def default_expansion(g, trunc=5):
    """The symplectic expansion with the pinned degree <= 3 log-values.

    l(alpha_i) = a_i - 1/2 [a_i,b_i] + 1/12 [[a_i,b_i],b_i]
                 - 1/2 [sum_{j<i} [a_j,b_j], a_i]
    l(beta_i)  = b_i - 1/2 [a_i,b_i] + 1/4 [[a_i,b_i],b_i]
                 + 1/12 [a_i,[a_i,b_i]] + 1/2 [b_i, sum_{j<i} [a_j,b_j]]
    """
    if g < 1:
        raise T.DomainError("genus must be >= 1")
    if trunc < 2:
        raise T.DomainError("truncation degree must be >= 2")
    half = Fraction(1, 2)
    twelfth = Fraction(1, 12)
    quarter = Fraction(1, 4)
    a = [T.Tensor.generator(g, trunc, i) for i in range(1, g + 1)]
    b = [T.Tensor.generator(g, trunc, g + i) for i in range(1, g + 1)]
    log_alpha = []
    log_beta = []
    for i in range(g):
        ab = T.bracket(a[i], b[i])
        lower = T.Tensor.zero(g, trunc)
        for j in range(i):
            lower = lower + T.bracket(a[j], b[j])
        log_alpha.append(
            a[i]
            - half * ab
            + twelfth * T.bracket(ab, b[i])
            - half * T.bracket(lower, a[i])
        )
        log_beta.append(
            b[i]
            - half * ab
            + quarter * T.bracket(ab, b[i])
            + twelfth * T.bracket(a[i], ab)
            + half * T.bracket(b[i], lower)
        )
    return SymplecticExpansion(g, trunc, log_alpha, log_beta)


def theta(exp, bc, degree=None):
    """Evaluate the expansion on a barcode: truncated product over letters.

    The product is taken at truncation ``degree`` (default exp.trunc), which
    equals the full-degree theta with its words longer than ``degree`` dropped.
    """
    degree = exp.trunc if degree is None else degree
    table = exp._scaled_letters(degree)
    num = {(): 1}
    for key in barcode_letters(bc, exp.g):
        num = T._mul(num, *table[key], degree)
    return exp._unscaled(degree, num.items())


def log_theta(exp, bc, degree=None):
    """log of theta at truncation ``degree`` (default exp.trunc); zero constant term."""
    return T.log_series(theta(exp, bc, degree))


def symplectic_defect(exp):
    """Degrees k <= trunc where theta(boundary) differs from exp(sum [a_i,b_i]).

    Returns a list of (degree, nonzero homogeneous part) pairs.
    """
    g, trunc = exp.g, exp.trunc
    omega_sum = T.Tensor.zero(g, trunc)
    for i in range(1, g + 1):
        omega_sum = omega_sum + T.bracket(
            T.Tensor.generator(g, trunc, i), T.Tensor.generator(g, trunc, g + i)
        )
    diff = theta(exp, boundary_barcode(g)) - T.exp_series(omega_sum)
    defects = []
    for k in range(trunc + 1):
        part = T.extract(diff, k)
        if not part.is_zero():
            defects.append((k, part))
    return defects
