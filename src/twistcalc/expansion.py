"""The symplectic Magnus expansion: log-values on generators and evaluation.

The default expansion is pinned in degree <= 3; its evaluation theta is a
monoid map from words in pi_1 (given as barcodes) to the truncated tensor
algebra.  The value of an inverse letter is the antipode of its letter's
value.  w -> m^|w| w is an algebra automorphism, so theta multiplies the letter
values as ints scaled by it, m their common denominator, and divides once.
Inside theta a word is its code in tensor's word layout, so the product of
words u, v is the int u (2g)^|v| + v; each word theta returns is spelled once,
from tensor's cached word list.
"""

from fractions import Fraction
from math import lcm

from . import tensor as T
from .surface import barcode_letters, boundary_barcode, validate_barcode


class SymplecticExpansion:
    """Log-values l(alpha_i), l(beta_i) of a symplectic expansion, 1-indexed.

    g of each, of genus g and truncation trunc; each l is its generator in
    degree 1, so that theta_1 is the homology class, and satisfies
    antipode(l) = -l, as every Lie series does, so that exp(-l), the inverse
    letter's value, is antipode(exp(l)).  The letter values are built once,
    scaled by m^|w|, split by degree and held as (code, value) pairs, in one
    pass over each exp(l) that also writes its antipode, at the reversed
    word's code; setting an attribute does not rebuild them.
    """

    def __init__(self, g, trunc, log_alpha, log_beta):
        T._check_shape(g, trunc)
        self.g = g
        self.trunc = trunc
        self.log_alpha = list(log_alpha)
        self.log_beta = list(log_beta)
        if len(self.log_alpha) != g or len(self.log_beta) != g:
            raise T.DomainError("expected %d alpha and %d beta log-values" % (g, g))
        values = []
        for idx, l in enumerate(self.log_alpha + self.log_beta, start=1):
            what = "log-value of generator %d (%s)" % (idx, T.generator_name(g, idx))
            if not isinstance(l, T.Tensor):
                raise T.DomainError(what + " is not a Tensor")
            if (l.g, l.trunc) != (g, trunc):
                raise T.DomainError(what + " has genus %d and truncation %d" % (l.g, l.trunc))
            if () in l.num:
                raise T.DomainError(what + " has a constant term")
            if {w: c for w, c in l.num.items() if len(w) == 1} != {(idx,): l.den}:
                raise T.DomainError(what + " has a degree-1 part other than its generator")
            if T.antipode(l) != -l:
                raise T.DomainError(what + " fails antipode(l) = -l, as no Lie series does")
            values.append(T.exp_series(l))
        # Every constant term is exactly 1 and every den divides m, so a value
        # scaled by m^|w| is m^d // den times its numerator in degree d >= 1,
        # an int; the degree-1 part of each is its generator alone, scaled to m.
        self._m = m = lcm(*(t.den for t in values))
        b = 2 * g
        self._table = {}
        for k in range(1, b + 1):
            ((idx, _),) = barcode_letters((k,), g)
            t = values[idx - 1]
            scale = [m**d // t.den for d in range(trunc + 1)]
            pos = [[(0, 1)]] + [[] for _ in range(trunc)]
            neg = [[(0, 1)]] + [[] for _ in range(trunc)]
            for w, c in t.num.items():
                d = len(w)
                if not d:
                    continue  # the constant 1, in place above
                c *= scale[d]
                pos[d].append((T._code(w, b), c))
                neg[d].append((T._code(w[::-1], b), -c if d % 2 else c))
            self._table[k] = pos
            self._table[-k] = neg


def default_expansion(g, trunc=5):
    """The symplectic expansion with the pinned degree <= 3 log-values.

    l(alpha_i) = a_i - 1/2 [a_i,b_i] + 1/12 [[a_i,b_i],b_i]
                 - 1/2 [sum_{j<i} [a_j,b_j], a_i]
    l(beta_i)  = b_i - 1/2 [a_i,b_i] + 1/4 [[a_i,b_i],b_i]
                 + 1/12 [a_i,[a_i,b_i]] + 1/2 [b_i, sum_{j<i} [a_j,b_j]]
    """
    T._check_shape(g, trunc)
    if trunc < 2:
        raise T.DomainError("truncation degree must be >= 2")
    half = Fraction(1, 2)
    twelfth = Fraction(1, 12)
    quarter = Fraction(1, 4)
    a = [T.Tensor.generator(g, trunc, i) for i in range(1, g + 1)]
    b = [T.Tensor.generator(g, trunc, g + i) for i in range(1, g + 1)]
    log_alpha = []
    log_beta = []
    lower = T.Tensor.zero(g, trunc)  # sum_{j<i} [a_j,b_j]

    def lin(*terms):
        return T.combination(g, trunc, terms)

    for i in range(g):
        ab = T.bracket(a[i], b[i])
        abb = T.bracket(ab, b[i])
        log_alpha.append(lin((1, a[i]), (-half, ab), (twelfth, abb), (-half, T.bracket(lower, a[i]))))
        aab = T.bracket(a[i], ab)
        log_beta.append(
            lin((1, b[i]), (-half, ab), (quarter, abb), (twelfth, aab), (half, T.bracket(b[i], lower)))
        )
        lower = lower + ab
    return SymplecticExpansion(g, trunc, log_alpha, log_beta)


def _theta(exp, bc, n):
    """theta of a checked barcode at truncation n, as (num, den): int
    numerators, zeros dropped, over den = m^n.  The words of degree d are
    kept scaled by m^d and keyed by their base-2g code while each letter value
    y multiplies in place, top degree first: parts[d] += y_d + sum_{0<p<d}
    parts[p] y_(d-p), where the product of codes u, v is u (2g)^|v| + v; y_1
    is the letter's one word x, so the term p = d-1 is u 2g + x.  Each
    surviving code is spelled once, through T._words, at the end."""
    b = 2 * exp.g
    shift = [b**e for e in range(n + 1)]
    parts = [{0: 1}] + [{} for _ in range(n)]
    for k in bc:
        y = exp._table[k]
        ((x, e),) = y[1]
        for d in range(n, 1, -1):
            acc = parts[d]
            for w, c in y[d]:
                acc[w] = acc.get(w, 0) + c
            for p in range(1, d - 1):
                q, f = y[d - p], shift[d - p]
                for u, a in parts[p].items():
                    u *= f
                    for v, c in q:
                        w = u + v
                        acc[w] = acc.get(w, 0) + a * c
            for u, a in parts[d - 1].items():
                w = u * b + x
                acc[w] = acc.get(w, 0) + a * e
        parts[1][x] = parts[1].get(x, 0) + e
    s = [exp._m ** (n - d) for d in range(n + 1)]
    num = {}
    for d, part in enumerate(parts):
        words, f = T._words(b, d), s[d]
        for w, c in part.items():
            if c:
                num[words[w]] = c * f
    return num, s[0]


def theta(exp, bc):
    """Evaluate the expansion on a barcode: truncated product over letters."""
    return T._tensor(exp.g, exp.trunc, *_theta(exp, validate_barcode(bc, exp.g), exp.trunc))


def log_theta(exp, bc):
    """log of theta at the full truncation degree; zero constant term."""
    return T.log_series(theta(exp, bc))


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
