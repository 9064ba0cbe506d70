"""Exact sparse arithmetic in the truncated free associative algebra.

Generators are indexed 1..2g: index i <= g is a_i, index g+i is b_i.
Words are tuples of generator indices; a Tensor is a finitely supported
map from words to nonzero rational coefficients, truncated so that no
stored word is longer than ``trunc``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


class DegreeMismatchError(ValueError):
    """Raised when combining tensors with different truncation degrees."""


class DomainError(ValueError):
    """Raised when an operation's precondition on its input fails."""


class Tensor:
    """Element of the free algebra on 2g generators, truncated at degree ``trunc``.

    Immutable after construction. ``terms`` maps words (tuples of generator
    indices in 1..2g) to nonzero Fractions; the constructor drops zero
    coefficients and overlong words, so callers pass raw accumulated sums.
    """

    __slots__ = ("g", "trunc", "terms")

    def __init__(self, g, trunc, terms=None):
        if g < 1:
            raise DomainError("genus must be >= 1")
        if trunc < 1:
            raise DomainError("truncation degree must be >= 1")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "trunc", trunc)
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if len(word) > trunc:
                    continue
                c = Fraction(coeff)
                if c == 0:
                    continue
                for idx in word:
                    if not 1 <= idx <= 2 * g:
                        raise DomainError("generator index %r out of range" % (idx,))
                clean[tuple(word)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, g, trunc):
        return cls(g, trunc)

    @classmethod
    def one(cls, g, trunc):
        return cls(g, trunc, {(): 1})

    @classmethod
    def generator(cls, g, trunc, idx):
        return cls(g, trunc, {(idx,): 1})

    # -- basic structure ----------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "Tensor(g=%d, trunc=%d, %s)" % (self.g, self.trunc, render(self))

    # -- linear structure ---------------------------------------------

    def _check_compatible(self, other):
        if self.g != other.g:
            raise DegreeMismatchError("tensors live over different genera")
        if self.trunc != other.trunc:
            raise DegreeMismatchError(
                "truncation degrees differ: %d vs %d" % (self.trunc, other.trunc)
            )

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, 0) + coeff
        return Tensor(self.g, self.trunc, terms)

    def __neg__(self):
        return Tensor(self.g, self.trunc, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar):
        s = Fraction(scalar)
        if s == 0:
            return Tensor.zero(self.g, self.trunc)
        return Tensor(self.g, self.trunc, {w: c * s for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)


def product(x, y):
    """Concatenation product, discarding words longer than the truncation."""
    x._check_compatible(y)
    terms = {}
    trunc = x.trunc
    for wx, cx in x.terms.items():
        room = trunc - len(wx)
        for wy, cy in y.terms.items():
            if len(wy) > room:
                continue
            w = wx + wy
            terms[w] = terms.get(w, 0) + cx * cy
    return Tensor(x.g, trunc, terms)


def bracket(x, y):
    """Commutator product(x, y) - product(y, x)."""
    return product(x, y) - product(y, x)


def cyclicize(x):
    """Replace each degree-p word by the sum of its p cyclic rotations.

    Requires a zero constant term.
    """
    if x.constant_term() != 0:
        raise DomainError("cyclicize requires a zero constant term")
    terms = {}
    for word, coeff in x.terms.items():
        for i in range(len(word)):
            w = word[i:] + word[:i]
            terms[w] = terms.get(w, 0) + coeff
    return Tensor(x.g, x.trunc, terms)


def extract(x, k):
    """The homogeneous part of degree k."""
    return Tensor(x.g, x.trunc, {w: c for w, c in x.terms.items() if len(w) == k})


def truncate(x, k):
    """All parts of degree <= k."""
    return Tensor(x.g, x.trunc, {w: c for w, c in x.terms.items() if len(w) <= k})


def exp_series(x):
    """Truncated exponential sum x^i / i! of a tensor with zero constant term."""
    if x.constant_term() != 0:
        raise DomainError("exp_series requires a zero constant term")
    res = Tensor.one(x.g, x.trunc)
    power = Tensor.one(x.g, x.trunc)
    for i in range(1, x.trunc + 1):
        power = product(power, x)
        if power.is_zero():
            break
        res = res + power.scale(Fraction(1, factorial(i)))
    return res


def log_series(x):
    """Truncated logarithm of a tensor whose constant term is exactly 1."""
    if x.constant_term() != 1:
        raise DomainError("log_series requires constant term exactly 1")
    d = x - Tensor.one(x.g, x.trunc)
    res = Tensor.zero(x.g, x.trunc)
    power = Tensor.one(x.g, x.trunc)
    for i in range(1, x.trunc + 1):
        power = product(power, d)
        if power.is_zero():
            break
        res = res + power.scale(Fraction((-1) ** (i + 1), i))
    return res


def dynkin_defect(x):
    """Sum over degrees n of (beta(x_n) - n * x_n), where beta left-nests brackets.

    Vanishes exactly when x is a Lie series degree by degree.  The bracket
    [[...[x1,x2],...],xn] of a word expands to signed words: each later
    letter goes to the right (+) or to the left (-) of the word so far.
    """
    if x.constant_term() != 0:
        raise DomainError("dynkin_defect requires a zero constant term")
    terms = {}
    for word, coeff in x.terms.items():
        terms[word] = terms.get(word, 0) - len(word) * coeff
        nested = [(word[:1], coeff)]
        for idx in word[1:]:
            nested = [p for w, c in nested for p in ((w + (idx,), c), ((idx,) + w, -c))]
        for w, c in nested:
            terms[w] = terms.get(w, 0) + c
    return Tensor(x.g, x.trunc, terms)


# -- canonical text form ----------------------------------------------


def generator_name(g, idx):
    if idx <= g:
        return "a%d" % idx
    return "b%d" % (idx - g)


def render(x):
    """Canonical text form: terms sorted by (degree, lexicographic word).

    Each term renders as ``p/q gen*gen*...`` with the sign carried by the
    ``+``/``-`` joiners; the zero tensor renders ``0``.
    """
    if not x.terms:
        return "0"
    parts = []
    for word in sorted(x.terms, key=lambda w: (len(w), w)):
        coeff = x.terms[word]
        mag = "%d/%d" % (abs(coeff.numerator), coeff.denominator)
        body = "*".join(generator_name(x.g, i) for i in word)
        term = mag + (" " + body if body else "")
        if not parts:
            parts.append(term if coeff > 0 else "- " + term)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + term)
    return " ".join(parts)
