"""Exact sparse arithmetic in the truncated free associative algebra.

Generators are indexed 1..2g: index i <= g is a_i, index g+i is b_i.
Words are tuples of generator indices.  A Tensor is a finitely supported
map from words no longer than ``trunc`` to rationals, stored as Python int
numerators over one positive common denominator, so that the arithmetic
runs on integers; ``terms`` copies the same values out as Fractions.

The full-degree series are nested evaluations: ``exp_series`` and
``log_series`` run Horner's rule with each level at the truncation its outer
factors leave it, and ``dynkin_defect`` left-nests brackets by block transposes.

A dense block of degree n over b = 2g letters holds word w at its code, w's
letters less 1 read as base-b digits, first most significant (uv: u b^|v| + v).
``_code(w, b)`` is one code, ``_words(b, n)`` the words by code, ``_codes(b, n)``
its inverse and ``_spell(block, b, n)`` the block's nonzero entries by word.

``Value`` is the immutable base of the package's value types, Tensor among them.
"""

from fractions import Fraction
from functools import cache
from itertools import accumulate, compress, product as cartesian
from math import factorial, gcd, lcm
from operator import attrgetter, sub
from sys import int_info


class DomainError(ValueError):
    """Raised when an operation's precondition on its input fails."""


class Value:
    """An immutable value, equal, hashed, pickled and printed by its fields.

    The fields are the subclass's ``__slots__``, stored by its ``__init__``
    through ``object.__setattr__``.  ``_key(obj)``, ``==`` and the hash are
    made once per class around one attrgetter; ``_key`` gives a tuple (a
    1-tuple for one field), so hash(obj) == hash(fields).  A class's own
    ``__hash__`` is kept.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) > 1:
            key = get

            def __hash__(self):
                return hash(get(self))

        else:

            def key(obj):
                return (get(obj),)

            def __hash__(self):
                return hash((get(self),))

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        cls._key = staticmethod(key)
        cls.__eq__ = __eq__
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = __hash__

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % self.__class__.__name__)

    __delattr__ = __setattr__

    def __reduce__(self):
        return (self.__class__, self._key(self))

    def __repr__(self):
        fields = ", ".join(map("%s=%r".__mod__, zip(self.__slots__, self._key(self))))
        return "%s(%s)" % (self.__class__.__name__, fields)


class Tensor(Value):
    """Element of the free algebra on 2g generators, truncated at degree ``trunc``.

    Immutable.  ``num`` maps words (tuples of generator indices in 1..2g) to
    int numerators over the common denominator ``den``, in canonical form:
    ``den > 0``, no zero numerator and ``gcd(den, *num.values()) == 1``, so
    equal tensors store equal values.  ``terms`` is a new dict of
    the same map with Fraction coefficients.

    The constructor is the checked entry point for outside input: it checks
    that g, trunc and every generator index are ints (not bools), each index
    in 1..2g, converts the coefficients to Fractions (a float, a bool or a
    non-number raises DomainError) and drops zero coefficients and overlong
    words, so callers pass raw accumulated sums.  The operations of the
    package build their results through the trusted ``_tensor`` instead.
    """

    __slots__ = ("g", "trunc", "num", "den")

    def __init__(self, g, trunc, terms=None):
        _check_shape(g, trunc)
        clean = {}
        if terms:
            for word, coeff in terms.items():
                for idx in word:
                    if type(idx) is not int:
                        raise DomainError("generator index %r is not an int" % (idx,))
                    if not 1 <= idx <= 2 * g:
                        raise DomainError("generator index %r out of range" % (idx,))
                c = _exact(coeff)
                if c and len(word) <= trunc:
                    clean[tuple(word)] = c
        den = lcm(*(c.denominator for c in clean.values()))
        num = {w: c.numerator * (den // c.denominator) for w, c in clean.items()}
        _store(self, g, trunc, num, den)

    @property
    def terms(self):
        """A new dict from words to their nonzero Fraction coefficients."""
        return {w: Fraction(c, self.den) for w, c in self.num.items()}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, g, trunc):
        return cls(g, trunc)

    @classmethod
    def generator(cls, g, trunc, idx):
        return cls(g, trunc, {(idx,): 1})

    # -- basic structure ----------------------------------------------

    def is_zero(self):
        return not self.num

    def __hash__(self):
        return hash((self.g, self.trunc, self.den, frozenset(self.num.items())))

    def __repr__(self):
        return "Tensor(g=%d, trunc=%d, %s)" % (self.g, self.trunc, render(self))

    def __reduce__(self):
        return (_tensor, self._key(self))

    # -- linear structure ---------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return combination(self.g, self.trunc, ((1, self), (1, other)))

    def __neg__(self):
        return _tensor(self.g, self.trunc, {w: -c for w, c in self.num.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return combination(self.g, self.trunc, ((1, self), (-1, other)))


def _store(t, g, trunc, num, den):
    """Fill the slots of t with num/den brought to canonical form."""
    if 0 in num.values():
        num = {w: c for w, c in num.items() if c}
    if not num:
        den = 1
    else:
        d = gcd(den, *num.values())
        if d != 1:
            den //= d
            num = {w: c // d for w, c in num.items()}
    object.__setattr__(t, "g", g)
    object.__setattr__(t, "trunc", trunc)
    object.__setattr__(t, "num", num)
    object.__setattr__(t, "den", den)
    return t


def _tensor(g, trunc, num, den=1):
    """The trusted constructor: the tensor num/den, brought to canonical form.

    ``num`` maps words of generator indices in 1..2g, none longer than
    ``trunc``, to ints (zeros allowed) and ``den`` is a positive int; neither
    is checked, and ``num`` may be kept, so the caller must not change it.
    """
    return _store(object.__new__(Tensor), g, trunc, num, den)


def _exact(c):
    """The coefficient c as a Fraction; DomainError if c is a float, which is not
    exact, a bool, which is not a number, or anything else Fraction does not read."""
    if isinstance(c, float):
        raise DomainError("coefficient %r is a float, not exact" % (c,))
    if not isinstance(c, bool):
        try:
            return Fraction(c)
        except (TypeError, ValueError, ArithmeticError):
            pass
    raise DomainError("coefficient %r is not an exact number" % (c,))


def _check_shape(g, trunc=1):
    """Raise DomainError unless the genus and the truncation degree are ints >= 1."""
    for name, n in (("genus", g), ("truncation degree", trunc)):
        if type(n) is not int:
            raise DomainError("%s %r is not an int" % (name, n))
        if n < 1:
            raise DomainError("%s must be >= 1" % name)


def _check_compatible(g, trunc, t):
    """Raise DomainError unless t has genus g and truncation trunc."""
    if t.g != g:
        raise DomainError("tensors live over different genera")
    if t.trunc != trunc:
        raise DomainError("truncation degrees differ: %d vs %d" % (trunc, t.trunc))


def combination(g, trunc, terms):
    """The linear combination sum c t over an iterable of (c, t) pairs.

    Each c is an int or a Fraction, else read as the constructor reads a
    coefficient, and each t a tensor of genus g and truncation trunc.  The
    iterable is read once; int numerators accumulate in place in one dict
    over one common denominator, which grows to the lcm with each new factor
    t.den * c.denominator, rescaling the entries already stored, so no
    partial sum is copied.
    """
    num = {}
    den = 1
    for c, t in terms:
        if c.__class__ is not int and c.__class__ is not Fraction:
            c = _exact(c)
        _check_compatible(g, trunc, t)
        if not c or not t.num:
            continue
        tden = t.den * c.denominator
        if not num:
            p = c.numerator
            num = {w: v * p for w, v in t.num.items()}
            den = tden
            continue
        new = lcm(den, tden)
        if new != den:
            m = new // den
            for w in num:
                num[w] *= m
            den = new
        f = c.numerator * (den // tden)
        for w, v in t.num.items():
            num[w] = num.get(w, 0) + v * f
    return _tensor(g, trunc, num, den)


def _bucket(num, trunc):
    """(c0, fitting): the constant term of num, and fitting[r] the list of its
    other (word, value) pairs of degree <= r, for r in 0..trunc."""
    by_degree = [[] for _ in range(trunc + 1)]
    for w, c in num.items():
        by_degree[len(w)].append((w, c))
    by_degree[0] = []
    return num.get((), 0), list(accumulate(by_degree))


def _mul(xnum, num, fitting, trunc):
    """num plus the numerators of x·y at truncation trunc, with y's other words
    given as _bucket(y.num)[1]: each word of x meets only those that fit in
    the room the truncation leaves it.  num is updated in place."""
    for wx, cx in xnum.items():
        for wy, cy in fitting[trunc - len(wx)]:
            w = wx + wy
            num[w] = num.get(w, 0) + cx * cy
    return num


def product(x, y):
    """Concatenation product, discarding words longer than the truncation."""
    _check_compatible(x.g, x.trunc, y)
    c0, fitting = _bucket(y.num, x.trunc)
    num = {w: c * c0 for w, c in x.num.items()} if c0 else {}
    return _tensor(x.g, x.trunc, _mul(x.num, num, fitting, x.trunc), x.den * y.den)


def bracket(x, y):
    """Commutator product(x, y) - product(y, x)."""
    return product(x, y) - product(y, x)


def cyclicize(x):
    """Replace each degree-p word by the sum of its p cyclic rotations.

    Requires a zero constant term.
    """
    if () in x.num:
        raise DomainError("cyclicize requires a zero constant term")
    num = {}
    for word, coeff in x.num.items():
        for i in range(len(word)):
            w = word[i:] + word[:i]
            num[w] = num.get(w, 0) + coeff
    return _tensor(x.g, x.trunc, num, x.den)


def extract(x, k):
    """The homogeneous part of degree k."""
    return _tensor(x.g, x.trunc, {w: c for w, c in x.num.items() if len(w) == k}, x.den)


def _horner(num, den, n, coeff, scale):
    """(H, scale D) with H / (scale D) = sum_i coeff(i) y^i / scale at truncation
    n, y = num / den without its constant term, by Horner's rule.

    With m the lowest degree of y, y^i vanishes for i > n // m, so the nesting
    starts there; the level under i factors of y only meets degrees <= n - i m,
    so it is computed there from the one bucketing of y: with h / p the level
    above, level i is (coeff(i) p num + h num) / (p den), y's bucket scaled
    by coeff(i) p plus h y, so no level holds a constant word.  Once p
    outgrows one int digit, each level is divided by its gcd with p.
    """
    _, fitting = _bucket(num, n)
    m = next((r for r, f in enumerate(fitting) if f), n + 1)
    top = n // m
    h, p = {}, 1
    if top:
        c = coeff(top)
        h = {w: c * v for w, v in fitting[n - (top - 1) * m]}
        p = den
    for i in range(top - 1, 0, -1):
        t, c = n - (i - 1) * m, coeff(i) * p
        h = _mul(h, {w: c * v for w, v in fitting[t]}, fitting, t)
        p *= den
        if p.bit_length() > int_info.bits_per_digit:
            d = gcd(p, *h.values())
            if d != 1:
                p //= d
                h = {w: v // d for w, v in h.items()}
    c = coeff(0)
    if c:
        h[()] = c * p
    return h, scale * p


def _log(num, den, n):
    """_horner of log(1 + y)."""
    f = lcm(*range(1, n + 1))
    return _horner(num, den, n, lambda i: (-1) ** (i + 1) * f // i if i else 0, f)


def exp_series(x):
    """Truncated exponential sum x^i / i! of a tensor with zero constant term."""
    if () in x.num:
        raise DomainError("exp_series requires a zero constant term")
    f = factorial(x.trunc)
    return _tensor(x.g, x.trunc, *_horner(x.num, x.den, x.trunc, lambda i: f // factorial(i), f))


def log_series(x):
    """Truncated logarithm of a tensor whose constant term is exactly 1."""
    if x.num.get(()) != x.den:
        raise DomainError("log_series requires constant term exactly 1")
    return _tensor(x.g, x.trunc, *_log(x.num, x.den, x.trunc))


def antipode(x):
    """The antipode: each word w goes to (-1)^|w| times w reversed.

    It reverses products, so antipode(exp_series(l)) = exp_series(antipode(l)),
    and it is -l on every Lie series l.
    """
    num = {w[::-1]: -c if len(w) % 2 else c for w, c in x.num.items()}
    return _tensor(x.g, x.trunc, num, x.den)


def _code(w, b):
    i = 0
    for a in w:
        i = i * b + a - 1
    return i


@cache
def _words(b, n):
    return list(cartesian(range(1, b + 1), repeat=n))


@cache
def _codes(b, n):
    return dict(zip(_words(b, n), range(b**n)))


def _spell(block, b, n):
    return dict(zip(compress(_words(b, n), block), filter(None, block)))


def _turn(block, b, k, n):
    """The dense degree-n block over b letters with the k-th letter of each
    word moved to the front: at a v s it holds block's v a s, |v| = k - 1."""
    lv, ls = b ** (k - 1), b ** (n - k)
    moved = [0] * len(block)
    if ls > lv:  # runs of suffixes s
        for a in range(b):
            for v in range(lv):
                i, j = (v * b + a) * ls, (a * lv + v) * ls
                moved[j : j + ls] = block[i : i + ls]
    else:  # strided runs of prefixes v
        for a in range(b):
            for s in range(ls):
                moved[a * lv * ls + s : (a + 1) * lv * ls : ls] = block[a * ls + s :: b * ls]
    return moved


def dynkin_defect(x):
    """Sum over degrees n of (beta(x_n) - n * x_n), where beta left-nests brackets.

    Vanishes exactly when x is a Lie series degree by degree.  The degree-n
    part is a dense block of (2g)^n numerators (1,024 ints at g = 2 and
    7,776 at g = 3 for n = 5).  beta_n = Phi_n ... Phi_2, Phi_k(v a s) =
    v a s - a v s for |v a| = k: one _turn and one subtraction each.
    """
    if () in x.num:
        raise DomainError("dynkin_defect requires a zero constant term")
    b = 2 * x.g
    blocks = {}
    for w, c in x.num.items():
        n = len(w)
        if n > 1:  # beta is the identity in degree 1
            if n not in blocks:
                blocks[n] = [0] * b**n, _codes(b, n)
            block, codes = blocks[n]
            block[codes[w]] = c
    num = {}
    for n, (block, _) in blocks.items():
        beta = block
        for k in range(2, n + 1):
            beta = list(map(sub, beta, _turn(beta, b, k, n)))
        scaled = list(map(n.__mul__, block))
        if beta != scaled:
            num.update(_spell(list(map(sub, beta, scaled)), b, n))
    return _tensor(x.g, x.trunc, num, x.den)


# -- canonical text form ----------------------------------------------


def generator_name(g, idx):
    if idx <= g:
        return "a%d" % idx
    return "b%d" % (idx - g)


def render(x):
    """Canonical text form: terms sorted by (degree, lexicographic word).

    Each term renders as ``p/q gen*gen*...`` in lowest terms, with the sign
    carried by the ``+``/``-`` joiners; the zero tensor renders ``0``.
    """
    if not x.num:
        return "0"
    names = [""] + [generator_name(x.g, i) for i in range(1, 2 * x.g + 1)]
    words = sorted(x.num)
    words.sort(key=len)
    den = x.den
    parts = []
    for word in words:
        coeff = x.num[word]
        d = gcd(coeff, den)
        term = "%s %d/%d" % ("-" if coeff < 0 else "+", abs(coeff) // d, den // d)
        if word:
            term += " " + "*".join(map(names.__getitem__, word))
        parts.append(term)
    out = " ".join(parts)
    return out[2:] if out[0] == "+" else out
