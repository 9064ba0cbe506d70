"""Genus-g surface data: the symplectic form, and barcodes for words in pi_1.

A barcode is a sequence of nonzero ints k with |k| <= 2g; the entry
+-(2i-1) stands for alpha_i^{+-1} and +-2i for beta_i^{+-1}.
"""

from functools import cache

from .tensor import DomainError, Value, _check_shape


class BarcodeError(ValueError):
    """Raised for barcode entries that are not nonzero ints in range."""


class HVector(Value):
    """Integer vector of length 2g in the homology basis (a_1..a_g, b_1..b_g)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        try:
            ints = tuple(map(int, coords))
        except (TypeError, ValueError, ArithmeticError):
            ints = None
        if ints != coords or not {bool, float}.isdisjoint(map(type, coords)):
            raise DomainError("homology coordinates must be integers")
        object.__setattr__(self, "coords", ints)

    @classmethod
    def basis(cls, g, idx):
        """The basis vector for generator index idx in 1..2g."""
        _check_shape(g)
        if type(idx) is not int or not 1 <= idx <= 2 * g:
            raise DomainError("generator index %r out of range" % (idx,))
        coords = [0] * (2 * g)
        coords[idx - 1] = 1
        return cls(coords)

    def __len__(self):
        return len(self.coords)

    def __add__(self, other):
        if not isinstance(other, HVector):
            return NotImplemented
        if len(self.coords) != len(other.coords):
            raise DomainError("HVector length mismatch")
        return HVector(u + v for u, v in zip(self.coords, other.coords))

    def __sub__(self, other):
        if not isinstance(other, HVector):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return HVector(-c for c in self.coords)

    def __rmul__(self, n):
        return HVector(n * c for c in self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return "HVector(%r)" % (self.coords,)


# -- barcodes ----------------------------------------------------------


def validate_barcode(bc, g=None):
    """Check entries are nonzero ints and, if g is given, within [-2g, 2g]."""
    bc = tuple(bc)
    for k in bc:
        if type(k) is not int:
            raise BarcodeError("barcode entry %r is not an int" % (k,))
        if k == 0:
            raise BarcodeError("barcode entries must be nonzero")
        if g is not None and abs(k) > 2 * g:
            raise BarcodeError("barcode entry %d out of range for genus %d" % (k, g))
    return bc


def barcode_letters(bc, g):
    """Decode a barcode to (tensor generator index, sign) pairs for genus g.

    The one decoder of the barcode alphabet: +-(2i-1) becomes (i, +-1) for
    alpha_i and +-2i becomes (g+i, +-1) for beta_i.
    """
    _check_shape(g)
    return _barcode_letters(validate_barcode(bc, g), g)


def _barcode_letters(bc, g):
    """barcode_letters of a barcode already checked for genus g."""
    letters = []
    for k in bc:
        sign = 1 if k > 0 else -1
        m = abs(k)
        if m % 2 == 1:
            letters.append(((m + 1) // 2, sign))
        else:
            letters.append((g + m // 2, sign))
    return letters


@cache
def _alphabet(g):
    """{k: (index, sign)} for every letter k of genus g, decoded once."""
    ks = [k for k in range(-2 * g, 2 * g + 1) if k]
    return dict(zip(ks, _barcode_letters(ks, g)))


def inverse_barcode(bc):
    """The reversed, negated barcode, representing the inverse word."""
    return tuple(-k for k in reversed(bc))


def commutator_barcode(u, v):
    """u v u^-1 v^-1 with inverses as reversed, negated sequences."""
    u = validate_barcode(u)
    v = validate_barcode(v)
    return u + v + inverse_barcode(u) + inverse_barcode(v)


def boundary_barcode(g):
    """The boundary word zeta as a barcode: product of beta_i^-1 alpha_i beta_i alpha_i^-1."""
    _check_shape(g)
    return sum((commutator_barcode((-2 * i,), (2 * i - 1,)) for i in range(1, g + 1)), ())


def free_reduce(bc, g=None):
    """validate_barcode(bc, g), then cancel adjacent inverse pairs (k, -k)
    until none remain."""
    return _free_reduce(validate_barcode(bc, g))


def _free_reduce(bc):
    """free_reduce of a barcode already checked."""
    out = []
    for k in bc:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def cyclic_reduce(bc, g=None):
    """The cyclically reduced conjugate of a barcode: free_reduce(bc, g), then
    cancel inverse pairs (k, -k) across the two ends, so none is adjacent, even
    cyclically."""
    bc = free_reduce(bc, g)
    while len(bc) > 1 and bc[0] == -bc[-1]:
        bc = bc[1:-1]
    return bc


def barcode_homology(bc, g):
    """The homology class of the word encoded by a barcode."""
    letters = barcode_letters(bc, g)  # checks g before coords is built
    coords = [0] * (2 * g)
    for idx, sign in letters:
        coords[idx - 1] += sign
    return HVector(coords)
