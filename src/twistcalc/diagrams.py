"""Tree-like Jacobi diagrams of degree 1-3 and their tensor expansions.

A tree is a planar caterpillar with counterclockwise vertex orientation,
given by the tuple of its ordered leaf labels (3, 4 or 5 HVectors), and
has degree (leaves - 2).  The tree is the only node type: a (.) b ("odot")
is half of the symmetric degree-2 tree, (1/2) T(a,b,a,b).  The expansion
eta sends a tree to the cyclicization of a bracket reading:

    degree 1, leaves (a,b,c):     N( a [c,b] )
    degree 2, leaves (a,b,c,d):   N( [a,b] [c,d] )
    degree 3, leaves (a,b,c,d,e): N( [a,b] [c,[d,e]] )

N is linear, so eta of a DiagramSum sums the readings with their
coefficients and cyclicizes once.
"""

from fractions import Fraction
from math import lcm

from . import tensor as T
from .surface import HVector


class DiagramSum(T.Value):
    """Finitely supported rational combination of trees, keyed by label tuples.

    The constructor takes a dict or an iterable of (labels, coefficient)
    pairs, and sums the coefficients of repeated labels.  It is the one check
    of a tree: each key, even one with a zero coefficient, which it drops,
    holds 3, 4 or 5 HVectors of one even length >= 2, and each coefficient is
    exact, not a float or a bool, else DomainError.  ``==`` compares formal
    sums of labelled trees, without the AS, IHX or multilinearity relations,
    so sums equal in the diagram space may compare unequal; compare values
    through ``eta``.
    """

    __slots__ = ("items",)
    __hash__ = None

    def __init__(self, items=()):
        clean = {}
        for labels, coeff in items.items() if isinstance(items, dict) else items:
            if len(labels) not in (3, 4, 5):
                raise T.DomainError("trees carry 3, 4 or 5 leaves")
            n = len(labels[0])
            if n % 2 or any(len(v) != n for v in labels):
                raise T.DomainError("leaf labels must share an even length")
            if n == 0:
                raise T.DomainError("genus must be >= 1")
            if not all(isinstance(v, HVector) for v in labels):
                raise T.DomainError("leaf labels must be HVectors")
            clean[labels] = clean.get(labels, 0) + T._exact(coeff)
        object.__setattr__(self, "items", {k: c for k, c in clean.items() if c})

    def __add__(self, other):
        if not isinstance(other, DiagramSum):
            return NotImplemented
        return DiagramSum([*self.items.items(), *other.items.items()])


def tree_sum(terms):
    """The DiagramSum sum c T(labels) over (c, labels) pairs, each c read as by
    DiagramSum: the pairs go to its constructor, which sums repeated trees in
    one dict, so a tree is hashed a fixed number of times, not once per
    partial sum as in a sum of DiagramSums."""
    return DiagramSum((tuple(labels), c) for c, labels in terms)


def tree(*labels):
    """A single tree as a DiagramSum."""
    return DiagramSum({labels: 1})


def odot(u, v):
    """u (.) v = (1/2) T(u, v, u, v) as a DiagramSum."""
    return DiagramSum({(u, v, u, v): Fraction(1, 2)})


def _times(x, y):
    """The product of two (word, int) lists."""
    return [(u + v, a * b) for u, a in x for v, b in y]


def _bracket(x, y):
    """The commutator xy - yx of two (word, int) lists."""
    return _times(x, y) + [(w, -c) for w, c in _times(y, x)]


def _reading(labels):
    """The bracket reading of a tree, before N, as (word, int) pairs."""
    x = [[((i,), c) for i, c in enumerate(v.coords, 1) if c] for v in labels]
    if len(x) == 3:
        # Rooting at the first leaf, the remaining two read bracketed in
        # reversed order; this sign choice is what balances the published
        # bracket decomposition end to end.
        a, b, c = x
        return _times(a, _bracket(c, b))
    if len(x) == 4:
        a, b, c, d = x
        return _times(_bracket(a, b), _bracket(c, d))
    a, b, c, d, e = x
    return _times(_bracket(a, b), _bracket(c, _bracket(d, e)))


def eta(d, trunc=5, g=None):
    """Expand a DiagramSum into the tensor algebra over genus g.

    With g None the genus is read from the labels of the first tree.  Raises
    DomainError when a tree's labels have another genus, when g or trunc is
    below 1, as for any Tensor, or when trunc is below a tree's degree + 2,
    its reading's degree.
    N is linear, so the readings are summed as ints over one den and cyclicized once.
    """
    if g is None:
        some = next(iter(d.items), None)
        if some is None:
            raise T.DomainError("cannot infer the genus of an empty DiagramSum")
        g = len(some[0]) // 2
    T._check_shape(g, trunc)
    den = lcm(*(c.denominator for c in d.items.values()))
    num = {}
    for labels, c in d.items.items():
        h = len(labels[0]) // 2
        if h != g:
            raise T.DomainError("diagram labels have genus %d, not %d" % (h, g))
        if len(labels) > trunc:
            raise T.DomainError(
                "a degree-%d tree needs truncation >= %d" % (len(labels) - 2, len(labels))
            )
        f = c.numerator * (den // c.denominator)
        for w, v in _reading(labels):
            num[w] = num.get(w, 0) + f * v
    return T.cyclicize(T._tensor(g, trunc, num, den))
