"""The embedded genus-2 dataset: the 16-twist element psi and its expected values.

Each twist is a signed Dehn twist along a bounding simple closed curve, and
the table PSI stores it as a (name, exponent, spine) row: the spine lists
the pairs (u, v) of sub-barcodes whose homology classes give a symplectic
basis of the bounded subsurface.  psi_twist_entries derives each twist's
barcode as the product of the commutators u v u^-1 v^-1 and its genus as
the number of pairs.
"""

from fractions import Fraction

from .casson import CassonReport
from .diagrams import eta, tree, tree_sum
from .johnson import TwistEntry, derivation_bracket
from .surface import HVector, commutator_barcode

GENUS = 2

# [alpha_1, beta_1^-1], the s1 curve, and its inverse [beta_1^-1, alpha_1]:
# sub-words of several spines.
_C = commutator_barcode((1,), (-2,))
_C_INV = commutator_barcode((-2,), (1,))

# (name, exponent, spine) of each twist of psi, in the published order.
PSI = (
    ("gamma2", -3, (((3,), (-4,)), ((1,), (-2,)))),
    ("t1", -1, ((_C_INV + (-4, 1), (-2,)),)),
    ("t2", -1, (((1,), (-4, 3, 4, -2)),)),
    ("t3", 2, (((1,), (-4, -3, 4) + _C + (-2,)),)),
    ("t4", 2, (((3,), (-1, -4)),)),
    ("t5", 1, (((1,), (-4, -3, -2)),)),
    ("t6", -1, (((3,), (-2, -1, -4)),)),
    ("t7", -1, (((-3, 4) + _C + (-2, -1, -4), (4,)),)),
    ("t8", 1, (((3, 4, 1), (-2,)),)),
    ("t9", -1, (((1,), (-4, -2)),)),
    ("t10", 1, (((-4, -3, 4) + _C + (-2,), (4,)),)),
    ("t11", -1, ((_C_INV + (-4, 3, 4, 1), (-2,)),)),
    ("t12", -1, (((1, -4, -3, 4) + _C + (4, 1) + _C_INV + (-4, 3, 4), (-4, -3, 4) + _C + (-2,)),)),
    ("t13", 1, (((-4, -3, 4) + _C + (-2, -1), (1, 2, 4)),)),
    ("s1", 7, (((1,), (-2,)),)),
    ("s2", 2, (((3,), (-4,)),)),
)


def psi_twist_entries():
    """The twists of PSI as TwistEntries, in the published order."""
    return [
        TwistEntry(coeff, len(spine), sum((commutator_barcode(u, v) for u, v in spine), ()))
        for _, coeff, spine in PSI
    ]


# The Casson-core report of psi: d = -24, d' = 0, the signed genus-1 and
# genus-2 twist counts 10 and -3, and (as tau_2(psi) = 0) lambda = 1.
EXPECTED_CASSON = CassonReport(-24, 0, 10, -3, 1)


A1, A2, B1, B2 = (HVector.basis(GENUS, i) for i in range(1, 2 * GENUS + 1))


def expected_tau3():
    """The 15-term degree-3 tree combination equal to tau_3(psi)."""
    terms = [
        (-1, (A2, A1, A1, B1, A1)),
        (-1, (A2, B1, A1, A2, A1)),
        (-1, (B2, A1, A1, B1, A1)),
        (-1, (B2, B1, A1, B1, A1)),
        (1, (B2, A2, A1, B1, A1)),
        (1, (B2, A2, A1, A2, A1)),
        (1, (B2, A2, A1, B2, A1)),
        (1, (B2, A2, B1, B2, A1)),
        (3, (B2, A2, A2, B1, A1)),
        (1, (B2, A2, A2, A2, A1)),
        (1, (B2, A2, B2, B1, A1)),
        (-1, (B2, A1, A2, B1, A1)),
        (1, (B2, B1, A2, B1, A1)),
        (1, (B2, A2, B2, A2, A1)),
        (-1, (B2, A2, B2, A2, B1)),
    ]
    return tree_sum(terms)


def expected_tau3_compact():
    """The 4-term compact form of tau_3(psi)."""
    terms = [
        (1, (B1 + A2, A1, A1 + A2 + B2, A2, A1 + B2)),
        (1, (A2 - A1, B2, A1 + B1, A1, B1 + B2)),
        (-1, (A2 - A1, B1, B2, A2, B1 + B2)),
        (1, (B2, A2, 2 * A2 - 2 * A1 + B2, B1, A1)),
    ]
    return tree_sum(terms)


def identity_lhs():
    """Three times the genus-2 twist image: the left side of the 3 tau_2 identity."""
    c = Fraction(3, 2)  # 3 u (.) v = (3/2) T(u, v, u, v)
    return tree_sum([(c, (A1, B1, A1, B1)), (3, (A1, B1, A2, B2)), (c, (A2, B2, A2, B2))])


def identity_rhs():
    """The odot combination equal to 3 tau_2(T_gamma2)."""
    terms = [
        (7, A1, B1),
        (2, A2, B2),
        (-1, A1, B1 + B2),
        (1, B1 + A2, B2),
        (-1, A1 + A2, B1),
        (-1, A1 + B1 + A2, B2),
        (1, A1 + A2 + B2, B1),
        (1, A1, B1 + A2 + B2),
        (-1, A2, A1 + B1 + B2),
        (2, A1, B1 + A2),
        (2, A2, A1 + B2),
        (-1, A1 - B2, B1),
        (-1, A1, B1 - A2),
        (-1, 2 * A1 + B2, B1 + A2),
        (1, A1 + B1 + A2, A1 + B1 + B2),
    ]
    return tree_sum((Fraction(c, 2), (u, v, u, v)) for c, u, v in terms)


def lemma_tree():
    """The degree-2 tree T(a2, b1, a1, a2) of the odot-decomposition lemma."""
    return tree(A2, B1, A1, A2)


def lemma_odot_combination():
    """Its 4-term odot decomposition."""
    terms = [(1, A1, B1), (-1, A1, B1 + A2), (-1, A1 + A2, B1), (1, A1 + A2, B1 + A2)]
    return tree_sum((Fraction(c, 2), (u, v, u, v)) for c, u, v in terms)


def bracket_decomposition_value():
    """Evaluate the bracket decomposition of tau_3(psi) as a tensor.

    Degree-1 and degree-2 trees are expanded by eta, whose homogeneous
    images are the derivations; the five summands follow the published
    decomposition.
    """
    term1 = derivation_bracket(
        eta(tree_sum([(3, (A1, B1, A2)), (1, (B2, A2, A1)), (1, (A1, B1, B2))])),
        eta(tree(A1, B1, A2, B2)),
    )
    term2 = derivation_bracket(eta(tree(B1, A1, A2 - B2)), eta(tree(A1, A2, B2, A1)))
    term3 = derivation_bracket(eta(tree(A2, B2, A1)), eta(tree(A2, B1, A1, A2)))
    term4 = derivation_bracket(
        eta(tree(A1, B1, A2)),
        derivation_bracket(eta(tree(A1, B1, B2)), eta(tree(A1 - B1, A2, B2))),
    )
    term5 = derivation_bracket(
        eta(tree(B1, A2, B2)),
        derivation_bracket(eta(tree(A1, B2, A2)), eta(tree(A1, B1, B2))),
    )
    return term1 + term2 + term3 + term4 + term5
