"""Casson-core homomorphisms on twist lists.

d takes the value 4h(h-1) on a genus-h BSCC twist and d' the value
h(2h+1); both read only the twists' exponents and declared genera.  On a
J_3-certified list (tau_2 = 0) the Casson invariant is -d/24; lambda_J3 and
twist_audit take the tau_2 their caller computed (johnson.twist_sum).
"""

from fractions import Fraction

from . import tensor as T


class CassonReport(T.Value):
    """The Casson-core numbers of a twist list."""

    __slots__ = ("d_value", "d_prime_value", "n_genus1", "n_genus2", "lambda_value")

    def __init__(self, d_value, d_prime_value, n_genus1, n_genus2, lambda_value):
        object.__setattr__(self, "d_value", d_value)
        object.__setattr__(self, "d_prime_value", d_prime_value)
        object.__setattr__(self, "n_genus1", n_genus1)
        object.__setattr__(self, "n_genus2", n_genus2)
        object.__setattr__(self, "lambda_value", lambda_value)

    def render(self):
        lines = [
            "d %s" % self.d_value,
            "d_prime %s" % self.d_prime_value,
            "n_genus1 %s" % self.n_genus1,
            "n_genus2 %s" % self.n_genus2,
        ]
        if self.lambda_value is not None:
            lines.append("lambda %s" % self.lambda_value)
        return "\n".join(lines)


def d_core(twists):
    """Signed sum of 4h(h-1) over the twist list."""
    return sum(e.coeff * 4 * e.genus * (e.genus - 1) for e in twists)


def d_prime(twists):
    """Signed sum of h(2h+1) over the twist list."""
    return sum(e.coeff * e.genus * (2 * e.genus + 1) for e in twists)


def lambda_J3(t2, twists):
    """The Casson homomorphism -d/24 on a twist list whose tau_2 is ``t2``.

    Raises DomainError unless ``t2`` vanishes (the J_3 certificate).
    """
    if not t2.is_zero():
        raise T.DomainError("tau_2 of the twist list is nonzero: %s" % T.render(t2))
    return Fraction(-d_core(twists), 24)


def twist_audit(twists, t2):
    """Separate the signed genus-1 and genus-2 twist counts from d and d'.

    n_genus2 = d/8 and n_genus1 = (4d' - 5d)/12.  The lambda value is
    included when ``t2``, the list's tau_2, vanishes.
    """
    d = d_core(twists)
    dp = d_prime(twists)
    return CassonReport(
        d_value=d,
        d_prime_value=dp,
        n_genus1=Fraction(4 * dp - 5 * d, 12),
        n_genus2=Fraction(d, 8),
        lambda_value=lambda_J3(t2, twists) if t2.is_zero() else None,
    )
