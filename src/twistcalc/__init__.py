"""Exact computation of Johnson homomorphisms and Casson-core values
for products of Dehn twists along bounding simple closed curves."""

from .tensor import (
    DegreeMismatchError,
    DomainError,
    Tensor,
    antipode,
    bracket,
    cyclicize,
    dynkin_defect,
    exp_series,
    extract,
    log_series,
    product,
    render,
    truncate,
)
from .surface import (
    BarcodeError,
    HVector,
    barcode_homology,
    boundary_barcode,
    commutator_barcode,
    cyclic_reduce,
    free_reduce,
    omega,
)
from .expansion import SymplecticExpansion, default_expansion, log_theta, symplectic_defect, theta
from .johnson import (
    L_k,
    TwistEntry,
    apply_derivation,
    derivation_bracket,
    twist_sum,
)
from .diagrams import DiagramSum, TreeDiagram, eta, kappa, morita_tau2, odot, tree, tree_sum
from .casson import (
    CassonReport,
    CertificateError,
    d_core,
    d_prime,
    dbar_prime,
    lambda_J3,
    twist_audit,
)
from .psi_data import load_psi, psi_twist_entries
