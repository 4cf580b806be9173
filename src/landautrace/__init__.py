"""Numerical spectral/topological toolbox for Landau-type Hamiltonians.

Computes ranks and Chern numbers of spectral projections of the Landau
Hamiltonian and its non-Abelian spin-1/2 extensions (Jaynes-Cummings and
quaternionic couplings) through two independent routes: a numerical
Dixmier-trace engine built on the resolvent of the two-dimensional
harmonic oscillator, and trace-per-unit-volume quadrature over Folner
families of regions.
"""

from .fock import (
    AntiUnitaryRep,
    ModelParams,
    OperatorMatrix,
    TruncatedBasis,
    build_basis,
    derived_operator,
    flip_and_conjugation,
    interior_block,
    ladder,
    landau_projection,
    tensor_with_spin,
)
from .singtrace import (
    DixmierEstimate,
    SingularSequence,
    dixmier_graded,
    dixmier_via_gamma_fit,
    dixmier_via_zeta_residue,
    trace_Q_power,
    trace_Q_power_proj,
)

__all__ = [
    "AntiUnitaryRep",
    "DixmierEstimate",
    "ModelParams",
    "OperatorMatrix",
    "SingularSequence",
    "TruncatedBasis",
    "build_basis",
    "derived_operator",
    "dixmier_graded",
    "dixmier_via_gamma_fit",
    "dixmier_via_zeta_residue",
    "flip_and_conjugation",
    "interior_block",
    "ladder",
    "landau_projection",
    "tensor_with_spin",
    "trace_Q_power",
    "trace_Q_power_proj",
]

__version__ = "0.1.0"
