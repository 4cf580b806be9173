"""Numerical spectral/topological toolbox for Landau-type Hamiltonians.

Computes ranks and Chern numbers of spectral projections of the Landau
Hamiltonian and its non-Abelian spin-1/2 extensions (Jaynes-Cummings and
quaternionic couplings) through two independent routes: a numerical
Dixmier-trace engine built on the resolvent of the two-dimensional
harmonic oscillator, and trace-per-unit-volume quadrature over Folner
families of regions.
"""

__version__ = "0.1.0"
