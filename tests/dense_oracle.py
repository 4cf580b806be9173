"""Dense oracle of ``verify --check commutators``: the identities on OperatorMatrix products.

The check itself reads the relations off the operators' ladder
coefficients (``cli._commutator_residuals``); this is its former dense
body, with one residual per identity under the same names. It also holds
[K1,G1] and [K2,G2], which the check leaves out: on coefficients they
compare products that floating-point multiplication makes equal.
"""

import numpy as np

from landautrace.fock import build_basis, derived_operator, flip_and_conjugation, interior_block, ladder


def dense_commutator_residuals(nmax, params):
    basis = build_basis(nmax)
    eye = np.eye(build_basis(basis.nmax - 1).dim)  # the margin-1 interior
    am, ap = ladder(basis, "a-"), ladder(basis, "a+")
    bm, bp = ladder(basis, "b-"), ladder(basis, "b+")
    out = {}
    for name, low, high in (("[a-,a+] - 1", am, ap), ("[b-,b+] - 1", bm, bp)):
        comm = low.commutator(high)
        out[name] = np.abs(interior_block(basis, comm, 1).entries - eye).max()
    k1 = derived_operator(basis, "K1", params)
    k2 = derived_operator(basis, "K2", params)
    g1 = derived_operator(basis, "G1", params)
    g2 = derived_operator(basis, "G2", params)
    out["[K1,K2] + i"] = np.abs(interior_block(basis, k1.commutator(k2), 1).entries + 1j * eye).max()
    out["[G1,G2] + i"] = np.abs(interior_block(basis, g1.commutator(g2), 1).entries + 1j * eye).max()
    out["[K1,G1]"] = interior_block(basis, k1.commutator(g1), 1).max_abs()
    out["[K2,G2]"] = interior_block(basis, k2.commutator(g2), 1).max_abs()
    _, _, theta = flip_and_conjugation(basis)
    out["Theta K1 Theta^-1 + K2"] = (theta.conjugate_operator(k1) + k2).max_abs()
    out["Theta K2 Theta^-1 + K1"] = (theta.conjugate_operator(k2) + k1).max_abs()
    return {name: float(v) for name, v in out.items()}


def dense_commutator_residual(nmax, params):
    """What ``verify --check commutators`` returned when it ran on dense matrices."""
    return max(dense_commutator_residuals(nmax, params).values())
