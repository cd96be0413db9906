"""Independent numerical oracles shared by the test modules.

These deliberately avoid the library's own quadrature paths: the radial
reduction uses composite Simpson on graded meshes so the production
Gauss-Kronrod/trapezoid pipeline is checked against a different method.
"""

import numpy as np
from scipy import integrate


def radial_profile_integral(params, psi_const, p):
    """(2pi/4pi) * int_0^R sqrt((lambda + c r^-p)^2 - m^2)_+ r dr for Psi = c."""
    m, lam = params.mass, params.gap_point
    if psi_const <= 0.0:
        return 0.0
    rmax = (psi_const / (m - lam)) ** (1.0 / p)

    def f(r):
        g = lam + psi_const * r ** (-p)
        return np.sqrt(np.maximum(g * g - m * m, 0.0)) * r

    # panels graded toward the r^(1-p) end at 0 and the sqrt kink at rmax;
    # the missed sliver [0, 1e-16 rmax] contributes O(1e-16^(2-p))
    left = np.geomspace(1e-16 * rmax, 0.5 * rmax, 150)
    right = rmax - np.geomspace(1e-13 * rmax, 0.5 * rmax, 150)[::-1]
    edges = np.unique(np.concatenate([left, right]))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xs = np.linspace(a, b, 41)
        total += integrate.simpson(f(xs), x=xs)
    return 0.5 * total


def dense_by_columns(op, chunk=256):
    """Reference dense matrix of a handle: apply_array on every identity column.

    Column k is the operator applied to the k-th basis field (C-order
    flattening of the (n, n, 2) array), computed by FFT in batches of
    chunk columns.  No symmetrization: the raw columns are the reference.
    """
    dim = op.dimension
    n = op.grid.n_points
    out = np.empty((dim, dim), dtype=complex)
    for k0 in range(0, dim, chunk):
        k1 = min(k0 + chunk, dim)
        basis = np.zeros((k1 - k0, dim), dtype=complex)
        basis[np.arange(k1 - k0), np.arange(k0, k1)] = 1.0
        cols = op.apply_array(basis.reshape(k1 - k0, n, n, 2))
        out[:, k0:k1] = cols.reshape(k1 - k0, dim).T
    return out
