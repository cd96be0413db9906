"""Independent numerical oracles shared by the test modules.

These deliberately avoid the library's own quadrature paths: the radial
reduction uses composite Simpson on graded meshes so the production
Gauss-Kronrod/trapezoid pipeline is checked against a different method,
and the phase-space and box-law areas are midpoint polar quadratures of
indicators whose closed forms the production oracles use.  The
box-localized resolvent handle is the reference the box-block compression
is checked against, box_block_count (eigvalsh of the two-component box
block) the reference for the box counts, and perturbed_dense, built from
FFT columns, the reference for the flow's dense D(t) and its Schur
complement.  singular_values (LAPACK SVD) and count_above on a full
spectrum are the references the inertia counts are checked against, and
pivot_inertia, a loop over the pivots, the reference for reading the
inertia off a Bunch-Kaufman factor; parse_report_csv inverts the report
writer.
"""

import numpy as np
from scipy import integrate

from gapcount.operators import (LinearOperatorHandle, box_mask, check_box_fits,
                                free_operator, potential_on_grid, resolvent,
                                restricted_block)
from gapcount.potential import eval_potential


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

    The matrix is node-major, like assemble_dense: column k is the operator
    applied to the k-th basis vector of the C-order flattening of an
    (n, n, 2) array, moved to a component-major field (2, n, n) for the FFT
    apply and back, in batches of chunk columns.  No symmetrization: the
    raw columns are the reference.
    """
    dim = op.dimension
    n = op.grid.n_points
    out = np.empty((dim, dim), dtype=complex)
    for k0 in range(0, dim, chunk):
        k1 = min(k0 + chunk, dim)
        basis = np.zeros((k1 - k0, dim), dtype=complex)
        basis[np.arange(k1 - k0), np.arange(k0, k1)] = 1.0
        fields = np.moveaxis(basis.reshape(k1 - k0, n, n, 2), -1, 1)
        cols = np.moveaxis(op.apply_array(fields), 1, -1)
        out[:, k0:k1] = cols.reshape(k1 - k0, dim).T
    return out


def phase_space_count(x, xi, spec):
    """1 exactly when V(x) > |xi|^2 (strict), else 0; undefined at xi = 0."""
    xi = np.asarray(xi, dtype=float)
    norm2 = xi[..., 0] ** 2 + xi[..., 1] ** 2
    if np.any(norm2 == 0.0):
        raise ValueError("phase_space_count is undefined at xi = 0")
    v = eval_potential(spec, x)
    out = (v > norm2).astype(int)
    return out if out.ndim else int(out)


def _polar_midpoint_area(inside, rmax, n_radial, n_theta):
    """Area of {xi : inside(xi1, xi2)} within radius rmax, midpoint polar rule."""
    radii = (np.arange(n_radial) + 0.5) * (rmax / n_radial)
    thetas = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    total = 0.0
    for th in thetas:
        mask = inside(radii * np.cos(th), radii * np.sin(th))
        total += float(np.sum(np.where(mask, radii, 0.0))) * (rmax / n_radial)
    return total * (2.0 * np.pi / n_theta)


def chi_momentum_integral(spec, x, n_radial=200_000, n_theta=16):
    """Momentum integral of the phase-space indicator at x; exactly pi * V(x)."""
    v = float(eval_potential(spec, np.asarray(x, dtype=float)))
    if v <= 0.0:
        return 0.0
    return _polar_midpoint_area(
        lambda xi1, xi2: phase_space_count(x, np.stack([xi1, xi2], axis=-1), spec) == 1,
        1.5 * np.sqrt(v), n_radial, n_theta)


def box_symbol_region_area(tau, params, n_radial=200_000, n_theta=16):
    """Momentum area of {xi : (sqrt(|xi|^4 + m^2) - lambda)^{-1} > tau}.

    The closed form is pi * (((1/tau + lambda)+)^2 - m^2)+^{1/2}.
    """
    m, lam = params.mass, params.gap_point
    disc = max(1.0 / tau + lam, 0.0) ** 2 - m ** 2
    if disc <= 0.0:
        return 0.0
    return _polar_midpoint_area(
        lambda xi1, xi2: 1.0 / (np.sqrt((xi1 ** 2 + xi2 ** 2) ** 2 + m ** 2) - lam) > tau,
        1.5 * disc ** 0.25, n_radial, n_theta)


def perturbed_dense(grid, params, spec, t):
    """Dense D(t) = free - t*V from FFT columns of the free operator.

    V acts as a scalar on both spinor components, so -t*V(x) is added to
    both diagonal entries of node x.
    """
    dense = dense_by_columns(free_operator(grid, params))
    dense[np.diag_indices_from(dense)] -= t * np.repeat(potential_on_grid(grid, spec), 2)
    return dense


def box_localized_resolvent(grid, params, box):
    """phi (free - lambda)^{-1} phi with phi the indicator of beta*Q."""
    check_box_fits(grid, box)
    phi = box_mask(grid, box).astype(float)
    return LinearOperatorHandle(grid, resolvent(grid, params).mult, weight=phi)


def singular_values(matrix):
    """Descending singular values; their squares are eigenvalues of A*A."""
    a = np.asarray(matrix)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return np.linalg.svd(a, compute_uv=False)


def pivot_inertia(ldu, ipiv):
    """(negative, zero, positive) of the block diagonal D of a lower
    Bunch-Kaufman factor, pivot by pivot: a 1x1 block by its sign, a 2x2
    block (ipiv[k] == ipiv[k+1] < 0) by its determinant, then its trace."""
    signs = []
    k = 0
    while k < len(ipiv):
        if ipiv[k] > 0:
            signs.append(np.sign(ldu[k, k].real))
            k += 1
            continue
        a, c = ldu[k, k].real, ldu[k + 1, k + 1].real
        det = a * c - abs(ldu[k + 1, k]) ** 2
        if det < 0:
            signs += [-1.0, 1.0]
        elif det > 0:
            signs += [np.sign(a + c)] * 2
        else:
            signs += [0.0, np.sign(a + c)]
        k += 2
    signs = np.asarray(signs)
    return (int(np.count_nonzero(signs < 0)), int(np.count_nonzero(signs == 0)),
            int(np.count_nonzero(signs > 0)))


def count_above(values, s):
    """#{k : values_k > s}, strict, with the 1e-12 relative tie guard."""
    if not s > 0:
        raise ValueError(f"threshold must be positive, got {s}")
    return int(np.count_nonzero(np.asarray(values) > s * (1.0 + 1e-12)))


def box_block_count(grid, params, box, tau):
    """Eigenvalues above tau of the resolvent compressed to beta*Q, by eigvalsh.

    The block holds both spinor components of every box node
    (restricted_block); the count is strict with the 1e-12 relative tie
    guard, like count_above.
    """
    mask = box_mask(grid, box)
    block = restricted_block(resolvent(grid, params), mask, mask)
    return int(np.count_nonzero(np.linalg.eigvalsh(block) > tau * (1.0 + 1e-12)))


INT_COLUMNS = frozenset({"n_bs", "n_flow", "count", "i", "j", "index"})


def parse_report_csv(text):
    """Inverse of harness.report_csv_text; numbers parse back exactly.

    Columns in INT_COLUMNS parse as int and every other column as float,
    so a float written without a fraction ("5" for 5.0) stays a float.
    """
    lines = text.strip("\n").split("\n")
    header = tuple(lines[0].split(","))
    kinds = [int if name in INT_COLUMNS else float for name in header]
    rows = [tuple(None if tok == "" else kind(tok)
                  for kind, tok in zip(kinds, line.split(",")))
            for line in lines[1:]]
    return header, rows
