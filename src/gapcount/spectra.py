"""Eigenvalue/singular-value computation and the counting functionals.

Counts use strict inequality with a fixed relative tie guard: a value
counts as above the threshold s only when it exceeds s * (1 + 1e-12), so
machine-precision ties resolve deterministically.  The dense path is the
ground truth; the Krylov path must present a straddle certificate and
falls back to dense when it cannot.  A count that needs no eigenvalues
comes from the Sylvester inertia of an LDL^H factorization (inertia).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import DENSE_CAP, LinearOperatorHandle, assemble_dense, check_hermitian

TIE_GUARD = 1e-12
INERTIA_RESIDUAL_TOL = 1e-8
_INERTIA_PROBES = 5
_RESIDUAL_CHECK_LIMIT = 3000  # above this, eigenvector residual spot-checks cost
                              # another O(n^3) pass and are skipped


@dataclass(frozen=True)
class SpectrumResult:
    """Descending spectrum with provenance and a residual bound."""

    values: np.ndarray
    kind: str  # "eigenvalues" | "singular"
    method: str  # "dense" | "dense-novec" | "iterative"
    residual_bound: float

    def __post_init__(self):
        if np.any(np.diff(self.values) > 0):
            raise ValueError("spectrum values must be sorted descending")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum contains non-finite values")


@dataclass(frozen=True)
class InertiaResult:
    """Sylvester inertia of A - shift*I, certified by a probe solve.

    negative, zero and positive count the eigenvalues of A below, at and
    above the shift.  residual is the largest relative backward residual
    of the factored solve on the probe vectors; it is nan when the
    factorization met an exactly singular pivot (zero > 0), where no solve
    exists.
    """

    negative: int
    zero: int
    positive: int
    residual: float


@dataclass(frozen=True)
class CountResult:
    """Result of an iterative threshold count with its certificate."""

    count: int | None
    certificate: float
    method: str  # "krylov" | "dense"
    conclusive: bool


def hermitian_eigenvalues(matrix: np.ndarray,
                          residual_check: bool | None = None) -> SpectrumResult:
    """Full descending spectrum of a Hermitian matrix.

    For dimensions up to 3000 (or when residual_check=True) eigenvectors
    are computed as well and five spread-out eigenpairs are verified to
    satisfy ||A v - w v|| <= 1e-8 ||A||; larger problems use the
    eigenvalue-only LAPACK driver and report the backward-stability bound
    instead.  A matrix with a nonzero (tolerated) Hermiticity defect is
    replaced by its symmetrization (A + A^H)/2; an exactly Hermitian one,
    such as every dense block built by operators, is used as it is.
    """
    a = np.asarray(matrix)
    if check_hermitian(a) != 0.0:
        a = 0.5 * (a + a.conj().T)
    dim = a.shape[0]
    if residual_check is None:
        residual_check = dim <= _RESIDUAL_CHECK_LIMIT
    norm_est = float(np.linalg.norm(a, ord="fro")) or 1.0
    if residual_check:
        w, v = np.linalg.eigh(a)
        idx = np.unique(np.linspace(0, dim - 1, 5).astype(int))
        resid = np.linalg.norm(a @ v[:, idx] - v[:, idx] * w[idx], axis=0)
        bound = float(resid.max())
        if bound > 1e-8 * norm_est:
            raise RuntimeError(
                f"eigenpair residual {bound:.3e} exceeds 1e-8 * ||A|| = "
                f"{1e-8 * norm_est:.3e}"
            )
        return SpectrumResult(w[::-1].copy(), "eigenvalues", "dense", bound)
    w = np.linalg.eigvalsh(a)
    bound = float(np.finfo(float).eps * dim * norm_est)
    return SpectrumResult(w[::-1].copy(), "eigenvalues", "dense-novec", bound)


def _pivot_inertia(ldu: np.ndarray, ipiv: np.ndarray) -> tuple[int, int, int]:
    """Inertia of the block diagonal D of a lower Bunch-Kaufman factorization.

    ipiv[k] > 0 marks a 1x1 block at k; ipiv[k] == ipiv[k+1] < 0 marks a 2x2
    block on rows k, k+1, whose inertia follows from its determinant and
    trace.
    """
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


def inertia(matrix: np.ndarray, shift: float) -> InertiaResult:
    """Eigenvalue counts of a Hermitian matrix below, at and above shift.

    By Sylvester's law of inertia these are the signs of the pivot blocks
    of the Bunch-Kaufman factorization A - shift*I = P L D L^H P^T (LAPACK
    zhetrf), so no eigenvalue is computed.  The factorization is checked
    by solving with it on five fixed probe vectors: a relative backward
    residual above 1e-8 raises RuntimeError.  An exactly singular D means
    shift is an eigenvalue to working precision and is reported in zero.
    """
    a = np.asarray(matrix)
    check_hermitian(a)
    dim = a.shape[0]
    if dim == 0:
        return InertiaResult(0, 0, 0, 0.0)
    # The transpose of a C-ordered copy is Fortran-ordered, so LAPACK
    # factors it in place.  It holds conj(A) - shift*I, whose inertia
    # equals that of A - shift*I because A is Hermitian.
    shifted = np.array(a, dtype=complex, order="C")
    shifted.flat[::dim + 1] -= shift
    lapack = scipy.linalg.lapack
    lwork, _ = lapack.zhetrf_lwork(dim, lower=1)
    ldu, ipiv, info = lapack.zhetrf(shifted.T, lower=1,
                                    lwork=int(lwork.real), overwrite_a=1)
    if info < 0:
        raise RuntimeError(f"zhetrf rejected argument {-info}")
    negative, zero, positive = _pivot_inertia(ldu, ipiv)
    if info > 0:
        return InertiaResult(negative, zero, positive, float("nan"))
    rng = np.random.default_rng(0)
    b = rng.standard_normal((dim, _INERTIA_PROBES)) \
        + 1j * rng.standard_normal((dim, _INERTIA_PROBES))
    x, _ = lapack.zhetrs(ldu, ipiv, b, lower=1)
    r = a.T @ x - shift * x - b
    norm_est = float(np.linalg.norm(a)) + abs(shift) * np.sqrt(dim)
    resid = np.linalg.norm(r, axis=0) / (
        norm_est * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0)
    )
    residual = float(resid.max())
    if not residual <= INERTIA_RESIDUAL_TOL:
        raise RuntimeError(
            f"LDL^H probe residual {residual:.3e} exceeds "
            f"{INERTIA_RESIDUAL_TOL:.0e} relative"
        )
    return InertiaResult(negative, zero, positive, residual)


def singular_values(matrix: np.ndarray) -> SpectrumResult:
    """Descending singular values; their squares are eigenvalues of A*A."""
    a = np.asarray(matrix)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    s = np.linalg.svd(a, compute_uv=False)
    bound = float(np.finfo(float).eps * max(a.shape) * (s[0] if len(s) else 0.0))
    return SpectrumResult(np.sort(s)[::-1], "singular", "dense", bound)


def count_above(values, s: float) -> int:
    """#{k : values_k > s}, strict, with the 1e-12 relative tie guard."""
    if not s > 0:
        raise ValueError(f"threshold must be positive, got {s}")
    v = values.values if isinstance(values, SpectrumResult) else np.asarray(values)
    return int(np.count_nonzero(v > s * (1.0 + TIE_GUARD)))


def count_negative_below(values, s: float) -> int:
    """n_-(s, T) = #{k : -lambda_k > s}; the count of eigenvalues below -s."""
    v = values.values if isinstance(values, SpectrumResult) else np.asarray(values)
    return count_above(-np.asarray(v), s)


def sigma_p_seminorm(singular_vals, p: float) -> float:
    """Weak Schatten quasi-norm (sup_s s^p n(s, T))^(1/p).

    For a finite descending list the sup is attained as s increases to a
    singular value, so it equals (max_k k * s_k^p)^(1/p).
    """
    if not p > 0:
        raise ValueError(f"exponent must be positive, got {p}")
    v = singular_vals.values if isinstance(singular_vals, SpectrumResult) \
        else np.asarray(singular_vals, dtype=float)
    if len(v) == 0 or v[0] == 0.0:
        return 0.0
    k = np.arange(1, len(v) + 1)
    return float(np.max(k * v ** p) ** (1.0 / p))


def power_iteration_norm(op: LinearOperatorHandle, iters: int = 200,
                         tol: float = 1e-10, seed: int = 0) -> float:
    """Operator norm of a Hermitian handle by power iteration."""
    if not op.hermitian:
        raise ValueError("power_iteration_norm expects a hermitian handle")
    n = op.grid.n_points
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, n, 2)) + 1j * rng.standard_normal((n, n, 2))
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(iters):
        w = op.apply_array(v)
        new = float(np.linalg.norm(w))
        if new == 0.0:
            return 0.0
        v = w / new
        if abs(new - estimate) <= tol * max(new, 1.0):
            return new
        estimate = new
    return estimate


# ---------------------------------------------------------------------------
# Krylov counting with a straddle certificate
# ---------------------------------------------------------------------------

def _ritz_from_blocks(diag_blocks, offdiag_blocks):
    b = diag_blocks[0].shape[0]
    k = len(diag_blocks)
    t = np.zeros((k * b, k * b), dtype=complex)
    for j, d in enumerate(diag_blocks):
        t[j * b:(j + 1) * b, j * b:(j + 1) * b] = d
    for j, o in enumerate(offdiag_blocks):
        t[(j + 1) * b:(j + 2) * b, j * b:(j + 1) * b] = o
        t[j * b:(j + 1) * b, (j + 1) * b:(j + 2) * b] = o.conj().T
    theta, y = np.linalg.eigh(0.5 * (t + t.conj().T))
    return theta, y


def iterative_count_above(op: LinearOperatorHandle, s: float,
                          budget: int | None = None, block_size: int = 8,
                          seed: int = 0, certificate_floor: float = 1e-8,
                          dense_cap: int = DENSE_CAP) -> CountResult:
    """Count eigenvalues of a Hermitian handle above s without dense assembly.

    Block Lanczos with full reorthogonalization; the count is conclusive
    only when every Ritz value above the threshold has converged, some
    converged Ritz value (or exhaustion) lies below it, and no unconverged
    Ritz value could still cross.  The certificate is the distance from s
    to the nearest converged Ritz value.  A weak certificate (or exhausted
    budget) falls back to dense assembly below the cap; otherwise the
    result says inconclusive rather than guessing.

    Eigenvalue multiplicities above block_size are invisible to the Krylov
    subspace; use the dense path when exact multiplicity counts matter.
    """
    if not s > 0:
        raise ValueError(f"threshold must be positive, got {s}")
    if not op.hermitian:
        raise ValueError("iterative_count_above expects a hermitian handle")
    dim = op.dimension
    n = op.grid.n_points
    b = int(min(block_size, dim))
    max_blocks = budget if budget is not None else min(dim // b, 160)
    max_blocks = max(max_blocks, 2)
    rng = np.random.default_rng(seed)

    q = rng.standard_normal((dim, b)) + 1j * rng.standard_normal((dim, b))
    q, _ = np.linalg.qr(q)
    basis = [q]
    diag_blocks: list[np.ndarray] = []
    offdiag_blocks: list[np.ndarray] = []
    scale = 0.0
    exhausted = False
    last_count = None

    for step in range(max_blocks):
        qj = basis[-1]
        w = op.apply_array(qj.T.reshape(b, n, n, 2)).reshape(b, dim).T
        d = qj.conj().T @ w
        d = 0.5 * (d + d.conj().T)
        diag_blocks.append(d)
        w -= qj @ d
        if len(basis) > 1:
            w -= basis[-2] @ offdiag_blocks[-1].conj().T
        for _ in range(2):  # full reorthogonalization, two passes
            for qk in basis:
                w -= qk @ (qk.conj().T @ w)
        scale = max(scale, float(np.abs(np.diag(d)).max(initial=0.0)))
        qnext, r = np.linalg.qr(w)
        beta_norm = float(np.abs(np.diag(r)).max(initial=0.0))
        if beta_norm <= 1e-13 * max(scale, 1.0):
            exhausted = True
        else:
            offdiag_blocks.append(r)
            basis.append(qnext)

        if exhausted or step >= 2:
            theta, y = _ritz_from_blocks(diag_blocks, offdiag_blocks[:len(diag_blocks) - 1])
            if exhausted:
                resid = np.zeros_like(theta)
            else:
                bottom = y[-b:, :]
                resid = np.linalg.norm(offdiag_blocks[-1] @ bottom, axis=0)
            gate = s * (1.0 + TIE_GUARD)
            res_tol = max(1e-10, 1e-12 * max(scale, 1.0))
            converged = resid <= res_tol
            above = theta > gate
            count = int(np.count_nonzero(above & converged))
            all_above_converged = bool(np.all(converged[above]))
            below_anchor = exhausted or bool(np.any(converged & ~above))
            no_crossers = bool(np.all(theta[~converged] + resid[~converged] < gate)) \
                if np.any(~converged) else True
            if all_above_converged and below_anchor and no_crossers:
                conv_theta = theta[converged]
                upper = conv_theta[conv_theta > gate]
                lower = conv_theta[conv_theta <= gate]
                cert = min(
                    float(upper.min() - s) if len(upper) else np.inf,
                    float(s - lower.max()) if len(lower) else np.inf,
                )
                if cert == np.inf:
                    cert = s  # spectrum entirely on one side of the threshold
                if cert >= certificate_floor and (count == last_count or exhausted):
                    return CountResult(count, cert, "krylov", True)
                last_count = count
        if exhausted:
            break

    if dim <= dense_cap:
        dense = assemble_dense(op, cap=dense_cap)
        spectrum = hermitian_eigenvalues(dense, residual_check=False)
        count = count_above(spectrum, s)
        gaps = np.abs(spectrum.values - s)
        cert = float(gaps.min()) if len(gaps) else s
        return CountResult(count, cert, "dense", True)
    return CountResult(None, 0.0, "krylov", False)
