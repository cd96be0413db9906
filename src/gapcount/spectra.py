"""Eigenvalue/singular-value computation and the counting functionals.

Counts use strict inequality with a fixed relative tie guard: a value
counts as above the threshold s only when it exceeds s * (1 + 1e-12), so
machine-precision ties resolve deterministically.  Every count carries a
certificate.  A Birman-Schwinger count comes from one matrix-free block
Lanczos run for all thresholds (iterative_count_above), certified by the
straddle of converged Ritz values; when that cannot be certified, the
dense spectrum gives the counts and the distance to the nearest
eigenvalue.  A count that needs no eigenvalues comes from the Sylvester
inertia of an LDL^H factorization (inertia).  The dense spectrum is the
reference the other two are tested against on small grids.
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
_CHECK_EVERY = 4  # Krylov blocks between Ritz checks while the basis is small


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
    """Eigenvalue counts above one or more thresholds, with certificates.

    counts[i] is the number of eigenvalues above thresholds[i] (strict and
    tie-guarded like count_above); certificates[i] is the distance from
    thresholds[i] to the nearest eigenvalue the method resolved: a
    converged Ritz value ("krylov") or an eigenvalue of the dense spectrum
    ("dense").  An inconclusive result has counts None.  columns is the
    number of Krylov basis vectors built, also before a dense fallback.
    """

    thresholds: tuple[float, ...]
    counts: tuple[int, ...] | None
    certificates: tuple[float, ...]
    method: str  # "krylov" | "dense"
    conclusive: bool
    columns: int

    @property
    def count(self) -> int | None:
        """The count of a single-threshold result."""
        if len(self.thresholds) != 1:
            raise ValueError("a result for several thresholds has counts, not count")
        return None if self.counts is None else self.counts[0]

    @property
    def certificate(self) -> float:
        """The smallest certificate over all thresholds."""
        return min(self.certificates)


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
    zhetrf), so no eigenvalue is computed.  The matrix is checked for
    Hermiticity first, and the factorization is checked by solving with it
    on five fixed probe vectors: a relative backward residual above 1e-8
    raises RuntimeError.  An exactly singular D means shift is an
    eigenvalue to working precision and is reported in zero.
    """
    a = np.asarray(matrix)
    check_hermitian(a)
    shift = float(shift)
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

def _column_cap(dim: int, block: int) -> int:
    """Largest Krylov basis before the dense fallback takes over.

    Reorthogonalization costs about 16 dim k^2 flops for k columns and the
    spaced Ritz checks at most about 50 dim k^2, against roughly 5 dim^3
    for the dense eigensolve, so a quarter of the dimension keeps an
    inconclusive run below the dense path (measured at about half of it at
    dimensions 2048 and 3200).  Every problem gets at least 48 blocks:
    below dimension 1536 that floor lets an inconclusive run cost up to a
    few tenths of a second, several times a dense path that is itself that
    cheap, in exchange for matrix-free counts on small grids.
    """
    return int(min(dim, max(dim // 4, 48 * block)))


def _ritz_verdicts(proj, k, lo, coupling, dropped, exhausted, scale, thresholds):
    """Count and certificate per threshold from one Rayleigh-Ritz step.

    proj[:k, :k] is the projection Q^H A Q on the k processed columns, lo:k
    the last processed block and coupling its projection onto the next
    block.  A Ritz pair's residual is ||coupling y_last|| plus the norm of
    every residual direction that deflation dropped.  For each threshold
    the verdict is None (not settled yet), or the count with the distance
    from the threshold to the nearest converged Ritz value.
    """
    t = proj[:k, :k]
    theta, y = np.linalg.eigh(0.5 * (t + t.conj().T))
    resid = np.full(k, np.sqrt(dropped))
    if not exhausted:
        resid += np.linalg.norm(coupling @ y[lo:k], axis=0)
    converged = resid <= max(1e-10, 1e-12 * scale)
    verdicts = []
    for s in thresholds:
        gate = s * (1.0 + TIE_GUARD)
        above = theta > gate
        loose = ~converged
        settled = (np.all(converged[above])
                   and (exhausted or bool(np.any(converged & ~above)))
                   and bool(np.all(theta[loose] + resid[loose] < gate)))
        if not settled:
            verdicts.append(None)
            continue
        upper = theta[converged & above]
        lower = theta[converged & ~above]
        cert = min(float(upper.min() - s) if len(upper) else np.inf,
                   float(s - lower.max()) if len(lower) else np.inf)
        # np.inf: the whole spectrum lies on one side of the threshold
        verdicts.append((int(np.count_nonzero(above)), s if cert == np.inf else cert))
    return verdicts


def _block_lanczos(op, thresholds, columns, block, seed, certificate_floor):
    """Certified counts for every threshold, or None; and the columns built.

    The basis lives in one preallocated array (a row per vector), so each
    orthogonalization pass against it is a single GEMM.  The projection
    Q^H A Q is kept in full, which lets the block size shrink: residual
    directions with singular value at most 1e-13 * ||A|| are dropped
    (deflation), and a residual with none left means the basis spans an
    invariant subspace (exhaustion), whose Ritz values are eigenvalues.
    """
    dim = op.dimension
    n = op.grid.n_points
    rng = np.random.default_rng(seed)
    start = rng.standard_normal((dim, block)) + 1j * rng.standard_normal((dim, block))
    basis = np.empty((columns + block, dim), dtype=complex)
    proj = np.zeros((columns + block, columns + block), dtype=complex)
    basis[:block] = np.linalg.qr(start)[0].T
    lo, hi = 0, block  # rows of the current block; hi is the basis size
    scale = 0.0  # largest ||A q|| seen, a lower bound on ||A||
    dropped = 0.0  # squared norm of the dropped residual directions
    last = None  # counts of the previous check, None where not settled
    next_check = _CHECK_EVERY * block
    while True:
        w = op.apply_array(basis[lo:hi].reshape(-1, n, n, 2)).reshape(hi - lo, dim)
        scale = max(scale, float(np.linalg.norm(w, axis=1).max()))
        q = basis[:hi]
        for _ in range(2):  # full reorthogonalization, two passes
            c = (q @ w.conj().T).conj()  # Q^H A x for the block's vectors x
            w -= c.T @ q
            proj[:hi, lo:hi] += c
        qw, r = np.linalg.qr(w.T)
        u, sv, vh = np.linalg.svd(r)
        keep = sv > 1e-13 * scale
        dropped += float(np.sum(sv[~keep] ** 2))
        new = qw @ u[:, keep]
        coupling = sv[keep, None] * vh[keep]
        if keep.any() and sv[keep][-1] < 1e-4 * sv[0]:
            # dividing by a small singular value magnifies what rounding left
            # of the basis in w, so those directions are orthogonalized again
            new -= q.T @ (q @ new.conj()).conj()
            new, r2 = np.linalg.qr(new)
            coupling = r2 @ coupling
        exhausted = not keep.any()
        at_cap = hi >= columns
        if not (exhausted or at_cap):
            proj[hi:hi + new.shape[1], lo:hi] = coupling
            basis[hi:hi + new.shape[1]] = new.T
        if exhausted or at_cap or hi >= next_check:
            # a check costs about 23 k^3 flops against 32 dim k per new
            # column, so once k^2/(4 dim) columns exceed _CHECK_EVERY blocks
            # the spacing grows to that: the checks up to k columns then cost
            # at most about 50 dim k^2 flops
            next_check = hi + max(_CHECK_EVERY * block, hi * hi // (4 * dim))
            verdicts = _ritz_verdicts(proj, hi, lo, coupling, dropped, exhausted,
                                      scale, thresholds)
            if any(v is not None and v[1] < certificate_floor for v in verdicts):
                break  # an eigenvalue sits within the floor of a threshold
            counts = [None if v is None else v[0] for v in verdicts]
            if None not in counts and (exhausted or counts == last):
                return (tuple(counts), tuple(v[1] for v in verdicts)), hi
            last = counts
        if exhausted or at_cap:
            break
        lo, hi = hi, hi + new.shape[1]
    return None, hi


def iterative_count_above(op: LinearOperatorHandle, s,
                          max_columns: int | None = None, block_size: int = 8,
                          seed: int = 0, certificate_floor: float = 1e-8,
                          dense_cap: int = DENSE_CAP) -> CountResult:
    """Count eigenvalues of a Hermitian handle above each threshold in s.

    s is one threshold or a sequence of them; one block Lanczos run with
    full reorthogonalization (Golub & Underwood, 1977) serves them all, and
    every count and certificate comes from the same Ritz values.  A count
    is settled when every Ritz value above its threshold has converged,
    some converged Ritz value (or exhaustion) lies below it, and no
    unconverged Ritz value could still cross.  It is certified when it is
    settled with the same value at two consecutive checks (every 4 blocks,
    spaced wider once the checks would dominate the cost), or once at
    exhaustion, and its certificate -- the distance from the threshold to
    the nearest converged Ritz value -- is at least certificate_floor.

    When some threshold cannot be certified within max_columns basis
    vectors (default _column_cap), or a converged Ritz value lies within
    the floor of it, every count comes from the dense spectrum instead,
    with certificate min |eigenvalue - s|, provided the dimension is within
    dense_cap; otherwise the result says inconclusive rather than guessing.

    Eigenvalue multiplicities above block_size are invisible to the Krylov
    subspace; use the dense path when exact multiplicity counts matter.
    """
    values = np.atleast_1d(np.asarray(s, dtype=float))
    if values.ndim != 1 or len(values) == 0 or not np.all(values > 0):
        raise ValueError(f"thresholds must be positive, got {s}")
    thresholds = tuple(float(x) for x in values)
    if not op.hermitian:
        raise ValueError("iterative_count_above expects a hermitian handle")
    dim = op.dimension
    block = int(min(block_size, dim))
    columns = _column_cap(dim, block) if max_columns is None else int(max_columns)
    columns = min(dim, max(columns, block))
    found, built = _block_lanczos(op, thresholds, columns, block, seed,
                                  certificate_floor)
    if found is not None:
        return CountResult(thresholds, *found, "krylov", True, built)
    if dim > dense_cap:
        return CountResult(thresholds, None, (0.0,) * len(thresholds), "krylov",
                           False, built)
    spectrum = hermitian_eigenvalues(assemble_dense(op, cap=dense_cap),
                                     residual_check=False)
    counts = tuple(count_above(spectrum, x) for x in thresholds)
    certificates = tuple(float(np.abs(spectrum.values - x).min())
                         for x in thresholds)
    return CountResult(thresholds, counts, certificates, "dense", True, built)
