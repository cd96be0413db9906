"""Eigenvalue computation and the counting functionals.

Spectra are plain descending ndarrays.  Counts use strict inequality with
a fixed relative tie guard: a value counts as above the threshold s only
when it exceeds s * (1 + 1e-12), so machine-precision ties resolve
deterministically.  Every count carries one of two certificates: the
straddle of converged Ritz values, or a Sylvester inertia bracket.  A
Birman-Schwinger count comes from one matrix-free block Lanczos run for
all thresholds (iterative_count_above), certified by the straddle.  Its
basis stays orthogonal through one Gram-Schmidt pass per block against
the whole basis, repeated only when the DGKS criterion finds that pass
cancelled too much.  The run starts on a block of _BLOCK = 2 vectors,
which sees at most two copies of an eigenvalue; when a converged Ritz
cluster above the smallest threshold is as wide as the block, a
multiplicity could hide, and the run restarts on twice the block with the
same column cap.  When a count cannot be certified, each threshold is
counted on the dense matrix by an inertia bracket instead.

The Lanczos run works on p(A) rather than A, where p is a Chebyshev
filter p(x) = T_d((x - c) / e) of odd degree d that maps [-b, a] onto
[-1, 1]: a = s_min / 2 for the smallest threshold s_min, b the norm bound
max(W)^2 max_xi ||mult(xi)||_2 of the handle, or 0 when the multiplier is
positive semidefinite at every mode, as the flow's crossing operator is
(Zhou & Saad 2007; Fang & Saad 2012).  The Birman-Schwinger spectrum of a
power decay is symmetric, and plain Lanczos converges both ends of it,
although no threshold asks about the negative one; p damps it, and a
basis holds fewer columns per counted eigenvalue.  The counts stay exact:
for every s > a and every real x, x > s exactly when p(x) > p(s), because
|p| <= 1 < p(s) on [-b, a], p < -1 below -b (d is odd; an even d would
count the eigenvalues there), and p increases above a.  So b needs no
rigour and only sets how fast the run converges, and the run counts p(A)
above p(s (1 + 1e-12)).  Certificates stay in A-space: a Ritz value
theta > 1 of p(A) maps back to c + e cosh(arccosh(theta) / d), and one at
most 1 to a, the nearest to s that its eigenvalue can lie.  The
certificates, the floor that sends a count to the dense path and the
multiplicity clusters all use the mapped values; an exact multiplicity
stays exact under p, a width in p-space is not one in A-space.  ||p(A)||
reaches T_d(3) (1.5e11 at d = 15), so the tolerances relative to it are
loose near the thresholds; a count settles only when every Ritz value
clears p(s (1 + 1e-12)) by its residual.

The degree is the least odd d >= 3 with p(s_min) >= _FILTER_GAIN = 10,
and d = 1, no filter (the unfiltered run itself), when that needs more
than _FILTER_MAX_DEGREE = 15.  Both were measured, one
iterative_count_above call per fresh process on 2 vCPUs.  Gains
3, 10, 30 and 100 give theorem 2 at n = 80, L = 48, alpha 2-12 degrees 7,
11, 15 and 19, 608, 480, 416 and 384 columns, 7.4, 6.3-7.1, 6.2 and
6.3 s, 268, 225, 205 and 196 MB (unfiltered: 1056 columns, 21.9 s,
435 MB); at n = 96, L = 24, alpha 2-6 degrees 5, 9, 11 and 15, 224, 160,
160 and 128 columns, 2.0-2.2 s each (unfiltered: 352 columns, 2.4 s).
Above 10 the columns fall slowly and the time not at all, while the n = 80
degree reaches the maximum.  Weyl thresholds sit near the dense centre of
the spectrum: gain 10 needs d = 25 for the weyl-flow benchmark shape
(Gaussian, n = 24) and 55 for the Gaussian at n = 96, alpha 5-160, and
forced filters did not pay there: at n = 96 degrees 7, 15 and 25 took 352,
320 and 224 columns in 5.2, 6.7-7.4 and 7.6 s, against 352 columns in
2.6 s unfiltered; at n = 24, degrees 5-13 took the same 96 columns as no
filter, in 0.09-0.13 s against 0.04 s.

A count that needs no eigenvalues comes from the Sylvester inertia of an
LDL^H factorization (inertia).  inertia factors a complex C-ordered matrix
in place and consumes it, so a count holds one dense matrix, not the
matrix and a shifted copy; its probe residual reads the original matrix
from the triangle the factor leaves untouched.  A Hermitian matrix on two
spinor components whose second-component block lies below the shift is
counted on one component (nested_complements): by Haynsworth's inertia
additivity its count above the shift is that of an N x N complement,
built by a Cholesky factor, a triangular solve and a rank-N update, with
two N x N arrays live at once.  One such elimination serves a whole chain
of nested leading blocks: the factor and the solve of the largest block
restrict to every leading block, and each smaller complement is a rank-k
downdate of the one before, read from the triangle that its count left in
place.

Every inertia count that may meet an eigenvalue at its threshold is
bracketed (inertia_bracket): the matrix is factored just below and just
above the threshold, DEGENERACY_TOL = 1e-10 away on either side, and a
difference between the two counts puts an eigenvalue in that window.  The
Birman-Schwinger dense fallback, the flow's fallback on the dense
D(alpha) and the crossterm counts all go through it.  A crossterm count
of singular values sigma(P) > t is the count of the Gram matrix G on P's
smaller side (gram_matrix) above t^2, since the nonzero eigenvalues of
P P^H and P^H P are the squares of the singular values (Golub & Kahan
1965), and its window is [max(t - 1e-10, 0)^2, (t + 1e-10)^2], the
sigma-space window squared.  Forming G squares the condition number, but
a count only asks on which side of t^2 an eigenvalue of G lies.  Rounding
moves an eigenvalue of G by about u ||P||^2, u the unit roundoff (at worst
k u ||P||^2 for the longer side k of P), so a sigma near t moves by that
over 2 t.  At n = 48 (power decay p = 1, L = 24, eps1 0.5, eps2 1.5,
epsilon 0.5, alpha 2-6) every zone block has ||P|| <= 0.54, k <= 4382 and
t >= 0.083: the shift is below 1e-14 relative to t, and even the worst
case is below 1e-12 absolute, far inside the window.  The dense spectrum
(hermitian_eigenvalues) is left to the flow-trace plot.

Small dense factorizations and small Krylov runs use one BLAS thread
(_single_blas_thread).  numpy and scipy each bundle their own OpenBLAS,
each with a thread pool as wide as the machine.  On 2 vCPUs a second
thread saves little wall time at these sizes, and after every threaded
burst the pool's worker busy-waits 2^k cycles before it sleeps, k the
OPENBLAS_THREAD_TIMEOUT that importing gapcount sets to 16 unless the
environment sets it (OpenBLAS's default k = 28 spun about 0.13 s of CPU
time; the limits below were measured then).  An inertia count of
dimension up to _SINGLE_THREAD_LIMIT = 2048 runs on one thread: a
threaded LDL^H of a few hundred to a couple of thousand rows spends more
time in the two pools' contention than in arithmetic, the first call in a
process sometimes close to a second.  A
Krylov count of dimension up to _KRYLOV_SINGLE_THREAD_LIMIT = 3872
(n = 44) runs its Lanczos on one thread: its applies are FFTs, one thread
anyway, and its GEMMs are thin products with the basis, where a second
thread mostly spins.  Each pool's thread count is restored when the call
returns or raises.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

from .operators import (_STRIP_BYTES, DENSE_CAP, LinearOperatorHandle, assemble_dense,
                        check_hermitian)

TIE_GUARD = 1e-12
DEGENERACY_TOL = 1e-10  # absolute half-width of an inertia bracket
INERTIA_RESIDUAL_TOL = 1e-8
_INERTIA_PROBES = 5
_RESIDUAL_CHECK_LIMIT = 3000  # above this, eigenvector residual spot-checks cost
                              # another O(n^3) pass and are skipped
_SINGLE_THREAD_LIMIT = 2048  # largest dimension factored on one BLAS thread
                             # (see _single_blas_thread)
_KRYLOV_SINGLE_THREAD_LIMIT = 3872  # largest dimension counted by Lanczos on
                                    # one BLAS thread (n = 44; see
                                    # _single_blas_thread)
_BLOCK = 2  # Krylov start block, doubled while a multiplicity could hide
_CERTIFICATE_FLOOR = 1e-8  # a converged Ritz value this close to a threshold
                           # sends every count to the dense path
_CHECK_EVERY = 32  # Krylov columns between Ritz checks while the basis is small
_DGKS = 1.0 / np.sqrt(2.0)  # a vector keeping less of its norm through a
                            # Gram-Schmidt pass is orthogonalized again
_FILTER_GAIN = 10.0  # least filter value at the smallest threshold
_FILTER_MAX_DEGREE = 15  # a filter needing a higher degree is not used
_PANEL = 64  # rows of Y per rank-k downdate (nested_complements)


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

    counts[i] is the number of eigenvalues above s (1 + 1e-12), s the i-th
    threshold.  certificates[i] depends on the method.  For "krylov" it is
    the distance from s to the nearest converged Ritz value, at least
    _CERTIFICATE_FLOOR.  For "dense" it is the half-width of the
    eigenvalue-free window of the inertia bracket around s: DEGENERACY_TOL
    when no eigenvalue lies within DEGENERACY_TOL of s, and 0 when one does
    (inertia_bracket), which marks the count degenerate.  An inconclusive
    result has counts None.

    columns is the number of Krylov basis vectors built over every run,
    also those a wider block restarted and those before a dense fallback.
    block is the start block of the last Krylov run: the one whose counts
    are returned, or the widest tried before the dense path or an
    inconclusive result.  filter_degree is the degree of the Chebyshev
    filter the Krylov runs applied (_chebyshev_filter), 1 for an unfiltered
    run.
    """

    counts: tuple[int, ...] | None
    certificates: tuple[float, ...]
    method: str  # "krylov" | "dense"
    columns: int
    block: int
    filter_degree: int

    @property
    def conclusive(self) -> bool:
        return self.counts is not None

    @property
    def certificate(self) -> float:
        """The smallest certificate over all thresholds."""
        return min(self.certificates)


@functools.cache
def _blas_pools() -> tuple:
    """(package, get_num_threads, set_num_threads) of each bundled OpenBLAS.

    The builds numpy and scipy bundle are looked up in numpy.libs/ and
    scipy.libs/ on the first call, not at import; loading a library the
    process already has returns the loaded copy.  Empty when neither
    package bundles an OpenBLAS (a system BLAS, say).
    """
    found = []
    for package in (np, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                                   ("openblas_", "")):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((package.__name__, get, put))
                    break
    return tuple(found)


def blas_threads() -> dict[str, int]:
    """Thread count of each bundled OpenBLAS pool, keyed by package."""
    return {package: get() for package, get, _ in _blas_pools()}


@contextmanager
def _single_blas_thread(dim: int, limit: int):
    """Run the block on one thread in every OpenBLAS pool when dim <= limit.

    Above the limit the pools keep their thread counts.  A threaded call
    costs CPU time beyond its own: after every threaded burst the pool's
    worker busy-waits 2^k cycles before it sleeps, k the
    OPENBLAS_THREAD_TIMEOUT read when the library loads.  At OpenBLAS's
    default k = 28 that was about 0.13 s (11-14 clock ticks of the worker
    thread's CPU time in the 0.5 s after a burst of thin complex GEMMs, and
    none after a one-thread burst); at the k = 16 that importing gapcount
    sets, none.  Both limits, and the crossovers below, were measured at
    k = 28.  Two limits are used.

    _SINGLE_THREAD_LIMIT = 2048 serves the dense factorizations.  It is
    the measured crossover of inertia on random Hermitian matrices, three
    calls per fresh process on 2 vCPUs, one thread against numpy's and
    scipy's default 2: dim 576 0.02 s against 0.02-0.03 s (one first call
    0.79 s); 1152 0.11-0.14 s against 0.11-0.21 s; 2048 0.53-0.87 s against
    0.48-1.12 s at half the CPU time; 2304 0.69-1.29 s against 0.61-1.25 s;
    3072 1.48-1.70 s against 1.04-1.36 s.  The box study's elimination
    (nested_complements, N up to 784 on the box-localized benchmark)
    follows the same rule.  There, with potrf, trsm and herk on the default
    2 threads instead of one, study_s fell from 0.335 to 0.256 s but cpu_s
    rose from 1.27 to 1.45 s (medians of 4 alternating pairs, bench/run.py
    --seconds 20); on one thread both fall against the 2N x 2N LDL^H the
    study factored before, study_s 0.459 -> 0.288 s and cpu_s 1.30 ->
    1.09 s (10 pairs, --seconds 36).

    _KRYLOV_SINGLE_THREAD_LIMIT = 3872 serves the Lanczos runs of
    iterative_count_above.  It was measured with one call per fresh
    process, 10 alternating pairs per cell on 2 vCPUs, Birman-Schwinger
    handles at L = 24: a filtered theorem-2 run (power decay p = 1,
    Psi = 2, alpha 2, 3, 4, 6, degree 9) and an unfiltered Weyl run
    (centred Gaussian A = 4, w = 1, alpha 5-160).  Median wall and CPU
    seconds, one thread against two:

        n (dim)     theorem 2                    Weyl
        40 (3200)   0.42 / 0.42 vs 0.35 / 0.68   0.18 / 0.18 vs 0.17 / 0.33
        44 (3872)   0.52 / 0.52 vs 0.47 / 0.92   0.19 / 0.20 vs 0.20 / 0.38
        48 (4608)   0.48 / 0.48 vs 0.52 / 1.01   0.37 / 0.36 vs 0.28 / 0.54
        56 (6272)   0.60 / 0.60 vs 0.57 / 1.12   0.45 / 0.45 vs 0.38 / 0.76

    One thread halves the CPU time throughout.  Up to n = 44 it keeps the
    Weyl wall time and costs the theorem-2 run at most 0.07 s; from n = 48
    two threads win the Weyl run by 17-30 %, and at n = 64 both (0.89
    against 1.17 s for theorem 2, 0.81 against 1.15 s for Weyl, 3 pairs).
    The thread counts are process-wide, so this is for serial callers;
    every study runs serially.
    """
    pools = _blas_pools() if dim <= limit else ()
    before = [get() for _, get, _ in pools]
    try:
        for _, _, put in pools:
            put(1)
        yield
    finally:
        for (_, _, put), threads in zip(pools, before):
            put(threads)


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Full descending spectrum of a Hermitian matrix.

    For dimensions up to 3000 eigenvectors are computed as well and five
    spread-out eigenpairs are verified to satisfy ||A v - w v|| <= 1e-8 ||A||
    (RuntimeError otherwise); larger problems use the eigenvalue-only LAPACK
    driver, whose backward stability bounds the error.  The matrix is
    checked, never repaired: a Hermiticity defect above 1e-9 relative
    raises ValueError (check_hermitian), and every dense block built by
    operators is exactly Hermitian.
    """
    a = np.asarray(matrix)
    check_hermitian(a)
    dim = a.shape[0]
    if dim > _RESIDUAL_CHECK_LIMIT:
        return np.linalg.eigvalsh(a)[::-1].copy()
    w, v = np.linalg.eigh(a)
    idx = np.unique(np.linspace(0, dim - 1, 5).astype(int))
    resid = float(np.linalg.norm(a @ v[:, idx] - v[:, idx] * w[idx], axis=0).max())
    # the residual scale is a strided dot product: at dim 784, 0.85 ms on one
    # thread against 0.92 ms on two at k = 16 and 11.7 ms at k = 28 (see
    # _single_blas_thread); eigh keeps the default threads, which fix its
    # rounding
    with _single_blas_thread(dim, _SINGLE_THREAD_LIMIT):
        norm_est = float(np.linalg.norm(a, ord="fro")) or 1.0
    if resid > 1e-8 * norm_est:
        raise RuntimeError(
            f"eigenpair residual {resid:.3e} exceeds 1e-8 * ||A|| = "
            f"{1e-8 * norm_est:.3e}"
        )
    return w[::-1].copy()


def _pivot_inertia(ldu: np.ndarray, ipiv: np.ndarray) -> tuple[int, int, int]:
    """Inertia of the block diagonal D of a lower Bunch-Kaufman factorization.

    ipiv[k] > 0 marks a 1x1 block at k, counted by the sign of its pivot;
    ipiv[k] == ipiv[k+1] < 0 marks a 2x2 block on rows k, k+1.  The blocks
    are disjoint, so the negative entries come in adjacent pairs and every
    other one starts a block.  A 2x2 block's inertia follows from its
    determinant, then its trace: a negative determinant gives one eigenvalue
    of each sign, a positive one two of the trace's sign, and a zero one a
    zero and one of the trace's sign.
    """
    signs = np.sign(ldu.diagonal().real)
    k = np.flatnonzero(ipiv < 0)[::2]
    a, c = ldu[k, k].real, ldu[k + 1, k + 1].real
    det = a * c - np.abs(ldu[k + 1, k]) ** 2
    trace = np.sign(a + c)
    signs[k] = np.where(det < 0, -1.0, np.where(det > 0, trace, 0.0))
    signs[k + 1] = np.where(det < 0, 1.0, trace)
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

    A complex C-contiguous matrix is factored in place and its contents
    are destroyed, as with scipy's overwrite_a=True: afterwards its strict
    upper triangle holds the factor, and passing it again fails the
    Hermiticity check.  Pass a.copy() to keep a.  Any other input (real,
    Fortran-ordered, a transposed view) is first copied into a private
    complex C-ordered array and is left unchanged.  The factor leaves the
    strict lower triangle holding A, so after the probe solve the saved
    diagonal is put back and the residual applies A by a Hermitian product
    (zhemm) that reads only those entries: a count allocates no second
    dense matrix.  On return, also from an exactly singular factorization,
    the strict lower triangle and the diagonal hold the input
    (nested_complements reads the next complement from them).

    Up to dimension _SINGLE_THREAD_LIMIT the factorization, the probe solve
    and the residual product run on one thread in each of the two bundled
    OpenBLAS pools (numpy's and scipy's), which on 2 vCPUs otherwise
    contend; the thread counts are restored afterwards, also on an error.
    """
    a = np.ascontiguousarray(matrix, dtype=complex)
    check_hermitian(a)
    shift = float(shift)
    dim = a.shape[0]
    if dim == 0:
        return InertiaResult(0, 0, 0, 0.0)
    with _single_blas_thread(dim, _SINGLE_THREAD_LIMIT):
        # a.T is Fortran-ordered and holds conj(A), whose inertia equals that
        # of A because A is Hermitian.  LAPACK factors its lower triangle in
        # place (a's upper triangle); its strict upper triangle keeps conj(A).
        f = a.T
        diagonal = a.diagonal().copy()
        norm_est = float(np.linalg.norm(a)) + abs(shift) * np.sqrt(dim)
        a.flat[::dim + 1] -= shift
        lapack = scipy.linalg.lapack
        lwork, _ = lapack.zhetrf_lwork(dim, lower=1)
        ldu, ipiv, info = lapack.zhetrf(f, lower=1, lwork=int(lwork.real),
                                        overwrite_a=1)
        if info < 0:
            raise RuntimeError(f"zhetrf rejected argument {-info}")
        negative, zero, positive = _pivot_inertia(ldu, ipiv)
        if info > 0:
            a.flat[::dim + 1] = diagonal
            return InertiaResult(negative, zero, positive, float("nan"))
        rng = np.random.default_rng(0)
        b = rng.standard_normal((dim, _INERTIA_PROBES)) \
            + 1j * rng.standard_normal((dim, _INERTIA_PROBES))
        x, _ = lapack.zhetrs(ldu, ipiv, b, lower=1)
        a.flat[::dim + 1] = diagonal
        r = scipy.linalg.blas.zhemm(1.0, f, x, lower=0) - shift * x - b
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


@dataclass(frozen=True)
class InertiaBracket:
    """Inertia of A minus three shifts: low, high and strict.

    An eigenvalue lies in [low, high] exactly when the counts below low and
    at most high differ (degenerate).  residual is the largest probe
    residual of the factorizations behind the bracket (nan ones skipped).
    """

    low: InertiaResult
    high: InertiaResult
    strict: InertiaResult

    @property
    def degenerate(self) -> bool:
        return self.high.negative + self.high.zero != self.low.negative

    @property
    def residual(self) -> float:
        return float(np.fmax.reduce([self.low.residual, self.high.residual,
                                     self.strict.residual]))


def inertia_bracket(factor, low: float, high: float, strict: float) -> InertiaBracket:
    """The inertia at strict, and whether an eigenvalue lies in [low, high].

    factor(shift) returns the InertiaResult of A - shift, factoring a fresh
    matrix on each call, as inertia consumes its input.  A is factored at
    low, then at high, and at strict only when the two counts differ (an
    eigenvalue lies in the window) or strict lies outside [low, high].
    Otherwise no eigenvalue lies between low and high, and the inertia at
    strict is that at high.  Every non-Krylov count goes through here, with
    low and high DEGENERACY_TOL (absolute) either side of its threshold.
    """
    at_low, at_high = factor(low), factor(high)
    bracket = InertiaBracket(at_low, at_high, at_high)
    if bracket.degenerate or not low <= strict <= high:
        bracket = InertiaBracket(at_low, at_high, factor(strict))
    return bracket


def _mirror(s: np.ndarray, upper: bool = True) -> None:
    """Overwrite one strict triangle of a square C-ordered array with the
    conjugate transpose of the other, the upper one (upper) or the lower
    one, in row strips of about 1 MiB, so that s is exactly Hermitian."""
    dim = s.shape[0]
    if dim == 0:
        return
    # the transpose's upper triangle is s's lower one
    t = s if upper else s.T
    strip = max(1, _STRIP_BYTES // (16 * dim))
    for r0 in range(0, dim, strip):
        r1 = min(r0 + strip, dim)
        np.conjugate(t[:r0, r0:r1].T, out=t[r0:r1, :r0])
        diagonal = t[r0:r1, r0:r1]
        below = np.tril_indices(r1 - r0, -1)
        diagonal[below] = diagonal.T[below].conj()


def gram_matrix(block: np.ndarray) -> np.ndarray:
    """P P^H or P^H P, whichever is smaller, for a complex C-ordered P.

    Its eigenvalues are the squares of P's singular values, less the zeros
    of the longer side (Golub & Kahan 1965).  It is built by one rank-k
    update (zherk) into a fresh array and its triangle mirrored (_mirror),
    so it is exactly Hermitian.  zherk runs on P.T, a
    Fortran-ordered view holding P^T, and builds conj(G) = G^T in Fortran
    order, whose C-ordered transpose view is G.  An empty P gives a 0 x 0
    matrix.
    """
    rows, cols = block.shape
    if min(rows, cols) == 0:
        return np.zeros((0, 0), dtype=complex)
    a = np.ascontiguousarray(block, dtype=complex).T
    g = scipy.linalg.blas.zherk(1.0, a, trans=2 if rows <= cols else 0, lower=1).T
    _mirror(g)
    return g


def nested_complements(block, sizes, shift: float):
    """Complements onto the first component of nested leading blocks, largest first.

    block(a, b) returns the (a, b) component block, N x N with N >= 1, of a
    Hermitian two-component matrix A = [[A00, A01], [A10, A11]], as a fresh
    complex C-ordered array, which this consumes; block is called for
    (1, 1), (0, 1) and (0, 0) in that order, once each.  sizes is a
    non-decreasing sequence N_1 <= ... <= N_K = N, and A_k is the
    sub-matrix of A on the leading N_k rows and columns of each component.
    This yields, for k = K down to 1, S'_k = A00_k + A01_k M_k^-1 A10_k with
    M_k = shift - A11_k.  M = shift - A11 must be positive definite, and a
    Cholesky failure raises ValueError naming the second-component block.
    Every M_k is a leading block of M and so positive definite too; A_k -
    shift has the complement S'_k - shift onto the first component, and by
    Haynsworth's inertia additivity A_k - shift has N_k + negative(S'_k -
    shift) negative, zero(S'_k - shift) zero and positive(S'_k - shift)
    positive eigenvalues: inertia(S'_k, shift) counts A_k.

    One elimination serves every k.  M = L L^H (zpotrf) and Y = L^-1 A10
    (ztrsm, in place) are computed once, on the largest block.  M_k is the
    leading block of M, so its factor is L[:N_k, :N_k], and as L is lower
    triangular, L_k^-1 A10_k = Y[:N_k, :N_k].  The largest complement is
    S' = A00 + Y^H Y (zherk into A00's buffer), and each smaller one is a
    downdate of the one before, S'_k = S'_{k+1}[:N_k, :N_k] - Z^H Z with
    Z = Y[N_k:N_{k+1}, :N_k], the rows between the two leading sets.  Z^H Z
    is subtracted by zherk in row panels of at most _PANEL rows: scipy
    copies an operand that is not contiguous, and the panel bounds the
    copy.

    Every complement lives in A00's buffer: S'_k is the C-ordered prefix
    view of its first N_k^2 entries, valid until the next one is requested.
    The next is built from its strict lower triangle and diagonal, which
    inertia leaves in place: they are copied into the shorter prefix row by
    row, each row moving left, downdated there and mirrored into the upper
    triangle.  So each complement is exactly Hermitian, and a consumer may
    overwrite only its strict upper triangle, as inertia does.  M is freed
    before A00 is gathered; from the first complement on, Y and the buffer
    are the two N x N arrays live.  The LAPACK routines work on each
    C-ordered array's transpose, a Fortran-ordered view that holds its
    conjugate, so they factor conj(M) and build conj(S'_k), whose C-ordered
    view is S'_k.  Up to dimension _SINGLE_THREAD_LIMIT each elimination or
    downdate runs on one thread in each OpenBLAS pool (_single_blas_thread);
    the pools are restored before each complement is handed out.
    """
    shift = float(shift)
    sizes = [int(size) for size in sizes]
    m = block(1, 1)
    dim = m.shape[0]
    if not sizes or sizes[-1] != dim or sizes[0] < 0 or any(
            b < a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must rise to the block dimension {dim}, got {sizes}")
    blas, lapack = scipy.linalg.blas, scipy.linalg.lapack
    with _single_blas_thread(dim, _SINGLE_THREAD_LIMIT):
        np.negative(m, out=m)
        m.flat[::dim + 1] += shift
        factor, info = lapack.zpotrf(m.T, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise ValueError(f"second-component block minus {shift:g} is not negative "
                             f"definite (zpotrf info {info})")
        # the transpose of A01 holds conj(A10), so y holds conj(Y)
        y = blas.ztrsm(1.0, factor, block(0, 1).T, lower=1, overwrite_b=1)
        del m, factor
        s = block(0, 0)
        blas.zherk(1.0, y, beta=1.0, c=s.T, trans=2, lower=1, overwrite_c=1)
    # the transpose's lower triangle is s's upper one
    _mirror(s)
    buffer = s.reshape(-1)
    yield s
    outer = dim
    for size in reversed(sizes[:-1]):
        s = buffer[:size * size].reshape(size, size)
        if 0 < size < outer:
            for row in range(1, size):
                buffer[row * size:row * size + row + 1] = \
                    buffer[row * outer:row * outer + row + 1]
            with _single_blas_thread(dim, _SINGLE_THREAD_LIMIT):
                for r0 in range(size, outer, _PANEL):
                    # s.T's upper triangle is s's lower one
                    blas.zherk(-1.0, y[r0:min(r0 + _PANEL, outer), :size], beta=1.0,
                               c=s.T, trans=2, lower=0, overwrite_c=1)
        _mirror(s, upper=False)
        yield s
        outer = size


# ---------------------------------------------------------------------------
# Krylov counting with a straddle certificate
# ---------------------------------------------------------------------------

def _column_cap(dim: int) -> int:
    """Largest Krylov basis before the dense fallback takes over.

    Reorthogonalization costs about 8 dim k^2 flops for k columns (one
    global Gram-Schmidt pass per block; 16 dim k^2 if every block needed
    the second) and the spaced Ritz checks at most about 50 dim k^2,
    against roughly 5 dim^3 for the dense eigensolve, so a quarter of the
    dimension keeps an inconclusive run below the dense path (measured at
    about half of it at dimensions 2048 and 3200, with two passes per
    block).  The cap stays a quarter although one pass made the columns
    cheaper, because it sets where a run gives up, and so the column counts
    and certificates that reports record.  Every problem gets at least 384
    columns: below dimension 1536 that floor lets an inconclusive run cost
    up to a few tenths of a second, several times a dense path that is
    itself that cheap, in exchange for matrix-free counts on small grids.
    The cap is in columns and does not depend on the start block, so a run
    that iterative_count_above restarts on a wider block has the same
    budget; it widens only while the block stays below the cap.
    """
    return int(min(dim, max(dim // 4, 384)))


@dataclass(frozen=True)
class _ChebyshevFilter:
    """p(x) = T_d((x - centre) / half_width), which maps [-b, a] onto [-1, 1].

    Degree 1 is no filter: p is then the identity, not the affine map T_1,
    so an unfiltered run does exactly what plain Lanczos on A does.
    """

    degree: int
    centre: float = 0.0
    half_width: float = 1.0

    def __call__(self, x):
        """p(x), by the recurrence T_{k+1}(y) = 2 y T_k(y) - T_{k-1}(y)."""
        if self.degree == 1:
            return x
        y = (x - self.centre) / self.half_width
        prev, cur = 1.0, y
        for _ in range(self.degree - 1):
            prev, cur = cur, 2.0 * y * cur - prev
        return cur

    def inverse(self, theta):
        """The eigenvalue of A behind an eigenvalue theta of p(A).

        Above 1 that is the unique x > a with p(x) = theta; a theta of at
        most 1 comes from an eigenvalue at most a and is mapped to a, the
        nearest it can lie to a threshold.
        """
        if self.degree == 1:
            return theta
        return self.centre + self.half_width * np.cosh(
            np.arccosh(np.maximum(theta, 1.0)) / self.degree)

    def apply(self, op, x):
        """p(A) on the rows of x, shape (k, dim): degree applies of A."""
        a = op.apply_array
        if self.degree == 1:
            return a(x)
        prev, cur = x, (a(x) - self.centre * x) / self.half_width
        for _ in range(self.degree - 1):
            prev, cur = cur, (2.0 / self.half_width) * (a(cur) - self.centre * cur) - prev
        return cur


def _mode_spectra(op) -> tuple[np.ndarray, np.ndarray]:
    """Half trace h and radius r of mult per mode, its eigenvalues h -/+ r."""
    m = op.mult
    half_trace = 0.5 * (m[0, 0].real + m[1, 1].real)
    radius = np.hypot(0.5 * (m[0, 0].real - m[1, 1].real), np.abs(m[0, 1]))
    return half_trace, radius


def _norm_bound(op) -> float:
    """max(W)^2 max_xi ||mult(xi)||_2, a bound on ||op||; for a
    Birman-Schwinger handle, max V / (m - |lambda|)."""
    half_trace, radius = _mode_spectra(op)
    weight = 1.0 if op.weight is None else float(np.abs(op.weight).max())
    return weight ** 2 * float((np.abs(half_trace) + radius).max())


def _chebyshev_filter(op, thresholds) -> _ChebyshevFilter:
    """The filter of a Krylov count: odd degree, damping [-b, s_min / 2].

    b is 0 when mult is positive semidefinite at every mode, to rounding,
    and _norm_bound(op) otherwise; it need not bound ||op||, since the
    counts stay exact for any b.  The degree is the least odd d >= 3 with
    p(s_min) >= _FILTER_GAIN, or 1 (no filter) when that needs more than
    _FILTER_MAX_DEGREE.
    """
    half_trace, radius = _mode_spectra(op)
    positive = np.all(half_trace - radius >= -1e-12 * (np.abs(half_trace) + radius))
    b = 0.0 if positive else _norm_bound(op)
    s = min(thresholds)
    a = 0.5 * s
    centre, half_width = 0.5 * (a - b), 0.5 * (a + b)
    width = np.arccosh((s - centre) / half_width)  # T_d(y) = cosh(d arccosh y)
    for degree in range(3, _FILTER_MAX_DEGREE + 1, 2):
        if np.cosh(degree * width) >= _FILTER_GAIN:
            return _ChebyshevFilter(degree, centre, half_width)
    return _ChebyshevFilter(1)


def _widest_cluster(values) -> int:
    """Members of the largest run of ascending values, each within
    _CERTIFICATE_FLOOR of the one before (0 for no values)."""
    if len(values) == 0:
        return 0
    breaks = np.flatnonzero(np.diff(values) > _CERTIFICATE_FLOOR)
    edges = np.concatenate(([-1], breaks, [len(values) - 1]))
    return int(np.diff(edges).max())


def _ritz_verdicts(proj, k, lo, coupling, dropped, exhausted, scale, thresholds,
                   filt):
    """Count and certificate per threshold from one Rayleigh-Ritz step, and
    the widest cluster of converged Ritz values above the smallest threshold.

    proj[:k, :k] is the projection Q^H p(A) Q on the k processed columns, lo:k
    the last processed block and coupling its projection onto the next
    block.  A Ritz pair's residual is ||coupling y_last|| plus the norm of
    every residual direction that deflation dropped.  Convergence and the
    counts are read in p-space, against p(s (1 + 1e-12)); the certificates
    and the cluster use the Ritz values mapped back to A (filt.inverse).
    For each threshold the verdict is None (not settled yet), or the count
    with the distance from the threshold to the nearest converged Ritz
    value.  The cluster is counted by _widest_cluster.
    """
    t = proj[:k, :k]
    theta, y = np.linalg.eigh(0.5 * (t + t.conj().T))
    resid = np.full(k, np.sqrt(dropped))
    if not exhausted:
        resid += np.linalg.norm(coupling @ y[lo:k], axis=0)
    converged = resid <= max(1e-10, 1e-12 * scale)
    values = filt.inverse(theta)
    verdicts = []
    for s in thresholds:
        gate = filt(s * (1.0 + TIE_GUARD))
        above = theta > gate
        # every Ritz value clears the gate by its residual, so each lies on
        # the side of the gate of an eigenvalue within that residual
        settled = (np.all(converged[above])
                   and (exhausted or bool(np.any(converged & ~above)))
                   and bool(np.all(np.abs(theta - gate) > resid)))
        if not settled:
            verdicts.append(None)
            continue
        upper = values[converged & above]
        lower = values[converged & ~above]
        cert = min(float(upper.min() - s) if len(upper) else np.inf,
                   float(s - lower.max()) if len(lower) else np.inf)
        # np.inf: the whole spectrum lies on one side of the threshold
        verdicts.append((int(np.count_nonzero(above)), s if cert == np.inf else cert))
    gate = filt(min(thresholds) * (1.0 + TIE_GUARD))
    return verdicts, _widest_cluster(values[converged & (theta > gate)])


def _orthogonalize(w, q, coefficients):
    """One classical Gram-Schmidt pass of the rows of w against the rows of q.

    Subtracts from each vector x of w its components Q^H x, in place, and
    adds them to coefficients (shape rows of q by rows of w).
    """
    c = (q @ w.conj().T).conj()  # Q^H x for the block's vectors x
    w -= c.T @ q
    coefficients += c


def _block_lanczos(op, filt, thresholds, columns, block):
    """Certified counts for every threshold, or None; and the columns built.

    The counts come as (counts, certificates, widest), widest being the
    largest cluster of converged Ritz values above the smallest threshold
    at the check that certified them (_ritz_verdicts).  The run is Lanczos
    on p(A), p the filter filt (the identity at degree 1), and A below
    stands for p(A).  The basis lives in one preallocated array, a row per
    vector, each row a flattened component-major field that op.apply_array
    takes as it is, and each orthogonalization pass against it is a single
    GEMM.  A new block A x is first orthogonalized against the previous and
    the current block (the Lanczos recurrence), then once against the whole
    basis, and once more only if that pass left some vector less than
    1/sqrt(2) of its norm: "twice is enough" (Daniel, Gragg, Kaufman &
    Stewart, 1976).  Every coefficient goes into the projection Q^H A Q,
    which is kept in full and lets the block size shrink: residual
    directions with singular value at most 1e-13 * ||A|| are dropped
    (deflation), and a residual with none left means the basis spans an
    invariant subspace (exhaustion), whose Ritz values are eigenvalues.
    """
    dim = op.dimension
    rng = np.random.default_rng(0)
    start = rng.standard_normal((dim, block)) + 1j * rng.standard_normal((dim, block))
    basis = np.empty((columns + block, dim), dtype=complex)
    proj = np.zeros((columns + block, columns + block), dtype=complex)
    basis[:block] = np.linalg.qr(start)[0].T
    # rows prev:lo hold the previous block and lo:hi the current one; hi is
    # the basis size
    prev, lo, hi = 0, 0, block
    scale = 0.0  # largest ||A q|| seen, a lower bound on ||A||
    dropped = 0.0  # squared norm of the dropped residual directions
    last = None  # counts of the previous check, None where not settled
    next_check = _CHECK_EVERY
    while True:
        w = filt.apply(op, basis[lo:hi])
        scale = max(scale, float(np.linalg.norm(w, axis=1).max()))
        _orthogonalize(w, basis[prev:hi], proj[prev:hi, lo:hi])  # the recurrence
        before = np.linalg.norm(w, axis=1)
        q = basis[:hi]
        _orthogonalize(w, q, proj[:hi, lo:hi])
        if np.any(np.linalg.norm(w, axis=1) < _DGKS * before):
            _orthogonalize(w, q, proj[:hi, lo:hi])
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
            # a check costs about 23 k^3 flops, and once k^2/(4 dim) columns
            # exceed _CHECK_EVERY the spacing grows to that: the checks up
            # to k columns then cost at most about 50 dim k^2 flops.  The
            # spacing was set against two reorthogonalization passes
            # (32 dim k per new column; one pass costs 16 dim k) and is
            # kept, so that each count settles at the same check
            next_check = hi + max(_CHECK_EVERY, hi * hi // (4 * dim))
            verdicts, widest = _ritz_verdicts(proj, hi, lo, coupling, dropped,
                                              exhausted, scale, thresholds, filt)
            if any(v is not None and v[1] < _CERTIFICATE_FLOOR for v in verdicts):
                break  # an eigenvalue sits within the floor of a threshold
            counts = [None if v is None else v[0] for v in verdicts]
            if None not in counts and (exhausted or counts == last):
                return (tuple(counts), tuple(v[1] for v in verdicts), widest), hi
            last = counts
        if exhausted or at_cap:
            break
        prev, lo, hi = lo, hi, hi + new.shape[1]
    return None, hi


def iterative_count_above(op: LinearOperatorHandle, thresholds,
                          dense_cap: int = DENSE_CAP) -> CountResult:
    """Count eigenvalues of the Hermitian sandwich op above each threshold.

    op, Hermitian by construction, is applied by FFT.  thresholds is a
    sequence of positive numbers; one block Lanczos run with full
    reorthogonalization (Golub & Underwood, 1977), started on a fixed
    random block of _BLOCK vectors (default_rng(0)), serves them all, and
    every count and certificate comes from the same Ritz values.  Each new
    block takes one Gram-Schmidt pass against the whole basis after the
    local recurrence, and a second only when the first cancelled more than
    the DGKS criterion allows (_block_lanczos).  A count is settled when every Ritz value
    above its threshold has converged, some converged Ritz value (or
    exhaustion) lies below it, and every Ritz value clears the threshold by
    its residual, so none could still cross.  It is certified when it is
    settled with the same value at two consecutive checks (every
    _CHECK_EVERY columns, spaced wider once the checks would dominate the
    cost), or once at exhaustion, and its certificate -- the distance from
    the threshold to the nearest converged Ritz value -- is at least
    _CERTIFICATE_FLOOR.

    The run applies the Chebyshev filter p of _chebyshev_filter, d
    operator applies per block, and counts p(op) above p(s (1 + 1e-12)),
    which for odd d and s above the damped interval [-b, s_min / 2] is the
    same count as op above s (1 + 1e-12), whatever b is (module docstring).
    Convergence is judged on p(op); certificates, the floor and the
    clusters below are distances in op's spectrum, from the Ritz values
    mapped back by p^-1.  The degree is the least odd d >= 3 with p(s_min)
    >= _FILTER_GAIN = 10, or 1, no filter, when that exceeds
    _FILTER_MAX_DEGREE = 15: power-decay thresholds get d = 7-11, Weyl
    thresholds near the dense centre of the spectrum none, and the flow's
    positive crossing operator, damped on [0, 1/2], d = 3.  filter_degree
    records d.

    A start block of b vectors sees at most b copies of an eigenvalue, so
    a multiplicity above b would be undercounted.  The counts are kept only
    when no cluster of converged Ritz values above the smallest threshold
    (consecutive values within _CERTIFICATE_FLOOR of each other) has b or
    more members.  Otherwise the run starts again, from the same start, on
    twice the block, with the same cap in columns; columns counts the
    vectors of every run.

    When some threshold cannot be certified within _column_cap basis
    vectors, a converged Ritz value lies within the floor of it, or a
    widened block would reach the cap, every count comes from the dense
    matrix instead, provided the dimension is within dense_cap; otherwise
    the result says inconclusive rather than guessing.  method is then
    "dense": each threshold s is counted by inertia_bracket at
    s -/+ DEGENERACY_TOL, with strict shift s (1 + 1e-12), and its
    certificate is DEGENERACY_TOL, or 0 when an eigenvalue lies within
    DEGENERACY_TOL of s.  Each factorization gathers the matrix afresh
    (assemble_dense) and consumes it, so the fallback holds one dense
    matrix at a time; every gather reads the kernel op cached at the first.

    Up to dimension _KRYLOV_SINGLE_THREAD_LIMIT the Lanczos runs use one
    thread in each OpenBLAS pool (_single_blas_thread); the dense fallback
    follows inertia's own limit.
    """
    values = np.asarray(thresholds, dtype=float)
    if values.ndim != 1 or len(values) == 0 or not np.all(values > 0):
        raise ValueError(f"thresholds must be a sequence of positive numbers, "
                         f"got {thresholds}")
    thresholds = tuple(float(x) for x in values)
    dim = op.dimension
    block = min(_BLOCK, dim)
    cap = _column_cap(dim)
    filt = _chebyshev_filter(op, thresholds)
    built = 0
    with _single_blas_thread(dim, _KRYLOV_SINGLE_THREAD_LIMIT):
        while True:
            found, columns = _block_lanczos(op, filt, thresholds, cap, block)
            built += columns
            if found is None:
                break
            counts, certificates, widest = found
            if widest < block:
                return CountResult(counts, certificates, "krylov", built, block,
                                   filt.degree)
            if 2 * block >= cap:
                break  # a multiplicity could hide, and no wider block fits
            block *= 2
    if dim > dense_cap:
        return CountResult(None, (0.0,) * len(thresholds), "krylov", built, block,
                           filt.degree)

    def factor(shift):
        return inertia(assemble_dense(op, cap=dense_cap), shift)

    brackets = [inertia_bracket(factor, x - DEGENERACY_TOL, x + DEGENERACY_TOL,
                                x * (1.0 + TIE_GUARD)) for x in thresholds]
    counts = tuple(b.strict.positive for b in brackets)
    certificates = tuple(0.0 if b.degenerate else DEGENERACY_TOL for b in brackets)
    return CountResult(counts, certificates, "dense", built, block, filt.degree)
