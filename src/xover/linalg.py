"""Dense symmetric linear algebra helpers.

Everything here operates on small dense matrices (order a few dozen at
most), singly or as stacks of shape (..., n, n): spectral
decomposition, Moore-Penrose inverses computed through the spectrum,
Schur complements, positive-semidefiniteness tests, and cycle analysis
of permutation matrices.  A stacked call treats each matrix exactly as
a call on that matrix alone would, bit for bit, because numpy's stacked
eigh, eigvalsh, cholesky, inv and matmul run one LAPACK or BLAS call
per matrix and every other step is elementwise or a reduction along one
matrix.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

# Relative asymmetry allowed before a matrix is rejected as non-symmetric.
SYM_TOL = 1e-12

# Rank threshold: an eigenvalue counts as nonzero when its magnitude
# exceeds n * |lambda|_max * RANK_RTOL, with an absolute floor RANK_FLOOR.
RANK_RTOL = 1e-10
RANK_FLOOR = 1e-12

# Information-ordering tolerance: A >= B when lam_min(A - B) >= -ORDER_TOL.
ORDER_TOL = 1e-9

_SCRATCH = threading.local()


def _scratch(name: str, size: int, dtype) -> np.ndarray:
    """The calling thread's flat scratch array of size items for name:
    one array per thread and name, grown to the largest size asked and
    never freed, so that the arrays every call rebuilds reuse its pages
    rather than the heap's top, which glibc trims after a large free and
    faults in again on the next call.  It holds what the last call left;
    a name always takes one dtype, and no caller returns a view of it.
    Only per-call arrays live here; what a design alone determines is
    built once per design and kept on it (designs._once)."""
    buf = getattr(_SCRATCH, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=dtype)
        setattr(_SCRATCH, name, buf)
    return buf[:size]


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric average of ``m``, a matrix or a stack of them.

    Raises ValueError if the asymmetry of any matrix exceeds SYM_TOL
    relative to its largest entry, so genuinely non-symmetric input is
    rejected rather than silently averaged away.  Input that equals its
    transpose exactly (the output of an earlier symmetrize, or a
    difference of such outputs) skips the measurement.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    mt = np.swapaxes(m, -1, -2)
    out = m - mt
    if out.any():
        scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1), initial=0.0))
        gap = np.max(np.abs(out, out=out), axis=(-2, -1), initial=0.0)
        if np.any(gap > SYM_TOL * scale):
            raise ValueError(
                f"matrix is not symmetric: max asymmetry {np.max(gap):.3e}"
            )
    np.add(m, mt, out=out)
    out /= 2.0
    return out


def _rank_threshold(n: int, lam_max):
    """The rank threshold of spectral_cut for spectra of order n."""
    return np.maximum(n * lam_max * RANK_RTOL, RANK_FLOOR)


def spectral_cut(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank threshold, nonzero mask and pseudo-reciprocals of spectra.

    vals holds eigenvalues along its last axis, one spectrum per leading
    index.  The threshold is n * |lambda|_max * 1e-10 with an absolute
    floor of 1e-12, which separates structural zeros (row-sum null
    vectors) from genuinely small eigenvalues near disconnection; the
    pseudo-reciprocal is 1/lambda above it and 0 below.
    """
    lam_max = np.max(np.abs(vals), axis=-1, initial=0.0)
    threshold = _rank_threshold(vals.shape[-1], lam_max)
    keep = np.abs(vals) > threshold[..., None]
    inv = np.divide(1.0, vals, out=np.zeros_like(vals), where=keep)
    return threshold, keep, inv


@dataclass(frozen=True)
class SpectralSummary:
    """Eigendecomposition of a symmetric matrix with rank bookkeeping.

    eigenvalues are ascending; eigenvectors are the matching orthonormal
    columns, or None where only the eigenvalues were computed (the
    A-criterion).  rank counts eigenvalues whose magnitude clears the
    threshold, and trace_mp is the trace of the Moore-Penrose inverse
    (sum of reciprocals over that nonzero spectrum).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    rank: int
    trace_mp: float
    threshold: float

    @property
    def nonzero(self) -> np.ndarray:
        return self.eigenvalues[np.abs(self.eigenvalues) > self.threshold]


def eigensym(m: np.ndarray) -> SpectralSummary:
    """Spectral decomposition of one symmetric matrix.

    Rank and trace_mp follow the threshold of spectral_cut.
    """
    m = symmetrize(m)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on finite input
        raise ArithmeticError(f"eigendecomposition failed to converge: {exc}") from exc
    threshold, keep, inv = spectral_cut(vals)
    return SpectralSummary(
        eigenvalues=vals,
        eigenvectors=vecs,
        rank=int(np.count_nonzero(keep)),
        trace_mp=float(inv.sum()),
        threshold=float(threshold),
    )


def moore_penrose(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix, or of each matrix of a
    stack, via spectral inversion."""
    vals, vecs = np.linalg.eigh(symmetrize(m))
    inv = spectral_cut(vals)[2]
    return symmetrize((vecs * inv[..., None, :]) @ np.swapaxes(vecs, -1, -2))


@functools.cache
def _helmert(n: int) -> np.ndarray:
    """Orthonormal Helmert contrasts, (n, n-1): column l-1 is ones on
    rows 0..l-1 and -l on row l, over sqrt(l(l+1))."""
    h = np.triu(np.ones((n, n - 1)))
    l = np.arange(1, n)
    h[l, l - 1] = -l
    h /= np.sqrt(l * (l + 1))
    h.flags.writeable = False
    return h


def _contrast_part(m: np.ndarray) -> np.ndarray:
    """H'mH for each n x n matrix m of a stack, H = _helmert(n): m on its
    contrasts, without the constant vector's zero if m has zero row sums."""
    h = _helmert(m.shape[-1])
    return h.T @ (m @ h)


def _factors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a stack of matrices, and which exist.

    numpy's stacked cholesky raises LinAlgError for the whole stack when
    one matrix is not positive definite; then each matrix is factored
    alone, with the stacked call's bits, and I stands in for each that
    fails, so that the stacked inverse of the factors still runs.
    """
    ok = np.ones(len(a), dtype=bool)
    try:
        return np.linalg.cholesky(a), ok
    except np.linalg.LinAlgError:
        pass
    l = np.empty_like(a)
    for i, one in enumerate(a):
        try:
            l[i] = np.linalg.cholesky(one)
        except np.linalg.LinAlgError:
            l[i], ok[i] = np.eye(len(one)), False
    return l, ok


def schur_complement(m: np.ndarray, k: int) -> np.ndarray:
    """m11 - m12 m22^+ m21 for a symmetric matrix, or a stack of them,
    split after row and column k.

    Precondition: the constant vector lies in the null space of m22 and
    of m12, as in every caller of the library, where the carryover-sum
    and direct-sum columns lie in the period and subject span.  Then
    m22^+ = H A^-1 H' with H the orthonormal Helmert contrasts (_helmert)
    and A = H' m22 H, whenever A is nonsingular.  Each matrix takes one
    of two routes, decided from that matrix alone:

    * Cholesky: A = L L', W = L^-1 (m12 H)' and the result m11 - W'W.
      A matrix takes it when the factor exists (_factors) and certifies
      that spectral_cut would keep all n-k-1 contrast eigenvalues of
      m22: lambda_min(A) >= 1/trace(A^-1) = 1/|L^-1|_F^2 clears the
      threshold of spectral_cut taken at trace(A) >= lambda_max (up to
      rounding at the threshold itself, where both routes are float
      verdicts).  L^-1 serves W and the certificate alike: inv and a
      matmul cost less than numpy's solve, an LU with pivoting, on
      [(m12 H)' | I].
    * eigh, the fallback: the spectrum V diag(lambda) V' of m22, cut by
      spectral_cut, gives (m12 V) diag(1/lambda) (m12 V)'.

    The input is taken as symmetric (cholesky and eigh read one
    triangle); the result is checked for symmetry and averaged once for
    the whole stack.
    """
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    h = _helmert(n - k)
    g = stack[:, :, k:] @ h  # [m12 H; m22 H]
    a = h.T @ g[:, k:]
    l, factored = _factors(a)
    l_inv = np.linalg.inv(l)  # triangular with a positive diagonal
    w = l_inv @ np.swapaxes(g[:, :k], 1, 2)
    out = stack[:, :k, :k] - np.swapaxes(w, 1, 2) @ w
    norm2 = np.einsum("bij,bij->b", l_inv, l_inv)
    threshold = _rank_threshold(n - k, np.trace(a, axis1=1, axis2=2))
    eigh = ~(factored & (norm2 * threshold < 1.0))
    if eigh.any():
        vals, vecs = np.linalg.eigh(stack[eigh, k:, k:])
        inv = spectral_cut(vals)[2]
        v = stack[eigh, :k, k:] @ vecs
        out[eigh] = stack[eigh, :k, :k] - (v * inv[:, None, :]) @ np.swapaxes(v, 1, 2)
    return symmetrize(out.reshape(m.shape[:-2] + (k, k)))


def is_psd(m: np.ndarray, tol: float = ORDER_TOL) -> bool | np.ndarray:
    """True iff the smallest eigenvalue of symmetric ``m`` is >= -tol (ORDER_TOL).

    For a stack of matrices, one verdict per matrix as a boolean array.
    """
    ok = np.linalg.eigvalsh(symmetrize(m))[..., 0] >= -tol
    return bool(ok) if ok.ndim == 0 else ok


def cycle_type(perm_matrix: np.ndarray) -> list[int]:
    """Cycle lengths of a permutation matrix, longest first.

    The single-cycle test for an n x n input is ``cycle_type(p) == [n]``.
    Raises ValueError when the input is not a 0/1 matrix with exactly one
    1 in every row and column.
    """
    p = np.asarray(perm_matrix)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {p.shape}")
    n = p.shape[0]
    if not np.isin(p, (0, 1)).all():
        raise ValueError("not a permutation matrix: entries outside {0,1}")
    if not ((p.sum(axis=0) == 1).all() and (p.sum(axis=1) == 1).all()):
        raise ValueError("not a permutation matrix: row/column sums differ from 1")
    image = np.argmax(p, axis=1)
    seen = np.zeros(n, dtype=bool)
    lengths: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = int(image[i])
            length += 1
        lengths.append(length)
    return sorted(lengths, reverse=True)
