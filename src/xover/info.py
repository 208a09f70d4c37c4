"""Information matrices for direct and carryover treatment effects.

The model behind everything here has a mean for each subject, each
period, the treatment administered in the current period (direct
effect), and the treatment administered in the previous period
(first-order carryover, absent in period 1).  Two routes build the
joint information matrix of the direct and carryover effects after
sweeping out subjects and periods:

* the projection route, valid for any staircase pattern of observed
  periods (subjects may stop early).  The library computes with it
  alone: the plan is the complete pattern, the truncated design is the
  pattern truncation(design, m), and dropout is any other pattern.  It
  is one batched engine, direct_info_patterns, which takes a (B, s)
  array of completion periods and returns the (B, t, t) direct-effect
  information matrices.  Each pattern's Gram matrix of subject-centred
  cell indicators is formed from exact integer counts,
  G = X'X - sum_k M_k / k (X'X over the observed cells, M_k the sum of
  a_i a_i' over the subjects completing k periods, a_i their column
  sums).  Dropout is monotone, so the period block is diagonal on fixed
  Helmert contrasts with integer eigenvalues, the numbers of subjects
  observed in each period, and is swept out in closed form; the
  carryover block is then swept out as a stacked Schur complement
  (stacked matmul and eigh).  Every verdict of the
  library reaches it through metrics.against_plan, which stacks the plan
  in front of the patterns it judges.  direct_info_pattern and
  joint_info_projection are its B = 1 calls, the public single-matrix
  API and the test oracles, and every row of a batch equals its B = 1
  call bit for bit;
* the count route, closed-form incidence expressions valid for
  complete rectangular layouts.  No library computation calls it; it
  is the independent cross-check.

On complete layouts the two agree to near machine precision, which the
test suite checks.  On top of these sit the closed forms
for the truncated (worst-case dropout) design and for its carryover
information when a single period is lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .designs import (
    CrossoverDesign,
    DropoutPattern,
    _check_completion,
    coincidence,
    incidences,
    require_ubrmd,
)
from .linalg import moore_penrose, schur_complement, symmetrize

# Byte budget of each per-chunk temporary of direct_info_patterns: a batch
# is evaluated in chunks of rows whose float arrays fit in it, at least one
# row per chunk.  The largest are the masked cell rows and subject sums,
# (rows, s, d), and the 2t Gram rows, (rows, 2t, d).  128 KiB keeps every
# such temporary under glibc's default 128 KiB mmap threshold, so it is
# reused from the heap instead of being mapped and faulted in afresh;
# budgets of 256 KiB to 4 MiB measured slower on simulate of
# williams_pair(15).
_CHUNK_BYTES = 1 << 17


@dataclass(frozen=True)
class JointInfo:
    """Joint information for (direct, carryover) effects, 2t x 2t.

    c11 and c22 are the marginal blocks for direct and carryover
    effects, c12 the cross block; c is the assembled symmetric matrix
    [[c11, c12], [c12.T, c22]].
    """

    c11: np.ndarray
    c12: np.ndarray
    c22: np.ndarray

    @property
    def c(self) -> np.ndarray:
        top = np.hstack([self.c11, self.c12])
        bot = np.hstack([self.c12.T, self.c22])
        return np.vstack([top, bot])


@dataclass(frozen=True)
class MinimalClosedForm:
    """Closed-form blocks for the truncated design of a balanced layout.

    a_matrix is the completely symmetric companion of c22 (they differ
    by a multiple of the all-ones matrix), whose smallest eigenvalue
    lambda_min_a has an explicit formula.  When t >= 2m+2 the companion
    is nonsingular and its inverse serves as a generalized inverse of
    c22; a_inverse is None otherwise.
    """

    c11: np.ndarray
    c12: np.ndarray
    c22: np.ndarray
    a_matrix: np.ndarray
    lambda_min_a: float
    a_inverse: np.ndarray | None

    @property
    def joint(self) -> JointInfo:
        return JointInfo(c11=self.c11, c12=self.c12, c22=self.c22)


def _completion_rows(design: CrossoverDesign, completions) -> np.ndarray:
    """Validated (B, s) integer array of completion periods."""
    ks = np.asarray(completions)
    if ks.ndim != 2 or ks.shape[1] != design.s:
        raise ValueError(
            f"expected rows of s={design.s} completion periods, got shape {ks.shape}"
        )
    if not np.issubdtype(ks.dtype, np.integer):
        raise ValueError(f"completion periods must be integers, got {ks.dtype}")
    _check_completion(ks, design)
    return ks.astype(np.intp, copy=False)


def _one_row(design: CrossoverDesign, pattern: DropoutPattern | None) -> np.ndarray:
    """The (1, s) completion row of a pattern, the complete design for None."""
    if pattern is None:
        return np.full((1, design.s), design.p)
    pattern.check_against(design)
    return np.array([pattern.completion])


def _cells(design: CrossoverDesign) -> np.ndarray:
    """Indicator rows of every cell over the columns [direct (t) |
    carryover (t) | period (p)], as a (p, s, 2t+p) array."""
    t, p, s = design.t, design.p, design.s
    x = np.zeros((p, s, 2 * t + p))
    rows = x.reshape(p * s, -1)  # cell (j, i) is row j*s + i
    cells = np.arange(p * s)
    rows[cells, design.layout.ravel()] = 1.0
    rows[cells[s:], t + design.layout[:-1].ravel()] = 1.0
    rows[cells, 2 * t + cells // s] = 1.0
    return x


@cache
def _helmert(p: int) -> np.ndarray:
    """(p, p-1) orthonormal Helmert contrasts of p periods: column j-1
    holds j ones, then -j, then zeros, scaled by 1/sqrt(j(j+1))."""
    j = np.arange(1, p)
    rows = np.arange(p)[:, None]
    h = np.where(rows < j, 1.0, np.where(rows == j, -j, 0)) / np.sqrt(j * (j + 1))
    h.flags.writeable = False
    return h


def _joint_stack(x: np.ndarray, ks: np.ndarray, t: int) -> np.ndarray:
    """(B, 2t, 2t) joint information of the completion rows ks.

    The Gram matrix of the subject-centred cell rows is
    X'X - sum_k M_k / k, with X'X over the observed cells and M_k the
    sum of a_i a_i' over subjects completing k periods (a_i the subject's
    column sums).  Both are integer counts, exact in float64 whatever
    the BLAS blocking; the only roundings are the divisions and
    subtractions, in ascending k.  A k absent from a row subtracts an
    all-zero M_k, which leaves its bits unchanged, so every row comes
    out the same in any batch.  Only the 2t direct and carryover rows
    of the Gram matrix are formed.

    The period block is swept out in closed form.  Dropout is monotone,
    so it equals sum_i (I - J/k_i) on each subject's first k_i periods;
    Helmert contrast j (of _helmert) lies in the span of the first j+1
    periods and sums to zero there, so that block maps it to n_j times
    itself, n_j the number of subjects observed in period j+1.  The
    constant direction has eigenvalue 0 and the period columns of every
    centred row sum to 0, so it drops out, and the sweep is
    G_TT - W diag(1/n) W' with W = G_TP H, a zero count taking a zero
    reciprocal: an exact rank, with no threshold.
    """
    b, (p, s, d) = len(ks), x.shape
    k0 = int(ks.min())
    head = x[:k0]  # the periods every row observes
    flat = head.reshape(-1, d)
    gram = np.repeat((flat[:, : 2 * t].T @ flat)[None], b, axis=0)
    a = np.repeat(head.sum(axis=0)[None], b, axis=0)
    for j in range(k0, p):
        w = x[j] * (j < ks)[..., None]
        gram += np.swapaxes(w[..., : 2 * t], 1, 2) @ w
        a += w
    for k in np.unique(ks):
        ak = a * (ks == k)[..., None]
        m_k = np.swapaxes(ak[..., : 2 * t], 1, 2) @ ak
        m_k /= k
        gram -= m_k
    n = np.count_nonzero(ks[:, :, None] >= np.arange(2, p + 1), axis=1)
    inv = np.divide(1.0, n, out=np.zeros(n.shape), where=n > 0)
    w = gram[..., 2 * t :] @ _helmert(p)
    swept = (w * inv[:, None, :]) @ np.swapaxes(w, 1, 2)
    return symmetrize(gram[..., : 2 * t] - swept)


def direct_info_patterns(design: CrossoverDesign, completions) -> np.ndarray:
    """Direct-effect information of many dropout patterns at once.

    completions is a (B, s) integer array, row b holding each subject's
    completion period; the result is (B, t, t).  Each pattern's joint
    information comes from the exact-count Gram matrix of _joint_stack,
    and the carryover block is swept out as a stacked Schur complement.
    Rows are evaluated in chunks whose per-chunk temporaries stay within
    _CHUNK_BYTES (see there for the size), and every row equals its own
    B = 1 call bit for bit.
    """
    ks = _completion_rows(design, completions)
    t = design.t
    x = _cells(design)
    d = x.shape[2]
    step = max(1, _CHUNK_BYTES // (8 * d * max(design.s, 2 * t)))
    out = np.empty((len(ks), t, t))
    for start in range(0, len(ks), step):
        chunk = ks[start : start + step]
        out[start : start + step] = schur_complement(_joint_stack(x, chunk, t), t)
    return out


def joint_info_projection(
    design: CrossoverDesign, pattern: DropoutPattern | None = None
) -> JointInfo:
    """Joint information by projecting out subject and period effects.

    Works on any staircase layout: each subject contributes a prefix of
    periods.  Subject effects are removed by within-subject centering;
    the period block is then swept out in closed form on Helmert
    contrasts (see _joint_stack), which also drops the intercept
    confounding between the two nuisance blocks without dropping
    columns.  This is the B = 1 call of the stage that
    direct_info_patterns runs on whole batches.
    """
    t = design.t
    c = _joint_stack(_cells(design), _one_row(design, pattern), t)[0]
    return JointInfo(c11=c[:t, :t], c12=c[:t, t:], c22=c[t:, t:])


def joint_info_orthogonal(design: CrossoverDesign) -> JointInfo:
    """Joint information of a complete rectangular layout from counts.

    With r the replication totals and N the incidence counts, each
    block is the raw crossproduct corrected for subject and period
    margins; the rank-one term with 1/(p*s) restores the intercept
    shared by both margins:

        c11 = diag(r_d) + r_d r_d'/(p s) - N_ds N_ds'/p - N_dp N_dp'/s

    and c22, c12 follow the same shape with carryover counts.
    """
    inc = incidences(design)
    p, s = design.p, design.s
    r_d = inc.r_d.astype(float)
    r_c = inc.r_c.astype(float)
    n_ds = inc.n_ds.astype(float)
    n_cs = inc.n_cs.astype(float)
    n_dp = inc.n_dp.astype(float)
    n_cp = inc.n_cp.astype(float)
    c11 = (
        np.diag(r_d)
        + np.outer(r_d, r_d) / (p * s)
        - (n_ds @ n_ds.T) / p
        - (n_dp @ n_dp.T) / s
    )
    c22 = (
        np.diag(r_c)
        + np.outer(r_c, r_c) / (p * s)
        - (n_cs @ n_cs.T) / p
        - (n_cp @ n_cp.T) / s
    )
    c12 = (
        inc.n_dc.astype(float)
        + np.outer(r_d, r_c) / (p * s)
        - (n_ds @ n_cs.T) / p
        - (n_dp @ n_cp.T) / s
    )
    return JointInfo(c11=symmetrize(c11), c12=c12, c22=symmetrize(c22))


def direct_info(joint: JointInfo) -> np.ndarray:
    """Information for direct effects: c11 minus the c22 sweep.

    Uses the Moore-Penrose inverse of c22; the result does not depend
    on which generalized inverse is used, and is symmetric positive
    semidefinite with zero row sums.
    """
    return schur_complement(joint.c, joint.c11.shape[0])


def residual_info(joint: JointInfo) -> np.ndarray:
    """Information for carryover effects: c22 minus the c11 sweep."""
    swapped = np.block([[joint.c22, joint.c12.T], [joint.c12, joint.c11]])
    return schur_complement(swapped, joint.c22.shape[0])


def minimal_closed_form(design: CrossoverDesign, m: int) -> MinimalClosedForm:
    """Closed-form information blocks after dropping the last m periods.

    design must be uniform-balanced with 1 <= m < t-1.  The blocks are
    assembled from the coincidence matrices U_jk of the planned design's
    last m+1 periods.  The companion matrix a_matrix is nonsingular
    exactly when t >= 2m+2; its inverse is then certified as a
    generalized inverse of c22 before being returned.
    """
    require_ubrmd(design)
    t = design.t
    if not 1 <= m < t - 1:
        raise ValueError(f"m={m} out of range 1..{t - 2}")
    g = design.g
    assert g is not None
    eye = np.eye(t)
    ones = np.ones((t, t))
    # u[j, k] = U_jk for j != k in 0..m, zero for j = k: every sum below is
    # over pairs j != k, and exact, since the counts are integers
    tail = range(m + 1)
    u = np.array([[coincidence(design, j, k) for k in tail] for j in tail], float)
    u[tail, tail] = 0
    sum_full = u.sum(axis=(0, 1))  # j, k drawn from 0..m
    sum_low = u[:m, :m].sum(axis=(0, 1))  # j, k from 0..m-1
    sum_cross = u[:m].sum(axis=(0, 1))  # j from 0..m-1, any k
    sum_adj = u[tail[:-1], tail[1:]].sum(axis=0)  # k = j+1

    q = t - m
    c11 = (g * (q * q - m) / q) * eye - (g * (t - 2 * m) / q) * ones - sum_low / q
    c22 = (g / q) * (
        (q * q - (t + 1)) * eye
        - ((q * q - (t + 1) - m * (m + 1)) / t) * ones
    ) - sum_full / q
    c12 = (g / q) * ((m + 1) * ones - t * eye) - sum_adj - sum_cross / q
    a_matrix = (g / q) * (q * q - (t + 1)) * eye - sum_full / q
    lambda_min_a = (g / q) * (q * q - (t + 1) - m * (m + 1))

    a_inverse = None
    if t >= 2 * m + 2:
        a_inverse = np.linalg.inv(a_matrix)
        resid = c22 @ a_inverse @ c22 - c22
        scale = max(1.0, float(np.max(np.abs(c22))))
        if float(np.max(np.abs(resid))) > 1e-8 * scale:
            raise ArithmeticError(
                "companion inverse failed the generalized-inverse certificate"
            )
    return MinimalClosedForm(
        c11=symmetrize(c11),
        c12=c12,
        c22=symmetrize(c22),
        a_matrix=symmetrize(a_matrix),
        lambda_min_a=float(lambda_min_a),
        a_inverse=a_inverse,
    )


def residual_info_minimal_m1(design: CrossoverDesign) -> np.ndarray:
    """Carryover information of the one-period-truncated design, closed form.

    Valid for uniform-balanced designs with t >= 3.  Written in terms of
    U, the coincidence matrix of the planned design's last two periods:
    a completely symmetric lead term, a correction along U + U', a U'U
    term, and a constant shift.
    """
    require_ubrmd(design)
    t = design.t
    if t < 3:
        raise ValueError(f"requires t >= 3, got t={t}")
    g = design.g
    assert g is not None
    eye = np.eye(t)
    ones = np.ones((t, t))
    u = coincidence(design, 0, 1).astype(float)
    cr = (
        (g * t * (t * t - 5 * t + 5) / ((t - 1) * (t - 2))) * (eye - ones / t)
        - (2.0 / (t - 2)) * (u + u.T)
        - (t / (g * (t - 1) * (t - 2))) * (u.T @ u)
        + (g * (5 * t - 4) / (t * (t - 1) * (t - 2))) * ones
    )
    return symmetrize(cr)


def estimable(c_d: np.ndarray, contrast: np.ndarray) -> bool:
    """Whether a treatment contrast is estimable under information c_d.

    contrast must sum to zero (tolerance 1e-12 relative to its norm).
    Estimability means the contrast lies in the row space of c_d, tested
    as a relative residual against the Moore-Penrose projector.
    """
    c = np.asarray(contrast, dtype=float)
    norm = float(np.linalg.norm(c))
    if norm == 0.0:
        raise ValueError("contrast must be nonzero")
    if abs(float(c.sum())) > 1e-12 * max(1.0, norm):
        raise ValueError("contrast entries must sum to zero")
    resid = c - c_d @ (moore_penrose(c_d) @ c)
    return bool(np.linalg.norm(resid) <= 1e-8 * norm)


def direct_info_minimal(design: CrossoverDesign, m: int) -> np.ndarray:
    """Direct-effect information of the truncated design via closed form."""
    return direct_info(minimal_closed_form(design, m).joint)


def direct_info_complete(design: CrossoverDesign) -> np.ndarray:
    """Direct-effect information of a complete layout via incidence counts."""
    return direct_info(joint_info_orthogonal(design))


def direct_info_pattern(
    design: CrossoverDesign, pattern: DropoutPattern | None = None
) -> np.ndarray:
    """Direct-effect information of an implemented design via projection:
    the B = 1 call of direct_info_patterns."""
    return direct_info_patterns(design, _one_row(design, pattern))[0]
