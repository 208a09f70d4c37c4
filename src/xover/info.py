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
  information matrices.  On a subject's prefix of k periods the
  unscaled Helmert contrasts l = 1..k-1 remove the subject effect, and
  each carries exactly one period parameter, so centring contrast l
  over the n_l subjects that observe it removes the period effects:
  C = sum_l (Z_l'D_lZ_l - S_l S_l'/n_l) / (l(l+1)), Z_l the integer
  contrast rows, D_l the subjects observing them and S_l = D_lZ_l
  their sum, exact counts in float64.  The Grams of every contrast
  over all s subjects are formed once per call, in one stacked GEMM,
  with their running sums.  The rows are taken in chunks of
  _chunk_rows consecutive rows.  The contrasts, those sums and a
  chunk's masked operand live in the calling thread's scratch
  (linalg._scratch), and every result is a fresh array.  Every row
  starts from the running sum at its own lowest completion and adds
  its masked contrasts, each in one 2-D GEMM over the rows of a chunk
  that need it; so a uniform row, in which every subject completes the
  same k (the plan, a truncation), is the running sum to l = k-1.  The
  carryover block is then swept out as a stacked Schur complement, by
  Cholesky on the Helmert contrasts of the carryover effects where a
  certificate allows and by eigh elsewhere (linalg.schur_complement).
  Every verdict of the library reaches it through metrics.against_plan,
  which stacks the plan in front of the patterns it judges.
  direct_info_pattern and joint_info_projection are its B = 1 calls,
  the public single-matrix API and the test oracles, and every row of
  a batch equals its B = 1 call bit for bit;
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

import numpy as np

from .designs import (
    CrossoverDesign,
    DropoutPattern,
    _completion_rows,
    _one_row,
    _pairs,
    check_tail,
    incidences,
    require_ubrmd,
)
from .linalg import _scratch, moore_penrose, schur_complement, symmetrize

# Byte budget of one chunk of direct_info_patterns (see _chunk_rows):
# every chunk is _chunk_rows consecutive rows, at least one, each row
# charged 16 t (s + 6t) bytes for the float arrays a chunk holds for it,
# half of a core's 2 MiB L2.  README.md gives the measurements.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class JointInfo:
    """Joint information for (direct, carryover) effects: the symmetric
    2t x 2t matrix c = [[c11, c12], [c12', c22]], taken assembled and
    kept symmetrized (exactly symmetric input keeps every bit) and
    read-only.  The direct, cross and carryover blocks are views of it."""

    c: np.ndarray

    def __post_init__(self) -> None:
        c = symmetrize(self.c)
        if c.ndim != 2 or len(c) % 2:
            raise ValueError(f"expected a 2t x 2t matrix, got shape {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def c11(self) -> np.ndarray:
        t = len(self.c) // 2
        return self.c[:t, :t]

    @property
    def c12(self) -> np.ndarray:
        t = len(self.c) // 2
        return self.c[:t, t:]

    @property
    def c22(self) -> np.ndarray:
        t = len(self.c) // 2
        return self.c[t:, t:]


@dataclass(frozen=True)
class MinimalClosedForm(JointInfo):
    """Closed-form joint information of the truncated design of a
    balanced layout, with the companion of its carryover block.

    a_matrix is the completely symmetric companion of c22 (they differ
    by a multiple of the all-ones matrix), whose smallest eigenvalue
    lambda_min_a has an explicit formula.  When t >= 2m+2 the companion
    is nonsingular and its inverse serves as a generalized inverse of
    c22; a_inverse is None otherwise.
    """

    a_matrix: np.ndarray
    lambda_min_a: float
    a_inverse: np.ndarray | None


def _centred_gram(gram: np.ndarray, total: np.ndarray, n, l) -> np.ndarray:
    """(Z'DZ - S S'/n) / (l(l+1)), in place on the integer Gram Z'DZ of a
    stack of contrast rows Z restricted to the observing rows D, S =
    total their sum and n the number observed, or 1 where none is and S
    is zero."""
    outer = total[..., :, None] * total[..., None, :]
    outer /= n
    gram -= outer
    gram /= l * (l + 1)
    return gram


def _masked_gram(zl: np.ndarray, seen: np.ndarray, l: int) -> np.ndarray:
    """(rows, 2t, 2t) centred Grams of contrast l, (s, 2t), over the
    subjects each row of the (rows, s) boolean seen observes.  Z'DZ of
    every row is one 2-D GEMM of the masked (rows 2t, s) operand, built
    in the calling thread's scratch, with zl, and S = D Z one GEMM of
    the masks."""
    rows, s = seen.shape
    t2 = zl.shape[1]
    mask = seen.astype(float)
    operand = _scratch("masked", rows * t2 * s, float).reshape(rows, t2, s)
    # zl.T is copied in first and then masked in place: a multiply from
    # zl.T, which is not in the operand's order, would go through numpy's
    # buffered iterator
    operand[:] = zl.T
    operand *= mask[:, None, :]
    gram = np.matmul(operand.reshape(-1, s), zl).reshape(rows, t2, t2)
    n = np.maximum(np.count_nonzero(seen, axis=1), 1)[:, None, None]
    return _centred_gram(gram, mask @ zl, n, l)


def _plan(design: CrossoverDesign) -> tuple[np.ndarray, np.ndarray]:
    """The contrasts z and their running Grams, both views of the
    calling thread's scratch (linalg._scratch) that its next engine
    call overwrites.

    z, (p-1, s, 2t), holds the unscaled Helmert contrasts of every
    subject's cell rows over the columns [direct (t) | carryover (t)],
    integers: z[l-1] is the sum of periods 1..l minus l times period
    l+1, so row l-1 is row l-2 plus l times period l minus l times
    period l+1.  On the flat (p-1, s 2t) view a cell's column is its
    subject's offset 2t i plus the treatment, plus t for carryover, so
    every update is 1-D indexing.  running[k-1], of (p, 2t, 2t), sums
    the centred Grams of the contrasts l = 1..k-1 over all s subjects
    in ascending l from +0.0, the joint information of a uniform row k
    (every subject completing k periods).  Every Z_l'Z_l is one stacked
    GEMM and every S_l one GEMV, exact integers in any reduction order,
    and each sum is taken in place over its Gram.
    """
    t, p, s = design.t, design.p, design.s
    z = _scratch("contrasts", (p - 1) * s * 2 * t, float).reshape(p - 1, s * 2 * t)
    direct = design.layout + 2 * t * np.arange(s)
    carry = direct + t
    z[:1] = 0.0
    for l in range(1, p):
        zl = z[l - 1]
        if l > 1:
            zl[:] = z[l - 2]
            zl[carry[l - 2]] += l
        zl[direct[l - 1]] += l
        zl[carry[l - 1]] -= l
        zl[direct[l]] -= l
    z = z.reshape(p - 1, s, 2 * t)
    running = _scratch("running", p * 4 * t * t, float).reshape(p, 2 * t, 2 * t)
    running[0] = 0.0
    grams = np.matmul(np.swapaxes(z, 1, 2), z, out=running[1:])
    _centred_gram(grams, np.ones(s) @ z, s, np.arange(1, p)[:, None, None])
    for l in range(1, p):
        running[l] += running[l - 1]
    return z, running


def _joint_stack(z: np.ndarray, running: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """(B, 2t, 2t) joint information of the completion rows ks from the
    contrasts z and running Grams of _plan, as a fresh array.

    On a prefix of k periods the contrasts l = 1..k-1 of _plan, scaled
    by 1/sqrt(l(l+1)), are orthonormal and sum to zero, so they remove
    the subject effect.  Each carries one period parameter, shared by
    the n_l subjects observing it (k_i > l), so centring each contrast
    over them sweeps the periods out:
    C = sum_l (Z_l'D_lZ_l - S_l S_l'/n_l) / (l(l+1)), D_l the 0/1 mask
    of those rows, S_l = D_lZ_l their sum and a zero n_l taking a zero
    S S'/n.  Every entry of Z is an integer with |z| <= p-1, so Z'DZ, S
    and S S' are integers with |Z'DZ|, |S S'| <= s^2 (p-1)^2 < 2^53 (for
    s(p-1) < 9.4e7; z alone would then take over 1.5 GB): exact and
    symmetric in float64 whatever the BLAS blocking or FMA order.  The
    only roundings are the two divisions, the subtraction and the sum
    in ascending l.  Every subject observes the contrasts below row b's
    lowest completion lo_b, so the row starts from running[lo_b - 1] and
    adds its masked contrasts lo_b <= l < hi_b, hi_b its highest
    completion, contrast l in one GEMM over the contiguous rows that
    need it (_masked_gram).  A row inside that slice that does not need
    l gets a zero mask, whose matrix of +-0.0 leaves a sum from +0.0
    unchanged; so every row comes out the same in any batch, and a
    uniform row (lo_b = hi_b: the plan, a truncation) is its start.
    """
    lo, hi = ks.min(1), ks.max(1)
    joint = running[lo - 1]
    for l in range(int(lo.min()), int(hi.max())):
        need = np.flatnonzero((lo <= l) & (l < hi))
        if len(need):
            a, b = need[0], need[-1] + 1
            seen = (ks[a:b] > l) & (lo[a:b, None] <= l)
            joint[a:b] += _masked_gram(z[l - 1], seen, l)
    return joint


def _chunk_rows(design: CrossoverDesign) -> int:
    """Consecutive rows in each chunk of direct_info_patterns: as many as
    fit in _CHUNK_BYTES at 16 t (s + 6t) bytes a row (see there), and at
    least one."""
    t = design.t
    return max(1, _CHUNK_BYTES // (16 * t * (design.s + 6 * t)))


def direct_info_patterns(design: CrossoverDesign, completions) -> np.ndarray:
    """Direct-effect information of many dropout patterns at once.

    completions is a (B, s) integer array, row b holding each subject's
    completion period; the result is (B, t, t).  Each pattern's joint
    information is the sum of centred Grams of its within-subject
    contrasts (_joint_stack), which sweeps out subjects and periods in
    one formula, and the carryover block is swept out as a stacked
    Schur complement.  The contrasts and the running sums of their
    centred Grams over all s subjects are built once per call (_plan)
    in the calling thread's scratch, as is a chunk's masked operand.
    Every row starts from the running sum at its own lowest completion
    and adds its masked contrasts; a uniform row, in which every subject
    completes the same k (the plan, a truncation), adds none.  The rows
    are evaluated in chunks of _chunk_rows consecutive rows, whose
    arrays stay within _CHUNK_BYTES (see there for the size), and every
    row equals its own B = 1 call bit for bit.  The rows are validated
    by _completion_rows, _direct_info_rows evaluates them, and the
    result is a fresh array.
    """
    return _direct_info_rows(design, _completion_rows(design, completions))


def _direct_info_rows(design: CrossoverDesign, ks: np.ndarray) -> np.ndarray:
    """direct_info_patterns on (B, s) completion rows already validated
    by _completion_rows, as metrics.against_plan's are."""
    t = design.t
    out = np.empty((len(ks), t, t))
    if not len(ks):
        return out
    z, running = _plan(design)
    step = _chunk_rows(design)
    for a in range(0, len(ks), step):
        c = slice(a, a + step)
        out[c] = schur_complement(_joint_stack(z, running, ks[c]), t)
    return out


def joint_info_projection(
    design: CrossoverDesign, pattern: DropoutPattern | None = None
) -> JointInfo:
    """Joint information by projecting out subject and period effects.

    Works on any staircase layout: each subject contributes a prefix of
    periods.  The within-subject Helmert contrasts remove the subject
    effects, and centring each contrast over the subjects that observe
    it removes the period effects, intercept included, without
    dropping columns (see _joint_stack).  This is the B = 1 call of the
    stage that direct_info_patterns runs on whole batches.
    """
    return JointInfo(_joint_stack(*_plan(design), _one_row(design, pattern))[0])


def joint_info_orthogonal(design: CrossoverDesign) -> JointInfo:
    """Joint information of a complete rectangular layout from counts,
    in one formula over the columns [direct (t) | carryover (t)]:

        c = X'X + r r'/(p s) - N_s N_s'/p - N_p N_p'/s,

    X'X = [[diag r_d, n_dc], [n_dc', diag r_c]] the raw crossproduct, r
    the replication totals and N_s, N_p the subject and period incidence
    counts, direct rows over carryover rows.  The last two terms correct
    for the margins and r r'/(p s) restores the intercept they share.
    """
    inc = incidences(design)
    p, s = design.p, design.s
    r = np.concatenate([inc.r_d, inc.r_c]).astype(float)
    n_s = np.vstack([inc.n_ds, inc.n_cs]).astype(float)
    n_p = np.vstack([inc.n_dp, inc.n_cp]).astype(float)
    xtx = np.block([[np.diag(inc.r_d), inc.n_dc], [inc.n_dc.T, np.diag(inc.r_c)]])
    c = xtx + np.outer(r, r) / (p * s) - (n_s @ n_s.T) / p - (n_p @ n_p.T) / s
    return JointInfo(c)


def direct_info(joint: JointInfo) -> np.ndarray:
    """Information for direct effects: c11 minus the c22 sweep.

    The sweep is linalg.schur_complement: Cholesky on the Helmert
    contrasts of c22 where a certificate allows, an eigh cut of its
    spectrum elsewhere.  The result does not depend on which
    generalized inverse of c22 is used, and is symmetric positive
    semidefinite with zero row sums.
    """
    return schur_complement(joint.c, len(joint.c) // 2)


def residual_info(joint: JointInfo) -> np.ndarray:
    """Information for carryover effects: c22 minus the c11 sweep, on c
    with its carryover rows and columns rolled in front."""
    t = len(joint.c) // 2
    return schur_complement(np.roll(joint.c, t, axis=(0, 1)), t)


def _d(t: int, m: int) -> int:
    """D = (t-m)^2 - (t+1) - m(m+1), shared by minimal_closed_form, the
    spectral bounds and the connectedness condition."""
    return (t - m) ** 2 - (t + 1) - m * (m + 1)


def minimal_closed_form(design: CrossoverDesign, m: int) -> MinimalClosedForm:
    """Closed-form information blocks after dropping the last m periods.

    design must be uniform-balanced, and m in check_tail's range (p = t,
    so 1 <= m < t-1).  The blocks are assembled from the coincidence
    matrices U_jk of the planned design's last m+1 periods, all counted
    by one _pairs call.  The companion matrix a_matrix is nonsingular
    exactly when t >= 2m+2; its inverse is then certified as a
    generalized inverse of c22 before being returned.
    """
    require_ubrmd(design)
    check_tail(design, m)
    t, g = design.t, design.g
    assert g is not None
    eye = np.eye(t)
    ones = np.ones((t, t))
    # u[j, k] = U_jk for j != k in 0..m, zero for j = k: every sum below is
    # over pairs j != k, and exact, since the counts are integers
    rows = design.layout[::-1][: m + 1]  # row j: period p-j
    u = _pairs(rows[:, None], rows[None], t).astype(float)
    u[np.diag_indices(m + 1)] = 0
    sum_full = u.sum(axis=(0, 1))  # j, k drawn from 0..m
    sum_low = u[:m, :m].sum(axis=(0, 1))  # j, k from 0..m-1
    sum_cross = u[:m].sum(axis=(0, 1))  # j from 0..m-1, any k
    sum_adj = u[range(m), range(1, m + 1)].sum(axis=0)  # k = j+1

    q = t - m
    c11 = (g * (q * q - m) / q) * eye - (g * (t - 2 * m) / q) * ones - sum_low / q
    c22 = (g / q) * ((q * q - (t + 1)) * eye - (_d(t, m) / t) * ones) - sum_full / q
    c12 = (g / q) * ((m + 1) * ones - t * eye) - sum_adj - sum_cross / q
    a_matrix = (g / q) * (q * q - (t + 1)) * eye - sum_full / q
    lambda_min_a = (g / q) * _d(t, m)

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
        c=np.block([[c11, c12], [c12.T, c22]]),
        a_matrix=symmetrize(a_matrix),
        lambda_min_a=float(lambda_min_a),
        a_inverse=a_inverse,
    )


def residual_info_minimal_m1(design: CrossoverDesign) -> np.ndarray:
    """Carryover information of the one-period-truncated design, closed form.

    Valid for uniform-balanced designs with m = 1 in check_tail's range
    (t = p >= 3).  Written in terms of U, the coincidence matrix of the
    planned design's last two periods (one _pairs call): a completely
    symmetric lead term, a correction along U + U', a U'U term, and a
    constant shift.
    """
    require_ubrmd(design)
    check_tail(design, 1)
    t, g = design.t, design.g
    assert g is not None
    eye = np.eye(t)
    ones = np.ones((t, t))
    u = _pairs(design.layout[-1], design.layout[-2], t).astype(float)
    cr = (
        (g * t * (t * t - 5 * t + 5) / ((t - 1) * (t - 2))) * (eye - ones / t)
        - (2.0 / (t - 2)) * (u + u.T)
        - (t / (g * (t - 1) * (t - 2))) * (u.T @ u)
        + (g * (5 * t - 4) / (t * (t - 1) * (t - 2))) * ones
    )
    return symmetrize(cr)


def estimable(c_d: np.ndarray, contrast: np.ndarray) -> bool:
    """Whether a treatment contrast is estimable under information c_d.

    contrast must hold one entry per treatment of c_d and sum to zero
    (tolerance 1e-12 relative to its norm).
    Estimability means the contrast lies in the row space of c_d, tested
    as a relative residual against the Moore-Penrose projector.
    """
    c = np.asarray(contrast, dtype=float)
    t = np.shape(c_d)[-1]
    if c.shape != (t,):
        shown = c.size if c.ndim == 1 else c.shape
        raise ValueError(f"contrast length {shown} does not match t={t}")
    norm = float(np.linalg.norm(c))
    if norm == 0.0:
        raise ValueError("contrast must be nonzero")
    if abs(float(c.sum())) > 1e-12 * max(1.0, norm):
        raise ValueError("contrast entries must sum to zero")
    resid = c - c_d @ (moore_penrose(c_d) @ c)
    return bool(np.linalg.norm(resid) <= 1e-8 * norm)


def direct_info_minimal(design: CrossoverDesign, m: int) -> np.ndarray:
    """Direct-effect information of the truncated design via closed form."""
    return direct_info(minimal_closed_form(design, m))


def direct_info_complete(design: CrossoverDesign) -> np.ndarray:
    """Direct-effect information of a complete layout via incidence counts."""
    return direct_info(joint_info_orthogonal(design))


def direct_info_pattern(
    design: CrossoverDesign, pattern: DropoutPattern | None = None
) -> np.ndarray:
    """Direct-effect information of an implemented design via projection:
    the B = 1 call of direct_info_patterns."""
    return _direct_info_rows(design, _one_row(design, pattern))[0]
