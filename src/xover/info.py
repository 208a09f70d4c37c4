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
  C = sum_l (Z_l'Z_l - S_l S_l'/n_l) / (l(l+1)), Z_l the integer
  contrast rows and S_l their sum, exact counts in float64.  The
  carryover block is then swept out as a stacked Schur complement, by
  Cholesky on the Helmert contrasts of the carryover effects where a
  certificate allows and by eigh elsewhere (linalg.schur_complement).
  Every verdict of the library reaches it through metrics.against_plan,
  which stacks the plan in front of the patterns it judges.
  direct_info_pattern and
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
# row per chunk.  The largest are the masked contrast rows, (rows, s, 2t),
# and the Grams, (rows, 2t, 2t): 16 t max(s, 2t) bytes a row; the
# Cholesky sweep's (rows, t-1, t) factors and products are smaller.  The
# contrasts every row observes are summed once per call, so a chunk forms
# only its masked contrasts.  128 KiB keeps every such temporary under
# glibc's default 128 KiB mmap threshold, so it is reused from the heap
# instead of being mapped and faulted in afresh; budgets of 256 KiB to
# 4 MiB measured slower on simulate of williams_pair(15).
_CHUNK_BYTES = 1 << 17


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
    c22; a_inverse is None otherwise.  joint is the closed form itself.
    """

    a_matrix: np.ndarray
    lambda_min_a: float
    a_inverse: np.ndarray | None

    @property
    def joint(self) -> JointInfo:
        return self


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


def _contrasts(design: CrossoverDesign) -> np.ndarray:
    """Unscaled Helmert contrasts of every subject's cell rows over the
    columns [direct (t) | carryover (t)], as a (p-1, s, 2t) array of
    integers: row l-1 is the sum of periods 1..l minus l times period
    l+1.  Built by one running sum over periods: row l-1 is row l-2
    plus l times period l minus l times period l+1."""
    t, layout = design.t, design.layout
    z = np.zeros((design.p - 1, design.s, 2 * t))
    i = np.arange(design.s)
    for l in range(1, design.p):
        zl = z[l - 1]
        if l > 1:
            zl += z[l - 2]
            zl[i, t + layout[l - 2]] += l
        zl[i, layout[l - 1]] += l
        zl[i, t + layout[l - 1]] -= l
        zl[i, layout[l]] -= l
    return z


def _centred_gram(w: np.ndarray, n, l) -> np.ndarray:
    """(W'W - S S'/n) / (l(l+1)) of a stack of contrast rows w, zero where
    unobserved, S their sum and n the number observed, or 1 where none
    is and S is zero."""
    total = w.sum(axis=-2)
    gram = np.swapaxes(w, -1, -2) @ w
    gram -= total[..., :, None] * total[..., None, :] / n
    gram /= l * (l + 1)
    return gram


def _shared_head(z: np.ndarray, ks: np.ndarray) -> tuple[int, np.ndarray]:
    """k0 = ks.min() and the (2t, 2t) sum of the centred Grams of the
    contrasts l < k0, which every row of ks observes, in ascending l and
    in one stacked call."""
    k0 = int(ks.min())
    gram = np.zeros(z.shape[2:] * 2)
    for term in _centred_gram(z[: k0 - 1], z.shape[1], np.arange(1, k0)[:, None, None]):
        gram += term
    return k0, gram


def _joint_stack(
    z: np.ndarray, ks: np.ndarray, head: tuple[int, np.ndarray] | None = None
) -> np.ndarray:
    """(B, 2t, 2t) joint information of the completion rows ks.

    On a prefix of k periods the contrasts l = 1..k-1 of _contrasts,
    scaled by 1/sqrt(l(l+1)), are orthonormal and sum to zero, so they
    remove the subject effect.  Each carries one period parameter,
    shared by the n_l subjects observing it (k_i > l), so centring each
    contrast over them sweeps the periods out:
    C = sum_l (Z_l'Z_l - S_l S_l'/n_l) / (l(l+1)), S_l the sum of those
    rows and a zero n_l taking a zero S S'/n.  Z'Z, S and n are integer
    counts, exact and symmetric in float64 whatever the BLAS blocking;
    the only roundings are the two divisions, the subtraction and the
    sum in ascending l.  head is the _shared_head of ks or of a batch
    containing it, formed here when not given; the contrasts from its k0
    on are masked row by row and added to it.  A masked contrast seen by
    every subject gives the bits of its shared form, so every row comes
    out the same in any batch, whatever k0 its head was formed at.
    """
    k0, gram = _shared_head(z, ks) if head is None else head
    gram = np.repeat(gram[None], len(ks), axis=0)
    for l in range(k0, len(z) + 1):
        seen = ks > l
        n = np.maximum(np.count_nonzero(seen, axis=1), 1)[:, None, None]
        gram += _centred_gram(z[l - 1] * seen[..., None], n, l)
    return gram


def direct_info_patterns(design: CrossoverDesign, completions) -> np.ndarray:
    """Direct-effect information of many dropout patterns at once.

    completions is a (B, s) integer array, row b holding each subject's
    completion period; the result is (B, t, t).  Each pattern's joint
    information is the sum of centred Grams of its within-subject
    contrasts (_joint_stack), which sweeps out subjects and periods in
    one formula, and the carryover block is swept out as a stacked
    Schur complement.  The contrasts that every row observes are summed
    once per call (_shared_head).  Rows are evaluated in chunks whose
    per-chunk temporaries stay within _CHUNK_BYTES (see there for the
    size), and every row equals its own B = 1 call bit for bit.
    """
    ks = _completion_rows(design, completions)
    t = design.t
    out = np.empty((len(ks), t, t))
    if not len(ks):
        return out
    z = _contrasts(design)
    head = _shared_head(z, ks)
    step = max(1, _CHUNK_BYTES // (16 * t * max(design.s, 2 * t)))
    for start in range(0, len(ks), step):
        chunk = ks[start : start + step]
        out[start : start + step] = schur_complement(_joint_stack(z, chunk, head), t)
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
    return JointInfo(_joint_stack(_contrasts(design), _one_row(design, pattern))[0])


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
        c=np.block([[c11, c12], [c12.T, c22]]),
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
