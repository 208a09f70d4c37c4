"""Information matrices for direct and carryover treatment effects.

The model behind everything here has a mean for each subject, each
period, the treatment administered in the current period (direct
effect), and the treatment administered in the previous period
(first-order carryover, absent in period 1).  Two routes build the
joint information matrix of the direct and carryover effects after
sweeping out subjects and periods:

* the projection route, valid for any staircase pattern of observed
  periods (subjects may stop early).  The library computes with it
  alone: the plan is direct_info_pattern(design), the truncated design
  is the pattern truncation(design, m), and dropout is any other
  pattern;
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
    coincidence,
    incidences,
    require_ubrmd,
)
from .linalg import moore_penrose, symmetrize


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


def joint_info_projection(
    design: CrossoverDesign, pattern: DropoutPattern | None = None
) -> JointInfo:
    """Joint information by projecting out subject and period effects.

    Works on any staircase layout: each subject contributes a prefix of
    periods.  Subject effects are removed by within-subject centering;
    the period block is then swept out with a Moore-Penrose solve, which
    also absorbs the intercept confounding between the two nuisance
    blocks without dropping columns.
    """
    t, p, s = design.t, design.p, design.s
    if pattern is None:
        completion = np.full(s, p)
    else:
        pattern.check_against(design)
        completion = np.array(pattern.completion)
    # observed cells, and one indicator row per cell over the columns
    # [direct (t) | carryover (t) | period (p)]
    periods, subj = np.nonzero(np.arange(p)[:, None] < completion[None, :])
    rows = np.arange(periods.size)
    x = np.zeros((periods.size, 2 * t + p))
    x[rows, design.layout[periods, subj]] = 1.0
    later = periods >= 1
    x[rows[later], t + design.layout[periods[later] - 1, subj[later]]] = 1.0
    x[rows, 2 * t + periods] = 1.0
    sums = np.zeros((s, x.shape[1]))
    np.add.at(sums, subj, x)
    x -= (sums / completion[:, None])[subj]
    gram = x.T @ x
    k = 2 * t
    cross = gram[:k, k:]
    c = gram[:k, :k] - cross @ moore_penrose(gram[k:, k:]) @ cross.T
    c = symmetrize(c)
    return JointInfo(c11=c[:t, :t], c12=c[:t, t:], c22=c[t:, t:])


def joint_info_orthogonal(design: CrossoverDesign) -> JointInfo:
    """Joint information of a complete rectangular layout from counts.

    With r the replication totals and N the incidence counts, each
    block is the raw crossproduct corrected for subject and period
    margins; the rank-one term with 1/(p*s) restores the intercept
    shared by both margins:

        c11 = diag(r_d) + r_d r_d'/(p s) - N_ds N_ds'/p - N_dp N_dp'/s

    and c22, c12 follow the same shape with carryover counts.
    Ragged input is rejected; use the projection route for that.
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
    cd = joint.c11 - joint.c12 @ moore_penrose(joint.c22) @ joint.c12.T
    return symmetrize(cd)


def residual_info(joint: JointInfo) -> np.ndarray:
    """Information for carryover effects: c22 minus the c11 sweep."""
    cr = joint.c22 - joint.c12.T @ moore_penrose(joint.c11) @ joint.c12
    return symmetrize(cr)


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
    u = {
        (j, k): coincidence(design, j, k).astype(float)
        for j in range(m + 1)
        for k in range(m + 1)
    }

    sum_low = np.zeros((t, t))  # pairs j != k drawn from 0..m-1
    for j in range(m):
        for k in range(m):
            if j != k:
                sum_low += u[(j, k)]
    sum_full = np.zeros((t, t))  # pairs j != k drawn from 0..m
    for j in range(m + 1):
        for k in range(m + 1):
            if j != k:
                sum_full += u[(j, k)]
    sum_adj = np.zeros((t, t))  # consecutive pairs (j, j+1)
    for j in range(m):
        sum_adj += u[(j, j + 1)]
    sum_cross = np.zeros((t, t))  # j in 0..m-1 against all other k in 0..m
    for j in range(m):
        for k in range(m + 1):
            if k != j:
                sum_cross += u[(j, k)]

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
    """Direct-effect information of an implemented design via projection."""
    return direct_info(joint_info_projection(design, pattern))
