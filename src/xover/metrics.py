"""Scalar criteria and bounds for dropout robustness.

The A-criterion summarizes an information matrix by the harmonic mean
of its nonzero eigenvalues.  Loss compares a planned design against the
design actually implemented after dropout; the worst case over all
m-tail dropout patterns is the truncated (minimal) design, whose
spectrum admits explicit lower bounds theta_L (any balanced design)
and theta_L_star (designs with single-cycle tail permutations).  Those
translate into upper bounds on the maximum loss (UML, UML_star) and
lower bounds on the A-efficiency of the truncated design (EL, EL_star).
For the two fully replicated one-square and two-square families the
truncated spectrum is known exactly on the Fourier basis, giving exact
maximum loss and efficiency numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import CrossoverDesign, _check_integer, _completion_rows, _short_int
from .designs import check_tail
from .info import _d, _direct_info_rows
from .linalg import SpectralSummary, _contrast_part, spectral_cut, symmetrize


@dataclass(frozen=True)
class ACriterion(SpectralSummary):
    """A-criterion of one direct-effect information matrix: its t-1 contrast
    eigenvalues (eigenvectors None) plus the verdict.

    trace_mp is the trace of the Moore-Penrose inverse; h is the
    harmonic criterion (t-1)/trace_mp when all contrasts are estimable,
    reported as 0.0 with connected=False otherwise.
    """

    h: float
    connected: bool


@dataclass(frozen=True)
class BoundsReport:
    """All closed-form bounds for one (t, m)."""

    t: int
    m: int
    theta_l: float
    theta_l_star: float
    uml: float
    uml_star: float
    mtr: float
    el: float
    el_star: float
    condition_value: float
    condition_satisfied: bool
    t_star: int


@dataclass(frozen=True)
class MaxLoss:
    """Maximum precision loss of a design under m-tail dropout."""

    value: float
    disconnected: bool
    plan_trace_mp: float
    min_trace_mp: float | None


@dataclass(frozen=True)
class ACriteria:
    """A-criteria of a stack of direct-effect information matrices.

    Entry b of each array belongs to matrix b; indexing gives that
    matrix's ACriterion, whose eigenvalues are those of its t-1 contrasts.
    """

    h: np.ndarray
    trace_mp: np.ndarray
    connected: np.ndarray
    rank: np.ndarray
    eigenvalues: np.ndarray
    threshold: np.ndarray

    def __getitem__(self, b: int) -> ACriterion:
        return ACriterion(
            eigenvalues=self.eigenvalues[b],
            eigenvectors=None,
            rank=int(self.rank[b]),
            trace_mp=float(self.trace_mp[b]),
            threshold=float(self.threshold[b]),
            h=float(self.h[b]),
            connected=bool(self.connected[b]),
        )


def a_criteria(c_d: np.ndarray, t: int) -> ACriteria:
    """A-criteria of a (B, t, t) stack of direct-effect information matrices.

    An information matrix C maps the constant vector to 0, so one stacked
    eigvalsh takes only the t-1 eigenvalues of C on its orthonormal
    Helmert contrasts (linalg._contrast_part).  C is connected (all
    treatment contrasts estimable) exactly when all are nonzero, rank t-1;
    the harmonic criterion is then (t-1)/trace_mp, and 0.0 with a
    disconnected flag otherwise.  Rank and trace_mp follow spectral_cut.
    """
    # eigvalsh reads one triangle, so the projection is not averaged again
    vals = np.linalg.eigvalsh(_contrast_part(symmetrize(c_d)))
    threshold, keep, inv = spectral_cut(vals)
    trace_mp = inv.sum(axis=-1)
    rank = np.count_nonzero(keep, axis=-1)
    connected = rank == t - 1
    h = np.divide(
        t - 1, trace_mp, out=np.zeros_like(trace_mp), where=connected & (trace_mp > 0)
    )
    return ACriteria(
        h=h,
        trace_mp=trace_mp,
        connected=connected,
        rank=rank,
        eigenvalues=vals,
        threshold=threshold,
    )


def a_criterion(c_d: np.ndarray, t: int) -> ACriterion:
    """A-criterion of one direct-effect information matrix: the B = 1
    call of a_criteria."""
    return a_criteria(np.asarray(c_d, dtype=float)[None], t)[0]


def loss(plan_trace_mp: float, imp_trace_mp: float | np.ndarray) -> float | np.ndarray:
    """Precision loss of an implemented design against the plan.

    One minus the ratio of planned to implemented Moore-Penrose traces;
    zero when nothing is lost, approaching one as the implemented
    design degrades.  Both traces must be positive; imp_trace_mp may be
    an array of implemented traces.
    """
    if plan_trace_mp <= 0 or np.any(np.asarray(imp_trace_mp) <= 0):
        raise ValueError("traces must be positive")
    return 1.0 - plan_trace_mp / imp_trace_mp


def implemented_losses(
    plan_trace_mp: float, trace_mp: np.ndarray, connected: np.ndarray
) -> np.ndarray:
    """Loss of each implemented design of a stack against the plan.

    A disconnected design is reported as loss 1.0 (its flag is the
    caller's ~connected) rather than an error, so sweeping over many
    patterns or (t, m) never aborts.  Losses below 1e-12 in magnitude
    are no-dropout roundoff and snap to 0.0.
    """
    val = np.ones(trace_mp.shape)
    if connected.any():
        val[connected] = loss(plan_trace_mp, trace_mp[connected])
    val[np.abs(val) < 1e-12] = 0.0
    return val


def against_plan(
    design: CrossoverDesign, completions
) -> tuple[np.ndarray, ACriteria, np.ndarray, np.ndarray]:
    """Every verdict of a design's dropout patterns against its plan.

    Validates the (B, s) completion rows once (designs._completion_rows;
    any 2-D batch, an empty one included, while [] stands for no rows),
    stacks the complete pattern (row 0) in front of them and evaluates
    them as one batch (info._direct_info_rows, which validates nothing
    again): returns the (B+1, t, t) information, its A-criteria, each
    row's loss against row 0 (implemented_losses) and its disconnected
    flag, ~crit.connected.  A single treatment has no contrast to
    estimate, so t must be at least 2; that is checked after the rows,
    before the engine.
    """
    plan = np.full((1, design.s), design.p)
    empty = np.shape(completions) == (0,)
    rows = plan[:0] if empty else _completion_rows(design, completions)
    if design.t < 2:
        raise ValueError(f"requires t >= 2 treatments, got t={design.t}")
    c = _direct_info_rows(design, np.concatenate([plan, rows]))
    crit = a_criteria(c, design.t)
    losses = implemented_losses(crit.trace_mp[0], crit.trace_mp, crit.connected)
    return c, crit, losses, ~crit.connected


def max_loss(design: CrossoverDesign, m: int) -> MaxLoss:
    """Maximum loss of a design under m-tail dropout: the loss of its
    truncation pattern against the plan."""
    check_tail(design, m)
    _, crit, losses, disconnected = against_plan(
        design, np.full((1, design.s), design.p - m)
    )
    return MaxLoss(
        value=float(losses[1]),
        disconnected=bool(disconnected[1]),
        plan_trace_mp=float(crit.trace_mp[0]),
        min_trace_mp=None if disconnected[1] else float(crit.trace_mp[1]),
    )


# The bounds take floats of products that grow as t**3, which overflow
# from about t = 10**103.
_MAX_T_DIGITS = 100


def _check_t(t: int) -> int:
    """t as a Python int (designs._check_integer), rejecting a t past
    10**_MAX_T_DIGITS."""
    t = _check_integer("t", t)
    if t > 10**_MAX_T_DIGITS:
        raise ValueError(f"requires t <= 10**{_MAX_T_DIGITS}, got a larger t")
    return t


def _check_t_m(t: int, m: int) -> None:
    """Reject (t, m) outside the bounds' domain, or other than integers
    (designs._check_integer).  The messages name no digits of t or m,
    which may be hundreds long, so each stays one short line."""
    if _check_integer("m", m) < 1:
        raise ValueError("requires m >= 1, got a smaller m")
    if _check_t(t) < 2 * m + 2:
        raise ValueError("requires t >= 2m+2, got a smaller t")


def theta_lower(t: int, m: int) -> float:
    """Spectral lower bound for the truncated design of any balanced layout.

    theta_L(t, m) = (t/(t-m)) [ (t-2m) - t(m+1)^2 / D ] with
    D = (t-m)^2 - (t+1) - m(m+1); requires t >= 2m+2.
    """
    return bounds_report(t, m).theta_l


def theta_lower_star(t: int, m: int) -> float:
    """Sharper spectral lower bound for single-cycle tail permutations.

    Replaces the worst-case coincidence alignment by the extremal value
    cos(2 pi / t) available to a full-cycle permutation.
    """
    return bounds_report(t, m).theta_l_star


def uml(t: int, m: int, star: bool = False) -> float:
    """Upper bound on the maximum loss under m-tail dropout.

    UML(t, m) = 1 - (t^2-t-1) theta / (t(t-2)(t+1)) with theta the
    plain or starred spectral lower bound.
    """
    report = bounds_report(t, m)
    return report.uml_star if star else report.uml


def connect_condition(t: int, m: int) -> tuple[float, bool]:
    """Connectedness condition for the truncated design.

    Returns the value of (t-2m) D - t(m+1)^2 with
    D = (t-m)^2 - (t+1) - m(m+1), and whether it is positive.  Positive
    value guarantees every treatment contrast stays estimable after the
    worst-case m-tail dropout.  Takes t < 2m+2 too.
    """
    m = _check_integer("m", m)
    if m < 1:
        raise ValueError(f"requires m >= 1, got m={_short_int(m)}")
    t = _check_t(t)
    value = (t - 2 * m) * _d(t, m) - t * (m + 1) ** 2
    return float(value), value > 0


def t_star(m: int) -> int:
    """Smallest t >= 2m+2 whose truncated design is guaranteed connected:
    3m + 2, so t >= 5 for one-period dropout.

    With t = 2m+2+x, connect_condition's value is the cubic
    f(x) = x^3 + (2m+5)x^2 + (6+3m-m^2)x - 2m(m+1)(m+2), convex for
    x >= 0 (f'' = 6x + 4m + 10).  f(0) = -2m(m+1)(m+2) < 0 and
    f(m-1) = -2(m+1)(2m+1) < 0, so by convexity f < 0 on 0..m-1;
    f(m) = 2m(m+1) > f(m-1), so convexity keeps f increasing past m.
    """
    m = _check_integer("m", m)
    if m < 1:
        raise ValueError(f"requires m >= 1, got m={_short_int(m)}")
    return 3 * m + 2


def mtr(t: int, m: int) -> float:
    """Maximum possible trace of the truncated design's information.

    MTr(t, m) = t(t-m-1) - (t(t-m-1)+1)/((t-m)(t-m-1)), the ceiling
    used to normalize efficiency bounds.
    """
    return bounds_report(t, m).mtr


def efficiency_bounds(t: int, m: int) -> tuple[float, float]:
    """A-efficiency lower bounds (plain, starred) for the truncated design.

    EL = (t-1) theta_L / MTr and likewise with the starred theta.
    """
    report = bounds_report(t, m)
    return report.el, report.el_star


def bounds_report(t: int, m: int) -> BoundsReport:
    """All (t, m) bounds in one bundle; requires t >= 2m+2.  Each is
    computed once, and the single-bound functions above read its field."""
    _check_t_m(t, m)
    # a numpy integer would overflow in the products of order t**3
    t, m = int(t), int(m)
    d, scale, psi1 = _d(t, m), t / (t - m), math.cos(2 * math.pi / t)
    theta_l = scale * ((t - 2 * m) - t * (m + 1) ** 2 / d)
    theta_l_star = scale * (
        (t - 2 * m)
        + (m * (m - 1) / t) * (1 - psi1)
        - t * (1 + 2 * psi1 * m + m * m) / d
    )
    w = t * (t - m - 1)
    ceiling = w - (w + 1) / ((t - m) * (t - m - 1))
    value, ok = connect_condition(t, m)
    return BoundsReport(
        t=t,
        m=m,
        theta_l=theta_l,
        theta_l_star=theta_l_star,
        uml=1.0 - (t * t - t - 1) * theta_l / (t * (t - 2) * (t + 1)),
        uml_star=1.0 - (t * t - t - 1) * theta_l_star / (t * (t - 2) * (t + 1)),
        mtr=ceiling,
        el=(t - 1) * theta_l / ceiling,
        el_star=(t - 1) * theta_l_star / ceiling,
        condition_value=value,
        condition_satisfied=ok,
        t_star=t_star(m),
    )


def class_ab_spectrum(t: int, klass: str) -> list[float]:
    """Per-frequency eigenvalue factors of the truncated one-period design.

    For replicated single-square designs ("A") and replicated
    complementary-pair designs ("B"), the truncated information is a
    circulant on the Fourier basis of the tail cycle; the eigenvalues of
    the information matrix are g times these factors, for frequencies
    r = 1..t-1 with psi_r = cos(2 pi r / t).  psi_r is evaluated at
    min(r, t-r), so that theta_r = theta_(t-r) holds exactly:

        A: theta_r = (t/(t-1)) [ t-2 - 2t(1+psi_r) / (t(t-3) - 2 psi_r) ]
        B: theta_r = (t/(t-1)) [ t-2 - t(1+psi_r)^2 / (t(t-3) - 2 psi_r) ]
    """
    if klass not in ("A", "B"):
        raise ValueError(f'class must be "A" or "B", got {klass!r}')
    t = _check_integer("t", t)
    if t < 4:
        raise ValueError(f"requires t >= 4, got t={t}")
    out: list[float] = []
    for r in range(1, t):
        psi = math.cos(2 * math.pi * min(r, t - r) / t)
        denom = t * (t - 3) - 2 * psi
        if klass == "A":
            val = (t / (t - 1)) * ((t - 2) - 2 * t * (1 + psi) / denom)
        else:
            val = (t / (t - 1)) * ((t - 2) - t * (1 + psi) ** 2 / denom)
        out.append(val)
    return out


def _class_ab_losses(
    t: int, klass: str, spectrum: list[float] | None = None
) -> tuple[float, float]:
    """(class_ab_ml, el_ab) of (t, klass) from one spectrum: the given
    class_ab_spectrum(t, klass), or one built here.  For t >= 5 every
    theta_r >= (t/(t-1)) ((t-2) - 4t/(t^2-3t-2)) > 0: it is connected."""
    t = _check_integer("t", t)
    if t < 5:
        raise ValueError(f"requires t >= 5, got t={t} (truncation disconnected)")
    if spectrum is None:
        spectrum = class_ab_spectrum(t, klass)
    inv = 1.0 / sum(1.0 / v for v in spectrum)
    ml = 1.0 - ((t - 1) * (t * t - t - 1) / (t * (t - 2) * (t + 1))) * inv
    return ml, ((t - 1) ** 2 / mtr(t, 1)) * inv


def class_ab_ml(t: int, klass: str) -> float:
    """Exact maximum loss for the replicated square or pair families.

    ML = 1 - ((t-1)(t^2-t-1)/(t(t-2)(t+1))) (sum_r 1/theta_r)^{-1};
    requires t >= 5 (the t=4 truncation is disconnected).
    """
    return _class_ab_losses(t, klass)[0]


def el_ab(t: int, klass: str) -> float:
    """Exact A-efficiency of the truncated square or pair families.

    EL_AB = ((t-1)^2 / MTr(t, 1)) (sum_r 1/theta_r)^{-1}; requires
    t >= 5.
    """
    return _class_ab_losses(t, klass)[1]


def extreme_ml(t: int) -> float:
    """Maximum loss of the all-sequences design under one-period dropout.

    The truncated all-sequences design has completely symmetric
    information with contrast eigenvalue proportional to
    a = (t^4 - 5t^3 + 6t^2 + t - 2)/(t^3 - 4t^2 + 3t + 2), giving
    ML = 1 - a (t^2-t-1) / ((t-1)^2 (t+1)).
    """
    t = _check_integer("t", t)
    if t < 4:
        raise ValueError(f"requires t >= 4, got t={t}")
    a = (t**4 - 5 * t**3 + 6 * t**2 + t - 2) / (t**3 - 4 * t**2 + 3 * t + 2)
    return 1.0 - a * (t * t - t - 1) / ((t - 1) ** 2 * (t + 1))


def efficiency_lower_bound(min_trace_mp: float, t: int, m: int, g: int) -> float:
    """A-efficiency floor from a measured truncated-design trace.

    EFF >= (t-1)^2 / (g MTr(t, m) trace_mp); valid when the truncated
    design is connected.
    """
    t, m = _check_integer("t", t), _check_integer("m", m)
    if min_trace_mp <= 0:
        raise ValueError("trace of the Moore-Penrose inverse must be positive")
    return (t - 1) ** 2 / (g * mtr(t, m) * min_trace_mp)
