"""Monte Carlo and exhaustive evaluation of random tail dropout.

Dropout is completely at random and monotone: a subject who reaches
period t-m+j-1 drops before the next period with hazard h_j,
independently across subjects, and never re-enters.  Setting every
hazard to 0 keeps the full design; setting every hazard to 1 forces the
worst case, the truncated design.  The hazard chain can express any
completion-period distribution supported on {t-m, ..., t}.

Replicates draw from counter-based substreams (one Philox key per
replicate), so results are bit-identical for a fixed seed regardless of
evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import CrossoverDesign, DropoutPattern, truncate, validate_ubrmd
from .info import direct_info_complete, direct_info_pattern
from .linalg import is_psd
from .metrics import a_criterion, implemented_loss

ORDER_TOL = 1e-9


@dataclass(frozen=True)
class DropoutModel:
    """Tail-dropout hazards h_1..h_m over the last m periods."""

    m: int
    hazards: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hazards", tuple(float(h) for h in self.hazards))
        if self.m < 1:
            raise ValueError(f"requires m >= 1, got m={self.m}")
        if len(self.hazards) != self.m:
            raise ValueError(
                f"expected {self.m} hazards, got {len(self.hazards)}"
            )
        if any(not 0.0 <= h <= 1.0 for h in self.hazards):
            raise ValueError(f"hazards must lie in [0, 1]: {list(self.hazards)}")


@dataclass(frozen=True)
class SimulationResult:
    """Summary of simulated losses for one design and dropout model."""

    replicates: int
    mean_loss: float
    max_loss: float
    quantiles: tuple[tuple[float, float], ...]
    p_disconnect: float
    ordering_violations: int
    ml: float
    ml_disconnected: bool
    losses: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ExactDistribution:
    """Exact loss distribution over all final-period dropout subsets."""

    losses: np.ndarray
    probabilities: np.ndarray
    mean_loss: float
    p_disconnect: float


@dataclass(frozen=True)
class _PatternEval:
    loss: float
    disconnected: bool
    ordering_ok: bool


class _PatternCache:
    """Per-pattern loss and ordering checks, computed once per pattern.

    The number of distinct completion patterns is finite, so replicated
    sampling reduces to dictionary lookups after the first hit.
    """

    def __init__(self, design: CrossoverDesign, m: int):
        self.design = design
        self.m = m
        self.c_plan = direct_info_complete(design)
        self.c_min = direct_info_complete(truncate(design, m))
        self.plan = a_criterion(self.c_plan, design.t)
        self.mini = a_criterion(self.c_min, design.t)
        self.cache: dict[tuple[int, ...], _PatternEval] = {}

    def evaluate(self, completion: tuple[int, ...]) -> _PatternEval:
        hit = self.cache.get(completion)
        if hit is not None:
            return hit
        p = self.design.p
        if completion == (p - self.m,) * self.design.s:
            # full truncation is the minimal design itself
            c_imp = self.c_min
            imp = self.mini
        else:
            c_imp = direct_info_pattern(self.design, DropoutPattern(completion))
            imp = a_criterion(c_imp, self.design.t)
        ordering_ok = is_psd(self.c_plan - c_imp, ORDER_TOL) and is_psd(
            c_imp - self.c_min, ORDER_TOL
        )
        val, disconnected = implemented_loss(self.plan, imp)
        out = _PatternEval(loss=val, disconnected=disconnected, ordering_ok=ordering_ok)
        self.cache[completion] = out
        return out

    def ml(self) -> tuple[float, bool]:
        return implemented_loss(self.plan, self.mini)


def _sample_completion(
    design: CrossoverDesign, model: DropoutModel, rng: np.random.Generator
) -> tuple[int, ...]:
    """One pattern draw: per subject, the first hazard that fires stops it."""
    p, s = design.p, design.s
    u = rng.random((s, model.m))
    fired = u < np.array(model.hazards)[None, :]
    completion = np.full(s, p, dtype=int)
    for i in range(s):
        hits = np.nonzero(fired[i])[0]
        if hits.size:
            completion[i] = p - model.m + int(hits[0])
    return tuple(int(k) for k in completion)


def simulate(
    design: CrossoverDesign,
    model: DropoutModel,
    n: int,
    seed: int = 0,
    keep_losses: bool = False,
) -> SimulationResult:
    """Monte Carlo distribution of precision loss under random dropout.

    Deterministic for a fixed seed: replicate r draws from the Philox
    stream keyed by (seed, r).  ordering_violations counts replicates
    where the information matrices fail the expected sandwich (plan
    above implemented above truncated, as positive-semidefinite
    differences at tolerance 1e-9); a violation would falsify the
    worst-case analysis, so it is surfaced prominently.
    """
    report = validate_ubrmd(design)
    if not report.ok:
        raise ValueError(
            "design is not uniform-balanced: " + "; ".join(report.failures)
        )
    if n < 1:
        raise ValueError(f"requires n >= 1, got n={n}")
    if not 1 <= model.m < design.p - 1:
        raise ValueError(f"m={model.m} out of range 1..{design.p - 2}")
    cache = _PatternCache(design, model.m)
    losses = np.empty(n)
    disconnects = 0
    violations = 0
    for r in range(n):
        key = np.array([seed, r], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        completion = _sample_completion(design, model, rng)
        ev = cache.evaluate(completion)
        losses[r] = ev.loss
        disconnects += ev.disconnected
        violations += not ev.ordering_ok
    ml_value, ml_flag = cache.ml()
    qs = (0.5, 0.9, 0.99)
    quantiles = tuple((q, float(np.quantile(losses, q))) for q in qs)
    return SimulationResult(
        replicates=n,
        mean_loss=float(losses.mean()),
        max_loss=float(losses.max()),
        quantiles=quantiles,
        p_disconnect=disconnects / n,
        ordering_violations=violations,
        ml=ml_value,
        ml_disconnected=ml_flag,
        losses=tuple(float(x) for x in losses) if keep_losses else None,
    )


def enumerate_exact(
    design: CrossoverDesign, hazard: float, m: int = 1
) -> ExactDistribution:
    """Exact loss distribution under single-period dropout.

    Enumerates all 2^s subsets of subjects dropping the final period
    (m must be 1, s at most 20) and weights each subset by the
    Bernoulli hazard.  Serves as the exact reference that Monte Carlo
    means must approach.
    """
    if m != 1:
        raise ValueError(f"exact enumeration requires m=1, got m={m}")
    if design.s > 20:
        raise ValueError(f"requires s <= 20, got s={design.s}")
    if not 0.0 <= hazard <= 1.0:
        raise ValueError(f"hazard must lie in [0, 1], got {hazard}")
    cache = _PatternCache(design, 1)
    s, p = design.s, design.p
    losses = np.empty(2**s)
    probs = np.empty(2**s)
    p_disc = 0.0
    for mask in range(2**s):
        completion = tuple(
            p - 1 if mask & (1 << i) else p for i in range(s)
        )
        dropped = bin(mask).count("1")
        ev = cache.evaluate(completion)
        losses[mask] = ev.loss
        probs[mask] = hazard**dropped * (1.0 - hazard) ** (s - dropped)
        if ev.disconnected:
            p_disc += probs[mask]
    return ExactDistribution(
        losses=losses,
        probabilities=probs,
        mean_loss=float(losses @ probs),
        p_disconnect=float(p_disc),
    )
