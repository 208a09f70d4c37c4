"""Monte Carlo and exhaustive evaluation of random tail dropout.

Dropout is completely at random and monotone: a subject who reaches
period t-m+j-1 drops before the next period with hazard h_j,
independently across subjects, and never re-enters.  Setting every
hazard to 0 keeps the full design; setting every hazard to 1 forces the
worst case, the truncated design.  The hazard chain can express any
completion-period distribution supported on {t-m, ..., t}.

Sampling contract.  Replicate r of a call with seed S reads the
numpy-compatible Philox4x64-10 stream keyed by (S, r): the counter starts
at 1, each block yields four 64-bit words in order, and a uniform is the
top 53 bits of a word times 2**-53, exactly as
``np.random.Generator(np.random.Philox(key=[S, r])).random``.  The
replicate's s*m uniforms are read as an s x m array in row-major order,
and subject i stops before period p-m+j+1 at the first j whose uniform
falls below h_{j+1}.  The seed must lie in 0..2**64-1.  Replicates are
drawn in vectorized chunks, and each distinct completion pattern is
evaluated once per call, so results are bit-identical for a fixed seed
regardless of chunking or evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import CrossoverDesign, DropoutPattern, require_ubrmd, truncation
from .info import direct_info_pattern
from .linalg import is_psd
from .metrics import a_criterion, implemented_loss

ORDER_TOL = 1e-9
# Uniforms drawn per vectorized chunk: 2**16 keeps every uint64 temporary
# of the Philox rounds at 128 KiB whatever the design's size.
_CHUNK_UNIFORMS = 1 << 16

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_U64 = 1 << 64


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
    sampling reduces to dictionary lookups after the first hit.  The plan
    and truncated criteria come from the same calls as in max_loss, so
    the two give the same maximum loss bit for bit.
    """

    def __init__(self, design: CrossoverDesign, m: int):
        self.design = design
        self.c_plan = direct_info_pattern(design)
        self.c_min = direct_info_pattern(design, truncation(design, m))
        self.plan = a_criterion(self.c_plan, design.t)
        self.mini = a_criterion(self.c_min, design.t)
        self.cache: dict[tuple[int, ...], _PatternEval] = {}

    def evaluate(self, completion: tuple[int, ...]) -> _PatternEval:
        hit = self.cache.get(completion)
        if hit is not None:
            return hit
        c_imp = direct_info_pattern(self.design, DropoutPattern(completion))
        imp = a_criterion(c_imp, self.design.t)
        ordering_ok = is_psd(self.c_plan - c_imp, ORDER_TOL) and is_psd(
            c_imp - self.c_min, ORDER_TOL
        )
        val, disconnected = implemented_loss(self.plan, imp)
        out = _PatternEval(loss=val, disconnected=disconnected, ordering_ok=ordering_ok)
        self.cache[completion] = out
        return out


def _mulhilo(a: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a*x, by 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    x_lo, x_hi = x & _MASK32, x >> 32
    ll, lh, hl = x_lo * a_lo, x_lo * a_hi, x_hi * a_lo
    mid = (ll >> 32) + (lh & _MASK32) + (hl & _MASK32)
    hi = x_hi * a_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)
    return hi, x * np.uint64(a)


def _philox_uniforms(seed: int, rs: np.ndarray, k: int) -> np.ndarray:
    """First k uniforms of the Philox streams keyed by (seed, r), r in rs.

    rs holds uint64 replicate indices.  Row i equals
    ``Generator(Philox(key=[seed, rs[i]])).random(k)`` bit for bit:
    blocks use counters 1..ceil(k/4) in the low word, and every round
    of all streams runs as a handful of uint64 array ops.
    """
    blocks = -(-k // 4)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), rs.size)
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = int(seed), np.repeat(rs, blocks)
    for rnd in range(10):
        if rnd:
            k0 = (k0 + _PHILOX_W[0]) % _U64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=1).reshape(rs.size, 4 * blocks)
    return (words[:, :k] >> 11).astype(np.float64) * 2.0**-53


def _evaluate_rows(
    cache: _PatternCache, completions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loss, disconnected and ordering-ok per completion row.

    Each distinct row goes through the cache once; the verdicts are
    scattered back to every row through the inverse index.
    """
    rows = np.ascontiguousarray(completions)
    # one void scalar per row: np.unique(axis=0) sorts a structured dtype
    # field by field, about ten times slower on a 2000 x 10 chunk
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    distinct = distinct.view(rows.dtype).reshape(-1, rows.shape[1])
    evs = [cache.evaluate(tuple(row)) for row in distinct.tolist()]
    return (
        np.array([ev.loss for ev in evs])[inverse],
        np.array([ev.disconnected for ev in evs])[inverse],
        np.array([ev.ordering_ok for ev in evs])[inverse],
    )


def check_seed(seed: int) -> None:
    """Reject seeds that are not a 64-bit Philox key word."""
    if not 0 <= seed < _U64:
        raise ValueError(f"seed must lie in 0..{_U64 - 1}, got {seed}")


def simulate(
    design: CrossoverDesign,
    model: DropoutModel,
    n: int,
    seed: int = 0,
    keep_losses: bool = False,
) -> SimulationResult:
    """Monte Carlo distribution of precision loss under random dropout.

    Deterministic for a fixed seed in 0..2**64-1: replicate r draws from
    the Philox stream keyed by (seed, r), under the sampling contract of
    the module docstring.  ordering_violations counts replicates where
    the information matrices fail the expected sandwich (plan
    above implemented above truncated, as positive-semidefinite
    differences at tolerance 1e-9); a violation would falsify the
    worst-case analysis, so it is surfaced prominently.
    """
    require_ubrmd(design)
    if n < 1:
        raise ValueError(f"requires n >= 1, got n={n}")
    cache = _PatternCache(design, model.m)
    check_seed(seed)
    s, p, m = design.s, design.p, model.m
    hazards = np.array(model.hazards)
    losses = np.empty(n)
    disconnected = np.empty(n, dtype=bool)
    ordering_ok = np.empty(n, dtype=bool)
    step = max(1, _CHUNK_UNIFORMS // (s * m))
    for start in range(0, n, step):
        stop = min(n, start + step)
        rs = np.arange(start, stop, dtype=np.uint64)
        fired = _philox_uniforms(seed, rs, s * m).reshape(-1, s, m) < hazards
        completions = np.where(fired.any(axis=2), p - m + fired.argmax(axis=2), p)
        (
            losses[start:stop],
            disconnected[start:stop],
            ordering_ok[start:stop],
        ) = _evaluate_rows(cache, completions)
    ml_value, ml_flag = implemented_loss(cache.plan, cache.mini)
    qs = (0.5, 0.9, 0.99)
    quantiles = tuple((q, float(np.quantile(losses, q))) for q in qs)
    return SimulationResult(
        replicates=n,
        mean_loss=float(losses.mean()),
        max_loss=float(losses.max()),
        quantiles=quantiles,
        p_disconnect=int(disconnected.sum()) / n,
        ordering_violations=int(n - ordering_ok.sum()),
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
    s, p = design.s, design.p
    # int32 halves the (2^s, s) temporaries against numpy's default int64
    masks = np.arange(2**s, dtype=np.int32)
    bits = (masks[:, None] >> np.arange(s, dtype=np.int32)) & 1
    losses, disconnected, _ = _evaluate_rows(_PatternCache(design, 1), p - bits)
    by_drops = np.array(
        [hazard**k * (1.0 - hazard) ** (s - k) for k in range(s + 1)]
    )
    probs = by_drops[bits.sum(axis=1)]
    return ExactDistribution(
        losses=losses,
        probabilities=probs,
        mean_loss=float(losses @ probs),
        p_disconnect=float(probs[disconnected].sum()),
    )
