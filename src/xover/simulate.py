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
drawn in vectorized chunks.  Each chunk's distinct completion patterns
go through metrics.against_plan in one stack behind the plan and the
truncation, so results are bit-identical for a fixed seed regardless of
chunking or evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import CrossoverDesign, DropoutPattern, require_ubrmd  # noqa: F401
from .designs import _short_int, check_tail, truncation
from .linalg import is_psd
from .metrics import against_plan

ORDER_TOL = 1e-9
# The most replicates one call draws: simulate keeps three arrays of n
# entries (100 MB at this n), and n sizes them before any is drawn.
MAX_N = 10**7
# Uniforms drawn per vectorized chunk: 2**16 keeps every uint64 temporary
# of the Philox rounds at 128 KiB whatever the design's size.
_CHUNK_UNIFORMS = 1 << 16

# Philox4x64-10 multipliers, as a column for the (c0, c2) rows, and Weyl
# key increments (Salmon et al., SC'11).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_M_LO, _M_HI = _PHILOX_M & _MASK32, _PHILOX_M >> 32
_U64 = 1 << 64


@dataclass(frozen=True)
class DropoutModel:
    """Tail-dropout hazards h_1..h_m over the last m periods."""

    m: int
    hazards: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hazards", tuple(float(h) for h in self.hazards))
        if self.m < 1:
            raise ValueError(f"requires m >= 1, got m={_short_int(self.m)}")
        if len(self.hazards) != self.m:
            raise ValueError(
                f"expected {_short_int(self.m)} hazards, got {len(self.hazards)}"
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


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products _PHILOX_M * x, row by
    row, by 32-bit halves.  The high words overwrite x.

    With x = x_hi 2**32 + x_lo and a likewise, the partial sums
    x_hi a_lo + (x_lo a_lo >> 32) and (that & mask) + x_lo a_hi stay
    below 2**64, so no carry is lost.
    """
    lo = x * _PHILOX_M
    x_lo = x & _MASK32
    x >>= 32
    t = x_lo * _M_LO
    t >>= 32
    w = x * _M_LO
    t += w
    np.bitwise_and(t, _MASK32, out=w)
    t >>= 32
    x_lo *= _M_HI
    w += x_lo
    w >>= 32
    x *= _M_HI
    x += t
    x += w
    return x, lo


def _philox_uniforms(seed: int, rs: np.ndarray, k: int) -> np.ndarray:
    """First k uniforms of the Philox streams keyed by (seed, r), r in rs.

    rs holds uint64 replicate indices.  Row i equals
    ``Generator(Philox(key=[seed, rs[i]])).random(k)`` bit for bit:
    blocks use counters 1..ceil(k/4) in the low word.  The words are
    held as x = (c0, c2) and y = (c1, c3), so every round of all streams
    is one _mulhilo pass over both multipliers and a few in-place uint64
    array ops: x, y = (hi1 ^ c1 ^ k0, hi0 ^ c3 ^ k1), (lo1, lo0).
    """
    blocks = -(-k // 4)
    x = np.zeros((2, rs.size * blocks), dtype=np.uint64)
    x[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), rs.size)
    y = np.zeros_like(x)
    k0, k1 = int(seed), np.repeat(rs, blocks)
    for rnd in range(10):
        if rnd:
            k0 = (k0 + _PHILOX_W[0]) % _U64
            k1 += np.uint64(_PHILOX_W[1])
        hi, lo = _mulhilo(x)
        x = np.bitwise_xor(hi[::-1], y, out=y)
        x[0] ^= np.uint64(k0)
        x[1] ^= k1
        y = lo[::-1]
    words = np.stack((x[0], y[0], x[1], y[1]), axis=1).reshape(rs.size, 4 * blocks)
    return (words[:, :k] >> 11).astype(np.float64) * 2.0**-53


def check_seed(seed: int) -> None:
    """Reject seeds that are not a 64-bit Philox key word."""
    if not 0 <= seed < _U64:
        raise ValueError(f"seed must lie in 0..{_U64 - 1}, got {_short_int(seed)}")


def simulate(
    design: CrossoverDesign,
    model: DropoutModel,
    n: int,
    seed: int = 0,
    keep_losses: bool = False,
) -> SimulationResult:
    """Monte Carlo distribution of precision loss under random dropout.

    n must lie in 1..MAX_N.  Deterministic for a fixed seed in
    0..2**64-1: replicate r draws from the Philox stream keyed by
    (seed, r), under the sampling contract of the module docstring.
    ordering_violations counts replicates where
    the information matrices fail the expected sandwich (plan
    above implemented above truncated, as positive-semidefinite
    differences at tolerance 1e-9); a violation would falsify the
    worst-case analysis, so it is surfaced prominently.  Each chunk
    checks both halves of the sandwich for all its distinct patterns in
    one stacked is_psd call on their 2 * (B - 2) differences, B the rows
    of its against_plan stack.
    """
    require_ubrmd(design)
    if n < 1:
        raise ValueError(f"requires n >= 1, got n={_short_int(n)}")
    if n > MAX_N:
        raise ValueError(f"requires n <= {MAX_N}, got n={_short_int(n)}")
    tail = truncation(design, model.m).completion
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
        rows = np.where(fired.any(axis=2), p - m + fired.argmax(axis=2), p)
        # one void scalar per row: np.unique(axis=0) sorts a structured
        # dtype field by field, about ten times slower on a 2000 x 10 chunk
        keys = rows.view(np.dtype((np.void, rows.itemsize * s))).ravel()
        distinct, inverse = np.unique(keys, return_inverse=True)
        c, _, chunk_losses, chunk_disconnected = against_plan(
            design, [tail, *distinct.view(rows.dtype).reshape(-1, s)]
        )
        # plan minus each pattern, then each pattern minus the truncation
        ok = is_psd(np.concatenate([c[0] - c[2:], c[2:] - c[1]]), ORDER_TOL)
        ok = ok[: len(distinct)] & ok[len(distinct) :]
        losses[start:stop] = chunk_losses[2:][inverse]
        disconnected[start:stop] = chunk_disconnected[2:][inverse]
        ordering_ok[start:stop] = ok[inverse]
    qs = (0.5, 0.9, 0.99)
    quantiles = tuple(zip(qs, np.quantile(losses, qs).tolist()))
    return SimulationResult(
        replicates=n,
        mean_loss=float(losses.mean()),
        max_loss=float(losses.max()),
        quantiles=quantiles,
        p_disconnect=int(disconnected.sum()) / n,
        ordering_violations=int(n - ordering_ok.sum()),
        ml=float(chunk_losses[1]),
        ml_disconnected=bool(chunk_disconnected[1]),
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
    check_tail(design, 1)
    s, p = design.s, design.p
    by_drops = np.array(
        [hazard**k * (1.0 - hazard) ** (s - k) for k in range(s + 1)]
    )
    losses = np.empty(2**s)
    disconnected = np.empty(2**s, dtype=bool)
    probs = np.empty(2**s)
    # masks in chunks, so no (2^s, s) temporary exists; int32 halves the
    # chunk's temporaries against numpy's default int64
    step = max(1, _CHUNK_UNIFORMS // s)
    for start in range(0, 2**s, step):
        stop = min(2**s, start + step)
        masks = np.arange(start, stop, dtype=np.int32)
        bits = (masks[:, None] >> np.arange(s, dtype=np.int32)) & 1
        _, _, chunk_losses, chunk_disconnected = against_plan(design, p - bits)
        losses[start:stop] = chunk_losses[1:]
        disconnected[start:stop] = chunk_disconnected[1:]
        probs[start:stop] = by_drops[bits.sum(axis=1)]
    return ExactDistribution(
        losses=losses,
        probabilities=probs,
        mean_loss=float(losses @ probs),
        p_disconnect=float(probs[disconnected].sum()),
    )
