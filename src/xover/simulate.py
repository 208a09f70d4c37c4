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
falls below h_{j+1}.  That compare is made on the 53-bit integers x:
x 2**-53 < h exactly when x < ceil(h 2**53), both sides exact in
uint64.  The seed must be an integer in 0..2**64-1.  Replicates are
drawn in chunks.  A chunk of at most _REKEYED_MAX replicates re-keys
one numpy Philox per replicate (_rekeyed_uniforms); a larger chunk runs
the Philox rounds of all its streams at once, vectorized, in place in
uint64 buffers of each thread's scratch (linalg._scratch;
_philox_uniforms gives their size), which serve only such chunks.  The
stream is counter-based, so both routes give the same words.  A chunk's
completion rows are grouped on packed integer keys, and its distinct
patterns go through metrics.against_plan in one stack behind the plan
and the truncation, so results are bit-identical for a fixed seed
regardless of chunking or evaluation order.  The information ordering
plan >= pattern >= truncation is certified from the spectra that stack
already has (_loewner_certified); only the differences the certificate
leaves open take an eigenvalue computation of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import CrossoverDesign, check_tail, require_ubrmd
from .designs import _check_at_least, _check_integer, _check_real, _short_int
from .linalg import ORDER_TOL, _contrast_part, _scratch, is_psd
from .metrics import against_plan

# The most replicates one call draws: n sizes simulate's one float64 array
# of losses (80 MB at this n) before any is drawn; keep_losses=True adds a
# tuple of n Python floats, about 32 bytes each (320 MB at this n).
MAX_N = 10**7
# Uniforms drawn per vectorized chunk.  A full chunk holds 2**16 // (s m)
# replicates of ceil(s m / 4) Philox blocks, so each of the six (2, blocks)
# uint64 round buffers of _philox_uniforms takes about 256 KiB where 4
# divides s m, and more where a replicate's last block is part-used:
# 307 KiB on d3plan (6553 replicates of 3 blocks).  A thread keeps its
# buffers for its lifetime (_philox_uniforms).
_CHUNK_UNIFORMS = 1 << 16
# The most replicates a chunk draws by re-keying numpy's Philox
# (_rekeyed_uniforms); a larger chunk takes the vectorized rounds of
# _philox_uniforms.  The rounds cost about 180 numpy calls a chunk
# whatever its size, and re-keying costs a few microseconds a replicate.
# Measured, re-keying is faster at every uniform count k up to 32
# replicates, by a thin margin at 64 replicates of k <= 10, and slower at
# 128 replicates of k = 10 (README).
_REKEYED_MAX = 32

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
        object.__setattr__(self, "m", _check_at_least("m", self.m, 1))
        hazards = tuple(_check_real("hazard", h) for h in self.hazards)
        object.__setattr__(self, "hazards", hazards)
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


def _mulhilo(
    x: np.ndarray, lo: np.ndarray, t: np.ndarray, u: np.ndarray, w: np.ndarray
) -> None:
    """High and low words of the 128-bit products _PHILOX_M * x, row by
    row, by 32-bit halves, in place: the low words go to lo, the high
    words overwrite x, and t, u, w are scratch of x's shape.

    With x = x_hi 2**32 + x_lo and a likewise, the partial sums
    x_hi a_lo + (x_lo a_lo >> 32) and (that & mask) + x_lo a_hi stay
    below 2**64, so no carry is lost.
    """
    np.multiply(x, _PHILOX_M, out=lo)
    np.bitwise_and(x, _MASK32, out=u)
    x >>= 32
    np.multiply(u, _M_LO, out=t)
    t >>= 32
    np.multiply(x, _M_LO, out=w)
    t += w
    np.bitwise_and(t, _MASK32, out=w)
    t >>= 32
    u *= _M_HI
    w += u
    w >>= 32
    x *= _M_HI
    x += t
    x += w


def _philox_uniforms(seed: int, rs: np.ndarray, k: int) -> np.ndarray:
    """First k uniforms of the Philox streams keyed by (seed, r), r in rs,
    as the uint64 integers x of the uniforms x 2**-53.

    rs holds uint64 replicate indices.  Row i times 2**-53 equals
    ``Generator(Philox(key=[seed, rs[i]])).random(k)`` bit for bit:
    blocks use counters 1..ceil(k/4) in the low word.  The words are
    held as x = (c0, c2) and y = (c1, c3), so every round of all streams
    is one _mulhilo pass over both multipliers and a few in-place uint64
    array ops: x, y = (hi1 ^ c1 ^ k0, hi0 ^ c3 ^ k1), (lo1, lo0).  Round
    0 sees only the counter and zero words, so it is computed once per
    block counter and broadcast over the streams.

    The rounds allocate nothing.  They run in the calling thread's
    "philox" scratch (linalg._scratch), 104 bytes per block of the
    largest call made in that thread: six contiguous (2, blocks) buffers,
    through three of which x, y and the low words rotate while the other
    three are _mulhilo's scratch, and the key words r, one per block.
    """
    n, blocks = rs.size, -(-k // 4)
    size = n * blocks
    words = _scratch("philox", 13 * size, np.uint64)
    x, y, lo, t, u, w = buffers = words[: 12 * size].reshape(6, 2, size)
    k1 = words[12 * size :]
    # round 0 multiplies the counters 1..blocks in c0 and zeros in c2
    first = np.zeros((5, 2, blocks), dtype=np.uint64)
    first[0, 0] = np.arange(1, blocks + 1, dtype=np.uint64)
    _mulhilo(*first)
    k0 = int(seed)
    k1.reshape(n, blocks)[:] = rs[:, None]
    x[0] = k0
    np.bitwise_xor(k1.reshape(n, blocks), first[0, 0], out=x[1].reshape(n, blocks))
    y[0] = 0
    y[1].reshape(n, blocks)[:] = first[1, 0]
    for _ in range(9):
        k0 = (k0 + _PHILOX_W[0]) % _U64
        k1 += np.uint64(_PHILOX_W[1])
        _mulhilo(x, lo, t, u, w)
        np.bitwise_xor(x[::-1], y, out=y)
        y[0] ^= np.uint64(k0)
        y[1] ^= k1
        x, y, lo = y, lo[::-1], x
    out = buffers[3:5].reshape(size, 4)
    np.stack((x[0], y[0], x[1], y[1]), axis=1, out=out)
    return out.reshape(n, 4 * blocks)[:, :k] >> 11


def _rekeyed_uniforms(seed: int, rs: np.ndarray, k: int) -> np.ndarray:
    """_philox_uniforms(seed, rs, k) by numpy's own Philox, one stream at
    a time: one bit generator is re-keyed to (seed, r) through its state
    setter, counter zeroed and buffer empty, for each r in rs, and
    random_raw(k) >> 11 is that stream's row.  Its cost is a few
    microseconds per stream plus the words, with no fixed cost per call,
    so it suits a chunk of few replicates.
    """
    key = np.array([seed, 0], dtype=np.uint64)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits = np.random.Philox(key=key)
    out = np.empty((rs.size, k), dtype=np.uint64)
    for row, r in zip(out, rs):
        key[1] = r
        bits.state = state
        row[:] = bits.random_raw(k)
    out >>= 11
    return out


def check_n(n: int) -> int:
    """n as a Python int, rejecting a replicate count outside 1..MAX_N."""
    n = _check_at_least("n", n, 1)
    if n > MAX_N:
        raise ValueError(f"requires n <= {MAX_N}, got n={_short_int(n)}")
    return n


def check_seed(seed: int) -> None:
    """Reject seeds that are not a 64-bit Philox key word."""
    seed = _check_integer("seed", seed)
    if not 0 <= seed < _U64:
        raise ValueError(f"seed must lie in 0..{_U64 - 1}, got {_short_int(seed)}")


def _distinct_completions(
    x: np.ndarray, hazards: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct completion rows of a chunk's (n, s, m) uniforms, given as
    the uint64 integers x of x 2**-53 (_philox_uniforms), and the index of
    each replicate's row among them.

    A subject's digit is the number of periods it loses: m - j for the
    first j whose uniform falls below hazards[j], that is x below
    ceil(hazards[j] 2**53), 0 when none does.  It
    takes m boolean passes, latest j first, so the earliest j wins.  Digits
    lie in 0..m and take bits = m.bit_length() bits each, so a row packs
    into ceil(s / per) uint64 words of per = min(s, 64 // bits) digits.
    One word is grouped by np.unique on uint64, more words through a void
    view of the row's words.  The keys only group: each distinct row is
    read back from the digits of its first replicate, in key order.
    """
    n, s, m = x.shape
    cuts = np.ceil(hazards * 2.0**53).astype(np.uint64)
    bits = m.bit_length()
    per = min(s, 64 // bits)
    words = -(-s // per)
    digits = np.zeros((n, words * per), dtype=np.uint64)
    for j in range(m - 1, -1, -1):
        np.copyto(digits[:, :s], m - j, where=x[..., j] < cuts[j])
    shifts = np.arange(per, dtype=np.uint64) * np.uint64(bits)
    # the digits' bit fields are disjoint, so the integer product sums
    # them without a carry
    keys = digits.reshape(n, words, per) @ (np.uint64(1) << shifts)
    if words > 1:
        keys = keys.view(np.dtype((np.void, 8 * words)))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return p - digits[first, :s].astype(np.intp), inverse.ravel()


def _loewner_certified(
    vals: np.ndarray, upper: np.ndarray, lower: np.ndarray
) -> np.ndarray:
    """Which pairs A = upper, B = lower of a stack are certified A >= B.

    vals holds the ascending eigenvalues that eigvalsh computed for the
    n = t-1 Helmert contrasts H'XH of each (t, t) matrix X of the stack
    (metrics.a_criteria); upper and lower index pairs of it.  A pair is
    certified when

        lam_1(A) - lam_max(B) >= -ORDER_TOL + 2 delta_A + 2 delta_B,

    with delta_X = 8 n eps max|lam(X)|, lam the computed eigenvalues.  A
    certified pair passes is_psd(H'(A - B)H, ORDER_TOL).

    Proof.  Take the projection and eigvalsh together to be accurate
    within E(X) = 4 n eps |H'XH|_2 on an exactly symmetric X (LAPACK's
    backward-stable bound, with a factor 4n where its guide's estimate
    takes 1); then E(X) <= 4 n eps (max|lam(X)| + E(X)), so
    E(X) <= delta_X / 2 up to a factor 1 + O(n eps).  By Weyl,
    lam_min(H'(A - B)H) >= lam_min(H'AH) - lam_max(H'BH)
    >= L - (delta_A + delta_B) / 2, with L = lam_1(A) - lam_max(B).
    is_psd gets the rounded difference A - B + F, with
    |F|_2 <= eps |A - B|_F <= sqrt(t) eps |A - B|_2 and sqrt(t) <= 1.5 n,
    and projects it and runs eigvalsh within E.  A and B map the
    constant vector to 0 up to rounding, so |A - B|_2 <= |H'AH|_2 +
    |H'BH|_2 to first order, and the two cost at most
    0.7 (delta_A + delta_B).  So the computed smallest eigenvalue is at
    least L - 1.2 (delta_A + delta_B), which the condition puts at
    -ORDER_TOL or above.
    """
    n = vals.shape[-1]
    delta = 8 * n * np.finfo(float).eps * np.abs(vals[:, [0, -1]]).max(axis=1)
    margin = 2 * (delta[upper] + delta[lower])
    return vals[upper, 0] - vals[lower, -1] >= -ORDER_TOL + margin


def _ordering_ok(c: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Whether plan >= pattern >= truncation holds for each pattern of an
    against_plan stack: plan at row 0, truncation at row 1, patterns
    after, vals their computed contrast spectra (metrics.a_criteria).
    Both halves of every pattern's sandwich are certified by
    _loewner_certified where it can; the differences it leaves open go
    through one stacked is_psd on their Helmert contrasts H'(A - B)H,
    where the constant vector, which every information matrix maps to
    0, cannot weigh in.
    """
    d = len(c) - 2
    patterns = np.arange(2, d + 2)
    upper = np.concatenate([np.zeros(d, dtype=np.intp), patterns])
    lower = np.concatenate([patterns, np.ones(d, dtype=np.intp)])
    ok = _loewner_certified(vals, upper, lower)
    left = ~ok
    if left.any():
        ok[left] = is_psd(_contrast_part(c[upper[left]] - c[lower[left]]), ORDER_TOL)
    return ok[:d] & ok[d:]


def simulate(
    design: CrossoverDesign,
    model: DropoutModel,
    n: int,
    seed: int = 0,
    keep_losses: bool = False,
) -> SimulationResult:
    """Monte Carlo distribution of precision loss under random dropout.

    n must be an integer in 1..MAX_N.  Deterministic for a fixed integer
    seed in 0..2**64-1: replicate r draws from the Philox stream keyed by
    (seed, r), under the sampling contract of the module docstring.
    ordering_violations counts replicates where the information matrices
    fail the expected sandwich (plan above implemented above truncated,
    as positive-semidefinite differences at tolerance ORDER_TOL); a
    violation would falsify the worst-case analysis, so it is surfaced
    prominently.  Each chunk of _CHUNK_UNIFORMS // (s m) replicates
    draws its uniforms by re-keying numpy's Philox when it holds at most
    _REKEYED_MAX replicates and by the vectorized Philox rounds
    otherwise, the same words either way, then deduplicates its
    completion rows on packed integer keys (_distinct_completions),
    evaluates the distinct ones in one against_plan stack, and counts
    each one's verdicts once, weighted by its replicates (a pattern drawn
    in two chunks is evaluated in both).
    keep_losses=True adds the losses as n Python floats, about 32 bytes
    each.  Both halves of the sandwich are certified from that stack's
    spectra by Weyl's inequality (_loewner_certified), and the
    differences left open go through at most one stacked is_psd call,
    which gives the same verdict as is_psd on every difference.
    """
    require_ubrmd(design)
    n = check_n(n)
    check_tail(design, model.m)
    check_seed(seed)
    s, p, m = design.s, design.p, model.m
    tail = np.full((1, s), p - m)
    hazards = np.array(model.hazards)
    losses = np.empty(n)
    disconnected = violations = 0
    step = max(1, _CHUNK_UNIFORMS // (s * m))
    for start in range(0, n, step):
        stop = min(n, start + step)
        rs = np.arange(start, stop, dtype=np.uint64)
        draw = _rekeyed_uniforms if rs.size <= _REKEYED_MAX else _philox_uniforms
        x = draw(seed, rs, s * m).reshape(-1, s, m)
        distinct, inverse = _distinct_completions(x, hazards, p)
        c, crit, chunk_losses, chunk_disconnected = against_plan(
            design, np.concatenate([tail, distinct])
        )
        ok = _ordering_ok(c, crit.eigenvalues)
        losses[start:stop] = chunk_losses[2:][inverse]
        drawn = np.bincount(inverse, minlength=len(distinct))
        disconnected += int(drawn[chunk_disconnected[2:]].sum())
        violations += int(drawn[~ok].sum())
    qs = (0.5, 0.9, 0.99)
    quantiles = tuple(zip(qs, np.quantile(losses, qs).tolist()))
    return SimulationResult(
        replicates=n,
        mean_loss=float(losses.mean()),
        max_loss=float(losses.max()),
        quantiles=quantiles,
        p_disconnect=disconnected / n,
        ordering_violations=violations,
        ml=float(chunk_losses[1]),
        ml_disconnected=bool(chunk_disconnected[1]),
        losses=tuple(losses.tolist()) if keep_losses else None,
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
    if _check_integer("m", m) != 1:
        raise ValueError(f"exact enumeration requires m=1, got m={_short_int(m)}")
    if design.s > 20:
        raise ValueError(f"requires s <= 20, got s={design.s}")
    if not 0.0 <= _check_real("hazard", hazard) <= 1.0:
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
