"""Crossover design representation and combinatorial structure.

A design assigns one of t treatments to each (period, subject) cell.
The layout is stored periods-by-subjects, matching the usual printed
arrays.  This module validates the uniform-balance property, slices the
layout into period incidence matrices, builds the coincidence matrices
between tail periods, counts all treatment/subject/period/carryover
incidences (optionally under subject dropout), and classifies designs
by the cycle structure of their tail permutations.  The balance
report counts subjects, periods and precedences in one bincount pass;
every other count of treatments goes through one of two bincount
helpers: _counts (per row of any stack of rows) and _pairs (per pair of
rows).  A design keeps its balance report and, in one memo (_once),
every other table it derives: its tail-cycle tables and the engine's
plan, each made once.  Designs are read from and written to a
versioned text format, and dropout patterns are read from one line of
completion periods.  Every entry point checks completion rows against
a design with one validator, _completion_rows.  An integer argument is
checked by _check_integer, or with a lower bound by _check_at_least,
and integers given in a list rather than an ndarray are scanned for a
bool by _hides_bool.  A real argument is checked by _check_real.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import cycle_type

TEXT_FORMAT_HEADER = "# xover-design v1"


@dataclass(frozen=True)
class CrossoverDesign:
    """A p-period, s-subject crossover design on t treatments.

    layout is a p x s matrix of an integer dtype (a float or bool one is
    refused, not rounded, as is a bool inside a list layout, which numpy
    would store as an int) with entries in {0, ..., t-1}, stored as a
    read-only int copy; rows are periods, columns are subjects.  t, p
    and s must be Python or numpy integers (not bools) and are stored as
    ints.  g is the replication number s // t when s is a multiple of t,
    else None.  The design's blocks (its squares) are its contiguous runs
    of t subjects, as in the text format.
    """

    t: int
    p: int
    s: int
    layout: np.ndarray
    g: int | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        for name in ("t", "p", "s"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
        layout = np.array(self.layout)  # the one copy of an int layout
        if not np.issubdtype(layout.dtype, np.integer):
            raise ValueError(f"layout entries must be integers, got {layout.dtype}")
        if _hides_bool(self.layout):
            raise ValueError("layout entries must be integers, got bool")
        if layout.shape != (self.p, self.s):
            raise ValueError(
                f"layout shape {layout.shape} does not match p={self.p}, s={self.s}"
            )
        if self.p < 1 or self.s < 1 or self.t < 1:
            raise ValueError("t, p, s must all be positive")
        if layout.size and (layout.min() < 0 or layout.max() >= self.t):
            raise ValueError(f"layout entries must lie in 0..{self.t - 1}")
        layout = layout.astype(int, copy=False)
        layout.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        g = self.s // self.t if self.s % self.t == 0 else None
        object.__setattr__(self, "g", g)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks: contiguous runs of t subjects (see _block_index)."""
        return tuple(map(tuple, self._block_index.tolist()))

    @functools.cached_property
    def _block_index(self) -> np.ndarray:
        """The blocks as a read-only (g, t) array, row l holding subjects
        l t .. l t + t-1; built once per design.  The one place that
        defines them."""
        if self.g is None:
            raise ValueError(f"s={self.s} is not a multiple of t={self.t}")
        index = np.arange(self.s).reshape(self.g, self.t)
        index.setflags(write=False)
        return index

    @functools.cached_property
    def _validation(self) -> ValidationReport:
        """validate_ubrmd's report, made once per design.

        Its counts come from one bincount over offset keys: subject i's
        treatment a at t i + a, period j's at t (s + j) + a, and a given
        right after b at t (s + p + a) + b.  Each treatment's
        self-precedence is reported before its pairs.
        """
        t, p, s = self.t, self.p, self.s
        failures: list[str] = []
        if p != t:
            failures.append(f"period count p={p} differs from treatment count t={t}")
        if s % t != 0:
            failures.append(f"subject count s={s} is not a multiple of t={t}")
            return ValidationReport(False, tuple(failures))
        g = s // t
        layout = self.layout
        offsets = t * np.arange(s + p + 1)
        keys = np.concatenate(
            [
                (layout + offsets[:s]).ravel(),
                (layout + offsets[s : s + p, None]).ravel(),
                (layout[1:] * t + layout[:-1] + offsets[s + p]).ravel(),
            ]
        )
        counts = np.bincount(keys, minlength=(s + p + t) * t)
        expected = np.full_like(counts, g)
        expected[: s * t] = 1
        expected[(s + p) * t :: t + 1] = 0
        wrong = counts != expected
        if p != t:
            wrong[: s * t] = False  # a subject is checked only when p = t
        if not wrong.any():
            return ValidationReport(not failures, tuple(failures))
        # row i of counts: subject i (i < s), period i-s+1 (i < s+p), or
        # the treatment a = i-s-p given right after each b
        counts, wrong = counts.reshape(-1, t), wrong.reshape(-1, t)
        bad = wrong.any(axis=1)
        for i in np.flatnonzero(bad[:s]):
            failures.append(
                f"non-uniform column {i}: treatment counts {counts[i].tolist()}"
            )
        for j in np.flatnonzero(bad[s : s + p]):
            failures.append(
                f"non-uniform row {j + 1}: treatment counts {counts[s + j].tolist()}"
            )
        prec = counts[s + p :]
        pairs = zip(*np.nonzero(wrong[s + p :]))
        for a, b in sorted(pairs, key=lambda ab: (ab[0], ab[0] != ab[1])):
            if a == b:
                failures.append(f"self-precedence for treatment {a}: count {prec[a, a]}")
            else:
                failures.append(
                    f"precedence count != g for pair ({a} after {b}): {prec[a, b]}"
                )
        return ValidationReport(False, tuple(failures))

    @functools.cached_property
    def _derived(self) -> dict:
        """The tables derived from the layout alone, by key, each made once
        per design by _once and kept: _tail_cycles's ("tail", m) and the
        engine's "plan" (info._plan)."""
        return {}


@dataclass(frozen=True)
class DropoutPattern:
    """Completion periods: subject i is observed in periods 1..completion[i].
    Each must be a Python or numpy integer (not a bool) and is stored as
    an int."""

    completion: tuple[int, ...]

    def __post_init__(self) -> None:
        ks = tuple(_check_integer("completion period", k) for k in self.completion)
        object.__setattr__(self, "completion", ks)
        _check_completion(np.asarray(ks))


def _check_completion(row: np.ndarray, design: CrossoverDesign | None = None) -> None:
    """Raise the first fault of a row, or a stack of rows, of completion
    periods: a period below 1, then, against a design, a length (of the
    last axis) other than s or a period above p.  The one place that
    words these faults."""
    if row.size and row.min() < 1:
        raise ValueError("every subject must complete at least period 1")
    if design is None:
        return
    if row.shape[-1] != design.s:
        raise ValueError(f"pattern length {row.shape[-1]} does not match s={design.s}")
    if row.size and row.max() > design.p:
        raise ValueError(f"completion period exceeds p={design.p}")


def _completion_rows(design: CrossoverDesign, rows) -> np.ndarray:
    """rows as a validated (B, s) intp array of completion periods: the
    one validator of completion rows against a design, which every entry
    point calls.  A shape other than 2-D and a dtype other than an
    integer one are refused here, every other fault by _check_completion
    in its order.  Rows of integers that numpy stores as object or
    float64, since one is past int64, are checked by value, and rows
    other than an ndarray are scanned for a bool by _hides_bool."""
    ks = np.asarray(rows)
    if ks.ndim != 2:
        raise ValueError(
            f"expected rows of s={design.s} completion periods, got shape {ks.shape}"
        )
    if not np.issubdtype(ks.dtype, np.integer):
        dtype, ks = ks.dtype, np.array(rows, dtype=object)
        ints = [type(k) is int or isinstance(k, np.integer) for k in ks.flat]
        if not (ints and all(ints)):
            raise ValueError(f"completion period must be an integer, got {dtype}")
    elif _hides_bool(rows):
        raise ValueError("completion period must be an integer, got bool")
    _check_completion(ks, design)
    return ks.astype(np.intp, copy=False)


def _one_row(design: CrossoverDesign, pattern: DropoutPattern | None) -> np.ndarray:
    """The validated (1, s) completion row of a pattern, the complete
    design's for None.  The pattern's periods are ints already, so they
    go as an integer array, which is not scanned again, unless one is
    past int64."""
    if pattern is None:
        return np.full((1, design.s), design.p)
    row = np.array([pattern.completion])
    integer = np.issubdtype(row.dtype, np.integer)
    return _completion_rows(design, row if integer else [pattern.completion])


@dataclass(frozen=True)
class ValidationReport:
    """A verdict and its worded failures (validate_ubrmd, check_type_wm)."""

    ok: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class IncidenceSet:
    """Incidence counts over the observed cells of a design.

    n_ds / n_cs count direct and carryover occurrences per treatment and
    subject (t x s); n_dp / n_cp the same per period (t x p, carryover
    column 1 all zero since period 1 has no preceding treatment); n_dc
    counts cells by (direct, carryover) treatment pair; r_d and r_c are
    the treatment replication totals.
    """

    n_ds: np.ndarray
    n_cs: np.ndarray
    n_dp: np.ndarray
    n_cp: np.ndarray
    n_dc: np.ndarray
    r_d: np.ndarray
    r_c: np.ndarray


def validate_ubrmd(design: CrossoverDesign) -> ValidationReport:
    """Check uniform balance: p = t, every treatment once per subject,
    g times per period, and every ordered treatment pair in consecutive
    periods realized exactly g times with no self-precedence.  The report
    is made once per design (CrossoverDesign._validation) and kept; its
    subject, period and precedence counts come from one bincount pass.
    """
    return design._validation


def _counts(rows: np.ndarray, t: int) -> np.ndarray:
    """Treatment counts along the last axis of a stack of rows:
    out[..., a] counts the entries equal to a in each row."""
    lead = rows.shape[:-1]
    n = int(np.prod(lead))
    keys = rows.reshape(n, -1) + t * np.arange(n)[:, None]
    return np.bincount(keys.ravel(), minlength=n * t).reshape(*lead, t)


def _pairs(a: np.ndarray, b: np.ndarray, t: int) -> np.ndarray:
    """Counts of treatment pairs along the last axis of broadcast a, b:
    out[..., x, y] counts the positions where a holds x and b holds y."""
    keys = a * t + b
    return _counts(keys, t * t).reshape(*keys.shape[:-1], t, t)


def require_ubrmd(design: CrossoverDesign) -> None:
    """Raise ValueError listing the failures of validate_ubrmd's report."""
    report = design._validation
    if not report.ok:
        raise ValueError("design is not uniform-balanced: " + "; ".join(report.failures))


def period_slice(design: CrossoverDesign, j: int) -> np.ndarray:
    """The t x s indicator matrix of period j (1-based): entry (h, i) is
    1 iff subject i receives treatment h in period j.
    """
    j = _check_integer("period", j)
    if not 1 <= j <= design.p:
        raise ValueError(f"period {j} out of range 1..{design.p}")
    m = np.zeros((design.t, design.s), dtype=int)
    m[design.layout[j - 1, :], np.arange(design.s)] = 1
    return m


def coincidence(design: CrossoverDesign, j: int, k: int) -> np.ndarray:
    """The t x t coincidence matrix between tail periods p-j and p-k.

    Entry (a, b) counts subjects treated with a in period p-j and b in
    period p-k.  Both periods must be uniform (every treatment g times),
    which makes all row and column sums g; for j = k the result is g
    times the identity.
    """
    j, k = (_check_integer("tail index", idx) for idx in (j, k))
    for idx in (j, k):
        if not 0 <= idx <= design.p - 1:
            raise ValueError(f"tail index {idx} out of range 0..{design.p - 1}")
    if design.g is None:
        raise ValueError(f"s={design.s} is not a multiple of t={design.t}")
    rows = design.layout[[design.p - 1 - j, design.p - 1 - k]]
    for idx, counts in zip((j, k), _counts(rows, design.t)):
        if not (counts == design.g).all():
            raise ValueError(
                f"period {design.p - idx} is not uniform: row sums {counts.tolist()}"
            )
    return _pairs(rows[0], rows[1], design.t)


def incidences(
    design: CrossoverDesign, pattern: DropoutPattern | None = None
) -> IncidenceSet:
    """Incidence counts over the observed cells.

    Subject i contributes direct effects for periods 1..k_i and
    carryover effects for periods 2..k_i, where k_i is its completion
    period (p for everyone when no pattern is given).  Carryover pairs
    are counted only for consecutive observed periods of one subject.
    """
    t, p, s = design.t, design.p, design.s
    ks = _one_row(design, pattern)[0]
    # an unobserved cell, and period 1's carryover, count as treatment t,
    # whose bucket is sliced off
    seen = np.arange(p)[:, None] < ks
    direct = np.where(seen, design.layout, t)
    carry = np.where(seen, np.vstack([np.full(s, t), design.layout[:-1]]), t)
    cells = np.stack([direct, carry])  # (2, p, s)
    n_dp, n_cp = _counts(cells, t + 1)[..., :t].swapaxes(1, 2)
    n_ds, n_cs = _counts(cells.swapaxes(1, 2), t + 1)[..., :t].swapaxes(1, 2)
    return IncidenceSet(
        n_ds=n_ds,
        n_cs=n_cs,
        n_dp=n_dp,
        n_cp=n_cp,
        n_dc=_pairs(direct.ravel(), carry.ravel(), t + 1)[:t, :t],
        r_d=n_ds.sum(axis=1),
        r_c=n_cs.sum(axis=1),
    )


# An integer argument of more digits than this is shown shortened in an
# error message; a 64-bit seed has at most 20.
_SHOWN_DIGITS = 20


def _check_integer(name: str, value: int) -> int:
    """value as a Python int; a Python or numpy integer passes, anything
    else (a float, a bool, a string) is rejected by name."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)


def _check_at_least(name: str, value: int, least: int, note: str = "") -> int:
    """value as a Python int (_check_integer), rejecting one below least:
    the one place that words a lower bound, note ending the message."""
    value = _check_integer(name, value)
    if value < least:
        shown = _short_int(value)
        raise ValueError(f"requires {name} >= {least}, got {name}={shown}{note}")
    return value


def _hides_bool(values) -> bool:
    """Whether values, given other than as an ndarray, hold a bool:
    numpy stores [True, 1] as int64, so no dtype test sees it.  An
    ndarray is never scanned; a bool one has a bool dtype."""
    flat = () if isinstance(values, np.ndarray) else np.array(values, dtype=object).flat
    return any(isinstance(v, (bool, np.bool_)) for v in flat)


def _check_real(name: str, value: float) -> float:
    """value as a Python float; a Python or numpy real number passes,
    anything else (a bool, a string, None, a list) is rejected by name."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, bool) or not real:
        raise ValueError(f"{name} must be a real number, got {type(value).__name__}")
    return float(value)


def _short_int(v: int) -> str:
    """An integer as an error message shows it: whole up to _SHOWN_DIGITS
    digits, else its first _SHOWN_DIGITS characters and its digit count,
    so a message naming a command-line integer stays one short line.  An
    integer beyond Python's int-to-str digit limit, which str() refuses,
    is shown as its sign and that limit."""
    # Python before 3.10.7 has no such limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and abs(v) >= 10**limit:
        return f"{'-' if v < 0 else ''}... (more than {limit} digits)"
    text = str(v)
    digits = len(text) - (v < 0)
    if digits <= _SHOWN_DIGITS:
        return text
    return f"{text[:_SHOWN_DIGITS]}... ({digits} digits)"


def check_tail(design: CrossoverDesign, m: int) -> None:
    """Reject a tail length m that is not an integer (see _check_integer)
    or lies outside 1..p-2, which is empty when p <= 2."""
    _check_integer("m", m)
    if design.p <= 2:
        raise ValueError(
            f"a design of p={design.p} periods has no tail to drop "
            "(m must lie in 1..p-2)"
        )
    if not 1 <= m < design.p - 1:
        raise ValueError(f"m={_short_int(m)} out of range 1..{design.p - 2}")


def truncation(design: CrossoverDesign, m: int) -> DropoutPattern:
    """The minimal design's dropout pattern: everyone completes p-m periods."""
    check_tail(design, m)
    return DropoutPattern((design.p - m,) * design.s)


def truncate(design: CrossoverDesign, m: int) -> CrossoverDesign:
    """The minimal design: drop the last m periods, keeping rows 1..p-m."""
    check_tail(design, m)
    return CrossoverDesign(
        t=design.t, p=design.p - m, s=design.s, layout=design.layout[: design.p - m]
    )


def check_type_wm(design: CrossoverDesign, m: int) -> ValidationReport:
    """Test whether the design's squares have single-cycle tail permutations.

    Requires a uniform-balanced design whose blocks (its contiguous runs
    of t subjects) hold every treatment exactly once in each of the last
    m+1 periods.  The design passes when, for every
    block and every ordered pair of distinct tail indices j, k in 0..m,
    the block's period (t-j) to period (t-k) treatment map is a single
    cycle of length t.  This is the one place that words the failures.
    """
    check_tail(design, m)
    require_ubrmd(design)
    t, p = design.t, design.p
    tail, single = _tail_cycles(design, m)
    if single is None:
        counts = _counts(tail, t)
        failures = [
            f"block {l} is not uniform in period {p - j}: "
            f"treatment counts {counts[j, l].tolist()}"
            for l, j in np.argwhere((counts != 1).any(axis=-1).T)
        ]
        return ValidationReport(False, tuple(failures))
    failures = [
        f"block {l}, periods {p - j}->{p - k}: cycle type "
        f"{cycle_type(_pairs(tail[j, l], tail[k, l], t))} is not a single {t}-cycle"
        for l, j, k in np.argwhere(~single.transpose(2, 0, 1))
    ]
    return ValidationReport(not failures, tuple(failures))


def _is_type_wm(design: CrossoverDesign, m: int) -> bool:
    """check_type_wm(design, m).ok, without wording any failure, for a
    design already known to be uniform-balanced, with 1 <= m <= p-2."""
    single = _tail_cycles(design, m)[1]
    return single is not None and bool(single.all())


def _once(design: CrossoverDesign, key, build, *args):
    """build(design, *args), made once per design and key and kept in
    CrossoverDesign._derived: the one memo of what a design derives.
    Threads that race on a key build equal read-only values and keep one
    of them, so no lock is needed."""
    derived = design._derived
    if key not in derived:
        derived[key] = build(design, *args)
    return derived[key]


def _tail_cycles(design: CrossoverDesign, m: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The tail table behind every single-cycle verdict: (tail, single),
    read-only and made once per design and m (_once).

    tail[j, l] is block l in period p-j, for j = 0..m.  single[j, k, l]
    tells whether block l's map from period p-j to period p-k is a single
    t-cycle (true for j = k, which is not tested); it is None when some
    block is not uniform in some tail period, since the maps then are not
    permutations.
    """
    return _once(design, ("tail", m), _tail_table, m)


def _tail_table(design: CrossoverDesign, m: int) -> tuple[np.ndarray, np.ndarray | None]:
    """_tail_cycles's table, made afresh."""
    t, p = design.t, design.p
    tail = design.layout[p - 1 - np.arange(m + 1)][:, design._block_index]
    tail.setflags(write=False)
    if (np.sort(tail) != np.arange(t)).any():
        return tail, None
    # maps[j, k, l, a]: the period p-k treatment of the block-l subject
    # that receives a in period p-j
    periods = np.arange(m + 1)[:, None, None]
    blocks = np.arange(tail.shape[1])[:, None]
    maps = tail[periods, blocks, np.argsort(tail)[:, None]]
    # a map is a single t-cycle iff the orbit of treatment 0 first returns
    # to 0 after t steps.  All orbits are walked at once on the flat maps,
    # map i's treatment a at t i + a, power[x] the flat index of x's image
    # under the map's n-th power; orbit[k] holds each map's k-th point,
    # and each round doubles both n and the orbit known
    start = np.arange(0, maps.size, t)
    power = (maps.reshape(-1, t) + start[:, None]).ravel()
    orbit = np.empty((t, len(start)), dtype=np.intp)
    orbit[0] = start
    n = 1
    while n < t:
        k = min(n, t - n)
        orbit[n : n + k] = power[orbit[:k]]
        power = power[power]
        n *= 2
    single = (orbit[1:] != start).all(axis=0).reshape(maps.shape[:-1])
    single |= np.eye(m + 1, dtype=bool)[..., None]
    single.setflags(write=False)
    return tail, single


def classify(design: CrossoverDesign) -> str:
    """Classify a design by its replication and tail-cycle structure.

    Returns one of "not-UBRMD", "UBRMD", "type-W<m>" (largest m whose
    tail permutations are all single cycles), "ClassA-W1" (g identical
    copies of one balanced square with a single-cycle tail map), or
    "ClassB-W1" (identical copies of a two-square array whose tail maps
    are mutually transposed single cycles).  The result is unchanged by
    relabeling the treatments.  It reads validate_ubrmd's report and
    the m = 1 tail table of _tail_cycles, each made once per design, for
    block 0's single-cycle verdict.  Uniform balance makes the copied
    square of ClassA, or the copied pair of ClassB, balanced itself: the
    design's precedence and period counts are the copy's times the
    copies, and the copied square of ClassA is Latin.
    """
    if not design._validation.ok:
        return "not-UBRMD"
    # both classes need block 0's map from period p to period p-1 to be
    # a single cycle; the table is None when some block is not uniform in
    # those periods, which never holds of copied Latin blocks
    single = _tail_cycles(design, 1)[1]
    if single is not None and single[0, 1, 0]:
        t, p = design.t, design.p
        squares = design.layout[:, design._block_index]  # (p, g, t)
        if (squares == squares[:, :1]).all():
            return "ClassA-W1"
        g = squares.shape[1]
        if g % 2 == 0:
            pairs = squares.reshape(p, g // 2, 2 * t)
            if (pairs == pairs[:, :1]).all():
                # two Latin blocks, block 1's map block 0's inverse
                latin = (_counts(squares[:, :2], t) == 1).all()
                tails = _pairs(squares[p - 1, :2], squares[p - 2, :2], t)
                if latin and np.array_equal(tails[1], tails[0].T):
                    return "ClassB-W1"

    best = 0
    for m in range(1, design.p - 1):
        if not _is_type_wm(design, m):
            break
        best = m
    if best >= 1:
        return f"type-W{best}"
    return "UBRMD"


# ---------------------------------------------------------------------------
# text format


# No count, period or treatment of these formats has more digits, and
# int() refuses more than 4300 of them.
_MAX_DIGITS = 18
_DIGITS = re.compile(r"([+-]?)0*(\d+)")
# Deletes every character of a plain text (see _plain_ints).
_PLAIN_CHARS = str.maketrans("", "", "0123456789 \n")
# A digit 0 and its space, b"0 ", read as a little-endian uint16 (see
# _digit_ints).
_DIGIT_PAIR = 0x2030
# The byte write_design pads an entry with and then deletes: no digit,
# space or newline.
_PAD = 0


def _digit_ints(text: str, below: int) -> np.ndarray | None:
    """The digits of a text of single ASCII digits each followed by one
    space, read by byte slicing.

    Each digit and its space read as one little-endian uint16, which is
    the digit plus _DIGIT_PAIR; so subtracting _DIGIT_PAIR leaves every
    digit, and one range check against below (taken as at most 10)
    rejects any other character in either place.  The result is None for
    any other text and when some digit is not below the bound.  An odd
    length or a non-ASCII character is refused before any numpy call.
    """
    if len(text) % 2 or not text.isascii():
        return None
    values = np.frombuffer(text.encode(), dtype="<u2") - _DIGIT_PAIR
    if not values.size or values.max() >= min(below, 10):
        return None
    return values.astype(np.int64)


def _plain_ints(text: str, below: int) -> np.ndarray | None:
    """The integers of a plain text, read by numpy in one call: the route
    of a text that _digit_ints refuses, as one of several-digit tokens.

    A plain text holds ASCII digits, spaces and newlines only, and at
    least one digit.  The result is None for any other text, and when
    some value is not below the given bound (at most 10**_MAX_DIGITS).
    numpy reads a run of more than _MAX_DIGITS significant digits as
    2**63-1 (strtoll saturates), so every value it returns is exact and
    is the value _int_token gives its token.
    """
    if not text.isascii() or text.translate(_PLAIN_CHARS):
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if not values.size or values.max() >= below:
        return None
    return values


def _short_token(tok: str) -> str:
    """A token as an error message echoes it: its repr, or for more than
    _MAX_DIGITS characters the repr of its first _MAX_DIGITS and its
    length, so the message stays one short line."""
    if len(tok) > _MAX_DIGITS:
        return f"{tok[:_MAX_DIGITS]!r}... ({len(tok)} characters)"
    return repr(tok)


def _int_token(tok: str, where: str, *at: object) -> int:
    """The integer a text token spells.

    The error message starts with where.format(*at), built only on error.
    An integer of more than _MAX_DIGITS digits reads as +-10**_MAX_DIGITS:
    every range check fails on it as on its true value, and a message that
    names it stays one short line.  A non-integer token is echoed by
    _short_token.
    """
    match = len(tok) > _MAX_DIGITS and _DIGITS.fullmatch(tok)
    if match:
        sign, digits = match.groups()
        if len(digits) > _MAX_DIGITS:
            return -(10**_MAX_DIGITS) if sign == "-" else 10**_MAX_DIGITS
        tok = sign + digits
    try:
        return int(tok)
    except ValueError:
        raise ValueError(
            f"{where.format(*at)}{_short_token(tok)} is not an integer"
        ) from None


def write_design(design: CrossoverDesign) -> str:
    """Serialize to the versioned text format: a header comment, a
    dimension line, then one line of subject entries per period, each
    entry in decimal and followed by a space, the last by a newline.

    The layout is written in one fixed-width byte pass, the mirror of
    _digit_ints: every entry takes as many bytes as the widest, its
    digits right-aligned after _PAD bytes and followed by its separator,
    and one bytes.translate deletes the padding.
    """
    layout = design.layout
    width = len(str(int(layout.max())))
    cells = np.full((*layout.shape, width + 1), _PAD, dtype=np.uint8)
    cells[..., width] = ord(" ")
    cells[:, -1, width] = ord("\n")
    q = layout
    cells[..., width - 1] = q % 10 + ord("0")
    for place in range(width - 2, -1, -1):
        q = q // 10
        cells[..., place] = np.where(q > 0, q % 10 + ord("0"), _PAD)
    body = cells.tobytes().translate(None, bytes([_PAD])).decode("ascii")
    return f"{TEXT_FORMAT_HEADER}\nt={design.t} p={design.p} s={design.s}\n{body}"


def parse_design(text: str) -> CrossoverDesign:
    """Parse the versioned text format, naming line and column on errors.

    A layout in the form write_design writes (lines of digit tokens
    joined by single spaces, blank lines and any line ending allowed) is
    converted without reading a token in Python: by byte slicing
    (_digit_ints) when every line is 2s-1 characters long, as single
    digits joined by single spaces are, else in one _plain_ints call.
    Any other layout, and any layout with an error, goes through
    _layout_rows a token at a time, which alone decides what an odd token
    (a sign, leading zeros, underscores, non-ASCII digits, more than
    _MAX_DIGITS digits) means and words the first error.  All three give
    the same layout.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != TEXT_FORMAT_HEADER:
        raise ValueError(f'line 1: expected header "{TEXT_FORMAT_HEADER}"')
    if len(lines) < 2:
        raise ValueError("line 2: missing dimension line")
    dims: dict[str, int] = {}
    for col, tok in enumerate(lines[1].split()):
        if "=" not in tok:
            raise ValueError(f"line 2, token {col + 1}: expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if key not in ("t", "p", "s"):
            raise ValueError(f"line 2, token {col + 1}: unknown key {key!r}")
        if key in dims:
            raise ValueError(f"line 2, token {col + 1}: duplicate key {key!r}")
        dims[key] = _int_token(val, "line 2, token {}: {}=", col + 1, key)
    missing = [k for k in ("t", "p", "s") if k not in dims]
    if missing:
        raise ValueError(f"line 2: missing {', '.join(missing)}")
    t, p, s = dims["t"], dims["p"], dims["s"]
    # more treatments than cells cannot all be used, and evaluation builds
    # arrays of side 2t: reject before any array is sized by t
    if t > p * s:
        raise ValueError(f"line 2: t={t} exceeds the p*s={p * s} cells of the layout")
    body = [ln for ln in lines[2:] if ln.strip() != ""]
    if len(body) != p:
        raise ValueError(f"expected {p} layout lines, found {len(body)}")
    values = None
    if all(len(ln) == 2 * s - 1 for ln in body):
        values = _digit_ints(" ".join([*body, ""]), t)
    # a line of only digits and spaces holds at most count(" ") + 1 tokens:
    # if that is s on every line and the body holds p*s, each line holds s
    if values is None and all(ln.count(" ") + 1 == s for ln in body):
        values = _plain_ints("\n".join(body), t)
    if values is None or values.size != p * s:
        return CrossoverDesign(t=t, p=p, s=s, layout=_layout_rows(body, t, s))
    return CrossoverDesign(t=t, p=p, s=s, layout=values.reshape(p, s))


def _layout_rows(body: list[str], t: int, s: int) -> np.ndarray:
    """The layout lines read a token at a time, raising the first error.

    Each line is checked for s entries before its tokens are read, and
    each entry's range before the next token is read, so s (from the
    file) sizes no array before a line has shown s entries.
    """
    layout: list[list[int]] = []
    for j, ln in enumerate(body):
        toks = ln.split()
        if len(toks) != s:
            raise ValueError(f"line {j + 3}: expected {s} entries, found {len(toks)}")
        row = []
        for i, tok in enumerate(toks):
            v = _int_token(tok, "line {}, column {}: ", j + 3, i + 1)
            if not 0 <= v < t:
                raise ValueError(
                    f"line {j + 3}, column {i + 1}: "
                    f"treatment {v} out of range 0..{t - 1}"
                )
            row.append(v)
        layout.append(row)
    return np.array(layout, dtype=np.int64)


def _pattern_row(text: str) -> np.ndarray:
    """A dropout pattern file as an int64 row of completion periods,
    which it does not check (see _completion_rows).

    The file holds one line of completion periods.  The faults are
    raised in this order: a line count other than one, then a token that
    is not an integer.  A line of single digits joined by single spaces
    is converted by byte slicing (_digit_ints), any other plain line (see
    _plain_ints) in one numpy call, and any other line by _int_token a
    token at a time.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if len(lines) != 1:
        raise ValueError(f"expected one line of completion periods, found {len(lines)}")
    row = _digit_ints(lines[0] + " ", 10)
    if row is None:
        row = _plain_ints(lines[0], 10**_MAX_DIGITS)
    if row is None:
        row = np.array(
            [
                _int_token(tok, "line 1, column {}: ", i + 1)
                for i, tok in enumerate(lines[0].split())
            ],
            dtype=np.int64,
        )
    return row


def parse_pattern(text: str) -> DropoutPattern:
    """Parse a dropout pattern file: one line of completion periods (see
    _pattern_row), each at least 1."""
    return DropoutPattern(tuple(_pattern_row(text).tolist()))
