"""Constructors for the design families used throughout the package.

Williams squares (even t), complementary Williams pairs (odd t), the
extreme design on all t! sequences, unions, relabelings, and the small
set of printed reference layouts shipped as fixtures.  Every design is
built with its squares as contiguous runs of t subjects, the blocks
CrossoverDesign gives it.
"""

from __future__ import annotations

import numpy as np

from .designs import CrossoverDesign, _check_integer, _hides_bool, _short_int

# Reference layouts, stored exactly as printed.  d1plan is a 3x6 pair of
# squares, d2plan the 4x4 Williams square, d3plan a 5x10 pair, and the
# ex13 squares are the two distinct 6x6 squares used for union examples
# (square 2 has no generating rule here; it is shipped verbatim).
_FIXTURES: dict[str, list[list[int]]] = {
    "d1plan": [
        [1, 2, 0, 2, 0, 1],
        [0, 1, 2, 0, 1, 2],
        [2, 0, 1, 1, 2, 0],
    ],
    "d2plan": [
        [0, 1, 2, 3],
        [1, 2, 3, 0],
        [3, 0, 1, 2],
        [2, 3, 0, 1],
    ],
    "d3plan": [
        [1, 2, 3, 4, 0, 3, 4, 0, 1, 2],
        [0, 1, 2, 3, 4, 4, 0, 1, 2, 3],
        [2, 3, 4, 0, 1, 2, 3, 4, 0, 1],
        [4, 0, 1, 2, 3, 0, 1, 2, 3, 4],
        [3, 4, 0, 1, 2, 1, 2, 3, 4, 0],
    ],
    "ex13sq1": [
        [1, 2, 3, 4, 5, 0],
        [0, 1, 2, 3, 4, 5],
        [2, 3, 4, 5, 0, 1],
        [5, 0, 1, 2, 3, 4],
        [3, 4, 5, 0, 1, 2],
        [4, 5, 0, 1, 2, 3],
    ],
    "ex13sq2": [
        [2, 5, 1, 3, 0, 4],
        [4, 2, 5, 1, 3, 0],
        [5, 1, 3, 0, 4, 2],
        [0, 4, 2, 5, 1, 3],
        [1, 3, 0, 4, 2, 5],
        [3, 0, 4, 2, 5, 1],
    ],
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))

# The largest t of williams_square and williams_pair: their layouts hold
# t*t and 2t*t entries (16 MB for the pair at this t).
MAX_WILLIAMS_T = 1000
# The most subjects replicate builds: its layout and design text both grow
# with reps * s, and 10**5 subjects still hold two copies of
# extreme_design(8).
MAX_REPLICATE_S = 10**5


def williams_base_column(t: int) -> list[int]:
    """The zigzag starting column 0, 1, t-1, 2, t-2, ..."""
    col = [0]
    lo, hi = 1, t - 1
    while len(col) < t:
        col.append(lo)
        lo += 1
        if len(col) < t:
            col.append(hi)
            hi -= 1
    return col


def williams_square(t: int) -> CrossoverDesign:
    """A t x t sequentially counterbalanced Latin square, even 4 <= t <= 1000.

    Column j is the cyclic shift by j of the zigzag base column; the
    result is uniform-balanced with g = 1.
    """
    t = _check_integer("t", t)
    if t % 2 != 0 or not 4 <= t <= MAX_WILLIAMS_T:
        raise ValueError(
            f"williams_square requires even t with 4 <= t <= {MAX_WILLIAMS_T}, "
            f"got t={_short_int(t)}"
        )
    base = np.array(williams_base_column(t))
    layout = (base[:, None] + np.arange(t)[None, :]) % t
    return CrossoverDesign(t=t, p=t, s=t, layout=layout)


def williams_pair(t: int) -> CrossoverDesign:
    """A t x 2t design from a square and its period reversal, odd 3 <= t <= 999.

    For odd t a single square cannot balance the precedence counts;
    adjoining the period-reversed square restores balance with g = 2.
    """
    t = _check_integer("t", t)
    if t % 2 != 1 or not 3 <= t <= MAX_WILLIAMS_T:
        raise ValueError(
            f"williams_pair requires odd t with 3 <= t <= {MAX_WILLIAMS_T}, "
            f"got t={_short_int(t)}"
        )
    base = (1 - np.array(williams_base_column(t))) % t
    first = (base[:, None] + np.arange(t)[None, :]) % t
    layout = np.hstack([first, first[::-1, :]])
    return CrossoverDesign(t=t, p=t, s=2 * t, layout=layout)


def extreme_design(t: int) -> CrossoverDesign:
    """The design with one subject per treatment sequence, all t! of them.

    Columns are in lexicographic order and g = (t-1)!.  Guarded to
    3 <= t <= 8 to keep the column count (t!) within reason.
    """
    t = _check_integer("t", t)
    if not 3 <= t <= 8:
        raise ValueError(
            f"extreme_design requires 3 <= t <= 8, got t={_short_int(t)}"
        )
    # table holds the sequences of 0..n-1 in lexicographic order, one a
    # column: each first symbol f in turn, over the table of n-1 symbols
    # with every entry from f up raised by one
    table = np.zeros((1, 1), dtype=int)
    for n in range(2, t + 1):
        first = np.repeat(np.arange(n), table.shape[1])
        rest = np.tile(table, n)
        rest += rest >= first
        table = np.vstack([first, rest])
    return CrossoverDesign(t=t, p=t, s=table.shape[1], layout=table)


def union(designs: list[CrossoverDesign] | tuple[CrossoverDesign, ...]) -> CrossoverDesign:
    """Adjoin designs over the same t and p, subjects side by side.

    Subjects keep their order, so when every input's s is a multiple of
    t, the union's squares are the inputs' squares in turn.
    """
    if not designs:
        raise ValueError("union requires at least one design")
    t, p = designs[0].t, designs[0].p
    for d in designs[1:]:
        if d.t != t or d.p != p:
            raise ValueError(
                f"union requires matching t and p: ({t},{p}) vs ({d.t},{d.p})"
            )
    layout = np.hstack([d.layout for d in designs])
    return CrossoverDesign(t=t, p=p, s=layout.shape[1], layout=layout)


def replicate(design: CrossoverDesign, reps: int) -> CrossoverDesign:
    """Union of ``reps`` copies of one design, at most MAX_REPLICATE_S
    subjects in all."""
    reps = _check_integer("reps", reps)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {_short_int(reps)}")
    if reps * design.s > MAX_REPLICATE_S:
        raise ValueError(
            f"replicate allows at most {MAX_REPLICATE_S} subjects, "
            f"got reps={_short_int(reps)} copies of s={design.s}"
        )
    return union([design] * reps)


def relabel(design: CrossoverDesign, perm: list[int] | tuple[int, ...]) -> CrossoverDesign:
    """Apply a treatment relabeling to the whole layout.

    perm maps old label i to perm[i] and must be a bijection on
    0..t-1.  Uniform balance is preserved.
    """
    p = np.asarray(perm)
    integer = np.issubdtype(p.dtype, np.integer) and not _hides_bool(perm)
    if not integer or sorted(p.tolist()) != list(range(design.t)):
        raise ValueError(f"perm must be a bijection on 0..{design.t - 1}")
    return CrossoverDesign(t=design.t, p=design.p, s=design.s, layout=p[design.layout])


def fixture(name: str) -> CrossoverDesign:
    """One of the printed reference layouts, bit for bit."""
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    layout = np.array(_FIXTURES[name], dtype=int)
    p, s = layout.shape
    t = int(layout.max()) + 1
    return CrossoverDesign(t=t, p=p, s=s, layout=layout)
