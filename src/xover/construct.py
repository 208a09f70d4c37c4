"""Constructors for the design families used throughout the package.

Williams squares (even t), complementary Williams pairs (odd t), the
extreme design on all t! sequences, unions, relabelings, and the small
set of printed reference layouts shipped as fixtures.
"""

from __future__ import annotations

import itertools

import numpy as np

from .designs import CrossoverDesign

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


def _square_grouping(s: int, t: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(b * t, (b + 1) * t)) for b in range(s // t))


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
    """A t x t sequentially counterbalanced Latin square, even t >= 4.

    Column j is the cyclic shift by j of the zigzag base column; the
    result is uniform-balanced with g = 1.
    """
    if t % 2 != 0 or t < 4:
        raise ValueError(f"williams_square requires even t >= 4, got t={t}")
    base = np.array(williams_base_column(t))
    layout = (base[:, None] + np.arange(t)[None, :]) % t
    return CrossoverDesign(
        t=t, p=t, s=t, layout=layout, grouping=_square_grouping(t, t)
    )


def williams_pair(t: int) -> CrossoverDesign:
    """A t x 2t design from a square and its period reversal, odd t >= 3.

    For odd t a single square cannot balance the precedence counts;
    adjoining the period-reversed square restores balance with g = 2.
    """
    if t % 2 != 1 or t < 3:
        raise ValueError(f"williams_pair requires odd t >= 3, got t={t}")
    base = (1 - np.array(williams_base_column(t))) % t
    first = (base[:, None] + np.arange(t)[None, :]) % t
    layout = np.hstack([first, first[::-1, :]])
    return CrossoverDesign(
        t=t, p=t, s=2 * t, layout=layout, grouping=_square_grouping(2 * t, t)
    )


def extreme_design(t: int) -> CrossoverDesign:
    """The design with one subject per treatment sequence, all t! of them.

    Columns are in lexicographic order and g = (t-1)!.  Guarded to
    3 <= t <= 8 to keep the column count (t!) within reason.
    """
    if not 3 <= t <= 8:
        raise ValueError(f"extreme_design requires 3 <= t <= 8, got t={t}")
    cols = np.array(list(itertools.permutations(range(t))), dtype=int)
    return CrossoverDesign(t=t, p=t, s=cols.shape[0], layout=cols.T)


def union(designs: list[CrossoverDesign] | tuple[CrossoverDesign, ...]) -> CrossoverDesign:
    """Adjoin designs over the same t and p, subjects side by side.

    Groupings concatenate with shifted subject indices when every input
    has one; otherwise the union carries no grouping.
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
    grouping = None
    if all(d.grouping is not None for d in designs):
        shifted: list[tuple[int, ...]] = []
        offset = 0
        for d in designs:
            assert d.grouping is not None
            shifted.extend(tuple(i + offset for i in b) for b in d.grouping)
            offset += d.s
        grouping = tuple(shifted)
    return CrossoverDesign(
        t=t, p=p, s=layout.shape[1], layout=layout, grouping=grouping
    )


def replicate(design: CrossoverDesign, reps: int) -> CrossoverDesign:
    """Union of ``reps`` copies of one design."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    return union([design] * reps)


def relabel(design: CrossoverDesign, perm: list[int] | tuple[int, ...]) -> CrossoverDesign:
    """Apply a treatment relabeling to the whole layout.

    perm maps old label i to perm[i] and must be a bijection on
    0..t-1.  Uniform balance is preserved.
    """
    p = np.asarray(perm, dtype=int)
    if sorted(p.tolist()) != list(range(design.t)):
        raise ValueError(f"perm must be a bijection on 0..{design.t - 1}")
    return CrossoverDesign(
        t=design.t,
        p=design.p,
        s=design.s,
        layout=p[design.layout],
        grouping=design.grouping,
    )


def fixture(name: str) -> CrossoverDesign:
    """One of the printed reference layouts, bit for bit."""
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    layout = np.array(_FIXTURES[name], dtype=int)
    p, s = layout.shape
    t = int(layout.max()) + 1
    return CrossoverDesign(
        t=t, p=p, s=s, layout=layout, grouping=_square_grouping(s, t)
    )
