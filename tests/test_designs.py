import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xover import designs
from xover.construct import (
    FIXTURE_NAMES,
    extreme_design,
    fixture,
    relabel,
    replicate,
    union,
    williams_pair,
    williams_square,
)
from xover.designs import (
    TEXT_FORMAT_HEADER,
    CrossoverDesign,
    DropoutPattern,
    ValidationReport,
    check_type_wm,
    classify,
    coincidence,
    incidences,
    parse_design,
    parse_pattern,
    period_slice,
    truncate,
    validate_ubrmd,
    write_design,
)
from xover.linalg import cycle_type


def test_replication_number_is_derived_not_passed():
    layout = [[0, 1], [1, 0]]
    assert CrossoverDesign(t=2, p=2, s=2, layout=layout).g == 1
    assert CrossoverDesign(t=2, p=2, s=3, layout=[[0, 1, 0], [1, 0, 1]]).g is None
    with pytest.raises(TypeError):
        CrossoverDesign(t=2, p=2, s=2, layout=layout, g=7)


def test_validate_d2plan_passes():
    assert validate_ubrmd(fixture("d2plan")).ok


def test_validate_d3plan_passes():
    assert validate_ubrmd(fixture("d3plan")).ok


def test_validate_broken_precedence():
    d = fixture("d2plan")
    layout = d.layout.copy()
    layout[0, 0], layout[1, 0] = layout[1, 0], layout[0, 0]
    broken = CrossoverDesign(t=4, p=4, s=4, layout=layout)
    report = validate_ubrmd(broken)
    assert not report.ok
    assert any("precedence" in f for f in report.failures)


def test_validate_names_row_and_column_failures():
    layout = np.zeros((3, 3), dtype=int)  # all zeros: wrong rows and columns
    report = validate_ubrmd(CrossoverDesign(t=3, p=3, s=3, layout=layout))
    assert not report.ok
    assert any("non-uniform column" in f for f in report.failures)
    assert any("non-uniform row" in f for f in report.failures)
    assert any("self-precedence" in f for f in report.failures)


def _changed(design, cells=(), periods=None, order=None):
    """design with cells (period index, subject, treatment) set, two
    periods swapped, or its subjects put in a new order."""
    layout = design.layout.copy()
    for j, i, v in cells:
        layout[j, i] = v
    if periods is not None:
        layout[list(periods)] = layout[list(periods[::-1])]
    if order is not None:
        layout = layout[:, order]
    return CrossoverDesign(t=design.t, p=design.p, s=design.s, layout=layout)


def _precedence(*pairs):
    return tuple(
        f"precedence count != g for pair ({a} after {b}): {n}" for a, b, n in pairs
    )


# failure tuples pinned word for word: (design, validate_ubrmd failures)
BROKEN = {
    "zeros3x3": (
        CrossoverDesign(t=3, p=3, s=3, layout=np.zeros((3, 3), dtype=int)),
        tuple(f"non-uniform column {i}: treatment counts [3, 0, 0]" for i in range(3))
        + tuple(f"non-uniform row {j}: treatment counts [3, 0, 0]" for j in (1, 2, 3))
        + ("self-precedence for treatment 0: count 6",)
        + _precedence(
            (0, 1, 0), (0, 2, 0), (1, 0, 0), (1, 2, 0), (2, 0, 0), (2, 1, 0)
        ),
    ),
    "d3plan-cell": (
        _changed(fixture("d3plan"), cells=[(2, 3, 1)]),
        (
            "non-uniform column 3: treatment counts [0, 2, 1, 1, 1]",
            "non-uniform row 3: treatment counts [1, 3, 2, 2, 2]",
        )
        + _precedence((0, 3, 1), (1, 3, 3), (2, 0, 1), (2, 1, 3)),
    ),
    "square6-periods": (
        _changed(williams_square(6), periods=(4, 5)),
        _precedence(
            (0, 1, 0), (0, 4, 0), (0, 5, 3), (1, 0, 3), (1, 2, 0), (1, 5, 0),
            (2, 0, 0), (2, 1, 3), (2, 3, 0), (3, 1, 0), (3, 2, 3), (3, 4, 0),
            (4, 2, 0), (4, 3, 3), (4, 5, 0), (5, 0, 0), (5, 3, 0), (5, 4, 3),
        ),
    ),
}


@pytest.mark.parametrize("name", BROKEN)
def test_validate_failures_are_exact(name):
    design, failures = BROKEN[name]
    assert validate_ubrmd(design) == ValidationReport(False, failures)
    with pytest.raises(ValueError) as info:
        check_type_wm(design, 1)
    assert str(info.value) == "design is not uniform-balanced: " + "; ".join(failures)


def _reference_report(design):
    """validate_ubrmd's report counted in three passes, subjects and
    periods by _counts and precedences by _pairs, failures in the order
    and wording of the report."""
    t, p, s = design.t, design.p, design.s
    failures = []
    if p != t:
        failures.append(f"period count p={p} differs from treatment count t={t}")
    if s % t != 0:
        failures.append(f"subject count s={s} is not a multiple of t={t}")
        return ValidationReport(False, tuple(failures))
    g, layout = s // t, design.layout
    if p == t:
        columns = designs._counts(layout.T, t)
        for i in np.flatnonzero((columns != 1).any(axis=1)):
            counts = columns[i].tolist()
            failures.append(f"non-uniform column {i}: treatment counts {counts}")
    rows = designs._counts(layout, t)
    for j in np.flatnonzero((rows != g).any(axis=1)):
        failures.append(f"non-uniform row {j + 1}: treatment counts {rows[j].tolist()}")
    prec = designs._pairs(layout[1:].ravel(), layout[:-1].ravel(), t)
    wrong = zip(*np.nonzero(prec != g * (1 - np.eye(t, dtype=int))))
    for a, b in sorted(wrong, key=lambda ab: (ab[0], ab[0] != ab[1])):
        if a == b:
            failures.append(f"self-precedence for treatment {a}: count {prec[a, a]}")
        else:
            pair = f"({a} after {b})"
            failures.append(f"precedence count != g for pair {pair}: {prec[a, b]}")
    return ValidationReport(not failures, tuple(failures))


_BALANCED = [
    williams_square(4), williams_pair(3), williams_pair(5), fixture("d3plan"),
    replicate(williams_square(4), 2), extreme_design(3),
]


@st.composite
def _layouts(draw):
    """A balanced design, one a few cells or a cell swap within a subject
    away from it, or any small layout."""
    if draw(st.booleans()):
        d = draw(st.sampled_from(_BALANCED))
        layout = d.layout.copy()
        cells = st.tuples(
            st.integers(0, d.p - 1), st.integers(0, d.s - 1), st.integers(0, d.t - 1)
        )
        for j, i, v in draw(st.lists(cells, max_size=3)):
            layout[j, i] = v
        if draw(st.booleans()):  # subjects stay uniform, periods may not
            i, a, b = draw(cells.map(lambda c: (c[1], c[0], c[2] % d.p)))
            layout[[a, b], i] = layout[[b, a], i]
        return CrossoverDesign(t=d.t, p=d.p, s=d.s, layout=layout)
    t, p, s = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(0, t - 1), min_size=p * s, max_size=p * s))
    return CrossoverDesign(t=t, p=p, s=s, layout=np.reshape(cells, (p, s)))


@settings(max_examples=300, deadline=None)
@given(design=_layouts())
def test_one_count_pass_reports_as_three(design):
    assert validate_ubrmd(design) == _reference_report(design)


def test_balanced_layouts_report_as_three():
    for d in _BALANCED + [williams_square(t) for t in (6, 8)] + [extreme_design(5)]:
        assert validate_ubrmd(d) == _reference_report(d) == ValidationReport(True, ())
    for design, _ in BROKEN.values():
        assert validate_ubrmd(design) == _reference_report(design)


def _cycle(periods, cycles):
    return f"block 0, periods {periods}: cycle type {cycles} is not a single 4-cycle"


def _block(l, j, counts):
    return f"block {l} is not uniform in period {j}: treatment counts {counts}"


@pytest.mark.parametrize(
    "design, m, failures",
    [
        (fixture("d2plan"), 2, (_cycle("3->2", [2, 2]), _cycle("2->3", [2, 2]))),
        (
            _changed(fixture("d3plan"), order=[0, 1, 2, 3, 5, 4, 6, 7, 8, 9]),
            2,
            (
                _block(0, 5, [1, 2, 0, 1, 1]),
                _block(0, 4, [2, 1, 1, 0, 1]),
                _block(0, 3, [1, 0, 2, 1, 1]),
                _block(1, 5, [1, 0, 2, 1, 1]),
                _block(1, 4, [0, 1, 1, 2, 1]),
                _block(1, 3, [1, 2, 0, 1, 1]),
            ),
        ),
    ],
    ids=["d2plan-m2-cycles", "d3plan-mixed-blocks"],
)
def test_type_wm_failures_are_exact(design, m, failures):
    assert validate_ubrmd(design) == ValidationReport(True, ())
    report = check_type_wm(design, m)
    assert (report.ok, report.failures) == (False, failures)


def test_layout_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        CrossoverDesign(t=3, p=3, s=4, layout=np.zeros((3, 3), dtype=int))


@pytest.mark.parametrize(
    "layout, dtype",
    [
        ([[0.7, 1.9]], "float64"),
        ([[False, True]], "bool"),
        ([["0", "1"]], "<U1"),
        # numpy stores these lists as int64
        ([[True, 1]], "bool"),
        ([[0, np.True_]], "bool"),
    ],
    ids=["float", "bool", "string", "list-bool", "list-numpy-bool"],
)
def test_layout_must_have_an_integer_dtype(layout, dtype):
    # a float layout was truncated to [[0, 1]] and a bool one read as 0/1
    with pytest.raises(ValueError) as info:
        CrossoverDesign(t=2, p=1, s=2, layout=layout)
    assert str(info.value) == f"layout entries must be integers, got {dtype}"


def test_layout_is_stored_as_one_read_only_int_copy():
    given = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    d = CrossoverDesign(t=2, p=2, s=2, layout=given)
    assert d.layout.dtype == int and not d.layout.flags.writeable
    assert not np.shares_memory(d.layout, given)
    assert np.array_equal(d.layout, given)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"t": 4.0}, "t must be an integer, got float"),
        ({"p": 4.0}, "p must be an integer, got float"),
        ({"s": np.float64(4)}, "s must be an integer, got float64"),
        ({"t": True}, "t must be an integer, got bool"),
        ({"p": "4"}, "p must be an integer, got str"),
    ],
)
def test_design_dimensions_must_be_integers(kwargs, message):
    # checked before the layout, so numpy never sees a float dimension
    dims = {"t": 4, "p": 4, "s": 4, **kwargs}
    with pytest.raises(ValueError, match=f"^{message}$"):
        CrossoverDesign(layout=williams_square(4).layout, **dims)
    with pytest.raises(ValueError, match="^t must be an integer, got float$"):
        williams_square(4.0)


def test_design_stores_numpy_integer_dimensions_as_ints():
    d = CrossoverDesign(
        t=np.int64(4), p=np.int32(4), s=np.int64(4), layout=williams_square(4).layout
    )
    assert (type(d.t), type(d.p), type(d.s), type(d.g)) == (int, int, int, int)
    assert validate_ubrmd(d).ok
    assert write_design(d) == write_design(williams_square(4))


def test_period_slice_first_period_unit_columns():
    d = fixture("d2plan")
    p1 = period_slice(d, 1)
    np.testing.assert_array_equal(p1[:, 0], [1, 0, 0, 0])
    np.testing.assert_array_equal(p1[:, 3], [0, 0, 0, 1])
    np.testing.assert_array_equal(p1.sum(axis=0), np.ones(4, dtype=int))


def test_period_slice_row_sums_are_g():
    d = fixture("d2plan")
    p4 = period_slice(d, 4)
    np.testing.assert_array_equal(p4.sum(axis=1), np.full(4, 1))
    d3 = fixture("d3plan")
    np.testing.assert_array_equal(period_slice(d3, 5).sum(axis=1), np.full(5, 2))


def test_period_slice_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        period_slice(fixture("d2plan"), 5)
    with pytest.raises(ValueError, match="out of range"):
        period_slice(fixture("d2plan"), 0)


def test_coincidence_diagonal_is_g_identity():
    d = fixture("d3plan")
    np.testing.assert_array_equal(coincidence(d, 0, 0), 2 * np.eye(5, dtype=int))
    np.testing.assert_array_equal(coincidence(d, 1, 1), 2 * np.eye(5, dtype=int))


def test_coincidence_extreme_design():
    d = extreme_design(4)
    expected = 2 * (np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
    np.testing.assert_array_equal(coincidence(d, 0, 1), expected)


def test_coincidence_d2plan_tail_is_permutation():
    # periods 3 and 4 of the printed square: (3,0,1,2) over (2,3,0,1)
    u = coincidence(fixture("d2plan"), 0, 1)
    expected = np.zeros((4, 4), dtype=int)
    for a, b in ((2, 3), (3, 0), (0, 1), (1, 2)):
        expected[a, b] = 1
    np.testing.assert_array_equal(u, expected)
    assert cycle_type(u) == [4]


def test_coincidence_row_col_sums():
    for name in ("d1plan", "d2plan", "d3plan", "ex13sq1", "ex13sq2"):
        d = fixture(name)
        g = d.g
        for j in range(d.p):
            for k in range(d.p):
                u = coincidence(d, j, k)
                np.testing.assert_array_equal(u.sum(axis=0), np.full(d.t, g))
                np.testing.assert_array_equal(u.sum(axis=1), np.full(d.t, g))


def test_coincidence_rejects_nonuniform_period():
    # columns are permutations but the last period row is not uniform
    layout = np.array([[0, 0, 1], [1, 2, 0], [2, 1, 2]])
    d = CrossoverDesign(t=3, p=3, s=3, layout=layout)
    with pytest.raises(ValueError, match="not uniform"):
        coincidence(d, 0, 1)


def test_coincidence_needs_whole_squares():
    layout = np.array([[0, 1, 2, 0], [1, 2, 0, 1], [2, 0, 1, 2]])
    d = CrossoverDesign(t=3, p=3, s=4, layout=layout)
    with pytest.raises(ValueError, match="not a multiple"):
        coincidence(d, 0, 1)


def test_incidences_full_design():
    inc = incidences(fixture("d2plan"))
    np.testing.assert_array_equal(inc.r_d, np.full(4, 4))
    np.testing.assert_array_equal(inc.r_c, np.full(4, 3))
    np.testing.assert_array_equal(inc.n_cp[:, 0], np.zeros(4, dtype=int))


def test_incidences_truncated_closed_forms():
    d = truncate(fixture("d2plan"), 1)
    inc = incidences(d)
    np.testing.assert_array_equal(inc.r_d, np.full(4, 3))
    np.testing.assert_array_equal(inc.r_c, np.full(4, 2))
    np.testing.assert_array_equal(inc.n_dp, np.ones((4, 3), dtype=int))
    expected_cp = np.hstack([np.zeros((4, 1), dtype=int), np.ones((4, 2), dtype=int)])
    np.testing.assert_array_equal(inc.n_cp, expected_cp)


@pytest.mark.parametrize("name,m", [("d2plan", 1), ("d3plan", 1), ("d3plan", 2)])
def test_incidences_truncated_general(name, m):
    d = fixture(name)
    inc = incidences(truncate(d, m))
    g, t = d.g, d.t
    np.testing.assert_array_equal(inc.r_d, np.full(t, g * (t - m)))
    np.testing.assert_array_equal(inc.r_c, np.full(t, g * (t - m - 1)))
    np.testing.assert_array_equal(inc.n_dp, np.full((t, t - m), g))


def test_incidences_with_pattern():
    # subjects 3 and 4 of the printed 4x4 square stop after period 3;
    # treatments 0 and 1 each lose one final-period cell
    inc = incidences(fixture("d2plan"), DropoutPattern((4, 4, 3, 3)))
    np.testing.assert_array_equal(inc.r_d, np.array([3, 3, 4, 4]))
    total = inc.n_ds.sum()
    assert total == 4 + 4 + 3 + 3


def test_incidence_margins_consistent():
    inc = incidences(fixture("d3plan"), DropoutPattern((5, 5, 4, 4, 3, 5, 5, 4, 4, 3)))
    np.testing.assert_array_equal(inc.n_ds.sum(axis=1), inc.r_d)
    np.testing.assert_array_equal(inc.n_dp.sum(axis=1), inc.r_d)
    np.testing.assert_array_equal(inc.n_cs.sum(axis=1), inc.r_c)
    np.testing.assert_array_equal(inc.n_cp.sum(axis=1), inc.r_c)
    # summing the direct-by-carryover table over direct treatments
    # recovers the carryover totals; over carryovers it recovers the
    # direct totals minus the g first-period cells every subject keeps
    np.testing.assert_array_equal(inc.n_dc.sum(axis=0), inc.r_c)
    np.testing.assert_array_equal(inc.n_dc.sum(axis=1), inc.r_d - 2)


def _incidences_by_cell(design, completion):
    """The incidence counts visited one observed cell at a time: the
    reference for incidences."""
    t, p, s = design.t, design.p, design.s
    n_ds = np.zeros((t, s), dtype=int)
    n_cs = np.zeros((t, s), dtype=int)
    n_dp = np.zeros((t, p), dtype=int)
    n_cp = np.zeros((t, p), dtype=int)
    n_dc = np.zeros((t, t), dtype=int)
    layout = design.layout
    for i in range(s):
        for j in range(completion[i]):
            d = layout[j, i]
            n_ds[d, i] += 1
            n_dp[d, j] += 1
            if j >= 1:
                c = layout[j - 1, i]
                n_cs[c, i] += 1
                n_cp[c, j] += 1
                n_dc[d, c] += 1
    return {
        "n_ds": n_ds,
        "n_cs": n_cs,
        "n_dp": n_dp,
        "n_cp": n_cp,
        "n_dc": n_dc,
        "r_d": n_ds.sum(axis=1),
        "r_c": n_cs.sum(axis=1),
    }


@pytest.mark.parametrize(
    "design",
    [fixture(name) for name in FIXTURE_NAMES]
    + [williams_square(t) for t in (4, 6, 8, 10)]
    + [williams_pair(t) for t in (3, 5, 7, 9)]
    + [extreme_design(t) for t in (4, 5)],
    ids=list(FIXTURE_NAMES)
    + [f"square{t}" for t in (4, 6, 8, 10)]
    + [f"pair{t}" for t in (3, 5, 7, 9)]
    + [f"extreme{t}" for t in (4, 5)],
)
def test_incidences_match_cell_by_cell_counts(design):
    rng = np.random.default_rng(design.s * 100 + design.t)
    p, s = design.p, design.s
    # the complete design (no pattern and its all-p row), every uniform
    # truncation down to period 1, and random patterns
    rows = [None] + [(k,) * s for k in range(p, 0, -1)]
    rows += [tuple(rng.integers(1, p + 1, size=s).tolist()) for _ in range(8)]
    for row in rows:
        got = incidences(design, None if row is None else DropoutPattern(row))
        want = _incidences_by_cell(design, row or (p,) * s)
        assert len(want) == len(got.__dataclass_fields__)
        for name, counts in want.items():
            assert np.array_equal(getattr(got, name), counts), (row, name)


def test_pattern_validation():
    with pytest.raises(ValueError, match="at least period 1"):
        DropoutPattern((0, 4, 4, 4))
    with pytest.raises(ValueError, match="does not match"):
        incidences(fixture("d2plan"), DropoutPattern((4, 4)))
    with pytest.raises(ValueError, match="exceeds"):
        incidences(fixture("d2plan"), DropoutPattern((5, 4, 4, 4)))
    # a float period was truncated to an int and a bool taken as 1
    for period, kind in ((3.7, "float"), (np.float64(3), "float64"), (True, "bool")):
        with pytest.raises(ValueError) as info:
            DropoutPattern((4, period, 4, 4))
        assert str(info.value) == f"completion period must be an integer, got {kind}"
    pattern = DropoutPattern((4, np.int64(3), np.int32(4), np.uint8(2)))
    assert pattern.completion == (4, 3, 4, 2)
    assert all(type(k) is int for k in pattern.completion)


def test_truncate_is_row_slice():
    d = fixture("d2plan")
    cut = truncate(d, 1)
    np.testing.assert_array_equal(cut.layout, d.layout[:3, :])
    assert cut.p == 3 and cut.t == 4 and cut.s == 4
    cut2 = truncate(fixture("d3plan"), 1)
    assert cut2.layout.shape == (4, 10)


def test_truncate_range():
    with pytest.raises(ValueError, match="out of range"):
        truncate(fixture("d2plan"), 3)
    with pytest.raises(ValueError, match="out of range"):
        truncate(fixture("d2plan"), 0)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_truncate_of_two_period_design_has_no_tail(m):
    # 1..p-2 is empty, so the message names no range, whatever m is
    d = CrossoverDesign(t=2, p=2, s=2, layout=[[0, 1], [1, 0]])
    with pytest.raises(ValueError) as info:
        truncate(d, m)
    assert str(info.value) == (
        "a design of p=2 periods has no tail to drop (m must lie in 1..p-2)"
    )


def test_check_type_w1_d2plan():
    assert check_type_wm(fixture("d2plan"), 1).ok


def test_check_type_w2_d2plan_fails():
    # the periods 2 and 4 of the shifted square differ by 2, giving two
    # 2-cycles instead of one 4-cycle
    report = check_type_wm(fixture("d2plan"), 2)
    assert not report.ok
    assert any("cycle type" in f for f in report.failures)


def test_check_type_w1_ex13_union():
    d = union([fixture("ex13sq1"), fixture("ex13sq2")])
    assert check_type_wm(d, 1).ok


def test_check_type_wm_rejects_non_ubrmd():
    layout = np.zeros((3, 3), dtype=int)
    with pytest.raises(ValueError, match="uniform-balanced"):
        check_type_wm(CrossoverDesign(t=3, p=3, s=3, layout=layout), 1)


def test_classify_replicated_square_is_class_a():
    d = union([fixture("d2plan")] * 3)
    assert classify(d) == "ClassA-W1"


def test_classify_pair_is_class_b():
    assert classify(fixture("d3plan")) == "ClassB-W1"
    assert classify(williams_pair(7)) == "ClassB-W1"


def test_classify_extreme_falls_through_to_ubrmd():
    assert classify(extreme_design(3)) == "UBRMD"


def test_classify_distinct_squares_type_w1():
    d = union([fixture("ex13sq1"), fixture("ex13sq2")])
    assert classify(d) == "type-W1"


def test_classify_not_ubrmd():
    layout = np.zeros((3, 3), dtype=int)
    assert classify(CrossoverDesign(t=3, p=3, s=3, layout=layout)) == "not-UBRMD"


@settings(max_examples=15, deadline=None)
@given(st.permutations(list(range(4))))
def test_classify_invariant_under_relabeling(perm):
    d = union([fixture("d2plan")] * 2)
    assert classify(relabel(d, perm)) == classify(d)


def _reference_is_type_wm(design, m):
    """Whether every block's tail maps are single t-cycles, each map's
    cycle type taken by cycle_type, for a uniform-balanced design."""
    t, p = design.t, design.p
    for block in design.blocks():
        tail = design.layout[p - 1 - np.arange(m + 1)][:, list(block)]
        if any(sorted(row) != list(range(t)) for row in tail.tolist()):
            return False
        for j in range(m + 1):
            for k in range(m + 1):
                if j != k and cycle_type(designs._pairs(tail[j], tail[k], t)) != [t]:
                    return False
    return True


def _reference_classify(design):
    """classify with block 0's single-cycle verdict taken by cycle_type
    and every type-W verdict by _reference_is_type_wm."""
    if not validate_ubrmd(design).ok:
        return "not-UBRMD"
    t, p = design.t, design.p
    squares = design.layout[:, np.array(design.blocks())]  # (p, g, t)
    g = squares.shape[1]
    tails = designs._pairs(squares[p - 1, :2], squares[p - 2, :2], t)
    latin = (designs._counts(squares[:, :2], t) == 1).all()
    single_cycle = latin and cycle_type(tails[0]) == [t]
    if single_cycle and (squares == squares[:, :1]).all():
        return "ClassA-W1"
    if g % 2 == 0:
        pairs = squares.reshape(p, g // 2, 2 * t)
        if (
            single_cycle
            and (pairs == pairs[:, :1]).all()
            and np.array_equal(tails[1], tails[0].T)
        ):
            return "ClassB-W1"
    best = 0
    for m in range(1, p - 1):
        if not _reference_is_type_wm(design, m):
            break
        best = m
    return f"type-W{best}" if best else "UBRMD"


def test_text_format_round_trip():
    for name in ("d1plan", "d2plan", "d3plan"):
        d = fixture(name)
        back = parse_design(write_design(d))
        assert back.t == d.t and back.p == d.p and back.s == d.s
        np.testing.assert_array_equal(back.layout, d.layout)


def _reference_text(design):
    """write_design's text built a token at a time."""
    lines = [TEXT_FORMAT_HEADER, f"t={design.t} p={design.p} s={design.s}"]
    lines += [" ".join(map(str, row)) for row in design.layout.tolist()]
    return "\n".join(lines) + "\n"


def _assert_written_as_reference(design):
    text = write_design(design)
    assert text == _reference_text(design)
    back = parse_design(text)
    assert (back.t, back.p, back.s) == (design.t, design.p, design.s)
    np.testing.assert_array_equal(back.layout, design.layout)


# designs built when their test runs: extreme_design(8) has 40320 subjects
WRITTEN = {
    **{name: (lambda name=name: fixture(name)) for name in FIXTURE_NAMES},
    **{f"square{t}": (lambda t=t: williams_square(t)) for t in (4, 12, 100)},
    **{f"pair{t}": (lambda t=t: williams_pair(t)) for t in (5, 15)},
    **{f"extreme{t}": (lambda t=t: extreme_design(t)) for t in range(3, 9)},
    "replicate": lambda: replicate(williams_pair(11), 3),
    "union": lambda: union([fixture("ex13sq1"), fixture("ex13sq2")]),
    "every-entry-to-149": lambda: CrossoverDesign(
        t=150, p=2, s=150, layout=[range(150), range(149, -1, -1)]
    ),
}


@pytest.mark.parametrize("name", WRITTEN)
def test_write_design_matches_the_per_token_text(name):
    _assert_written_as_reference(WRITTEN[name]())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), t=st.integers(1, 150), p=st.integers(1, 4))
def test_write_design_matches_the_per_token_text_on_generated_layouts(data, t, p):
    # at least t cells, so that parse_design reads the text back
    s = data.draw(st.integers(-(-t // p), -(-t // p) + 5))
    entries = data.draw(st.lists(st.integers(0, t - 1), min_size=p * s, max_size=p * s))
    layout = np.array(entries).reshape(p, s)
    _assert_written_as_reference(CrossoverDesign(t=t, p=p, s=s, layout=layout))


def _type_wm_verdicts(design):
    """check_type_wm's report, or its error message, for every m in 1..p-2."""
    out = []
    for m in range(1, design.p - 1):
        try:
            out.append(check_type_wm(design, m))
        except ValueError as exc:
            out.append(str(exc))
    return out


CONSTRUCTIONS = {
    "square4": williams_square(4),
    "square6": williams_square(6),
    "pair3": williams_pair(3),
    "pair5": williams_pair(5),
    "pair7": williams_pair(7),
    **{name: fixture(name) for name in FIXTURE_NAMES},
    "ex13-union": union([fixture("ex13sq1"), fixture("ex13sq2")]),
    "replicate": replicate(williams_pair(5), 3),
    "relabel": relabel(fixture("d3plan"), [2, 4, 1, 0, 3]),
    "truncate": truncate(williams_square(6), 1),
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_design_file_classifies_as_its_object(name):
    # the squares are the contiguous runs of t subjects in the object and
    # in its file alike, so every verdict survives a save and load
    d = CONSTRUCTIONS[name]
    back = parse_design(write_design(d))
    np.testing.assert_array_equal(back.layout, d.layout)
    assert back.blocks() == d.blocks()
    assert validate_ubrmd(back) == validate_ubrmd(d)
    assert classify(back) == classify(d)
    assert _type_wm_verdicts(back) == _type_wm_verdicts(d)


# a balanced square from the sequencing (0, 2, 1, 4, 5, 3) of Z_6, whose
# map from period 6 to period 5 adds 2 (mod 6): two 3-cycles, so copies
# of it are no ClassA
_TWO_CYCLES = CrossoverDesign(
    t=6, p=6, s=6, layout=(np.array([0, 2, 1, 4, 5, 3])[:, None] + np.arange(6)) % 6
)
# a uniform-balanced pair of squares, Latin in periods 4 and 5 with
# single-cycle tail maps that invert each other, in each of which period 1
# repeats a treatment: only classify's Latin check keeps it from ClassB
_NOT_LATIN_PAIR = CrossoverDesign(
    t=5,
    p=5,
    s=10,
    layout=[
        [1, 4, 3, 4, 0, 2, 0, 1, 2, 3],
        [3, 2, 0, 1, 2, 4, 3, 4, 0, 1],
        [2, 3, 4, 0, 1, 3, 4, 0, 1, 2],
        [4, 0, 1, 2, 3, 1, 2, 3, 4, 0],
        [0, 1, 2, 3, 4, 0, 1, 2, 3, 4],
    ],
)
# every constructor and fixture, and layouts that reach each branch of
# classify: copies of one square, of a pair, distinct squares, blocks not
# uniform in the tail, and layouts that are not balanced
VERDICT_DESIGNS = {
    **CONSTRUCTIONS,
    **{f"square{t}": williams_square(t) for t in (4, 8, 10)},
    **{f"pair{t}": williams_pair(t) for t in (9, 11)},
    **{f"extreme{t}": extreme_design(t) for t in (3, 4, 5)},
    "square4x3": replicate(williams_square(4), 3),
    "square6-pair": union(
        [williams_square(6), relabel(williams_square(6), [1, 2, 3, 4, 5, 0])]
    ),
    "pair5x2": replicate(williams_pair(5), 2),
    "two-cycles": _TWO_CYCLES,
    "two-cycles-x2": replicate(_TWO_CYCLES, 2),
    "two-cycles-pair-x2": replicate(
        union([_TWO_CYCLES, relabel(_TWO_CYCLES, [5, 4, 3, 2, 1, 0])]), 2
    ),
    "not-latin-pair": _NOT_LATIN_PAIR,
    "not-latin-pair-x2": replicate(_NOT_LATIN_PAIR, 2),
    "d3plan-mixed-blocks": _changed(
        fixture("d3plan"), order=[0, 1, 2, 3, 5, 4, 6, 7, 8, 9]
    ),
    "d3plan-pairs-swapped": _changed(
        fixture("d3plan"), order=[5, 6, 7, 8, 9, 0, 1, 2, 3, 4]
    ),
    **{f"broken-{name}": design for name, (design, _) in BROKEN.items()},
}


def _verdicts(design):
    """classify, and check_type_wm's and _is_type_wm's verdicts for every m."""
    out = [classify(design)]
    for m in range(1, design.p - 1):
        try:
            out.append((check_type_wm(design, m).ok, designs._is_type_wm(design, m)))
        except ValueError as exc:
            out.append(str(exc))
    return out


def _reference_verdicts(design):
    out = [_reference_classify(design)]
    report = _reference_report(design)
    for m in range(1, design.p - 1):
        if report.ok:
            ok = _reference_is_type_wm(design, m)
            out.append((ok, ok))
        else:
            out.append("design is not uniform-balanced: " + "; ".join(report.failures))
    return out


@pytest.mark.parametrize("name", VERDICT_DESIGNS)
def test_verdicts_match_cycle_type(name):
    d = VERDICT_DESIGNS[name]
    assert _verdicts(d) == _reference_verdicts(d)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(VERDICT_DESIGNS)), data=st.data())
def test_verdicts_match_cycle_type_after_relabeling(name, data):
    d = VERDICT_DESIGNS[name]
    d = relabel(d, data.draw(st.permutations(range(d.t))))
    assert _verdicts(d) == _reference_verdicts(d)


def test_tail_tables_are_kept_and_read_only():
    d = fixture("d3plan")
    assert classify(d) == "ClassB-W1"
    table = designs._tail_cycles(d, 1)
    assert designs._tail_cycles(d, 1) is table
    assert check_type_wm(d, 1).ok and designs._tail_cycles(d, 1) is table
    tail, single = table
    for array in (tail, single):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
    # not through a view either, and not through the layout it copies
    with pytest.raises(ValueError, match="read-only"):
        tail[0, 0][:] = 0
    mixed = VERDICT_DESIGNS["d3plan-mixed-blocks"]
    tail, single = designs._tail_cycles(mixed, 2)
    assert single is None and not tail.flags.writeable
    assert designs._tail_cycles(mixed, 1) is not designs._tail_cycles(mixed, 2)


def test_blocks_need_s_a_multiple_of_t():
    d = CrossoverDesign(t=2, p=2, s=3, layout=[[0, 1, 0], [1, 0, 1]])
    with pytest.raises(ValueError) as info:
        d.blocks()
    assert str(info.value) == "s=3 is not a multiple of t=2"


def test_parse_design_errors_name_position():
    with pytest.raises(ValueError, match="line 1"):
        parse_design("t=2 p=2 s=2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_design("# xover-design v1\nt=2 p=2\n0 1\n1 0\n")
    text = "# xover-design v1\nt=2 p=2 s=2\n0 1\n1 x\n"
    with pytest.raises(ValueError, match="line 4, column 2"):
        parse_design(text)
    text = "# xover-design v1\nt=2 p=2 s=2\n0 1\n1 7\n"
    with pytest.raises(ValueError, match="out of range"):
        parse_design(text)


@pytest.mark.parametrize(
    "dims, message",
    [
        ("t=3 p=3 s=3 s=4", "line 2, token 4: duplicate key 's'"),
        ("t=2 t=2 p=2 s=2", "line 2, token 2: duplicate key 't'"),
        ("t=5 p=2 s=2", "line 2: t=5 exceeds the p*s=4 cells of the layout"),
        # no array is sized by s before a line holds s entries
        ("t=2 p=2 s=100000000000", "line 3: expected 100000000000 entries, found 2"),
        ("t=2 p=2 s=" + "9" * 19, "line 3: expected 1000000000000000000 entries, found 2"),
    ],
)
def test_parse_design_rejects_bad_dimension_line(dims, message):
    with pytest.raises(ValueError) as info:
        parse_design(f"{TEXT_FORMAT_HEADER}\n{dims}\n0 1\n1 0\n")
    assert str(info.value) == message


def test_parse_pattern():
    p = parse_pattern("4 4 3 3\n")
    assert p.completion == (4, 4, 3, 3)
    with pytest.raises(ValueError, match="column 2"):
        parse_pattern("4 x 3 3\n")
    with pytest.raises(ValueError, match="one line"):
        parse_pattern("4 4\n3 3\n")


# tokens that are not plain ASCII digit runs, each with the value the
# per-token reader gives it
ODD_TOKENS = {"+3": 3, "007": 7, "1_0": 10, "٣": 3, "0" * 20 + "1": 1}


@pytest.mark.parametrize(
    "tok", ODD_TOKENS, ids=["plus", "zeros", "underscore", "arabic", "padded"]
)
def test_odd_tokens_read_as_their_values(tok):
    # williams_square(12) takes every value above as a treatment
    lines = write_design(williams_square(12)).split("\n")

    def with_entry(word):
        words = lines[5].split()
        words[4] = word
        return "\n".join(lines[:5] + [" ".join(words)] + lines[6:])

    np.testing.assert_array_equal(
        parse_design(with_entry(tok)).layout,
        parse_design(with_entry(str(ODD_TOKENS[tok]))).layout,
    )
    assert parse_pattern(f"4 {tok} 4\n") == DropoutPattern((4, ODD_TOKENS[tok], 4))
    assert parse_pattern(f"{tok}\n") == DropoutPattern((ODD_TOKENS[tok],))


_HEAD = f"{TEXT_FORMAT_HEADER}\nt=4 p=2 s=4\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("0 1 2 3\n1 2 3 4\n", "line 4, column 4: treatment 4 out of range 0..3"),
        ("0 1 2 3\n1 2 9 x\n", "line 4, column 3: treatment 9 out of range 0..3"),
        ("0 1 2 3\n1 2 x 9\n", "line 4, column 3: 'x' is not an integer"),
        ("0 1 +9 x\n1 2 3 0\n", "line 3, column 3: treatment 9 out of range 0..3"),
        ("0 1 2 3\n1 2 3 -1\n", "line 4, column 4: treatment -1 out of range 0..3"),
        ("0 1 2 3\n0 1 2 3 0\n", "line 4: expected 4 entries, found 5"),
        ("0 1 2 9\n0 1 2\n", "line 3, column 4: treatment 9 out of range 0..3"),
        (
            "0 1 2 3\n0 1 2 " + "1" * 19 + "\n",
            "line 4, column 4: treatment 1000000000000000000 out of range 0..3",
        ),
        (
            "0 1 2 3\n0 1 2 1_000_000_000_000_000_000_000\n",
            "line 4, column 4: treatment 1" + "0" * 21 + " out of range 0..3",
        ),
        (
            "0 1 2 3\n0 1 " + "1" * 5000 + "x 3\n",
            "line 4, column 3: '111111111111111111'... (5001 characters) "
            "is not an integer",
        ),
    ],
    ids=["high", "high-then-junk", "junk-then-high", "odd-high", "negative", "count",
         "high-before-count", "19-digit", "underscored-above-clamp", "5000-digit-junk"],
)
def test_rejected_layout_lines_keep_their_messages(body, message):
    with pytest.raises(ValueError) as info:
        parse_design(_HEAD + body)
    assert str(info.value) == message


def test_plain_lines_never_reach_the_per_token_reader(monkeypatch):
    wheres = []
    int_token = designs._int_token

    def recording(tok, where, *at):
        wheres.append(where)
        return int_token(tok, where, *at)

    monkeypatch.setattr(designs, "_int_token", recording)
    for d in [fixture(name) for name in FIXTURE_NAMES] + [extreme_design(6)]:
        np.testing.assert_array_equal(parse_design(write_design(d)).layout, d.layout)
        completion = tuple(1 + i % d.p for i in range(d.s))
        assert parse_pattern(" ".join(map(str, completion))).completion == completion
    # only the dimension values t, p and s go through it
    assert set(wheres) == {"line 2, token {}: {}="}


def _outcome(read, text):
    """What read(text) gives: its value, or the message it raised."""
    try:
        return read(text)
    except ValueError as exc:
        return str(exc)


def _both_readers(read, text):
    """read(text) as parsed, and with the byte-slicing and one-call
    readers switched off so that every line goes through the per-token
    reader."""
    fast = _outcome(read, text)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(designs, "_digit_ints", lambda text, below: None)
        m.setattr(designs, "_plain_ints", lambda text, below: None)
        slow = _outcome(read, text)
    return fast, slow


def _same(a, b):
    if isinstance(a, CrossoverDesign) and isinstance(b, CrossoverDesign):
        return (a.t, a.p, a.s) == (b.t, b.p, b.s) and np.array_equal(a.layout, b.layout)
    return a == b


def _text_of(design, edits=None, sep=" ", eol="\n"):
    """design as text, edits[j] applied to the tokens of layout row j,
    tokens joined by sep and lines by eol."""
    head, dims, *rows = write_design(design).splitlines()
    rows = [r.split() for r in rows]
    for j, edit in (edits or {}).items():
        rows[j] = edit(rows[j])
    return eol.join([head, dims] + [sep.join(r) for r in rows]) + eol


def _square12(edits=None, sep=" ", eol="\n"):
    """williams_square(12) as text (t = 12: entries of one and two
    digits), edited as _text_of does."""
    return _text_of(williams_square(12), edits, sep, eol)


def _square6(edits=None, sep=" ", eol="\n"):
    """williams_square(6) as text (t = 6: single digits, each line 2s-1
    characters, read by byte slicing), edited as _text_of does."""
    return _text_of(williams_square(6), edits, sep, eol)


def _joined(sep, at=2):
    """An edit joining tokens at and at+1 by sep instead of one space."""
    return lambda toks: toks[:at] + [toks[at] + sep + toks[at + 1]] + toks[at + 2 :]


def _put(*words, at=4):
    """An edit writing words over the tokens from position at."""
    return lambda toks: toks[:at] + list(words) + toks[at + len(words):]


LAYOUT_CORPUS = {
    "plain": _square12(),
    "tabs": _square12(sep="\t"),
    "crlf": _square12(eol="\r\n"),
    "blank-lines": _square12().replace("\n0", "\n\n \n0").replace("\n1", "\n\t\n1"),
    "double-spaces": _square12(sep="  "),
    "trailing-space": _square12({3: lambda toks: toks[:-1] + [toks[-1] + " "]}),
    "odd-tokens-one-line": _square12(
        {0: _put("+3", "007", "1_0", "٣", "0" * 20 + "1", "11")}
    ),
    "19-digit-in-range": _square12({0: _put("0" * 18 + "5")}),
    "19-digit-high": _square12({0: _put("1" * 19)}),
    "19-digit-ten-to-18": _square12({0: _put("1" + "0" * 18)}),
    "5000-digit-in-range": _square12({0: _put("0" * 4999 + "7")}),
    "5000-digit-high": _square12({0: _put("1" + "0" * 4999)}),
    "5000-digit-junk": _square12({0: _put("1" * 5000 + "x")}),
    "negative": _square12({5: _put("-1")}),
    "plus-zero": _square12({5: _put("+0", "-0")}),
    "high": _square12({5: _put("12")}),
    "short-line": _square12({2: lambda toks: toks[:-1]}),
    "long-line": _square12({2: lambda toks: toks + ["0"]}),
    "high-then-short": _square12({0: _put("12"), 2: lambda toks: toks[:-1]}),
    "junk-then-high": _square12({0: _put("x", "99")}),
    "arabic-then-high": _square12({0: _put("١٠", "12")}),
    "vertical-tab": _square12(sep="\v"),
    "form-feed-line": _square12().replace("\n0", "\f0", 1),
    "empty-body": f"{TEXT_FORMAT_HEADER}\nt=0 p=0 s=0\n",
    "empty-body-s": f"{TEXT_FORMAT_HEADER}\nt=0 p=0 s=3\n",
    "extreme4": write_design(extreme_design(4)),
    "d3plan-crlf-blank": write_design(fixture("d3plan")).replace("\n", "\r\n")
    .replace("\r\n1", "\r\n\r\n1"),
    # single digits: lines of 2s-1 characters go to the byte reader, which
    # must refuse every line that is not single digits joined by spaces
    "digits": _square6(),
    "digits-crlf": _square6(eol="\r\n"),
    "digits-double-spaces": _square6(sep="  "),
    "digits-one-double-space": _square6({2: _joined("  ")}),
    "digits-tabs": _square6(sep="\t"),
    "digits-one-tab": _square6({2: _joined("\t")}),
    "digits-one-vertical-tab": _square6({2: _joined("\v")}),
    "digits-leading-zero": _square6({3: _put("05")}),
    # 2s-1 characters: one token fewer, one of two digits, a trailing space
    "digits-leading-zero-short": _square6(
        {3: lambda toks: ["0" + toks[0]] + toks[2:-1] + [toks[-1] + " "]}
    ),
    "digits-trailing-space": _square6({3: lambda toks: toks[:-1] + [toks[-1] + " "]}),
    "digits-leading-space": _square6({3: lambda toks: [" " + toks[0]] + toks[1:]}),
    "digits-high": _square6({4: _put("6")}),
    "digits-nine": _square6({4: _put("9")}),
    "digits-colon": _square6({4: _put(":")}),
    "digits-slash": _square6({4: _put("/")}),
    "digits-arabic": _square6({4: _put("٣")}),
    "digits-t12": f"{TEXT_FORMAT_HEADER}\nt=12 p=2 s=6\n0 1 2 3 4 5\n6 7 8 9 0 1\n",
    "digits-t12-colon": (
        f"{TEXT_FORMAT_HEADER}\nt=12 p=2 s=6\n0 1 2 3 4 5\n6 7 : 9 0 1\n"
    ),
}


@pytest.mark.parametrize("name", LAYOUT_CORPUS)
def test_layout_readers_agree(name):
    fast, slow = _both_readers(parse_design, LAYOUT_CORPUS[name])
    assert _same(fast, slow), (fast, slow)


@pytest.mark.parametrize(
    "name",
    ["plain", "crlf", "blank-lines", "extreme4", "d3plan-crlf-blank", "digits",
     "digits-crlf", "digits-t12"],
)
def test_plain_layouts_take_one_call(monkeypatch, name):
    def per_token(*args):
        raise AssertionError("the per-token reader was called")

    monkeypatch.setattr(designs, "_layout_rows", per_token)
    assert isinstance(parse_design(LAYOUT_CORPUS[name]), CrossoverDesign)


def _refuse(*args):
    raise AssertionError("a reader that should not run was called")


def test_single_digit_layouts_and_patterns_are_sliced(monkeypatch):
    monkeypatch.setattr(designs, "_plain_ints", _refuse)
    monkeypatch.setattr(designs, "_layout_rows", _refuse)
    singles = [fixture(name) for name in FIXTURE_NAMES] + [
        extreme_design(6), williams_pair(5), williams_square(10)
    ]
    for d in singles:
        for text in (write_design(d), write_design(d).replace("\n", "\r\n")):
            back = parse_design(text)
            assert (back.t, back.p, back.s) == (d.t, d.p, d.s)
            np.testing.assert_array_equal(back.layout, d.layout)
        completion = tuple(1 + i % min(d.p, 9) for i in range(d.s))
        line = " ".join(map(str, completion))
        assert parse_pattern(line + "\r\n").completion == completion
        assert designs._pattern_row(line).tolist() == list(completion)


def test_two_digit_layouts_skip_the_byte_reader(monkeypatch):
    # a line of 2s-1 characters alone reaches it, so a layout with any
    # two-digit token costs no extra numpy call
    monkeypatch.setattr(designs, "_digit_ints", _refuse)
    for d in (williams_pair(15), williams_square(12), replicate(williams_pair(11), 2)):
        np.testing.assert_array_equal(parse_design(write_design(d)).layout, d.layout)


PATTERN_CORPUS = {
    "digits": "4 4 3 4\n",
    "crlf": "4 4 3 4\r\n",
    "no-newline": "4 4 3 4",
    "double-space": "4  4 3 4\n",
    "tab": "4\t4 3 4\n",
    "leading-zero": "04 4 3 4\n",
    "leading-zero-odd": "04 4 3\n",
    "trailing-space": "4 4 3 4 \n",
    "leading-space": " 4 4 3 4\n",
    "zero": "4 0 3 4\n",
    "nine": "4 9 3 4\n",
    "colon": "4 : 3 4\n",
    "slash": "4 / 3 4\n",
    "arabic": "4 ٣ 3 4\n",
    "two-digit": "4 10 3\n",
    "one": "3\n",
    "two-lines": "4 4\n3 4\n",
}


@pytest.mark.parametrize("name", PATTERN_CORPUS)
def test_pattern_corpus_readers_agree(name):
    text = PATTERN_CORPUS[name]
    fast, slow = _both_readers(parse_pattern, text)
    assert fast == slow
    fast, slow = _both_readers(lambda text: designs._pattern_row(text).tolist(), text)
    assert fast == slow


_TOKEN = st.sampled_from(
    ["0", "3", "11", "12", "007", "+3", "-1", "1_0", "٣", "x", "0" * 19 + "4", "9" * 19]
)
_SEP = st.sampled_from([" ", "  ", "\t", " \t"])
_EOL = st.sampled_from(["\n", "\r\n", "\n\n", "\n \n"])


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.lists(_TOKEN, min_size=2, max_size=4), min_size=2, max_size=3),
    sep=_SEP,
    eol=_EOL,
)
def test_layout_readers_agree_on_generated_bodies(rows, sep, eol):
    body = eol.join(sep.join(r) for r in rows)
    text = f"{TEXT_FORMAT_HEADER}\nt=12 p={len(rows)} s=3\n{body}\n"
    fast, slow = _both_readers(parse_design, text)
    assert _same(fast, slow), (fast, slow)


@settings(max_examples=100, deadline=None)
@given(toks=st.lists(_TOKEN, min_size=1, max_size=5), sep=_SEP, eol=_EOL)
def test_pattern_readers_agree(toks, sep, eol):
    text = sep.join(toks) + eol
    fast, slow = _both_readers(parse_pattern, text)
    assert fast == slow
