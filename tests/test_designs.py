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


def _changed(design, cells=(), periods=None, grouping=None):
    """design with cells (period index, subject, treatment) set, two
    periods swapped, or a new grouping."""
    layout = design.layout.copy()
    for j, i, v in cells:
        layout[j, i] = v
    if periods is not None:
        layout[list(periods)] = layout[list(periods[::-1])]
    return CrossoverDesign(
        t=design.t,
        p=design.p,
        s=design.s,
        layout=layout,
        grouping=grouping or design.grouping,
    )


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


def _cycle(periods, cycles):
    return f"block 0, periods {periods}: cycle type {cycles} is not a single 4-cycle"


def _block(l, j, counts):
    return f"block {l} is not uniform in period {j}: treatment counts {counts}"


@pytest.mark.parametrize(
    "design, m, failures",
    [
        (fixture("d2plan"), 2, (_cycle("3->2", [2, 2]), _cycle("2->3", [2, 2]))),
        (
            _changed(fixture("d3plan"), grouping=((0, 1, 2, 3, 5), (4, 6, 7, 8, 9))),
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


def test_pattern_validation():
    with pytest.raises(ValueError, match="at least period 1"):
        DropoutPattern((0, 4, 4, 4))
    with pytest.raises(ValueError, match="does not match"):
        DropoutPattern((4, 4)).check_against(fixture("d2plan"))
    with pytest.raises(ValueError, match="exceeds"):
        DropoutPattern((5, 4, 4, 4)).check_against(fixture("d2plan"))


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


def test_grouping_must_partition():
    with pytest.raises(ValueError, match="partition"):
        CrossoverDesign(
            t=2,
            p=2,
            s=4,
            layout=np.array([[0, 1, 0, 1], [1, 0, 1, 0]]),
            grouping=((0, 1), (1, 2)),
        )


def test_text_format_round_trip():
    for name in ("d1plan", "d2plan", "d3plan"):
        d = fixture(name)
        back = parse_design(write_design(d))
        assert back.t == d.t and back.p == d.p and back.s == d.s
        np.testing.assert_array_equal(back.layout, d.layout)


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
