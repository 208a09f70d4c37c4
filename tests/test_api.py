"""The public surface: the names xover exports and the attributes its
result types offer."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import xover
from xover.cli import main
from xover.construct import fixture
from xover.designs import CrossoverDesign, DropoutPattern, incidences
from xover.info import (
    direct_info_complete,
    direct_info_pattern,
    direct_info_patterns,
    joint_info_orthogonal,
    joint_info_projection,
    minimal_closed_form,
)
from xover.metrics import a_criterion, against_plan


def test_all_lists_every_imported_public_name_once():
    assert [n for n, k in Counter(xover.__all__).items() if k > 1] == []
    for name in xover.__all__:
        assert hasattr(xover, name), name
    tree = ast.parse(Path(xover.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {n for n in imported if not n.startswith("_")}
    assert public == set(xover.__all__)


def test_design_constructor_takes_four_arguments():
    # a design is its dimensions and layout; its squares are its
    # contiguous runs of t subjects, not an option
    parameters = inspect.signature(CrossoverDesign).parameters
    assert list(parameters) == ["t", "p", "s", "layout"]


def test_result_types_keep_their_attributes():
    d = fixture("d3plan")
    t = d.t
    joint = joint_info_orthogonal(d)
    assert joint.c.shape == (2 * t, 2 * t)
    for name, rows, cols in (
        ("c11", slice(None, t), slice(None, t)),
        ("c12", slice(None, t), slice(t, None)),
        ("c22", slice(t, None), slice(t, None)),
    ):
        assert np.array_equal(getattr(joint, name), joint.c[rows, cols]), name

    closed = minimal_closed_form(d, 1)
    assert closed.a_matrix.shape == (t, t)
    assert isinstance(closed.lambda_min_a, float)
    assert closed.a_inverse is not None
    assert np.allclose(closed.a_matrix @ closed.a_inverse, np.eye(t))

    crit = a_criterion(direct_info_complete(d), t)
    assert crit.connected is True and crit.rank == t - 1
    assert crit.h == (t - 1) / crit.trace_mp
    assert crit.trace_mp == pytest.approx(float(np.sum(1.0 / crit.nonzero)))
    # the spectrum of the t-1 contrasts, without the structural zero
    assert crit.eigenvalues.shape == (t - 1,)
    assert crit.nonzero.shape == (t - 1,)
    assert isinstance(crit.threshold, float) and crit.threshold > 0


# Every entry point that takes completion periods reports a bad row of
# d2plan (t = p = s = 4) with the one validator's message.
COMPLETION_FAULTS = {
    "period-0": ((4, 0, 4, 4), "every subject must complete at least period 1"),
    "length": ((4, 4, 4), "pattern length 3 does not match s=4"),
    "above-p": ((4, 5, 4, 4), "completion period exceeds p=4"),
    # numpy stores the first as object and the second as float64
    "huge": ((10**30, 4, 4, 4), "completion period exceeds p=4"),
    "past-int64": ((2**63, 4, 4, 4), "completion period exceeds p=4"),
    "huge-negative": (
        (-(10**30), 4, 4, 4),
        "every subject must complete at least period 1",
    ),
    "float": (
        (4, np.float64(3), 4, 4),
        "completion period must be an integer, got float64",
    ),
    # numpy stores the bool as an integer, as it would store 1
    "bool": ((4, True, 4, 4), "completion period must be an integer, got bool"),
}
COMPLETION_ENTRY_POINTS = {
    "direct_info_patterns": lambda d, row: direct_info_patterns(d, [row]),
    "against_plan": lambda d, row: against_plan(d, [row]),
    "direct_info_pattern": lambda d, row: direct_info_pattern(d, DropoutPattern(row)),
    "joint_info_projection": (
        lambda d, row: joint_info_projection(d, DropoutPattern(row))
    ),
    "incidences": lambda d, row: incidences(d, DropoutPattern(row)),
    "evaluate --pattern": None,
}


@pytest.mark.parametrize(
    "entry, fault",
    [
        (entry, fault)
        for entry in COMPLETION_ENTRY_POINTS
        for fault in COMPLETION_FAULTS
        # a pattern file holds text, whose rows are integers by construction:
        # a float or bool token is a parse fault, worded with its line and column
        if entry != "evaluate --pattern" or fault not in ("float", "bool")
    ],
)
def test_every_entry_point_words_a_bad_completion_row_alike(
    tmp_path, capsys, entry, fault
):
    row, message = COMPLETION_FAULTS[fault]
    d = fixture("d2plan")
    if entry == "evaluate --pattern":
        design, pattern = tmp_path / "d.txt", tmp_path / "pattern.txt"
        design.write_text(xover.write_design(d))
        pattern.write_text(" ".join(map(str, row)) + "\n")
        assert main(["evaluate", str(design), "--pattern", str(pattern)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    with pytest.raises(ValueError) as info:
        COMPLETION_ENTRY_POINTS[entry](d, row)
    assert str(info.value) == message


# Faults of the public API that no other test reaches, each with its
# exact message.
API_FAULTS = {
    "design-size": (
        lambda: CrossoverDesign(t=0, p=1, s=1, layout=[[0]]),
        "t, p, s must all be positive",
    ),
    "layout-range": (
        lambda: CrossoverDesign(t=2, p=1, s=2, layout=[[0, 2]]),
        "layout entries must lie in 0..1",
    ),
    "tail-index": (
        lambda: xover.coincidence(fixture("d2plan"), 0, 4),
        "tail index 4 out of range 0..3",
    ),
    "dimension-line": (
        lambda: xover.parse_design(xover.designs.TEXT_FORMAT_HEADER),
        "line 2: missing dimension line",
    ),
    "empty-union": (lambda: xover.union([]), "union requires at least one design"),
    "cycle-type-shape": (
        lambda: xover.cycle_type(np.zeros((2, 3), dtype=int)),
        "expected a square matrix, got shape (2, 3)",
    ),
    "cycle-type-entries": (
        lambda: xover.cycle_type([[2, 0], [0, 1]]),
        "not a permutation matrix: entries outside {0,1}",
    ),
    "eigensym-stack": (
        lambda: xover.eigensym(np.zeros((2, 3, 3))),
        "expected a square matrix, got shape (2, 3, 3)",
    ),
    "efficiency-trace": (
        lambda: xover.efficiency_lower_bound(0.0, 8, 1, 1),
        "trace of the Moore-Penrose inverse must be positive",
    ),
    "period-bool": (
        lambda: xover.period_slice(xover.williams_square(4), True),
        "period must be an integer, got bool",
    ),
    "period-float": (
        lambda: xover.period_slice(xover.williams_square(4), 1.5),
        "period must be an integer, got float",
    ),
    "tail-index-float": (
        lambda: xover.coincidence(fixture("d2plan"), 0.5, 1),
        "tail index must be an integer, got float",
    ),
    "tail-index-bool": (
        lambda: xover.coincidence(fixture("d2plan"), 0, True),
        "tail index must be an integer, got bool",
    ),
    # numpy stores this list as int64
    "relabel-bool": (
        lambda: xover.relabel(xover.williams_square(4), [True, False, 2, 3]),
        "perm must be a bijection on 0..3",
    ),
    "bounds-t-float": (
        lambda: xover.bounds_report(6.5, 1),
        "t must be an integer, got float",
    ),
    "bounds-m-bool": (
        lambda: xover.bounds_report(8, True),
        "m must be an integer, got bool",
    ),
    "connect-t-float": (
        lambda: xover.connect_condition(6.5, 1),
        "t must be an integer, got float",
    ),
    "connect-m-float": (
        lambda: xover.connect_condition(8, 1.0),
        "m must be an integer, got float",
    ),
    "t-star-bool": (lambda: xover.t_star(True), "m must be an integer, got bool"),
    "class-ab-t-float": (
        lambda: xover.class_ab_spectrum(5.0, "A"),
        "t must be an integer, got float",
    ),
    "class-ab-ml-t-bool": (
        lambda: xover.class_ab_ml(True, "B"),
        "t must be an integer, got bool",
    ),
    "extreme-ml-t-float": (
        lambda: xover.extreme_ml(6.5),
        "t must be an integer, got float",
    ),
    # str() refuses more than 4300 digits; the message still names t
    "extreme-ml-t-huge-negative": (
        lambda: xover.extreme_ml(-(10**5000)),
        "requires t >= 4, got t=-... (more than 4300 digits)",
    ),
    "class-ab-t-huge-negative": (
        lambda: xover.class_ab_spectrum(-(10**5000), "A"),
        "requires t >= 4, got t=-... (more than 4300 digits)",
    ),
    "class-ab-ml-t-huge-negative": (
        lambda: xover.class_ab_ml(-(10**5000), "B"),
        "requires t >= 5, got t=-... (more than 4300 digits)"
        " (truncation disconnected)",
    ),
    "el-ab-t-huge-negative": (
        lambda: xover.el_ab(-(10**5000), "A"),
        "requires t >= 5, got t=-... (more than 4300 digits)"
        " (truncation disconnected)",
    ),
    "efficiency-t-float": (
        lambda: xover.efficiency_lower_bound(1.0, 8.0, 1, 1),
        "t must be an integer, got float",
    ),
    "efficiency-m-bool": (
        lambda: xover.efficiency_lower_bound(1.0, 8, True, 1),
        "m must be an integer, got bool",
    ),
    "efficiency-g-none": (
        lambda: xover.efficiency_lower_bound(1.0, 8, 1, None),
        "g must be an integer, got NoneType",
    ),
    "efficiency-g-zero": (
        lambda: xover.efficiency_lower_bound(1.0, 8, 1, 0),
        "requires g >= 1, got g=0",
    ),
    "efficiency-trace-none": (
        lambda: xover.efficiency_lower_bound(None, 8, 1, 1),
        "min_trace_mp must be a real number, got NoneType",
    ),
    "loss-trace-none": (
        lambda: xover.loss(None, 1.0),
        "plan_trace_mp must be a real number, got NoneType",
    ),
    "loss-imp-trace-none": (
        lambda: xover.loss(1.0, None),
        "imp_trace_mp must be a real number, got NoneType",
    ),
    "loss-imp-trace-list": (
        lambda: xover.loss(1.0, [0.5, None]),
        "imp_trace_mp must be a real number, got list",
    ),
    "loss-imp-trace-str": (
        lambda: xover.loss(1.0, "x"),
        "imp_trace_mp must be a real number, got str",
    ),
    "a-criterion-stack": (
        lambda: a_criterion(np.zeros((2, 4, 4)), 4),
        "expected a square matrix, got shape (2, 4, 4)",
    ),
    "a-criterion-shape": (
        lambda: a_criterion(np.zeros((5, 4)), 4),
        "expected a square matrix, got shape (5, 4)",
    ),
    "a-criterion-order": (
        lambda: a_criterion(direct_info_pattern(fixture("d3plan")), 6),
        "matrix order 5 does not match t=6",
    ),
    "a-criteria-t-float": (
        lambda: xover.a_criteria(direct_info_complete(fixture("d3plan"))[None], 5.0),
        "t must be an integer, got float",
    ),
    "contrast-length": (
        lambda: xover.estimable(xover.direct_info_complete(fixture("d2plan")), [1, -1]),
        "contrast length 2 does not match t=4",
    ),
}


@pytest.mark.parametrize("fault", API_FAULTS)
def test_api_faults_are_worded_exactly(fault):
    call, message = API_FAULTS[fault]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# Each public callable that takes an integer t, p, s, m, n, g, j, k,
# reps or seed, with valid values for its other arguments; None marks a
# callable whose parameter of that name is a matrix.
INTEGER_PARAMETERS = ("t", "p", "s", "m", "n", "g", "j", "k", "reps", "seed")
D2 = fixture("d2plan")
C2 = direct_info_complete(D2)
INTEGER_CALLS = {
    "CrossoverDesign": dict(t=2, p=1, s=2, layout=[[0, 1]]),
    "DropoutModel": dict(m=1, hazards=(0.1,)),
    "a_criteria": dict(c_d=C2[None], t=4),
    "a_criterion": dict(c_d=C2, t=4),
    "bounds_report": dict(t=8, m=1),
    "check_type_wm": dict(design=D2, m=1),
    "class_ab_ml": dict(t=5, klass="A"),
    "class_ab_spectrum": dict(t=5, klass="A"),
    "coincidence": dict(design=D2, j=0, k=1),
    "connect_condition": dict(t=8, m=1),
    "direct_info_minimal": dict(design=D2, m=1),
    "efficiency_bounds": dict(t=8, m=1),
    "efficiency_lower_bound": dict(min_trace_mp=1.0, t=8, m=1, g=1),
    "eigensym": None,
    "el_ab": dict(t=5, klass="A"),
    "enumerate_exact": dict(design=D2, hazard=0.1, m=1),
    "extreme_design": dict(t=4),
    "extreme_ml": dict(t=5),
    "is_psd": None,
    "max_loss": dict(design=D2, m=1),
    "minimal_closed_form": dict(design=D2, m=1),
    "moore_penrose": None,
    "mtr": dict(t=8, m=1),
    "period_slice": dict(design=D2, j=1),
    "replicate": dict(design=D2, reps=2),
    "simulate": dict(design=D2, model=xover.DropoutModel(1, (0.1,)), n=2, seed=0),
    "t_star": dict(m=1),
    "theta_lower": dict(t=8, m=1),
    "theta_lower_star": dict(t=8, m=1),
    "truncate": dict(design=D2, m=1),
    "truncation": dict(design=D2, m=1),
    "uml": dict(t=8, m=1),
    "williams_pair": dict(t=5),
    "williams_square": dict(t=4),
}


def _integer_parameters(name):
    call = getattr(xover, name)
    parameters = inspect.signature(call).parameters if callable(call) else {}
    return [q for q in parameters if q in INTEGER_PARAMETERS]


@pytest.mark.parametrize(
    "name", [name for name in xover.__all__ if _integer_parameters(name)]
)
def test_every_integer_parameter_refuses_a_bool_and_a_float(name):
    integers = _integer_parameters(name)
    assert name in INTEGER_CALLS, f"{name} takes {integers}: give it a table entry"
    kwargs = INTEGER_CALLS[name]
    if kwargs is None:
        return
    call = getattr(xover, name)
    call(**kwargs)
    for q in integers:
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match="must be an integer"):
                call(**{**kwargs, q: bad})
