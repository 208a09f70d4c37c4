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
    "float": (
        (4, np.float64(3), 4, 4),
        "completion period must be an integer, got float64",
    ),
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
        # a float token is a parse fault, worded with its line and column
        if (entry, fault) != ("evaluate --pattern", "float")
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
