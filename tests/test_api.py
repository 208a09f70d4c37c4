"""The public surface: the names xover exports and the attributes its
result types offer."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import xover
from xover.construct import fixture
from xover.designs import CrossoverDesign
from xover.info import direct_info_complete, joint_info_orthogonal, minimal_closed_form
from xover.metrics import a_criterion


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
    assert np.array_equal(closed.joint.c, closed.c)
    assert closed.a_matrix.shape == (t, t)
    assert isinstance(closed.lambda_min_a, float)
    assert closed.a_inverse is not None
    assert np.allclose(closed.a_matrix @ closed.a_inverse, np.eye(t))

    crit = a_criterion(direct_info_complete(d), t)
    assert crit.connected is True and crit.rank == t - 1
    assert crit.h == (t - 1) / crit.trace_mp
    assert crit.trace_mp == pytest.approx(float(np.sum(1.0 / crit.spectrum.nonzero)))
    # the spectrum of the t-1 contrasts, without the structural zero
    assert crit.eigenvalues.shape == (t - 1,)
    assert crit.spectrum.nonzero.shape == (t - 1,)
    assert isinstance(crit.threshold, float) and crit.threshold > 0
