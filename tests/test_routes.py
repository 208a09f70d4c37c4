"""The library computes with the projection route; the count route checks it.

Plan, truncated and dropout information all come from
direct_info_pattern.  The incidence-count route (incidences,
joint_info_orthogonal, direct_info_complete) is kept only as an
independent reference, and these tests use it as one.
"""

import sys

import numpy as np
import pytest

from xover.cli import main
from xover.construct import (
    extreme_design,
    fixture,
    replicate,
    williams_pair,
    williams_square,
)
from xover.designs import CrossoverDesign, truncate, truncation, write_design
from xover.info import direct_info_complete, direct_info_pattern
from xover.metrics import a_criterion, implemented_loss, max_loss
from xover.simulate import DropoutModel, enumerate_exact, simulate

COUNT_ROUTE = ("incidences", "joint_info_orthogonal", "direct_info_complete")

# p = t = 2: uniform-balanced, but no tail length 1 <= m <= p-2 exists
P2 = CrossoverDesign(t=2, p=2, s=2, layout=[[0, 1], [1, 0]])


def _evaluate_argvs(tmp_path, d):
    """Plain, --truncate 1 and --pattern argv lists for evaluating d."""
    design = tmp_path / "d.txt"
    design.write_text(write_design(d))
    pattern = tmp_path / "pat.txt"
    pattern.write_text(" ".join(str(d.p - i % 2) for i in range(d.s)) + "\n")
    return [
        ["evaluate", str(design)],
        ["evaluate", str(design), "--truncate", "1"],
        ["evaluate", str(design), "--pattern", str(pattern)],
    ]


def _raise(*args, **kwargs):
    raise AssertionError("the count route was called")


def test_truncation_is_the_full_tail_pattern():
    d = williams_pair(5)
    assert truncation(d, 2).completion == (3,) * 10
    np.testing.assert_allclose(
        direct_info_pattern(d, truncation(d, 2)),
        direct_info_complete(truncate(d, 2)),
        atol=1e-12,
    )


@pytest.mark.parametrize(
    "design, m", [(williams_pair(5), 4), (williams_square(4), 3), (P2, 1)]
)
def test_tail_range_errors(design, m):
    message = f"m={m} out of range 1..{design.p - 2}"
    for call in (
        lambda: max_loss(design, m),
        lambda: simulate(design, DropoutModel(m, (0.5,) * m), 10),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        max_loss(design, 0)
    assert str(info.value) == f"m=0 out of range 1..{design.p - 2}"


def test_enumerate_exact_rejects_two_period_design():
    # enumeration has no m of its own to check: the truncation must raise
    with pytest.raises(ValueError) as info:
        enumerate_exact(P2, 0.5)
    assert str(info.value) == "m=1 out of range 1..0"


def test_production_never_calls_the_count_route(monkeypatch, tmp_path, capsys):
    for name, module in list(sys.modules.items()):
        if name == "xover" or name.startswith("xover."):
            for attr in COUNT_ROUTE:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, _raise)
    d = fixture("d3plan")
    assert not max_loss(d, 1).disconnected
    assert simulate(d, DropoutModel(1, (0.3,)), 50, seed=1).ordering_violations == 0
    assert enumerate_exact(fixture("d2plan"), 0.5).losses.shape == (16,)
    for argv in _evaluate_argvs(tmp_path, d):
        assert main(argv) == 0, capsys.readouterr().err
    # the patches are live: the count route itself now fails
    with pytest.raises(AssertionError, match="count route"):
        direct_info_complete(d)


@pytest.mark.parametrize(
    "design",
    [
        fixture("d2plan"),
        fixture("d3plan"),
        williams_pair(5),
        williams_pair(7),
        replicate(williams_square(6), 2),
        extreme_design(4),
    ],
    ids=["d2plan", "d3plan", "pair5", "pair7", "square6x2", "extreme4"],
)
def test_max_loss_matches_count_route(design):
    plan = a_criterion(direct_info_complete(design), design.t)
    for m in range(1, design.p - 1):
        mini = a_criterion(direct_info_complete(truncate(design, m)), design.t)
        value, disconnected = implemented_loss(plan, mini)
        got = max_loss(design, m)
        assert got.disconnected == disconnected
        assert abs(got.value - value) <= 1e-12


def test_evaluate_computes_each_matrix_and_check_once(monkeypatch, tmp_path, capsys):
    cli, designs = sys.modules["xover.cli"], sys.modules["xover.designs"]
    counts = {}

    def counting(module, attr):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            counts[attr] = counts.get(attr, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    validate = counting(designs, "validate_ubrmd")
    monkeypatch.setattr(designs, "validate_ubrmd", validate)
    monkeypatch.setattr(cli, "validate_ubrmd", validate)
    monkeypatch.setattr(cli, "direct_info_pattern", counting(cli, "direct_info_pattern"))
    monkeypatch.setattr(cli, "a_criterion", counting(cli, "a_criterion"))
    # classify also validates the sub-squares of replicated layouts; the
    # all-sequences design has none, so every count here is of one design
    plain, truncated, pattern = _evaluate_argvs(tmp_path, extreme_design(4))
    for argv, matrices in ((plain, 1), (truncated, 2), (pattern, 2)):
        counts.clear()
        assert main(argv) == 0
        assert counts == {
            "validate_ubrmd": 1,
            "direct_info_pattern": matrices,
            "a_criterion": matrices,
        }, argv
    capsys.readouterr()
