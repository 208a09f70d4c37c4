"""The library computes with the projection route; the count route checks it.

Plan, truncated and dropout information all come from one stacked call,
metrics.against_plan.  The incidence-count route (incidences,
joint_info_orthogonal, direct_info_complete) is kept only as an
independent reference, and these tests use it as one.
"""

import functools
import json
import re
import sys
from pathlib import Path

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
from xover.designs import (
    CrossoverDesign,
    DropoutPattern,
    check_tail,
    check_type_wm,
    classify,
    incidences,
    parse_design,
    parse_pattern,
    require_ubrmd,
    truncate,
    truncation,
    validate_ubrmd,
    write_design,
)
from xover.info import (
    direct_info_complete,
    direct_info_pattern,
    joint_info_projection,
    minimal_closed_form,
    residual_info_minimal_m1,
)
from xover.metrics import a_criterion, against_plan, implemented_losses, max_loss
from xover.simulate import DropoutModel, enumerate_exact, simulate

COUNT_ROUTE = ("incidences", "joint_info_orthogonal", "direct_info_complete")
SINGLE_MATRIX_API = (
    "direct_info_pattern",
    "joint_info_projection",
    "a_criterion",
)

# p = t = 2: uniform-balanced, but no tail length 1 <= m <= p-2 exists
P2 = CrossoverDesign(t=2, p=2, s=2, layout=[[0, 1], [1, 0]])
NO_TAIL = "a design of p=2 periods has no tail to drop (m must lie in 1..p-2)"


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
    # a design of p <= 2 periods has no tail length at all, so its
    # message names no range, whatever m is
    def message(m):
        if design.p <= 2:
            return NO_TAIL
        return f"m={m} out of range 1..{design.p - 2}"

    for call in (
        lambda: max_loss(design, m),
        lambda: simulate(design, DropoutModel(m, (0.5,) * m), 10),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message(m)
    with pytest.raises(ValueError) as info:
        max_loss(design, 0)
    assert str(info.value) == message(0)


def test_enumerate_exact_rejects_two_period_design():
    # enumeration has no m of its own to check: the truncation must raise
    with pytest.raises(ValueError) as info:
        enumerate_exact(P2, 0.5)
    assert str(info.value) == NO_TAIL


# Every entry that takes a tail length, called on a design and an m
# outside check_tail's range; the one-period entries run at m = 1 only.
TAIL_ENTRIES = {
    "check_tail": check_tail,
    "truncation": truncation,
    "truncate": truncate,
    "check_type_wm": check_type_wm,
    "minimal_closed_form": minimal_closed_form,
    "max_loss": max_loss,
    "simulate": lambda d, m: simulate(d, DropoutModel(m, (0.5,) * int(m)), 10),
}
ONE_PERIOD_ENTRIES = {
    "residual_info_minimal_m1": residual_info_minimal_m1,
    "enumerate_exact": lambda d: enumerate_exact(d, 0.5, m=1),
}
OUT_OF_TAIL = {"p2-m1": (P2, 1), "square4-m3": (williams_square(4), 3)}
# an m that is not an integer, even one inside the range, fails first
NOT_INTEGER_M = {
    "pair5-m1.5": (williams_pair(5), 1.5),
    "pair5-m1.0": (williams_pair(5), 1.0),
    "pair5-mTrue": (williams_pair(5), True),
    "p2-m1.0": (P2, 1.0),
}
TAIL_CASES = {**OUT_OF_TAIL, **NOT_INTEGER_M}


def _tail_message(design, m):
    with pytest.raises(ValueError) as info:
        check_tail(design, m)
    return str(info.value)


@pytest.mark.parametrize(
    "entry, case",
    [(e, c) for e in TAIL_ENTRIES for c in TAIL_CASES]
    + [(e, "p2-m1") for e in ONE_PERIOD_ENTRIES],
)
def test_every_tail_entry_raises_check_tails_message(entry, case):
    # check_tail owns the range and type verdicts: a copy of it that
    # words them another way, or lets a float or bool m through, fails here
    design, m = TAIL_CASES[case]
    if entry in TAIL_ENTRIES:
        call = functools.partial(TAIL_ENTRIES[entry], design, m)
    else:
        call = functools.partial(ONE_PERIOD_ENTRIES[entry], design)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == _tail_message(design, m)
    if case in NOT_INTEGER_M:
        assert str(info.value) == f"m must be an integer, got {type(m).__name__}"


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
@pytest.mark.parametrize("case", OUT_OF_TAIL)
def test_cli_tail_arguments_raise_check_tails_message(
    command, case, tmp_path, capsys
):
    design, m = OUT_OF_TAIL[case]
    path = tmp_path / "d.txt"
    path.write_text(write_design(design))
    if command == "evaluate":
        argv = ["evaluate", str(path), "--truncate", str(m)]
    else:
        hazards = ",".join(["0.5"] * m)
        argv = ["simulate", str(path), "--m", str(m), "--hazards", hazards]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {_tail_message(design, m)}\n"


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


def test_production_never_calls_the_single_matrix_api(monkeypatch, tmp_path, capsys):
    # the B = 1 functions are public API and test oracles; every library
    # verdict goes through metrics.against_plan
    def _single(*args, **kwargs):
        raise AssertionError("a B = 1 function was called")

    for name, module in list(sys.modules.items()):
        if name == "xover" or name.startswith("xover."):
            for attr in SINGLE_MATRIX_API:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, _single)
    d = fixture("d3plan")
    assert not max_loss(d, 1).disconnected
    assert simulate(d, DropoutModel(1, (0.3,)), 50, seed=1).ordering_violations == 0
    assert enumerate_exact(fixture("d2plan"), 0.5).losses.shape == (16,)
    for argv in _evaluate_argvs(tmp_path, d):
        assert main(argv) == 0, capsys.readouterr().err
    with pytest.raises(AssertionError, match="B = 1"):
        sys.modules["xover.metrics"].a_criterion(direct_info_complete(d), d.t)


def test_evaluate_carries_subjects_as_arrays(monkeypatch, tmp_path, capsys):
    # the pattern reaches the engine as an int row and the blocks as one
    # index array: no DropoutPattern and no tuple per block or subject
    def _objects(*args, **kwargs):
        raise AssertionError("a per-subject object was built")

    for name, module in list(sys.modules.items()):
        if name == "xover" or name.startswith("xover."):
            if hasattr(module, "DropoutPattern"):
                monkeypatch.setattr(module, "DropoutPattern", _objects)
    monkeypatch.setattr(CrossoverDesign, "blocks", _objects)
    d = extreme_design(6)
    for argv in _evaluate_argvs(tmp_path, d):
        assert main(argv) == 0, capsys.readouterr().err
        assert json.loads(capsys.readouterr().out)["classification"] == "UBRMD"
    max_loss(d, 1)
    # the patches are live: the tuple API itself now fails
    with pytest.raises(AssertionError, match="per-subject"):
        parse_pattern("6 5 6\n")
    with pytest.raises(AssertionError, match="per-subject"):
        d.blocks()


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
        value = implemented_losses(
            plan.trace_mp, np.array([mini.trace_mp]), np.array([mini.connected])
        )[0]
        got = max_loss(design, m)
        assert got.disconnected == (not mini.connected)
        assert abs(got.value - value) <= 1e-12


def test_evaluate_computes_each_matrix_and_check_once(monkeypatch, tmp_path, capsys):
    designs, metrics = sys.modules["xover.designs"], sys.modules["xover.metrics"]
    calls = []

    def counting(module, attr, size=lambda *args: None):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls.append((attr, size(*args)))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)
        return wrapper

    validate = counting(designs, "validate_ubrmd")
    monkeypatch.setattr(sys.modules["xover.cli"], "validate_ubrmd", validate)
    counting(metrics, "_direct_info_rows", lambda d, rows: len(rows))
    counting(metrics, "a_criteria", lambda c, t: len(c))
    # classify validates nothing itself; see the test below for layouts
    # of copied squares and pairs
    plain, truncated, pattern = _evaluate_argvs(tmp_path, extreme_design(4))
    for argv, rows in ((plain, 1), (truncated, 2), (pattern, 2)):
        calls.clear()
        assert main(argv) == 0
        assert sorted(calls) == [
            ("_direct_info_rows", rows),
            ("a_criteria", rows),
            ("validate_ubrmd", None),
        ], argv
    capsys.readouterr()


def test_evaluate_validates_two_group_layout_once(monkeypatch, tmp_path, capsys):
    # classify reads the balance of a copied square (ClassA) or pair of
    # squares (ClassB) off the design's own, which evaluate has validated
    cli, designs = sys.modules["xover.cli"], sys.modules["xover.designs"]
    calls = []
    validate = designs.validate_ubrmd

    def counting(design):
        calls.append(design.s)
        return validate(design)

    monkeypatch.setattr(designs, "validate_ubrmd", counting)
    monkeypatch.setattr(cli, "validate_ubrmd", counting)
    for design, klass in (
        (fixture("d3plan"), "ClassB-W1"),
        (replicate(williams_square(6), 2), "ClassA-W1"),
        (replicate(williams_pair(5), 2), "ClassB-W1"),
    ):
        for argv in _evaluate_argvs(tmp_path, design):
            calls.clear()
            assert main(argv) == 0
            assert calls == [design.s], argv
            assert f'"classification": "{klass}"' in capsys.readouterr().out


def test_balance_report_is_made_once_per_design(monkeypatch):
    # validate_ubrmd's report is a cached property of the design: every
    # balance verdict of one design object reads the one report
    made = []
    report = CrossoverDesign._validation.func

    def counting(design):
        made.append(design.s)
        return report(design)

    validation = functools.cached_property(counting)
    validation.__set_name__(CrossoverDesign, "_validation")
    monkeypatch.setattr(CrossoverDesign, "_validation", validation)
    d = fixture("d3plan")
    first = validate_ubrmd(d)
    require_ubrmd(d)
    assert classify(d) == "ClassB-W1"
    assert check_type_wm(d, 1).ok
    assert simulate(d, DropoutModel(1, (0.3,)), 20, seed=1).replicates == 20
    minimal_closed_form(d, 1)
    assert validate_ubrmd(d) is first
    assert made == [d.s]
    # another object of the same layout makes its own report
    assert classify(fixture("d3plan")) == "ClassB-W1"
    assert made == [d.s, d.s]


def test_evaluate_makes_each_tail_table_once(monkeypatch, tmp_path, capsys):
    # classify and --truncate's type-W verdict read one m = 1 table
    designs = sys.modules["xover.designs"]
    made = []
    table = designs._tail_table

    def counting(design, m):
        made.append(m)
        return table(design, m)

    monkeypatch.setattr(designs, "_tail_table", counting)
    for design in (fixture("d3plan"), extreme_design(4), williams_pair(5)):
        plain, truncated, pattern = _evaluate_argvs(tmp_path, design)
        for argv in (plain, pattern, truncated):
            made.clear()
            assert main(argv) == 0
            assert made == [1], argv
    capsys.readouterr()


def test_cli_classifies_through_the_public_classify(monkeypatch, tmp_path, capsys):
    # construct and evaluate name the class through designs.classify, so
    # a tracer of the public verdicts sees the time spent on it
    cli = sys.modules["xover.cli"]
    assert not hasattr(sys.modules["xover.designs"], "_classify")
    calls = []
    classify_ = cli.classify

    def counting(design):
        calls.append(design.s)
        return classify_(design)

    monkeypatch.setattr(cli, "classify", counting)
    d = fixture("d3plan")
    out = tmp_path / "out.txt"
    assert main(["construct", "--fixture", "d3plan", "-o", str(out)]) == 0
    assert calls == [d.s]
    for argv in _evaluate_argvs(tmp_path, d):
        calls.clear()
        assert main(argv) == 0
        assert calls == [d.s], argv
    capsys.readouterr()


def test_closed_forms_count_the_tail_in_one_pairs_call(monkeypatch):
    # minimal_closed_form counts every coincidence matrix of the tail in
    # one stacked _pairs call, and calls coincidence not at all
    info = sys.modules["xover.info"]

    def _coincidence(*args, **kwargs):
        raise AssertionError("coincidence was called")

    for name, module in list(sys.modules.items()):
        if name == "xover" or name.startswith("xover."):
            if hasattr(module, "coincidence"):
                monkeypatch.setattr(module, "coincidence", _coincidence)
    shapes = []
    pairs = info._pairs

    def counting(a, b, t):
        out = pairs(a, b, t)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(info, "_pairs", counting)
    for d in (fixture("d3plan"), williams_pair(7), extreme_design(5)):
        for m in range(1, d.p - 1):
            shapes.clear()
            minimal_closed_form(d, m)
            assert shapes == [(m + 1, m + 1, d.t, d.t)], (d.t, m)
        shapes.clear()
        residual_info_minimal_m1(d)
        assert shapes == [(d.t, d.t)]


def test_cli_bounds_come_from_one_report_per_t(monkeypatch, tmp_path, capsys):
    # evaluate --truncate and tables 1-2 read every bound off one
    # bounds_report per t; table 3 takes one _class_ab_losses per (t, class)
    cli = sys.modules["xover.cli"]
    calls = []

    def counting(attr):
        fn = getattr(cli, attr)

        def wrapper(*args):
            calls.append((attr, *args))
            return fn(*args)

        monkeypatch.setattr(cli, attr, wrapper)

    counting("bounds_report")
    counting("_class_ab_losses")
    truncated = _evaluate_argvs(tmp_path, williams_square(6))[1]
    assert main(truncated) == 0
    assert calls == [("bounds_report", 6, 1)]
    for table, m, ts in ((1, 1, cli.TABLE1_T), (2, 2, cli.TABLE2_T)):
        calls.clear()
        assert main(["tables", "--table", str(table)]) == 0
        assert calls == [("bounds_report", t, m) for t in ts]
    calls.clear()
    assert main(["tables", "--table", "3"]) == 0
    assert calls == [("_class_ab_losses", t, k) for t, k in cli.TABLE3]
    capsys.readouterr()


def test_bounds_class_builds_one_spectrum_per_call(monkeypatch, capsys):
    # the report's spectrum is the one its class losses are taken from
    cli, metrics = sys.modules["xover.cli"], sys.modules["xover.metrics"]
    calls = []
    spectrum = metrics.class_ab_spectrum

    def counting(t, klass):
        calls.append((t, klass))
        return spectrum(t, klass)

    monkeypatch.setattr(cli, "class_ab_spectrum", counting)
    monkeypatch.setattr(metrics, "class_ab_spectrum", counting)
    for t, klass in ((4, "A"), (5, "B"), (10, "A"), (cli._MAX_CLASS_T, "B")):
        calls.clear()
        assert main(["bounds", "--t", str(t), "--class", klass]) == 0
        assert calls == [(t, klass)]
    capsys.readouterr()


def test_bounds_report_checks_t_m_once(monkeypatch):
    # every bound of a bounds_report is computed from one (t, m) check
    metrics = sys.modules["xover.metrics"]
    calls = []
    check = metrics._check_t_m

    def counting(t, m):
        calls.append((t, m))
        return check(t, m)

    monkeypatch.setattr(metrics, "_check_t_m", counting)
    for t, m in ((5, 1), (10, 2), (16, 2)):
        calls.clear()
        metrics.bounds_report(t, m)
        assert calls == [(t, m)]


@pytest.mark.parametrize(
    "entry", [direct_info_pattern, joint_info_projection, incidences]
)
def test_a_built_pattern_is_not_checked_again(monkeypatch, entry):
    # DropoutPattern checked each period when it was built; the entry
    # points take its periods as an integer array, not scanned again
    designs = sys.modules["xover.designs"]
    d, pattern = fixture("d3plan"), DropoutPattern((5, 4) * 5)
    calls = []
    check = designs._check_integer

    def counting(name, value):
        calls.append(name)
        return check(name, value)

    monkeypatch.setattr(designs, "_check_integer", counting)
    entry(d, pattern)
    assert calls == []


@pytest.mark.parametrize("chunks", [1, 2])
def test_simulate_chunk_makes_one_ordering_check(monkeypatch, chunks):
    # at most one stacked is_psd call per chunk, on the Helmert contrasts
    # of exactly the differences the spectral certificate leaves open:
    # plan minus each pattern, then each pattern minus the truncation, in
    # stack order
    sim = sys.modules["xover.simulate"]
    events = []
    against_plan, is_psd = sim.against_plan, sim.is_psd

    def recording_plan(design, rows):
        out = against_plan(design, rows)
        events.append(("plan", out))
        return out

    def recording_psd(m, tol=1e-9):
        events.append(("psd", m))
        return is_psd(m, tol)

    monkeypatch.setattr(sim, "against_plan", recording_plan)
    monkeypatch.setattr(sim, "is_psd", recording_psd)
    # 20 replicates of 30 * 2 uniforms: one default chunk, or two of 10
    if chunks == 2:
        monkeypatch.setattr(sim, "_CHUNK_UNIFORMS", 600)
    d = williams_pair(15)
    result = simulate(d, DropoutModel(2, (0.2, 0.2)), 20, seed=1)
    assert result.ordering_violations == 0
    assert [kind for kind, _ in events if kind == "plan"] == ["plan"] * chunks
    checked = 0
    for k, (kind, out) in enumerate(events):
        if kind != "plan":
            continue
        c, crit = out[:2]
        checks = [m for kind, m in events[k + 1 : k + 3] if kind == "psd"]
        b = len(c) - 2
        upper = np.r_[np.zeros(b, dtype=int), np.arange(2, b + 2)]
        lower = np.r_[np.arange(2, b + 2), np.ones(b, dtype=int)]
        left = ~sim._loewner_certified(crit.eigenvalues, upper, lower)
        if not left.any():
            assert checks == []
            continue
        assert len(checks) == 1
        h = sys.modules["xover.linalg"]._helmert(d.t)
        diffs = h.T @ ((c[upper[left]] - c[lower[left]]) @ h)
        assert np.array_equal(checks[0], diffs)
        checked += 1
    # seed 1 leaves some pattern-minus-truncation differences open in
    # every chunk, so the single check is exercised
    assert checked == chunks
    assert [kind for kind, _ in events].count("psd") == checked


def test_engine_chunk_makes_one_cholesky_and_one_schur_call(monkeypatch):
    # the period block is swept in closed form, and the carryover sweep
    # of the chunk's stack is one stacked Cholesky on t-1 contrasts, with
    # no eigh where every row is certified
    info = sys.modules["xover.info"]
    eighs, choleskys, schurs = [], [], []
    eigh, cholesky, schur = np.linalg.eigh, np.linalg.cholesky, info.schur_complement

    def recording_eigh(a, *args, **kwargs):
        eighs.append(a.shape)
        return eigh(a, *args, **kwargs)

    def recording_cholesky(a, *args, **kwargs):
        choleskys.append(a.shape)
        return cholesky(a, *args, **kwargs)

    def recording_schur(m, k):
        schurs.append((m.shape, k))
        return schur(m, k)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
    monkeypatch.setattr(info, "schur_complement", recording_schur)
    d = williams_pair(15)
    ks = np.full((8, d.s), d.p)
    ks[1:, :4] = d.p - 2
    monkeypatch.setattr(info, "_CHUNK_BYTES", 1 << 30)  # one chunk
    assert info.direct_info_patterns(d, ks).shape == (8, d.t, d.t)
    assert eighs == []
    assert choleskys == [(8, d.t - 1, d.t - 1)]
    assert schurs == [((8, 2 * d.t, 2 * d.t), d.t)]


def test_shared_grams_are_formed_once_per_engine_call(monkeypatch):
    # the centred Grams of every contrast over all subjects, and their
    # running sums, are formed once per design, however many chunks the
    # budget makes and however many calls read them
    info = sys.modules["xover.info"]
    formed = []
    plan = info._plan

    def recording_plan(design):
        formed.append(design.p - 1)
        return plan(design)

    monkeypatch.setattr(info, "_plan", recording_plan)
    d = williams_pair(15)
    rng = np.random.default_rng(17)
    ks = rng.integers(d.p - 2, d.p + 1, (40, d.s))
    ks[0], ks[1] = d.p, d.p - 2  # the plan and the truncation lead, as in simulate
    results = []
    for budget in (1, info._CHUNK_BYTES, 1 << 30):
        monkeypatch.setattr(info, "_CHUNK_BYTES", budget)
        results.append(info.direct_info_patterns(d, ks))
    assert formed == [d.p - 1]
    for got in results[1:]:
        assert np.array_equal(got, results[0])


def _result_arrays(result):
    """Every array a result holds, through tuples and dataclasses."""
    if hasattr(result, "__dataclass_fields__"):
        result = [getattr(result, name) for name in result.__dataclass_fields__]
    if isinstance(result, (tuple, list)):
        return [a for part in result for a in _result_arrays(part)]
    return [np.asarray(result)]


def test_plan_is_built_once_per_design(monkeypatch):
    # the contrasts and their running Grams depend on the layout alone:
    # every engine call on one design object, of any budget or route,
    # reads the one read-only plan, and no result shares its memory
    info, sim = sys.modules["xover.info"], sys.modules["xover.simulate"]
    built = []
    plan = info._plan

    def counting_plan(design):
        built.append(plan(design))
        return built[-1]

    chunks = []

    def counting_chunks(design, rows):
        chunks.append(len(rows))
        return against_plan(design, rows)

    monkeypatch.setattr(info, "_plan", counting_plan)
    monkeypatch.setattr(sim, "against_plan", counting_chunks)
    d = extreme_design(5)
    rng = np.random.default_rng(35)
    ks = rng.integers(d.p - 2, d.p + 1, (12, d.s))
    results = []
    for budget in (1, info._CHUNK_BYTES, 1 << 30):
        monkeypatch.setattr(info, "_CHUNK_BYTES", budget)
        results.append(info.direct_info_patterns(d, ks))
    results.append(against_plan(d, ks))
    results.extend(max_loss(d, m) for m in range(1, d.p - 1))
    pattern = DropoutPattern(tuple(ks[0]))
    results.append(direct_info_pattern(d, pattern))
    results.append(joint_info_projection(d, pattern))
    # 4 replicates of s uniforms a chunk: three chunks of 12 replicates
    monkeypatch.setattr(sim, "_CHUNK_UNIFORMS", 4 * d.s)
    results.append(simulate(d, DropoutModel(1, (0.1,)), 12, seed=3))
    assert len(chunks) == 3
    assert len(built) == 1
    z, running = built[0]
    for array in (z, running):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]
        with pytest.raises(ValueError, match="read-only"):
            array[-1][:] = 0.0
    for value in _result_arrays(results):
        assert not np.shares_memory(value, z)
        assert not np.shares_memory(value, running)
    # another object of the same layout builds its own plan
    copy = parse_design(write_design(d))
    assert direct_info_pattern(copy, pattern).tobytes() == results[-3].tobytes()
    assert len(built) == 2
    assert built[1][0] is not z
    assert np.array_equal(built[1][0], z) and np.array_equal(built[1][1], running)


def test_uniform_rows_take_no_masked_gemm(monkeypatch, tmp_path, capsys):
    # on extreme_design(6) (s = 720, one masked row per chunk) the plan
    # and the truncation are read off the running sums and join the
    # first chunk's sweep: one Schur sweep per evaluate, and masked
    # contrasts only for a pattern's own dropout periods
    info = sys.modules["xover.info"]
    calls = []
    masked_gram, schur = info._masked_gram, info.schur_complement

    def recording_masked(zl, seen, l):
        calls.append(("masked", l, len(seen)))
        return masked_gram(zl, seen, l)

    def recording_schur(m, k):
        calls.append(("schur", len(m)))
        return schur(m, k)

    monkeypatch.setattr(info, "_masked_gram", recording_masked)
    monkeypatch.setattr(info, "schur_complement", recording_schur)
    d = extreme_design(6)
    design = tmp_path / "d.txt"
    design.write_text(write_design(d))
    pattern = tmp_path / "pat.txt"
    # 144 subjects drop one period early and 144 two periods early
    pattern.write_text(" ".join(str(d.p - i % 5 % 3) for i in range(d.s)) + "\n")
    runs = [
        (["evaluate", str(design)], [("schur", 1)]),
        (["evaluate", str(design), "--truncate", "1"], [("schur", 2)]),
        (
            ["evaluate", str(design), "--pattern", str(pattern)],
            [("masked", d.p - 2, 1), ("masked", d.p - 1, 1), ("schur", 2)],
        ),
    ]
    for argv, want in runs:
        calls.clear()
        assert main(argv) == 0, capsys.readouterr().err
        assert calls == want, argv
    calls.clear()
    max_loss(williams_pair(15), 2)
    assert calls == [("schur", 2)]
    # a mixed row first: the uniform rows after it ride in its chunk and
    # its masked contrasts take it alone, each row with its B = 1 bits
    row = np.array([d.p - i % 5 % 3 for i in range(d.s)])
    ks = np.vstack([row, np.full(d.s, d.p), np.full(d.s, d.p - 1)])
    calls.clear()
    batch = info.direct_info_patterns(d, ks)
    assert calls == [("masked", d.p - 2, 1), ("masked", d.p - 1, 1), ("schur", 3)]
    for b, k in enumerate(ks):
        single = direct_info_pattern(d, DropoutPattern(tuple(k)))
        assert batch[b].tobytes() == single.tobytes(), b


def test_masked_step_is_one_gemm_per_contrast_and_chunk(monkeypatch):
    # each chunk forms its masked contrasts l >= k0 through one helper
    # call each, in ascending l, and the helper's GEMM is one 2-D
    # (rows 2t, s) by (s, 2t) product, with no per-row matmul
    info = sys.modules["xover.info"]
    events, gemms = [], []
    masked_gram, schur, matmul = info._masked_gram, info.schur_complement, np.matmul

    def recording_masked(zl, seen, l):
        gemms.clear()
        out = masked_gram(zl, seen, l)
        events.append((l, len(seen), list(gemms)))
        return out

    def recording_matmul(a, b, *args, **kwargs):
        gemms.append((np.shape(a), np.shape(b)))
        return matmul(a, b, *args, **kwargs)

    def recording_schur(m, k):
        events.append(("schur", len(m)))
        return schur(m, k)

    monkeypatch.setattr(info, "_masked_gram", recording_masked)
    monkeypatch.setattr(info, "schur_complement", recording_schur)
    monkeypatch.setattr(np, "matmul", recording_matmul)
    d = williams_pair(15)
    t2, s = 2 * d.t, d.s
    rng = np.random.default_rng(18)
    ks = rng.integers(d.p - 2, d.p + 1, (20, d.s))
    k0 = int(ks.min())
    for budget, n_chunks in ((1 << 30, 1), (1, len(ks)), (info._CHUNK_BYTES, None)):
        monkeypatch.setattr(info, "_CHUNK_BYTES", budget)
        events.clear()
        info.direct_info_patterns(d, ks)
        schurs = [e[1] for e in events if e[0] == "schur"]
        assert sum(schurs) == len(ks)
        assert n_chunks is None or len(schurs) == n_chunks
        want = []
        for n in schurs:
            want += [(l, n, [((n * t2, s), (s, t2))]) for l in range(k0, d.p)]
            want.append(("schur", n))
        assert events == want, budget


def test_default_budget_sweeps_each_simulate_batch_in_few_chunks(monkeypatch):
    # at the default budget a simulate batch of williams_pair(15) (the
    # plan, the truncation and 20 mixed rows) is one chunk, and 40 mixed
    # rows of extreme_design(6) are chunks of 14, 14 and 12
    info = sys.modules["xover.info"]
    sweeps = []
    schur = info.schur_complement

    def recording_schur(m, k):
        sweeps.append(len(m))
        return schur(m, k)

    monkeypatch.setattr(info, "schur_complement", recording_schur)
    rng = np.random.default_rng(20071020)
    d = williams_pair(15)
    mixed = rng.integers(d.p - 2, d.p + 1, (20, d.s))
    mixed[:, :2] = d.p - 1, d.p
    ks = np.vstack([np.full(d.s, d.p), np.full(d.s, d.p - 2), mixed])
    info.direct_info_patterns(d, ks)
    assert sweeps == [22]
    sweeps.clear()
    d = extreme_design(6)
    mixed = rng.integers(d.p - 1, d.p + 1, (40, d.s))
    mixed[:, :2] = d.p - 1, d.p
    info.direct_info_patterns(d, mixed)
    assert sweeps == [14, 14, 12]


def test_docs_give_the_engines_own_rows_per_chunk():
    # README's table quotes the mixed rows a chunk takes, recomputed here
    # from info's own charge and budget
    info = sys.modules["xover.info"]
    construct = sys.modules["xover.construct"]

    def design(name):
        if "(" not in name:
            return fixture(name)
        fn, arg = re.fullmatch(r"(\w+)\((\d+)\)", name).groups()
        return getattr(construct, fn)(int(arg))

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    budget = re.search(r"as\s+many rows as fit in (\d+) (KiB|MiB)", readme)
    assert int(budget[1]) << (10 if budget[2] == "KiB" else 20) == info._CHUNK_BYTES
    row = r"^\| `(\w+(?:\(\d+\))?)` \| (\d+) \| (\d+) \| (\d+) \|$"
    rows = re.findall(row, readme, re.M)
    assert [name for name, *_ in rows] == [
        "d3plan",
        "williams_pair(15)",
        "extreme_design(6)",
        "extreme_design(7)",
    ]
    for name, t, s, n in rows:
        d = design(name)
        assert (d.t, d.s, info._chunk_rows(d)) == (int(t), int(s), int(n)), name


def test_readme_python_api_runs():
    # the README's API examples share one namespace, as a reader runs them
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Python API", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
