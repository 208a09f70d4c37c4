import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xover import cli, designs
from xover.cli import main
from xover.construct import (
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
    check_type_wm,
    classify,
    parse_design,
    write_design,
)
from xover.metrics import bounds_report, class_ab_ml, el_ab


def _write(tmp_path, name, design):
    path = tmp_path / name
    path.write_text(write_design(design))
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_construct_writes_all_40320_sequences_of_eight(capsys):
    assert main(["construct", "--extreme", "8"]) == 0
    back = parse_design(capsys.readouterr().out)
    assert (back.t, back.p, back.s) == (8, 8, 40320)
    np.testing.assert_array_equal(back.layout, extreme_design(8).layout)


def test_construct_williams_to_file(tmp_path, capsys):
    out = tmp_path / "w4.txt"
    assert main(["construct", "--williams", "4", "-o", str(out)]) == 0
    assert out.read_text() == write_design(williams_square(4))
    summary = capsys.readouterr().out
    assert "t=4 p=4 s=4 g=1" in summary
    assert "uniform-balanced: yes" in summary


def test_construct_writes_design_to_stdout(capsys):
    assert main(["construct", "--fixture", "d1plan"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(TEXT_FORMAT_HEADER)
    assert parse_design(captured.out).t == 3
    assert "uniform-balanced: yes" in captured.err


def test_construct_union_of_fixtures(tmp_path, capsys):
    out = tmp_path / "u.txt"
    rc = main(
        [
            "construct",
            "--fixture",
            "ex13sq1",
            "--fixture",
            "ex13sq2",
            "--union",
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    got = parse_design(out.read_text())
    want = union([fixture("ex13sq1"), fixture("ex13sq2")])
    assert got.t == 6 and got.s == 12
    assert (got.layout == want.layout).all()


def test_construct_union_accepts_design_files(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", fixture("ex13sq1"))
    b = _write(tmp_path, "b.txt", fixture("ex13sq2"))
    out = tmp_path / "u.txt"
    assert main(["construct", "--union", a, b, "-o", str(out)]) == 0
    assert parse_design(out.read_text()).s == 12


def test_construct_replication(tmp_path, capsys):
    out = tmp_path / "r.txt"
    assert main(["construct", "--williams", "6", "--reps", "2", "-o", str(out)]) == 0
    d = parse_design(out.read_text())
    assert d.s == 12 and d.g == 2
    assert "classification: ClassA-W1" in capsys.readouterr().out


def test_construct_argument_errors(tmp_path, capsys):
    assert main(["construct"]) == 2
    assert "no construction source" in capsys.readouterr().err
    assert main(["construct", "--williams", "5"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["construct", "--fixture", "ex13sq1", "--fixture", "ex13sq2"]) == 2
    assert "--union" in capsys.readouterr().err
    assert main(["construct", "--williams", "4", "--reps", "0"]) == 2
    capsys.readouterr()
    assert main(["construct", "--fixture", "nope"]) == 2
    capsys.readouterr()


def test_construct_missing_union_file(tmp_path, capsys):
    missing = str(tmp_path / "absent.txt")
    assert main(["construct", "--union", missing]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_evaluate_complete_design(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    assert main(["evaluate", f]) == 0
    report = _json_out(capsys)
    assert report["command"] == "evaluate"
    assert (report["t"], report["p"], report["s"], report["g"]) == (5, 5, 10, 2)
    assert report["ubrmd"] is True
    assert report["classification"] == "ClassB-W1"
    assert report["connected"] is True
    assert report["rank"] == 4
    assert report["trace_mp"] == pytest.approx(76 / 180, abs=1e-6)
    assert len(report["eigenvalues"]) == 5


def test_evaluate_key_order_is_stable(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    assert main(["evaluate", f]) == 0
    text = capsys.readouterr().out
    keys = [k for k, _ in json.loads(text, object_pairs_hook=lambda p: p)]
    assert keys[:8] == ["command", "design", "t", "p", "s", "g", "ubrmd", "classification"]


def test_evaluate_truncated(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    assert main(["evaluate", f, "--truncate", "1"]) == 0
    report = _json_out(capsys)
    assert report["m"] == 1
    assert report["rank"] == 4
    assert report["ml"] == pytest.approx(0.351855, abs=1e-6)
    assert report["ml_disconnected"] is False
    assert report["bounds_applicable"] is True
    assert report["type_w"] is True
    assert report["uml"] == pytest.approx(0.868056, abs=1e-6)
    assert report["uml_star"] == pytest.approx(0.640127, abs=1e-6)
    assert report["el"] == pytest.approx(0.182927, abs=1e-6)
    assert report["el_star"] == pytest.approx(0.498925, abs=1e-6)
    assert report["eff_lower_bound"] == pytest.approx(0.898584, abs=1e-6)
    assert report["ml"] <= report["uml_star"]


def test_evaluate_truncated_disconnected(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", fixture("d2plan"))
    assert main(["evaluate", f, "--truncate", "1"]) == 0
    report = _json_out(capsys)
    assert report["ml"] == 1.0
    assert report["ml_disconnected"] is True
    # t=4 sits exactly at t=2m+2: the formulas apply but the loss bound
    # is vacuous (negative theta), and no efficiency floor is reported
    assert report["bounds_applicable"] is True
    assert report["uml"] == pytest.approx(3.2, abs=1e-6)
    assert "eff_lower_bound" not in report


def test_evaluate_truncate_range_error(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    assert main(["evaluate", f, "--truncate", "4"]) == 2
    assert "out of range 1..3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["evaluate", "--truncate", "1"], ["simulate", "--hazards", "0.1"]],
    ids=["evaluate", "simulate"],
)
def test_two_period_design_has_no_tail_to_drop(tmp_path, capsys, argv):
    f = tmp_path / "w2.txt"
    f.write_text("# xover-design v1\nt=2 p=2 s=2\n0 1\n1 0\n")
    assert main([argv[0], str(f), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a design of p=2 periods has no tail to drop "
        "(m must lie in 1..p-2)\n"
    )


def test_evaluate_pattern(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    pat = tmp_path / "pattern.txt"
    pat.write_text("4 5 5 5 5 5 5 5 5 5\n")
    assert main(["evaluate", f, "--pattern", str(pat)]) == 0
    report = _json_out(capsys)
    assert report["connected"] is True
    assert report["loss_disconnected"] is False
    assert 0.0 < report["loss"] < 0.351856


def test_evaluate_pattern_without_dropout(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    pat = tmp_path / "pattern.txt"
    pat.write_text("5 5 5 5 5 5 5 5 5 5\n")
    assert main(["evaluate", f, "--pattern", str(pat)]) == 0
    report = _json_out(capsys)
    assert abs(report["loss"]) < 1e-9


def test_evaluate_pattern_mismatch(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    pat = tmp_path / "pattern.txt"
    pat.write_text("5 5 5\n")
    assert main(["evaluate", f, "--pattern", str(pat)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "first, message",
    [
        ("1" + "0" * 22, "error: completion period exceeds p=5"),
        ("1" + "0" * 4999, "error: completion period exceeds p=5"),
        ("0", "error: every subject must complete at least period 1"),
        ("-" + "9" * 5000, "error: every subject must complete at least period 1"),
        ("-2", "error: every subject must complete at least period 1"),
    ],
    ids=["23-digit", "5000-digit", "zero", "negative-5000-digit", "negative"],
)
def test_evaluate_pattern_bad_completion(tmp_path, capsys, first, message):
    f = _write(tmp_path, "d.txt", fixture("d3plan"))
    pat = tmp_path / "pattern.txt"
    pat.write_text(" ".join([first] + ["5"] * 9) + "\n")
    assert main(["evaluate", f, "--pattern", str(pat)]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "design", [fixture("d3plan"), williams_pair(7)], ids=["d3plan", "pair7"]
)
def test_evaluate_prints_structural_zero_eigenvalues_as_zero(tmp_path, capsys, design):
    f = _write(tmp_path, "d.txt", design)
    assert main(["evaluate", f]) == 0
    report = _json_out(capsys)
    assert report["rank"] == design.t - 1
    zeros = [v for v in report["eigenvalues"] if v == 0.0]
    assert len(zeros) == design.t - report["rank"]
    assert all(abs(v) > 1e-6 for v in report["eigenvalues"] if v != 0.0)


@pytest.mark.parametrize("form", ["plain", "truncate", "pattern"])
def test_evaluate_rejects_one_treatment_design(tmp_path, capsys, form):
    f = tmp_path / "t1.txt"
    f.write_text(f"{TEXT_FORMAT_HEADER}\nt=1 p=3 s=2\n0 0\n0 0\n0 0\n")
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("3 2\n")
    extra = {
        "plain": [],
        "truncate": ["--truncate", "1"],
        "pattern": ["--pattern", str(pattern)],
    }[form]
    assert main(["evaluate", str(f)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: requires t >= 2 treatments, got t=1\n"
    assert captured.out == ""


def test_pattern_faults_precede_the_one_treatment_refusal(tmp_path, capsys):
    f = tmp_path / "t1.txt"
    f.write_text(f"{TEXT_FORMAT_HEADER}\nt=1 p=3 s=2\n0 0\n0 0\n0 0\n")
    for text, message in (("4 2", "completion period exceeds p=3"),
                          ("3", "pattern length 1 does not match s=2")):
        pattern = tmp_path / "pattern.txt"
        pattern.write_text(text + "\n")
        assert main(["evaluate", str(f), "--pattern", str(pattern)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_evaluate_missing_pattern_file(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    missing = str(tmp_path / "nothere.txt")
    assert main(["evaluate", f, "--pattern", missing]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    )


def test_input_files_read_as_utf8_with_any_line_ending(tmp_path, capsys):
    # the bytes are decoded as UTF-8 and the lines split by splitlines,
    # so CRLF and CR files give the report of an LF file
    d = fixture("d3plan")
    text, pattern = write_design(d), "5 4 5 5 5 5 5 5 5 3\n"
    reports = []
    for eol in ("\n", "\r\n", "\r"):
        (tmp_path / "d.txt").write_bytes(text.replace("\n", eol).encode())
        (tmp_path / "p.txt").write_bytes(pattern.replace("\n", eol).encode())
        argv = ["evaluate", str(tmp_path / "d.txt"), "--pattern", str(tmp_path / "p.txt")]
        assert main(argv) == 0
        reports.append(capsys.readouterr().out.replace(eol, "\n"))
    assert reports[1:] == reports[:1] * 2


def test_input_files_that_are_not_utf8_fail_by_name(tmp_path, capsys):
    design, pattern = tmp_path / "d.txt", tmp_path / "p.txt"
    design.write_bytes(write_design(fixture("d3plan")).encode() + b"\xff\n")
    assert main(["evaluate", str(design)]) == 1
    assert capsys.readouterr().err == (
        f"error: {design}: 'utf-8' codec can't decode byte 0xff in position 131: "
        "invalid start byte\n"
    )
    design.write_text(write_design(fixture("d3plan")))
    pattern.write_bytes(b"5 5 5 5 5\xe9 5 5 5 5 5\n")
    assert main(["evaluate", str(design), "--pattern", str(pattern)]) == 1
    assert capsys.readouterr().err == (
        "error: 'utf-8' codec can't decode byte 0xe9 in position 9: "
        "invalid continuation byte\n"
    )


def test_evaluate_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a design\n")
    assert main(["evaluate", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_evaluate_rejects_duplicate_dimension_key(tmp_path, capsys):
    bad = tmp_path / "dup.txt"
    bad.write_text(f"{TEXT_FORMAT_HEADER}\nt=3 p=3 s=3 s=4\n0 1 2\n1 2 0\n2 0 1\n")
    assert main(["evaluate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: line 2, token 4: duplicate key 's'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "line, old, new",
    [
        (1, "t=4", "t=1" + "0" * 4999),
        (1, "p=4", "p=1" + "0" * 4999),
        (1, "s=4", "s=1" + "0" * 4999),
        (3, "0", "1" + "0" * 4999),
        (3, "0", "1" * 5000 + "x"),
        (3, "0", "1_000_000_000_000_000_000_000"),
        (None, None, "1" * 5000 + "x"),
    ],
    ids=["t", "p", "s", "layout-entry", "layout-junk", "layout-underscored",
         "pattern-junk"],
)
def test_evaluate_short_error_for_5000_digit_integer(tmp_path, capsys, line, old, new):
    lines = write_design(fixture("d2plan")).split("\n")
    bad = tmp_path / "long.txt"
    argv = ["evaluate", str(bad)]
    if line is None:
        # a sound design; the long token is the first completion of the pattern
        pattern = tmp_path / "pattern.txt"
        pattern.write_text(" ".join([new, "4", "4", "4"]) + "\n")
        argv += ["--pattern", str(pattern)]
    else:
        lines[line] = lines[line].replace(old, new, 1)
    bad.write_text("\n".join(lines))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200


def test_evaluate_csv_format(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    assert main(["evaluate", f, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    assert "t,5" in lines
    assert "ubrmd,true" in lines
    assert any(ln.startswith("eigenvalues[0],") for ln in lines)


def test_bounds_json(capsys):
    assert main(["bounds", "--t", "6"]) == 0
    report = _json_out(capsys)
    assert report["theta_l"] == 3.0
    assert report["theta_l_star"] == 3.45
    assert report["uml"] == pytest.approx(0.482143, abs=1e-6)
    assert report["mtr"] == 22.75
    assert report["condition_value"] == 40.0
    assert report["condition_satisfied"] is True
    assert report["t_star"] == 5
    assert report["binding"] == "plain"


def test_bounds_class_a_t4_spectrum_is_mirrored(capsys):
    # theta_3 = theta_1 = 0 exactly, not a rounding residue
    assert main(["bounds", "--t", "4", "--class", "A"]) == 0
    assert json.loads(capsys.readouterr().out)["spectrum"] == [0.0, 2.66667, 0.0]


def test_bounds_type_w_binding(capsys):
    assert main(["bounds", "--t", "6", "--type-w"]) == 0
    assert _json_out(capsys)["binding"] == "starred"


def test_bounds_range_error(capsys):
    assert main(["bounds", "--t", "5", "--m", "2"]) == 2
    assert "t >= 2m+2" in capsys.readouterr().err
    assert main(["bounds", "--t", "6", "--m", "0"]) == 2
    capsys.readouterr()


def test_bounds_t_star_for_large_m(capsys):
    assert main(["bounds", "--t", "3000000002", "--m", "1000000000"]) == 0
    assert _json_out(capsys)["t_star"] == 3000000002


def test_bounds_overflow_is_an_argument_error(capsys):
    # t = 10**200 fits no float: one error line, not a traceback
    assert main(["bounds", "--t", "1" + "0" * 200]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "t, code",
    [(10**100, 0), (10**100 + 1, 2), (10**200, 2)],
    ids=["limit", "above", "1e200"],
)
def test_bounds_t_limit(capsys, t, code):
    assert main(["bounds", "--t", str(t)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == "error: requires t <= 10**100, got a larger t\n"
    else:
        assert json.loads(captured.out)["t"] == t


@pytest.mark.parametrize(
    "t, m, message",
    [
        ("10", "1" + "0" * 3000, "requires t >= 2m+2, got a smaller t"),
        ("10", "-1" + "0" * 3000, "requires m >= 1, got a smaller m"),
    ],
    ids=["m-long", "m-long-negative"],
)
def test_bounds_range_error_names_no_digits(capsys, t, m, message):
    assert main(["bounds", "--t", t, "--m", m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert len(captured.err.encode()) < 120


LONG = "1" + "0" * 3000


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["simulate", "--hazards", "0.1", "--m", LONG],
            "expected 10000000000000000000... (3001 digits) hazards, got 1",
        ),
        (
            ["simulate", "--hazards", "0.1", "--m", "-" + LONG],
            "requires m >= 1, got m=-1000000000000000000... (3001 digits)",
        ),
        (
            ["simulate", "--hazards", "0.1", "--seed", LONG],
            "seed must lie in 0..18446744073709551615, got "
            "10000000000000000000... (3001 digits)",
        ),
        (
            ["simulate", "--hazards", "0.1", "--n", "-" + LONG],
            "requires n >= 1, got n=-1000000000000000000... (3001 digits)",
        ),
        (
            ["evaluate", "--truncate", LONG],
            "m=10000000000000000000... (3001 digits) out of range 1..3",
        ),
        (
            ["evaluate", "--truncate", "-" + LONG],
            "m=-1000000000000000000... (3001 digits) out of range 1..3",
        ),
    ],
    ids=["m", "m-negative", "seed", "n-negative", "truncate", "truncate-negative"],
)
def test_long_integer_argument_error_is_one_short_line(tmp_path, capsys, argv, message):
    f = _write(tmp_path, "p5.txt", williams_pair(5))
    assert main([argv[0], f, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert len(captured.err.encode()) < 120


SHORT = "10000000000000000000... (3001 digits)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["construct", "--williams", LONG],
            f"williams_square requires even t with 4 <= t <= 1000, got t={SHORT}",
        ),
        (
            ["construct", "--pair", LONG + "1"],
            "williams_pair requires odd t with 3 <= t <= 1000, "
            "got t=10000000000000000000... (3002 digits)",
        ),
        (
            ["construct", "--extreme", LONG],
            f"extreme_design requires 3 <= t <= 8, got t={SHORT}",
        ),
        (
            ["construct", "--pair", "5", "--reps", "-" + LONG],
            "reps must be >= 1, got -1000000000000000000... (3001 digits)",
        ),
        (["construct", "--williams", "1002"],
         "williams_square requires even t with 4 <= t <= 1000, got t=1002"),
        (["construct", "--pair", "1001"],
         "williams_pair requires odd t with 3 <= t <= 1000, got t=1001"),
        (["construct", "--pair", "5", "--reps", "9999999999"],
         "replicate allows at most 100000 subjects, "
         "got reps=9999999999 copies of s=10"),
    ],
    ids=[
        "williams", "pair", "extreme", "reps-negative", "williams-above",
        "pair-above", "reps-above",
    ],
)
def test_construct_argument_error_is_one_short_line(capsys, argv, message):
    # a T or K beyond the bound fails at once, before any list or layout
    # is built
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["tables", "--table", LONG],
            f"xover tables: error: argument --table: invalid choice: {SHORT} "
            "(choose from 1, 2, 3)",
        ),
        (
            ["tables", "--table", "4"],
            "xover tables: error: argument --table: invalid choice: 4 "
            "(choose from 1, 2, 3)",
        ),
        (
            ["bounds", "--t", "1" + "0" * 5000],
            "xover bounds: error: argument --t: invalid int value: "
            "'100000000000000000'... (5001 characters)",
        ),
        (
            ["simulate", "d.txt", "--hazards", "0.1", "--m", "1" + "0" * 5000],
            "xover simulate: error: argument --m: invalid int value: "
            "'100000000000000000'... (5001 characters)",
        ),
        (
            ["construct", "--williams", "x"],
            "xover construct: error: argument --williams: invalid int value: 'x'",
        ),
    ],
    ids=["table-3001-digits", "table-4", "bounds-t-5001-digits", "simulate-m-5001-digits",
         "williams-junk"],
)
def test_argparse_integer_error_is_one_short_line(argv, message):
    err = io.StringIO()
    with pytest.raises(SystemExit) as info, contextlib.redirect_stderr(err):
        main(argv)
    assert info.value.code == 2
    lines = err.getvalue().splitlines()
    assert lines[0].startswith("usage: xover ")
    assert lines[-1] == message
    assert all(len(line.encode()) < 200 for line in lines)


def test_tables_usage_still_lists_its_choices():
    err = io.StringIO()
    with pytest.raises(SystemExit), contextlib.redirect_stderr(err):
        main(["tables"])
    assert "--table {1,2,3}" in err.getvalue()


@pytest.mark.parametrize(
    "n, shown",
    [(10**7 + 1, "10000001"), (10**3000, SHORT)],
    ids=["above", "3001-digits"],
)
def test_simulate_n_limit(tmp_path, capsys, n, shown):
    # checked with the other arguments, before simulate sizes any array
    f = _write(tmp_path, "p5.txt", williams_pair(5))
    assert main(["simulate", f, "--hazards", "0.1", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: requires n <= 10000000, got n={shown}\n"


# A pattern file with two faults reports the first in the order: line
# count, non-integer, period below 1, length, period above p.  The
# messages are those of the per-token reader before the array reader.
BELOW_1 = "every subject must complete at least period 1"
LINES = "expected one line of completion periods, found "
PATTERN_FAULTS = {
    "junk-then-zero": ("5 x 0 5 5 5 5 5 5 5", "line 1, column 2: 'x' is not an integer"),
    "zero-then-junk": ("0 5 5 5 5 5 5 5 5 x", "line 1, column 10: 'x' is not an integer"),
    "zero-and-short": ("0 5 5", BELOW_1),
    "zero-and-long": ("5 5 5 5 5 5 5 5 5 5 0", BELOW_1),
    "high-and-short": ("6 5 5", "pattern length 3 does not match s=10"),
    "zero-then-high": ("0 5 5 5 5 5 5 5 5 6", BELOW_1),
    "high-then-zero": ("6 5 5 5 5 5 5 5 5 0", BELOW_1),
    "two-lines-and-zero": ("5 5 5 5 5\n0 5 5 5 5", LINES + "2"),
    "two-lines-and-junk": ("x 5 5 5 5\n5 5 5 5 5", LINES + "2"),
    "huge-and-short": ("1" + "0" * 22 + " 5 5", "pattern length 3 does not match s=10"),
    "negative-huge-and-high": ("-" + "9" * 5000 + " 6 5 5 5 5 5 5 5 5", BELOW_1),
    "junk-and-long": ("5 5 5 5 5 5 5 5 5 5 5_x", "line 1, column 11: '5_x' is not an integer"),
    "tabs-zero-and-high": ("5\t0 5 5 5 5 5 5 5 7", BELOW_1),
    "empty": ("\n", LINES + "0"),
}


@pytest.mark.parametrize("name", PATTERN_FAULTS)
def test_pattern_fault_precedence(tmp_path, capsys, name):
    text, message = PATTERN_FAULTS[name]
    f = _write(tmp_path, "d.txt", fixture("d3plan"))
    pat = tmp_path / "pattern.txt"
    pat.write_text(text + "\n")
    assert main(["evaluate", f, "--pattern", str(pat)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("t", [10_001, 200_000, 10**100])
def test_bounds_class_t_limit(capsys, t):
    assert main(["bounds", "--t", str(t), "--class", "A"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --class requires t <= 10000, got a larger t\n"


def test_bounds_class_at_t_limit(capsys):
    assert main(["bounds", "--t", "10000", "--class", "B"]) == 0
    report = _json_out(capsys)
    assert len(report["spectrum"]) == 9999
    assert report["class_disconnected"] is False


def test_bounds_class(capsys):
    assert main(["bounds", "--t", "6", "--class", "A"]) == 0
    report = _json_out(capsys)
    assert report["class"] == "A"
    assert len(report["spectrum"]) == 5
    assert report["spectrum"][2] == pytest.approx(4.8, abs=1e-6)
    assert report["class_ml"] == pytest.approx(0.296799, abs=1e-6)
    assert report["class_el"] == pytest.approx(0.895322, abs=1e-6)
    assert report["class_disconnected"] is False
    assert report["extreme_ml"] == pytest.approx(0.214658, abs=1e-6)


def test_bounds_class_disconnected_t4(capsys):
    assert main(["bounds", "--t", "4", "--class", "B"]) == 0
    report = _json_out(capsys)
    assert report["class_ml"] == 1.0
    assert report["class_disconnected"] is True
    assert "class_el" not in report


def test_bounds_class_needs_m1(capsys):
    assert main(["bounds", "--t", "8", "--m", "2", "--class", "A"]) == 2
    assert "m=1" in capsys.readouterr().err


def test_tables_one_period(capsys):
    assert main(["tables", "--table", "1"]) == 0
    report = _json_out(capsys)
    assert report["t"] == [5, 6, 7, 8, 9, 10]
    assert report["m"] == 1
    uml_row = report["rows"]["UML"]
    assert uml_row["value"][0] == pytest.approx(0.868056, abs=1e-6)
    assert uml_row["rounded"][0] == 0.87
    assert report["rows"]["EL_star"]["rounded"][-1] == 0.95


def test_tables_two_period(capsys):
    assert main(["tables", "--table", "2"]) == 0
    report = _json_out(capsys)
    assert report["t"] == [8, 9, 10, 11, 12, 16]
    assert report["m"] == 2
    assert report["rows"]["UML"]["value"][0] == pytest.approx(0.902998, abs=1e-6)
    assert report["rows"]["EL"]["value"][-1] == pytest.approx(0.925519, abs=1e-6)


def test_tables_exact_losses_csv(capsys):
    assert main(["tables", "--table", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "metric,t=5,t=6,t=7,t=8,t=9,t=10"
    assert lines[1] == "class,B,A,B,A,B,A"
    ml_rounded = [ln for ln in lines if ln.startswith("ML_rounded,")]
    assert ml_rounded == ["ML_rounded,0.35,0.30,0.20,0.18,0.14,0.13"]
    assert any(ln.startswith("EL_AB,") for ln in lines)


@pytest.mark.parametrize("which, m", [(1, 1), (2, 2)])
def test_bound_tables_are_bounds_report_fields(which, m):
    grid = cli._table_grid(which)
    reports = [bounds_report(t, m) for t in grid["t"]]
    for name, field in (
        ("UML", "uml"),
        ("UML_star", "uml_star"),
        ("EL", "el"),
        ("EL_star", "el_star"),
    ):
        assert grid["rows"][name]["value"] == [getattr(b, field) for b in reports]


def test_exact_loss_table_is_class_ab_values():
    grid = cli._table_grid(3)
    cases = list(zip(grid["t"], grid["class"]))
    assert cases == list(cli.TABLE3)
    assert grid["rows"]["ML"]["value"] == [class_ab_ml(t, k) for t, k in cases]
    assert grid["rows"]["EL_AB"]["value"] == [el_ab(t, k) for t, k in cases]


@pytest.mark.parametrize(
    "design", [williams_square(6), williams_pair(7), extreme_design(5)]
)
def test_evaluate_truncate_bounds_are_bounds_report_fields(
    monkeypatch, tmp_path, design
):
    # the report before rounding: each bound field is bounds_report's own
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, fmt, out: reports.append(report))
    f = _write(tmp_path, "d.txt", design)
    for m in range(1, (design.t - 2) // 2 + 1):
        assert main(["evaluate", f, "--truncate", str(m)]) == 0
        report, b = reports.pop(), bounds_report(design.t, m)
        assert report["bounds_applicable"]
        for field in ("uml", "uml_star", "el", "el_star"):
            assert report[field] == getattr(b, field), (m, field)


def test_simulate_cli(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    assert main(["simulate", f, "--hazards", "0.3", "--n", "100"]) == 0
    report = _json_out(capsys)
    assert report["seed"] == 0
    assert report["hazards"] == [0.3]
    assert report["ml"] == pytest.approx(0.351855, abs=1e-6)
    assert report["ordering_violations"] == 0
    assert set(report["quantiles"]) == {"p50", "p90", "p99"}
    assert 0.0 <= report["mean_loss"] <= report["ml"]


def test_simulate_exits_3_on_ordering_violations(tmp_path, capsys, monkeypatch):
    # a violation is a result: the whole report on stdout, then one
    # warning line on stderr and exit code 3
    f = _write(tmp_path, "d.txt", williams_pair(5))
    simulate = cli.simulate

    def violating(*args, **kwargs):
        return dataclasses.replace(simulate(*args, **kwargs), ordering_violations=2)

    monkeypatch.setattr(cli, "simulate", violating)
    assert main(["simulate", f, "--hazards", "0.3", "--n", "100"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["ordering_violations"] == 2
    assert err == "warning: 2 information-ordering violations detected\n"


def test_simulate_deterministic_output_bytes(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    o1, o2, o3 = (str(tmp_path / n) for n in ("r1.json", "r2.json", "r3.json"))
    base = ["simulate", f, "--hazards", "0.4", "--n", "100"]
    assert main(base + ["--seed", "5", "-o", o1]) == 0
    assert main(base + ["--seed", "5", "-o", o2]) == 0
    assert main(base + ["--seed", "6", "-o", o3]) == 0
    with open(o1) as fh1, open(o2) as fh2, open(o3) as fh3:
        b1, b2, b3 = fh1.read(), fh2.read(), fh3.read()
    assert b1 == b2
    assert b1 != b3


def test_simulate_bad_hazards(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    assert main(["simulate", f, "--hazards", "abc"]) == 2
    assert "cannot parse hazards" in capsys.readouterr().err
    assert main(["simulate", f, "--hazards", "1.5"]) == 2
    capsys.readouterr()
    assert main(["simulate", f, "--hazards", "0.5,0.5"]) == 2
    assert "expected 1 hazards" in capsys.readouterr().err
    assert main(["simulate", f, "--m", "4", "--hazards", "0.5,0.5,0.5,0.5"]) == 2
    assert "out of range 1..3" in capsys.readouterr().err


def test_simulate_rejects_nonpositive_n(tmp_path, capsys):
    f = _write(tmp_path, "d.txt", williams_pair(5))
    for n in ("0", "-3"):
        assert main(["simulate", f, "--hazards", "0.3", "--n", n]) == 2
        assert "error:" in capsys.readouterr().err


def test_simulate_seed_range(tmp_path, capsys):
    f = _write(tmp_path, "p5.txt", williams_pair(5))
    base = ["simulate", f, "--hazards", "0.3", "--n", "5"]
    for seed in ("-1", str(2**64)):
        assert main(base + ["--seed", seed]) == 2
        err = capsys.readouterr().err
        assert err == f"error: seed must lie in 0..18446744073709551615, got {seed}\n"
    assert main(base + ["--seed", str(2**64 - 1)]) == 0
    assert _json_out(capsys)["seed"] == 2**64 - 1


def test_simulate_readme_example(tmp_path, capsys):
    # the numbers quoted under "Simulate random dropout" in README.md
    f = _write(tmp_path, "p5.txt", williams_pair(5))
    assert main(["simulate", f, "--hazards", "0.3", "--n", "2000"]) == 0
    report = _json_out(capsys)
    assert report["seed"] == 0
    assert report["mean_loss"] == 0.118443
    assert report["max_loss"] == 0.314089
    assert report["quantiles"] == {"p50": 0.116082, "p90": 0.192507, "p99": 0.27313}
    assert report["p_disconnect"] == 0.0
    assert report["ordering_violations"] == 0
    assert report["ml"] == 0.351855


def test_simulate_missing_design(tmp_path, capsys):
    missing = str(tmp_path / "absent.txt")
    assert main(["simulate", missing, "--hazards", "0.5"]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--williams", "4"],
        ["evaluate", "DESIGN"],
        ["bounds", "--t", "6"],
        ["tables", "--table", "1"],
        ["simulate", "DESIGN", "--hazards", "0.3", "--n", "10"],
    ],
    ids=["construct", "evaluate", "bounds", "tables", "simulate"],
)
def test_output_into_missing_directory(tmp_path, capsys, argv):
    design = _write(tmp_path, "d.txt", williams_pair(5))
    out = str(tmp_path / "absent" / "out.txt")
    argv = [design if a == "DESIGN" else a for a in argv]
    assert main(argv + ["-o", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


# input hardening: arbitrary file text must end in a report (exit 0) or
# one error line (exit 1), never in a traceback
_WORD = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-(10**25), 10**25).map(str),
    st.text(max_size=4),
)


def _mutate(text, line, word, value):
    """text with one space-separated word of one line replaced by value."""
    lines = text.split("\n")
    words = lines[line % len(lines)].split(" ")
    words[word % len(words)] = value
    lines[line % len(lines)] = " ".join(words)
    return "\n".join(lines)


_DESIGN_TEXT = st.one_of(
    st.text(),
    st.builds(
        "{}\n{}\n{}\n".format,
        st.just(TEXT_FORMAT_HEADER),
        st.lists(
            st.tuples(st.sampled_from("tpsq"), _WORD).map("=".join), max_size=5
        ).map(" ".join),
        st.lists(st.lists(_WORD, max_size=6).map(" ".join), max_size=6).map("\n".join),
    ),
    st.builds(
        _mutate,
        st.sampled_from(
            [write_design(fixture("d2plan")), write_design(williams_square(4))]
        ),
        st.integers(0, 10),
        st.integers(0, 10),
        _WORD,
    ),
)
_PATTERN_TEXT = st.one_of(
    st.text(),
    st.lists(
        st.one_of(st.integers(3, 5).map(str), _WORD), min_size=8, max_size=12
    ).map(" ".join),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # hypothesis rejects function-scoped fixtures such as tmp_path
    directory = tmp_path_factory.mktemp("fuzz")
    _write(directory, "d3plan.txt", fixture("d3plan"))
    return directory


def _run_in_process(argv):
    """(exit code, stdout, stderr) of one call, checking the failure contract:
    a nonzero exit prints one error: line and nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code, out, err


def _run_on_text(path, text, argv):
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    code, out, err = _run_in_process(argv)
    assert code in (0, 1), (code, err)
    if code == 0:
        assert err == ""
        assert json.loads(out)["command"] == "evaluate"


@settings(max_examples=30, deadline=None)
@given(text=_PATTERN_TEXT)
def test_evaluate_survives_any_pattern_file(fuzz_dir, text):
    pattern = fuzz_dir / "pattern.txt"
    argv = ["evaluate", str(fuzz_dir / "d3plan.txt"), "--pattern", str(pattern)]
    _run_on_text(pattern, text, argv)


@settings(max_examples=30, deadline=None)
@given(text=_DESIGN_TEXT)
def test_evaluate_survives_any_design_file(fuzz_dir, text):
    design = fuzz_dir / "design.txt"
    _run_on_text(design, text, ["evaluate", str(design)])


_HAZARD = st.one_of(
    st.floats(0, 1).map(repr),
    st.sampled_from(["0", "1", "1e-3", "-0.1", "1.5", "nan", "inf", ""]),
    st.text(max_size=4),
)
# (--hazards text, --m): arbitrary text, or m hazard words for m in 1..4
_HAZARDS_AND_M = st.one_of(
    st.tuples(st.text(), st.integers(-1, 4)),
    st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            st.lists(_HAZARD, min_size=m, max_size=m).map(",".join), st.just(m)
        )
    ),
)


@settings(max_examples=30, deadline=None)
@given(hazards_and_m=_HAZARDS_AND_M)
def test_simulate_survives_any_hazards(fuzz_dir, hazards_and_m):
    text, m = hazards_and_m
    argv = ["simulate", str(fuzz_dir / "d3plan.txt"), f"--hazards={text}"]
    code, out, err = _run_in_process(argv + ["--m", str(m), "--n", "20"])
    if code == 0:
        assert err == ""
        assert json.loads(out)["command"] == "simulate"


@st.composite
def _square_columns_text(draw):
    """A well-formed design whose columns are each a permutation."""
    t = draw(st.integers(1, 5))
    s = t * draw(st.integers(1, 3))
    columns = draw(st.lists(st.permutations(range(t)), min_size=s, max_size=s))
    layout = np.array(columns).T
    return write_design(CrossoverDesign(t=t, p=t, s=s, layout=layout))


@settings(max_examples=30, deadline=None)
@given(
    text=st.one_of(
        _DESIGN_TEXT,
        _square_columns_text(),
        st.sampled_from(
            [
                write_design(williams_pair(5)),
                write_design(replicate(williams_square(4), 2)),
                write_design(extreme_design(3)),
            ]
        ),
    ),
    copies=st.integers(1, 2),
)
def test_construct_survives_any_union_file(fuzz_dir, text, copies):
    design = fuzz_dir / "union.txt"
    design.write_bytes(text.encode("utf-8", "surrogatepass"))
    out_path = fuzz_dir / "union-out.txt"
    argv = ["construct", "--union"] + [str(design)] * copies + ["-o", str(out_path)]
    code, out, err = _run_in_process(argv)
    assert code in (0, 1), (code, err)
    if code == 0:
        assert err == ""
        assert out.splitlines()[1] in ("uniform-balanced: yes", "uniform-balanced: no")


_BOUND_INT = st.one_of(st.integers(-3, 40), st.integers(-(10**400), 10**400))
# (t, m): any two integers, or t >= 2m+2 with both up to 160 digits long
_T_AND_M = st.one_of(
    st.tuples(_BOUND_INT, _BOUND_INT),
    st.builds(
        lambda m, x: (2 * m + 2 + x, m),
        st.integers(1, 10**160),
        st.integers(0, 10**160),
    ),
)


@settings(max_examples=30, deadline=None)
@given(
    t_and_m=_T_AND_M,
    fmt=st.sampled_from(["json", "csv"]),
    klass=st.sampled_from([None, "A", "B"]),
)
def test_bounds_survives_any_integers(t_and_m, fmt, klass):
    t, m = t_and_m
    argv = ["bounds", f"--t={t}", f"--m={m}", "--format", fmt]
    if klass is not None:
        argv += ["--class", klass]
    code, out, err = _run_in_process(argv)
    assert code in (0, 2), (code, err)
    if code == 0:
        assert err == ""
        assert out.startswith('{\n  "command": "bounds"' if fmt == "json" else "key,value\n")
    else:
        # one short line, whatever the length of t and m
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 120


# (design, classification, type_w for m = 1, 2, ... while t >= 2m+2), as
# classify and check_type_wm gave them when both still worded every failure
VERDICTS = {
    "d1plan": (fixture("d1plan"), "ClassB-W1", []),
    "d2plan": (fixture("d2plan"), "ClassA-W1", [True]),
    "d3plan": (fixture("d3plan"), "ClassB-W1", [True]),
    "ex13sq1": (fixture("ex13sq1"), "ClassA-W1", [True, False]),
    "ex13sq2": (fixture("ex13sq2"), "ClassA-W1", [True, False]),
    "pair3": (williams_pair(3), "ClassB-W1", []),
    "square4": (williams_square(4), "ClassA-W1", [True]),
    "pair5": (williams_pair(5), "ClassB-W1", [True]),
    "square6": (williams_square(6), "ClassA-W1", [True, False]),
    "pair7": (williams_pair(7), "ClassB-W1", [True, True]),
    "square8": (williams_square(8), "ClassA-W1", [True, False, False]),
    "pair9": (williams_pair(9), "ClassB-W1", [True, True, False]),
    "ex13-union": (
        union([fixture("ex13sq1"), fixture("ex13sq2")]), "type-W1", [True, False]
    ),
    "pair7-reversed": (
        union([williams_pair(7), relabel(williams_pair(7), [6, 5, 4, 3, 2, 1, 0])]),
        "type-W5",
        [True, True],
    ),
    "pair9-doubled": (
        union([williams_pair(9), relabel(williams_pair(9), [0, 2, 4, 6, 8, 1, 3, 5, 7])]),
        "type-W2",
        [True, True, False],
    ),
    "extreme4": (extreme_design(4), "UBRMD", [False]),
}


@pytest.mark.parametrize("name", VERDICTS)
def test_verdicts_are_unchanged_and_word_no_failures(tmp_path, monkeypatch, name):
    design, klass, type_w = VERDICTS[name]
    assert [check_type_wm(design, m).ok for m in range(1, len(type_w) + 1)] == type_w
    f = _write(tmp_path, "d.txt", design)

    def refuse(*args, **kwargs):
        raise AssertionError("a type-W failure was worded")

    # classify and evaluate read the verdict from the masks alone
    monkeypatch.setattr(designs, "check_type_wm", refuse)
    assert classify(design) == klass
    code, out, _ = _run_in_process(["evaluate", f])
    assert (code, json.loads(out)["classification"]) == (0, klass)
    for m, ok in enumerate(type_w, start=1):
        code, out, _ = _run_in_process(["evaluate", f, "--truncate", str(m)])
        assert (code, json.loads(out)["type_w"]) == (0, ok)


def test_repeated_main_calls_give_identical_output(tmp_path):
    f = _write(tmp_path, "d.txt", fixture("d3plan"))
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("5 4 5 5 5 5 5 5 5 3\n")
    calls = [
        ["construct", "--fixture", "d1plan", "--fixture", "d2plan", "--union"],
        ["construct", "--fixture", "d2plan", "--fixture", "d2plan", "--union"],
        ["evaluate", f, "--truncate", "1"],
        ["evaluate", f, "--pattern", str(pattern), "--format", "csv"],
        ["bounds", "--t", "7", "--class", "B"],
        ["tables", "--table", "2", "--format", "csv"],
        ["simulate", f, "--hazards", "0.3", "--n", "20"],
    ]
    usage_errors = [
        ["evaluate", f, "--truncate", "x"],
        ["evaluate", f, "--truncate", "1", "--pattern", str(pattern)],
    ]
    first = [_run_in_process(argv) for argv in calls]
    for bad in usage_errors:
        with pytest.raises(SystemExit) as info:
            with contextlib.redirect_stderr(io.StringIO()):
                main(bad)
        assert info.value.code == 2
    assert [_run_in_process(argv) for argv in calls] == first
    assert first[0][0] == 1
    # two --fixture values, not four: the list does not grow across calls
    assert first[1][2].startswith("t=4 p=4 s=8 g=2\n")


def test_main_runs_a_subcommand_patched_after_the_first_call(monkeypatch, capsys):
    # the first call builds the parser
    assert main(["tables", "--table", "1"]) == 0
    capsys.readouterr()
    tables = []
    cmd_tables = cli.cmd_tables

    def recording(args):
        tables.append(args.table)
        return cmd_tables(args)

    monkeypatch.setattr(cli, "cmd_tables", recording)
    assert main(["tables", "--table", "3"]) == 0
    assert tables == [3]
    assert _json_out(capsys)["table"] == 3
