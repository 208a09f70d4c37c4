import json

import pytest

from xover.cli import main
from xover.construct import fixture, union, williams_pair, williams_square
from xover.designs import TEXT_FORMAT_HEADER, parse_design, write_design


def _write(tmp_path, name, design):
    path = tmp_path / name
    path.write_text(write_design(design))
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


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


def test_evaluate_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a design\n")
    assert main(["evaluate", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


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


def test_bounds_type_w_binding(capsys):
    assert main(["bounds", "--t", "6", "--type-w"]) == 0
    assert _json_out(capsys)["binding"] == "starred"


def test_bounds_range_error(capsys):
    assert main(["bounds", "--t", "5", "--m", "2"]) == 2
    assert "t >= 2m+2" in capsys.readouterr().err
    assert main(["bounds", "--t", "6", "--m", "0"]) == 2
    capsys.readouterr()


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
