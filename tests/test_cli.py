import csv
import hashlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import vlink as vl
import vlink.characterize
import vlink.cli
from vlink.cli import _fmt, build_parser, main
from vlink.contraction import plan_contraction


@pytest.fixture
def workdir(tmp_path):
    vl.save_model(vl.transmission_model(2), str(tmp_path / "transmission.json"))
    vl.save_model(vl.knot_counting_model(), str(tmp_path / "knots.json"))
    vl.save_model(
        vl.random_model(2, np.random.default_rng(4), real=True),
        str(tmp_path / "real.json"),
    )
    vl.save_tangle(vl.loop_diagram(1), str(tmp_path / "loop.vld"))
    vl.save_tangle(vl.parse_tangle("x v1 a b a b"), str(tmp_path / "two_knots.vld"))
    vl.save_tangle(
        vl.parse_tangle("x v1 a b c c\nleg 1 a\nleg 2 b"),
        str(tmp_path / "open.vld"),
    )
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval


def test_eval_scalars(workdir, capsys):
    code, out, _ = run(
        capsys,
        "eval", "--model", workdir / "transmission.json",
        workdir / "loop.vld", workdir / "two_knots.vld",
    )
    assert code == 0
    assert out == "2 0\n4 0\n"


def test_eval_open_tangle_lists_entries(workdir, capsys):
    code, out, _ = run(
        capsys, "eval", "--model", workdir / "knots.json", workdir / "open.vld"
    )
    assert code == 0
    # Kink closure of the knot-counting model: the matrix square.
    assert out.splitlines() == ["1 1 3 0", "1 2 0 2", "2 1 0 2", "2 2 -1 0"]


def test_eval_json_lines(workdir, capsys):
    code, out, _ = run(
        capsys,
        "eval", "--format", "json-lines", "--model", workdir / "transmission.json",
        workdir / "loop.vld",
    )
    assert code == 0
    record = json.loads(out)
    assert record["re"] == 2.0
    assert record["im"] == 0.0
    assert record["path"].endswith("loop.vld")


def test_eval_csv(workdir, capsys):
    code, out, _ = run(
        capsys,
        "eval", "--format", "csv", "--model", workdir / "transmission.json",
        workdir / "loop.vld",
    )
    assert code == 0
    path, re, im = out.strip().split(",")
    assert path.endswith("loop.vld")
    assert float(re) == 2.0 and float(im) == 0.0


def test_eval_csv_tangle_has_one_field_per_leg(workdir, capsys):
    four = workdir / "four.vld"
    vl.save_tangle(vl.random_tangle(np.random.default_rng(5), 4, 2), str(four))
    for path, k in ((workdir / "open.vld", 2), (four, 4)):
        code, text, _ = run(capsys, "eval", "--model", workdir / "real.json", path)
        assert code == 0
        code, out, _ = run(
            capsys, "eval", "--format", "csv", "--model", workdir / "real.json", path
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2**k
        for row, line in zip(rows, text.splitlines()):
            assert len(row) == k + 3
            assert row[0] == str(path)
            # Each row is its text line: leg indices, then re and im.
            assert " ".join([*row[1:-2], _fmt(float(row[-2])), _fmt(float(row[-1]))]) == line


def test_eval_csv_quotes_a_path_with_a_comma_or_quote(workdir, capsys):
    plain = workdir / "four.vld"
    odd = workdir / 'a,b".vld'
    tangle = vl.random_tangle(np.random.default_rng(5), 4, 2)
    for path in (plain, odd):
        vl.save_tangle(tangle, str(path))
        code, out, _ = run(
            capsys, "eval", "--format", "csv", "--model", workdir / "real.json", path
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 16 and all(len(row) == 7 and row[0] == str(path) for row in rows)
        if path == plain:  # nothing to quote: the fields joined by commas
            assert out == "".join(",".join(row) + "\n" for row in rows)
        else:
            assert out.startswith('"' + str(path).replace('"', '""') + '",')


def test_eval_qtl(workdir, capsys):
    manifest = workdir / "combo.qtl"
    manifest.write_text("term 1 0 loop.vld\nterm 0.5 0 two_knots.vld\n")
    code, out, _ = run(
        capsys, "eval", "--model", workdir / "transmission.json", manifest
    )
    assert code == 0
    assert out == "4 0\n"
    # Two terms that cancel are pruned: the empty combination evaluates to 0.
    manifest.write_text("term 1 0 loop.vld\nterm -1 0 loop.vld\n")
    assert run(capsys, "eval", "--model", workdir / "transmission.json", manifest) == (0, "0 0\n", "")


def test_eval_qtl_of_tangles_prints_one_record_per_leg_colouring(workdir, capsys):
    four = workdir / "four.vld"
    vl.save_tangle(vl.random_tangle(np.random.default_rng(5), 4, 2), str(four))
    manifest = workdir / "double.qtl"
    manifest.write_text("term 2 0 four.vld\n")
    model = workdir / "real.json"
    code, out, _ = run(capsys, "eval", "--format", "json-lines", "--model", model, four)
    assert code == 0
    want = [json.loads(line) for line in out.splitlines()]
    assert len(want) == 16
    for record in want:  # each value exactly twice the .vld's
        record.update(path=str(manifest), re=2 * record["re"], im=2 * record["im"])
    runs = {
        fmt: run(capsys, "eval", "--format", fmt, "--model", model, manifest)
        for fmt in ("text", "csv", "json-lines")
    }
    assert all(code == 0 and err == "" for code, _, err in runs.values())
    assert [json.loads(line) for line in runs["json-lines"][1].splitlines()] == want
    rows = list(csv.reader(io.StringIO(runs["csv"][1])))
    assert rows == [[r["path"], *map(str, r["index"]), str(r["re"]), str(r["im"])] for r in want]
    lines = [" ".join([*map(str, r["index"]), _fmt(r["re"]), _fmt(r["im"])]) for r in want]
    assert runs["text"][1].splitlines() == lines


def test_eval_qtl_non_finite_coefficient_is_input_error(workdir, capsys):
    # A NaN term would be pruned with every finite term summed into it, and
    # an infinite one would print inf: both are refused, naming the line.
    manifest = workdir / "bad.qtl"
    for part in ("nan", "inf", "-Infinity"):
        manifest.write_text(f"term 1 0 two_knots.vld\nterm {part} 0 two_knots.vld\n")
        code, out, err = run(capsys, "eval", "--model", workdir / "transmission.json", manifest)
        assert (code, out, err) == (1, "", f"vlink: error: {manifest}:2: coefficient parts must be finite\n")


def test_eval_qtl_large_term(workdir, capsys):
    vl.save_tangle(
        vl.random_tangle(np.random.default_rng(12), 0, 12), str(workdir / "big.vld")
    )
    (workdir / "big.qtl").write_text("term 1 0 big.vld\n")
    model = workdir / "transmission.json"
    code_vld, out_vld, _ = run(capsys, "eval", "--model", model, workdir / "big.vld")
    code_qtl, out_qtl, err = run(capsys, "eval", "--model", model, workdir / "big.qtl")
    assert (code_vld, code_qtl, err) == (0, 0, "")
    assert out_qtl == out_vld


def test_eval_output_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    # Under a complex n=2 and a real n=3 model: six seeded diagrams or
    # tangles of each arity 0, 2 and 4, with 0-3 vertices and 0-2 loops,
    # and two .qtl combinations of each arity, one with a repeated term.
    # Diagrams print one record, tangles one per leg colouring; these
    # digests pin every byte eval prints of them, in each format.
    rng = np.random.default_rng(35)
    models = ["complex.json", "real3.json"]
    vl.save_model(vl.random_model(2, rng), str(tmp_path / models[0]))
    vl.save_model(vl.random_model(3, rng, real=True), str(tmp_path / models[1]))
    paths = []
    for arity in (0, 2, 4):
        names = [f"t{arity}-{i}.vld" for i in range(6)]
        for name in names:
            t = vl.random_tangle(rng, arity, int(rng.integers(4)), int(rng.integers(3)))
            vl.save_tangle(t, str(tmp_path / name))
        (tmp_path / f"c{arity}.qtl").write_text(f"term 1 0.5 {names[0]}\nterm -2 0 {names[1]}\n")
        (tmp_path / f"r{arity}.qtl").write_text(
            f"term 0.25 0 {names[2]}\nterm 0 -1 {names[3]}\nterm 0.5 0 {names[2]}\n"
        )
        paths += [*names, f"c{arity}.qtl", f"r{arity}.qtl"]
    monkeypatch.chdir(tmp_path)  # the paths eval prints are the relative ones
    for fmt, digest in (
        ("text", "1d2f133d3c01cb6a13a19257e6990183dc60a86d1055b6553ac10e27ca350a41"),
        ("csv", "e3d56dffd7ee7c16e183f9c5272b88928074fcff7d1107cd335a2b982c94f22b"),
        ("json-lines", "8211b9d24252eaaca966fbcf68b81cc5beeac8b64062b6e189bb4a3a2846226c"),
    ):
        out = ""
        for model in models:
            code, text, err = run(capsys, "eval", "--format", fmt, "--model", model, *paths)
            assert (code, err) == (0, ""), fmt
            out += text
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_eval_values_that_overflow_are_input_errors(workdir, capsys):
    # huge.qtl's coefficient is kept, though abs() of it overflows a float.
    (workdir / "huge.qtl").write_text("term 1.7e308 1.7e308 two_knots.vld\n")
    (workdir / "big.qtl").write_text("term 1e308 1e308 two_knots.vld\n")
    (workdir / "two.vld").write_text("x v1 a b c d\nx v2 c d a b\n")
    huge = vl.VertexModel(2, np.full((2,) * 4, 1e200, dtype=complex))
    vl.save_model(huge, str(workdir / "huge.json"))
    for model, path in (
        ("transmission.json", "huge.qtl"),
        ("real.json", "big.qtl"),
        ("huge.json", "two.vld"),
    ):
        for fmt in ("text", "csv", "json-lines"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(
                    capsys, "eval", "--format", fmt, "--model", workdir / model, workdir / path
                )
            message = f"vlink: error: {workdir / path}: value is not finite (the evaluation overflowed)\n"
            assert (code, out, err) == (1, "", message)


def test_eval_qtl_overflowing_sum_names_the_manifest(workdir, capsys):
    manifest = workdir / "sum.qtl"
    manifest.write_text("term 1.7e308 0 two_knots.vld\nterm 1.7e308 0 two_knots.vld\n")
    code, out, err = run(capsys, "eval", "--model", workdir / "transmission.json", manifest)
    assert (code, out) == (1, "")
    assert err.startswith(f"vlink: error: {manifest}: ")


def test_eval_missing_file(workdir, capsys):
    code, _, err = run(
        capsys, "eval", "--model", workdir / "transmission.json", workdir / "nope.vld"
    )
    assert code == 1
    assert "error" in err


def test_eval_malformed_vld(workdir, capsys):
    bad = workdir / "bad.vld"
    bad.write_text("x v1 a b c\n")
    code, _, err = run(
        capsys, "eval", "--model", workdir / "transmission.json", bad
    )
    assert code == 1
    assert "bad.vld:1" in err


def test_symmetrize_flag(workdir, capsys):
    raw = {"n": 2, "entries": [{"i": 1, "j": 1, "k": 2, "l": 2, "re": 1.0, "im": 0.0}]}
    path = workdir / "asym.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, "eval", "--model", path, workdir / "loop.vld")
    assert code == 1 and "swap" in err
    code, out, _ = run(
        capsys, "eval", "--symmetrize", "--model", path, workdir / "loop.vld"
    )
    assert code == 0
    assert out == "2 0\n"


# ---------------------------------------------------------------------------
# check


def test_check_passing_model(workdir, capsys):
    code, out, _ = run(capsys, "check", "--model", workdir / "transmission.json")
    assert code == 0
    assert out == "r1 0\nr2 0\nr3 0\npass\n"


def test_check_failing_model(workdir, capsys):
    code, out, _ = run(capsys, "check", "--model", workdir / "knots.json")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "r1 4"
    assert lines[-1] == "fail"


def test_check_json_lines(workdir, capsys):
    code, out, _ = run(
        capsys, "check", "--format", "json-lines", "--model", workdir / "knots.json"
    )
    assert code == 2
    record = json.loads(out)
    assert record["passed"] is False
    assert abs(record["r1"] - 4.0) < 1e-12


def test_check_tolerance_is_plumbed(workdir, capsys):
    code, out, _ = run(
        capsys, "check", "--tol", "20", "--model", workdir / "knots.json"
    )
    assert code == 0
    assert out.splitlines()[-1] == "pass"


# ---------------------------------------------------------------------------
# moves test


def test_moves_pass_and_deterministic(workdir, capsys):
    args = (
        "moves", "--model", workdir / "knots.json", "test",
        workdir / "two_knots.vld", workdir / "loop.vld",
        "--count", "25", "--seed", "7",
    )
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.splitlines()[-1] == "pass"
    assert out_a.startswith("applied ")


def test_moves_output_golden(tmp_path, capsys):
    # Integer entries keep every partition function exact.  The model fails
    # the move conditions and this diagram's R2+, R2- and R3 sites change f
    # by different amounts, so the output shows which site each seed picks.
    raw = np.random.default_rng(5).integers(-2, 3, (2, 2, 2, 2))
    vl.save_model(vl.VertexModel(2, raw + raw.transpose(2, 3, 0, 1)), str(tmp_path / "int.json"))
    (tmp_path / "five.vld").write_text(
        "x v0 e0 e1 e2 e3\nx v1 e2 e4 e4 e3\nx v2 e5 e6 e7 e8\n"
        "x v3 e7 e6 e1 e9\nx v4 e8 e9 e0 e5\n"
    )
    golden = {
        0: "applied 1\nmax_scaled_delta 0.102584029531766\nfail\n",
        1: "applied 1\nmax_scaled_delta 31.0918981931222\nfail\n",
        4: "applied 1\nmax_scaled_delta 0.973771128812901\nfail\n",
    }
    for seed, expected in golden.items():
        code, out, _ = run(
            capsys,
            "moves", "--model", tmp_path / "int.json", "test", tmp_path / "five.vld",
            "--count", "1", "--seed", seed,
        )
        assert (code, out) == (2, expected)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_moves_empty_or_negative_count_is_input_error(workdir, capsys, count):
    code, out, err = run(
        capsys,
        "moves", "--model", workdir / "knots.json", "test", workdir / "two_knots.vld",
        "--count", count,
    )
    assert (code, out) == (1, "")
    assert err == f"vlink: error: count must be at least 1, got {count}\n"


def test_moves_does_not_depend_on_hash_seed(tmp_path, corpus, child_env):
    # A model failing the move conditions makes the printed delta depend on
    # which sites the seeded draws land on.
    vl.save_model(vl.random_model(2, np.random.default_rng(1), real=True), str(tmp_path / "m.json"))
    paths = []
    for index in (17, 25, 26):
        paths.append(tmp_path / f"g{index}.vld")
        vl.save_tangle(corpus[index], str(paths[-1]))
    argv = ["moves", "--model", tmp_path / "m.json", "test", *paths, "--count", "40", "--seed", "3"]
    runs = set()
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "vlink.cli", *map(str, argv)],
            capture_output=True,
            env=child_env(PYTHONHASHSEED=hash_seed),
        )
        runs.add((proc.returncode, proc.stdout))
    assert len(runs) == 1
    code, out = runs.pop()
    assert code == 2 and out.startswith(b"applied 40\n")


def test_moves_rejects_open_tangles(workdir, capsys):
    code, _, err = run(
        capsys,
        "moves", "--model", workdir / "knots.json", "test", workdir / "open.vld",
    )
    assert code == 1
    assert "arity 0" in err


# ---------------------------------------------------------------------------
# kernel


def test_kernel_random_model(capsys):
    code, out, _ = run(
        capsys, "kernel", "--n", "2", "--samples", "10", "--max-vertices", "2",
        "--seed", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("max_scaled_residual ")
    assert lines[1].startswith("negative_control ")
    assert lines[2] == "pass"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--samples", "0"], "samples must be at least 1, got 0"),
        (["--samples", "-3"], "samples must be at least 1, got -3"),
        (["--max-vertices", "-1"], "max_vertices must be nonnegative, got -1"),
    ],
)
def test_kernel_empty_or_negative_probe_is_input_error(capsys, argv, message):
    code, out, err = run(capsys, "kernel", "--n", "2", *argv)
    assert (code, out) == (1, "")
    assert err == f"vlink: error: {message}\n"


@pytest.mark.parametrize("n", [-1, 0])
@pytest.mark.parametrize("argv", [["kernel"], ["random", "--kind", "model"]])
def test_random_models_check_the_state_count_before_drawing(capsys, argv, n):
    code, out, err = run(capsys, *argv, "--n", n)
    assert (code, out) == (1, "")
    assert err == f"vlink: error: state count n must be an integer >= 1, got {n}\n"


def test_kernel_zero_model_fails_control(workdir, capsys):
    # Every control tangle has a vertex, so the zero model's control is 0:
    # with vertex-free controls, the 10-sample draws read 2 and passed.
    path = workdir / "zero.json"
    path.write_text(json.dumps({"n": 2, "entries": []}))
    for samples, max_vertices, seed in [(1, 1, 0)] + [(10, 3, seed) for seed in range(5)]:
        code, out, _ = run(
            capsys, "kernel", "--model", path, "--samples", samples,
            "--max-vertices", max_vertices, "--seed", seed,
        )
        assert code == 2, seed
        assert out.splitlines()[-2:] == ["negative_control 0", "fail"], seed


# ---------------------------------------------------------------------------
# Verdicts: check, moves test and kernel


def test_verdict_bytes_and_exit_codes_are_pinned(workdir, capsys):
    # Every model and diagram here has exact (integer or zero) values, so
    # the printed numbers do not depend on BLAS.  One passing and one failing
    # run of each verdict command, in each format.
    raw = np.random.default_rng(5).integers(-2, 3, (2, 2, 2, 2))
    vl.save_model(vl.VertexModel(2, raw + raw.transpose(2, 3, 0, 1)), str(workdir / "int.json"))
    (workdir / "five.vld").write_text(
        "x v0 e0 e1 e2 e3\nx v1 e2 e4 e4 e3\nx v2 e5 e6 e7 e8\n"
        "x v3 e7 e6 e1 e9\nx v4 e8 e9 e0 e5\n"
    )
    (workdir / "zero.json").write_text(json.dumps({"n": 2, "entries": []}))
    cases = [
        (
            ["check", "--model", workdir / "transmission.json"],
            0,
            "r1 0\nr2 0\nr3 0\npass\n",
            "0.0,0.0,0.0,True\n",
            '{"passed": true, "r1": 0.0, "r2": 0.0, "r3": 0.0}\n',
        ),
        (
            ["check", "--model", workdir / "knots.json"],
            2,
            "r1 4\nr2 17.8885438199983\nr3 0\nfail\n",
            "4.0,17.88854381999832,0.0,False\n",
            '{"passed": false, "r1": 4.0, "r2": 17.88854381999832, "r3": 0.0}\n',
        ),
        (
            ["moves", "--model", workdir / "knots.json", "test", workdir / "two_knots.vld",
             workdir / "loop.vld", "--count", "25", "--seed", "7"],
            0,
            "applied 25\nmax_scaled_delta 0\npass\n",
            "25,0.0,True\n",
            '{"applied": 25, "max_scaled_delta": 0.0, "passed": true}\n',
        ),
        (
            ["moves", "--model", workdir / "int.json", "test", workdir / "five.vld",
             "--count", "1", "--seed", "1"],
            2,
            "applied 1\nmax_scaled_delta 31.0918981931222\nfail\n",
            "1,31.09189819312221,False\n",
            '{"applied": 1, "max_scaled_delta": 31.09189819312221, "passed": false}\n',
        ),
        (
            ["kernel", "--model", workdir / "knots.json", "--samples", "5", "--max-vertices", "1"],
            0,
            "max_scaled_residual 0\nnegative_control 4\npass\n",
            "0.0,4.0,True\n",
            '{"max_scaled_residual": 0.0, "negative_control": 4.0, "passed": true}\n',
        ),
        (
            ["kernel", "--model", workdir / "zero.json", "--samples", "1", "--max-vertices", "1"],
            2,
            "max_scaled_residual 0\nnegative_control 0\nfail\n",
            "0.0,0.0,False\n",
            '{"max_scaled_residual": 0.0, "negative_control": 0.0, "passed": false}\n',
        ),
    ]
    for argv, code, *outputs in cases:
        for fmt, expected in zip(("text", "csv", "json-lines"), outputs):
            assert run(capsys, *argv, "--format", fmt) == (code, expected, ""), (argv, fmt)


def test_verdicts_that_overflow_are_input_errors(workdir, capsys):
    # A figure that is not finite prints no verdict, as eval prints no value:
    # moves used to pass (max of NaN deltas kept 0), check and kernel printed
    # inf or nan with numpy warnings, and gram failed in eigvalsh after two
    # numpy warnings, naming neither.  A 1-state model of entry 1e120 made
    # kernel's 1 + |R|^v raise OverflowError; one of modulus 1.4e154 at
    # angle pi/8 gives a finite f whose abs raises OverflowError.
    two = workdir / "two.vld"
    two.write_text("x v1 a b c d\nx v2 c d a b\n")
    models = {
        "huge": np.full((2,) * 4, 1e200, dtype=complex),
        "big": np.full((1,) * 4, 1e120, dtype=complex),
        "edge": np.full((1,) * 4, 1.4e154 * np.exp(1j * np.pi / 8)),
    }
    for name, entries in models.items():
        vl.save_model(vl.VertexModel(len(entries), entries), str(workdir / f"{name}.json"))
    overflowed = " (the evaluation overflowed)"
    moves = f"{two}: f or its change under a move is not finite" + overflowed
    kernel = "not finite: max_scaled_residual, negative_control" + overflowed
    gram = "the Gram of 60 basis tangles (arity 4, max_vertices 1) is not finite" + overflowed
    cases = [
        (["moves", "--model", workdir / "huge.json", "test", two, "--count", "5"], moves),
        (["moves", "--model", workdir / "edge.json", "test", two, "--count", "5"], moves),
        (["check", "--model", workdir / "huge.json"], "not finite: r1, r2, r3" + overflowed),
        (["kernel", "--model", workdir / "huge.json", "--samples", "5"], kernel),
        (["kernel", "--model", workdir / "big.json", "--samples", "5"], kernel),
        (["gram", "--model", workdir / "huge.json", "--max-vertices", "1"], gram),
    ]
    for argv, message in cases:
        # gram takes no --format, so it runs once.
        for fmt in ((None,) if argv[0] == "gram" else ("text", "csv", "json-lines")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = run(capsys, *argv, *(("--format", fmt) if fmt else ()))
            assert result == (1, "", f"vlink: error: {message}\n"), (argv, fmt)


# ---------------------------------------------------------------------------
# gram


def test_gram_outputs_matrix_and_eigenvalue(workdir, capsys):
    code, out, err = run(
        capsys, "gram", "--model", workdir / "real.json", "--max-vertices", "1"
    )
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 60
    assert all(len(row.split(",")) == 60 for row in rows)
    assert err.startswith("min_eigenvalue ")


def test_gram_judges_a_finite_gram_past_half_the_float_range(workdir, capsys):
    # The Gram of this model is finite, but (a + b) / 2 of its largest
    # entries overflowed, and gram exited 1 with "Eigenvalues did not
    # converge".
    model = vl.random_model(2, np.random.default_rng(0), real=True)
    vl.save_model(vl.VertexModel(2, model.entries * 1.8e153), str(workdir / "wide.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "gram", "--model", workdir / "wide.json", "--max-vertices", "1")
    assert code in (0, 2), err
    assert len(out.splitlines()) == 60
    assert err.startswith("min_eigenvalue ") and "did not converge" not in err


def test_subcommands_refuse_flags_they_do_not_read(workdir, capsys):
    # gram and random never read --format, and eval, enumerate and random
    # never read --tol, so none of them accepts the flag it does not read.
    for argv, flag in (
        (["gram", "--model", workdir / "real.json", "--format", "json-lines"], "--format"),
        (["random", "--kind", "model", "--format", "csv"], "--format"),
        (["eval", "--model", workdir / "knots.json", "--tol", "1e-6", workdir / "loop.vld"], "--tol"),
        (["enumerate", "--k", "2", "--tol", "1"], "--tol"),
        (["random", "--kind", "model", "--tol", "1"], "--tol"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"unrecognized arguments: {flag}" in err, argv


def test_modes_refuse_flags_they_do_not_read(workdir, capsys):
    # kernel reads --n only for its random model and --symmetrize only for a
    # model file; random reads --n and --real only for a model, and --k,
    # --vertices and --loops only for a tangle.
    model = workdir / "knots.json"
    for argv, message in (
        (["kernel", "--symmetrize", "--samples", "2"], "--symmetrize is read only with --model"),
        (["kernel", "--model", model, "--n", "5"], "--n is read only without --model"),
        (["kernel", "--model", model, "--n", "2"], "--n is read only without --model"),
        (["random", "--kind", "model", "--k", "4", "--vertices", "9", "--loops", "3"],
         "--k is read only with --kind tangle"),
        (["random", "--kind", "model", "--k", "0"], "--k is read only with --kind tangle"),
        (["random", "--kind", "model", "--loops", "0"], "--loops is read only with --kind tangle"),
        (["random", "--kind", "tangle", "--n", "7", "--real"], "--n is read only with --kind model"),
        (["random", "--kind", "tangle", "--real"], "--real is read only with --kind model"),
    ):
        assert run(capsys, *argv) == (1, "", f"vlink: error: {message}\n"), argv


def test_flags_that_are_read_keep_their_defaults(capsys):
    for given, default in (
        (["kernel", "--n", "2"], ["kernel"]),
        (["random", "--kind", "model", "--n", "2"], ["random", "--kind", "model"]),
        (
            ["random", "--kind", "tangle", "--k", "0", "--vertices", "2", "--loops", "0"],
            ["random", "--kind", "tangle"],
        ),
    ):
        assert run(capsys, *given) == run(capsys, *default), given


def test_gram_above_the_byte_bound_is_input_error(workdir, capsys, monkeypatch):
    monkeypatch.setattr(vlink.characterize, "GRAM_BYTES_BOUND", 16 * 60**2 - 1)
    code, out, err = run(capsys, "gram", "--model", workdir / "real.json", "--max-vertices", "1")
    assert (code, out) == (1, "")
    assert err == (
        "vlink: error: the Gram of 60 basis tangles (arity 4, max_vertices 1) "
        "needs 57600 bytes, above the bound of 57599\n"
    )


def test_gram_complex_model_is_input_error(workdir, capsys):
    code, _, err = run(
        capsys, "gram", "--model", workdir / "knots.json", "--max-vertices", "1"
    )
    assert code == 1
    assert "real" in err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_text(capsys):
    code, out, err = run(capsys, "enumerate", "--k", "2", "--max-vertices", "1")
    assert code == 0
    assert out.count("%%") == 10
    assert err == "count 10\n"


def test_enumerate_csv_deterministic(capsys):
    code_a, out_a, _ = run(
        capsys, "enumerate", "--format", "csv", "--k", "4", "--max-vertices", "1"
    )
    code_b, out_b, _ = run(
        capsys, "enumerate", "--format", "csv", "--k", "4", "--max-vertices", "1"
    )
    assert code_a == code_b == 0
    assert out_a == out_b
    assert len(out_a.splitlines()) == 60


def test_enumerate_json_lines_parse_back(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--format", "json-lines", "--k", "2", "--max-vertices", "1"
    )
    assert code == 0
    for line in out.splitlines():
        record = json.loads(line)
        t = vl.parse_tangle(record["vld"])
        assert t.arity == 2
        assert t.num_vertices == record["num_vertices"]


def test_enumerate_budget_error(capsys):
    code, _, err = run(capsys, "enumerate", "--k", "2", "--max-vertices", "9")
    assert code == 1
    assert "endpoint budget" in err


def test_negative_sizes_are_input_errors(workdir, capsys):
    code, out, err = run(capsys, "enumerate", "--k", "-2", "--max-vertices", "1")
    assert (code, out, err) == (1, "", "vlink: error: arity must be nonnegative, got -2\n")
    code, out, err = run(capsys, "enumerate", "--k", "2", "--max-vertices", "-1")
    assert (code, out) == (1, "")
    assert err == "vlink: error: max_vertices must be nonnegative, got -1\n"
    code, out, err = run(
        capsys, "gram", "--model", workdir / "real.json", "--max-vertices", "-1"
    )
    assert (code, out) == (1, "")
    assert err == "vlink: error: max_vertices must be nonnegative, got -1\n"


def test_enumerate_output_bytes_are_pinned(capsys):
    # Classes print in canonical-key order; these digests pin every byte of
    # the output, closed classes (keyed by the least code over their
    # starts) and 4-tangles.
    for argv, count, digest in (
        (["--k", "0", "--max-vertices", "3"], 338, "7e59a818aba0b5c1ae290c0f07e3c36af0659a6557f6b9e0376877c845261ff1"),
        (["--k", "4", "--max-vertices", "2"], 1470, "613285963fb41e7b3d67fc7afe8e047c5ea5621da271654cdeb78ab11b7ddc86"),
    ):
        code, out, err = run(capsys, "enumerate", *argv)
        assert (code, err) == (0, f"count {count}\n")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_enumerate_does_not_depend_on_hash_seed(child_env):
    outputs = set()
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "vlink.cli", "enumerate", "--k", "2", "--max-vertices", "2"],
            capture_output=True,
            env=child_env(PYTHONHASHSEED=hash_seed),
            check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert outputs.pop().count(b"%%") == 150


# ---------------------------------------------------------------------------
# random


def test_random_model_round_trips(tmp_path, capsys):
    code, out, _ = run(capsys, "random", "--kind", "model", "--n", "3", "--seed", "5")
    assert code == 0
    path = tmp_path / "m.json"
    path.write_text(out)
    model = vl.load_model(str(path))
    assert model.n == 3
    assert not model.is_real


def test_random_model_deterministic_bytes(capsys):
    _, out_a, _ = run(capsys, "random", "--kind", "model", "--n", "2", "--seed", "9")
    _, out_b, _ = run(capsys, "random", "--kind", "model", "--n", "2", "--seed", "9")
    assert out_a == out_b
    _, out_c, _ = run(capsys, "random", "--kind", "model", "--n", "2", "--seed", "10")
    assert out_a != out_c


def test_random_real_model(capsys):
    code, out, _ = run(
        capsys, "random", "--kind", "model", "--n", "2", "--seed", "3", "--real"
    )
    assert code == 0
    assert all(entry["im"] == 0.0 for entry in json.loads(out)["entries"])


def test_random_tangle_parses(capsys):
    code, out, _ = run(
        capsys,
        "random", "--kind", "tangle", "--k", "4", "--vertices", "2",
        "--loops", "1", "--seed", "8",
    )
    assert code == 0
    t = vl.parse_tangle(out)
    assert (t.arity, t.num_vertices, t.loop_count) == (4, 2, 1)


def test_random_tangle_of_negative_arity_is_refused(capsys):
    # An even negative arity once drew a closed diagram and exited 0.
    code, out, err = run(capsys, "random", "--kind", "tangle", "--k", "-2", "--vertices", "1")
    assert (code, out) == (1, "")
    assert err == "vlink: error: arity must be nonnegative, got -2\n"


# ---------------------------------------------------------------------------
# Usage and entry point


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "eval", "x.vld")[0] == 1  # --model required
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "eval", "--help")[0] == 0


def test_console_script_installed(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "vlink.cli", "--help"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "vlink" in proc.stdout


def test_parser_reuse_matches_fresh_processes(workdir, capsys, monkeypatch, child_env):
    # One in-process sequence, each call against a fresh `vlink` process.
    # The help width is read when help is printed, not when the parser is
    # built, so a width set now holds even if the parser already exists.
    monkeypatch.setenv("COLUMNS", "60")  # narrower than the default 80
    builds = []
    original = vlink.cli.build_parser
    monkeypatch.setattr(vlink.cli, "build_parser", lambda: builds.append(1) or original())
    sequence = [
        ["eval", "x.vld"],
        ["--help"],
        ["eval", "--model", workdir / "transmission.json", workdir / "loop.vld",
         workdir / "two_knots.vld"],
        ["check", "--model", workdir / "transmission.json"],
        ["enumerate", "--k", "2", "--max-vertices", "1"],
        ["random", "--kind", "model", "--seed", "3", "--real"],
        ["eval", "--model", workdir / "knots.json", "--format", "json-lines",
         workdir / "open.vld"],
    ]
    codes = []
    for argv in sequence:
        argv = [str(a) for a in argv]
        in_process = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "vlink.cli", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert in_process == (proc.returncode, proc.stdout, proc.stderr), argv
        codes.append(in_process[0])
    assert codes == [1, 0, 0, 0, 0, 0, 0]
    assert len(builds) <= 1


def test_build_parser_is_fresh(capsys):
    assert build_parser() is not build_parser()
    mutated = build_parser()
    mutated.add_argument("--extra")
    assert mutated.parse_args(["--extra", "1", "random", "--kind", "model"]).extra == "1"
    code, out, err = run(capsys, "--extra", "1", "random", "--kind", "model")
    assert (code, out) == (1, "")
    assert err.startswith("usage: vlink [-h] {eval,")
    assert run(capsys, "random", "--kind", "model")[0] == 0


#: Child process: cap its address space at 128 MiB above what it has
#: mapped after importing vlink, then run the CLI on its arguments.
_CAPPED_CLI = """
import os, resource, sys
from vlink.cli import main
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
cap = mapped + (128 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
def test_eval_out_of_memory_is_an_error(tmp_path, child_env):
    # At n=4 this plan's widest intermediate holds 4^14 complex entries (4 GiB).
    t = vl.random_tangle(np.random.default_rng(0), 0, 40)
    assert plan_contraction(t, 1).peak_arity == 14
    # The plan the CLI runs at n=4 still needs more than the child's cap.
    assert plan_contraction(t, 4).peak_bytes(4) > 128 << 20
    vl.save_tangle(t, str(tmp_path / "big.vld"))
    vl.save_model(vl.random_model(4, np.random.default_rng(0)), str(tmp_path / "n4.json"))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, "eval", "--model",
         str(tmp_path / "n4.json"), str(tmp_path / "big.vld")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("vlink: error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
def test_model_tensor_out_of_memory_names_the_file(workdir, child_env):
    # 300**4 complex entries (121 GiB) are a shape numpy accepts, but no
    # allocation the child may make.
    path = workdir / "big.json"
    path.write_text('{"n": 300}')
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, "eval", "--model", str(path),
         str(workdir / "loop.vld")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"vlink: error: {path}: Unable to allocate ")


def test_model_too_large_to_allocate_names_the_file(workdir, capsys):
    # 3000**4 complex entries (1.15 PiB): numpy refuses the request at once.
    path = workdir / "huge.json"
    path.write_text('{"n": 3000, "entries": []}')
    code, out, err = run(capsys, "eval", "--model", path, workdir / "loop.vld")
    assert (code, out) == (1, "")
    assert err.startswith(f"vlink: error: {path}: Unable to allocate ")


def test_output_into_a_closed_pipe_exits_quietly(child_env):
    # The listing (about 100 KB) outgrows a pipe's buffer, so the child is
    # still writing when its reader goes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "vlink.cli", "enumerate", "--k", "4", "--max-vertices", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_loop_factor_overflow_is_input_error(workdir, capsys):
    loops = workdir / "loops.vld"
    loops.write_text("loops 1100\n")
    model = workdir / "real.json"
    message = f"vlink: error: {loops}: n^loops overflows a float: n = 2, 1100 vertexless loops\n"
    for argv in (["eval", "--model", model, loops], ["moves", "--model", model, "test", loops]):
        assert run(capsys, *argv) == (1, "", message)


def test_eval_mixed_arities_names_the_manifest(workdir, capsys):
    # The manifest loads, and its evaluation fails: the error names it once.
    manifest = workdir / "mix.qtl"
    manifest.write_text("term 1 0 loop.vld\nterm 1 0 open.vld\n")
    code, out, err = run(capsys, "eval", "--model", workdir / "knots.json", workdir / "loop.vld", manifest)
    message = f"vlink: error: {manifest}: mixed arities in combination: [0, 2]\n"
    assert (code, out, err) == (1, "2 0\n", message)


def test_moves_diagram_without_move_sites_is_input_error(workdir, capsys):
    empty = workdir / "empty.vld"
    empty.write_text("")
    for paths in ([empty], [workdir / "two_knots.vld", empty]):
        code, out, err = run(
            capsys,
            "moves", "--model", workdir / "knots.json", "test", *paths,
            "--count", "5", "--seed", "0",
        )
        assert (code, out) == (1, "")
        assert err == f"vlink: error: {empty}: diagram admits no move sites\n"


def test_undecodable_diagram_files_name_the_file(workdir, capsys):
    (workdir / "bad.vld").write_bytes(b"x v1 a b a b\n\xff\n")
    (workdir / "bad.qtl").write_bytes(b"term 1 0 loop.vld\n\xfe\n")
    (workdir / "refers.qtl").write_text("term 1 0 bad.vld\n")
    for path, culprit, position, byte in (
        ("bad.vld", "bad.vld", 13, "0xff"),
        ("bad.qtl", "bad.qtl", 18, "0xfe"),
        ("refers.qtl", "bad.vld", 13, "0xff"),
    ):
        message = f"{workdir / culprit}: 'utf-8' codec can't decode byte {byte} in position {position}: invalid start byte"
        code, out, err = run(capsys, "eval", "--model", workdir / "knots.json", workdir / path)
        assert (code, out, err) == (1, "", f"vlink: error: {message}\n")
    with pytest.raises(vl.VldError) as info:
        vl.load_tangle(str(workdir / "bad.vld"))
    assert info.value.source == str(workdir / "bad.vld")


def test_import_does_not_load_hashlib(workdir, child_env):
    # hashlib costs milliseconds to import: neither start-up nor a one-shot
    # `vlink eval`, whose model cache is keyed by the file text, imports it.
    script = (
        "import sys, vlink, vlink.cli\n"
        "print('hashlib' in sys.modules)\n"
        "code = vlink.cli.main(['eval', '--model', sys.argv[1], sys.argv[2]])\n"
        "print(code, 'hashlib' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(workdir / "knots.json"), str(workdir / "loop.vld")],
        capture_output=True,
        text=True,
        env=child_env(),
        check=True,
    )
    assert proc.stdout == "False\n2 0\n0 False\n"
