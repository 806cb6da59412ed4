"""End-to-end CLI tests, run in-process through main()."""

import contextlib
import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import partsums
import references
from partsums import asymptotics, cli, exact
from partsums.cli import main

BFILE = Path(__file__).parent / "data" / "b000712_16.txt"
HELP_GOLDEN = Path(__file__).parent / "data" / "golden" / "help.txt"
TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _package_env():
    """Environment for a subprocess that imports this checkout's partsums."""
    src = str(Path(partsums.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_f_table_text(capsys):
    code, out, err = run(capsys, ["f-table", "--n", "20"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("f-table")
    assert any(line.split()[:3] == ["7", "109", "110"] for line in lines)


def test_f_table_json_serializes_integers_as_strings(capsys):
    code, out, _ = run(capsys, ["f-table", "--n", "20", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "f-table"
    assert doc["parameters"]["n"] == "20"
    assert doc["columns"] == ["j", "f", "pair_count", "match"]
    row7 = doc["rows"][7]
    assert row7 == ["7", "109", "110", False]


def test_f_table_csv(capsys):
    code, out, _ = run(capsys, ["f-table", "--n", "8", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["j", "f", "pair_count", "match"]
    assert rows[1] == ["0", "1", "1", "True"]
    assert len(rows) == 2 + 8 // 2 + 1


def test_f_table_zero(capsys):
    code, out, _ = run(capsys, ["f-table", "--n", "0", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [["0", "1", "1", True]]


def test_theorem1_pass(capsys):
    code, out, _ = run(capsys, ["theorem1", "--n-max", "40", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["verdict"] == "PASS"
    assert len(doc["rows"]) == 38  # n = 3..40
    assert all(row[3] for row in doc["rows"])


def test_theorem1_rejects_small_range(capsys):
    code, _, err = run(capsys, ["theorem1", "--n-max", "2"])
    assert code == 2
    assert "argument --n-max: must be >= 3" in err


def test_expectation_exact_fraction_roundtrips(capsys):
    code, out, _ = run(
        capsys,
        ["expectation", "--m", "2", "--i", "1", "--n", "300", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    (row,) = doc["rows"]
    num, den = row[1].split("/")
    assert Fraction(int(num), int(den)) == exact.expected_subsum(300, 2, 1)


def test_expectation_multiple_n(capsys):
    code, out, _ = run(
        capsys,
        ["expectation", "--m", "3", "--i", "3", "--n", "50", "--n", "10",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert [row[0] for row in doc["rows"]] == ["10", "50"]


def test_convergence_improves(capsys):
    code, out, _ = run(
        capsys,
        ["convergence", "--m", "2", "--i", "2", "--n-max", "6400",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["improving"] is True
    assert [row[0] for row in doc["rows"]] == ["100", "400", "1600", "6400"]


def test_convergence_exact_residuals_count_as_improving(capsys):
    # The m = 1 mean is exactly n, so every residual is 0.
    code, out, _ = run(
        capsys,
        ["convergence", "--m", "1", "--i", "1", "--n-max", "400",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["parameters"]["improving"] is True


def test_expectation_and_convergence_print_one_rounded_mean(capsys):
    # n = 500 is a convergence ladder rung; the exact mean is rounded once,
    # so both commands print the same mean and residual cells.
    exact_mean = exact.expected_subsum(500, 5, 3)
    with mp.workprec(56 + 400):  # DOUBLE is 56 bits; this reference is far wider
        wide = mp.fdiv(exact_mean.numerator, exact_mean.denominator)
    with mp.workdps(16):
        want = mp.nstr(+wide, 17)
    tail = ["--precision", "double", "--format", "csv"]
    _, conv, _ = run(capsys, ["convergence", "--m", "5", "--i", "3",
                              "--n-max", "2000", *tail])
    _, expe, _ = run(capsys, ["expectation", "--m", "5", "--i", "3",
                              "--n", "500", *tail])
    conv_row = next(r for r in csv.reader(io.StringIO(conv)) if r[0] == "500")
    expe_row = list(csv.reader(io.StringIO(expe)))[1]
    assert conv_row[1] == expe_row[2] == want
    assert conv_row[2] == expe_row[4]


def test_residual_keeps_every_printed_digit(capsys):
    # n/m cancels about 6 leading digits of the mean at (32000, 3, 2)
    n, m, i = 32000, 3, 2
    code, out, _ = run(capsys, ["expectation", "--m", str(m), "--i", str(i),
                                "--n", str(n), "--format", "json"])
    assert code == 0
    residual = json.loads(out)["rows"][0][4]
    mean = exact.expected_subsum(n, m, i)
    with mp.workdps(80):
        ref = mp.mpf(mean.numerator) / mean.denominator - references.predicted(n, m, i)
        assert asymptotics.b_coeff(m, i) == 0
        assert abs(mp.mpf(residual) - ref) < mp.mpf("1e-49") * abs(ref)


def _reference_cells(n, m, i):
    """predicted, residual and the two ratios of (n, m, i) at 90 digits."""
    mean = exact.expected_subsum(n, m, i)
    with mp.workdps(90):
        rn = mp.sqrt(n)
        predicted = references.predicted(n, m, i)
        residual = mp.mpf(mean.numerator) / mean.denominator - predicted
        return {"predicted": predicted, "residual": residual,
                "abs_residual_over_sqrt_n": abs(residual) / rn,
                "abs_residual_over_log_n": abs(residual) / mp.log(n)}


# DOUBLE text cells that rounding twice leaves one unit off in the last digit
ROUNDED_ONCE = {("125", "predicted"): "69.987419309325176",
                ("125", "abs_residual_over_sqrt_n"): "0.0018047314179870316"}


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_printed_floats_are_rounded_once(capsys, precision):
    dps = asymptotics.precision_named(precision).dps
    checked = set()
    for argv, m, i in (
            (["expectation", "--m", "2", "--i", "1", "--n", "125", "--n", "8000"], 2, 1),
            (["convergence", "--m", "5", "--i", "3", "--n-max", "2000"], 5, 3)):
        for fmt, digits in (("text", 17), ("json", dps)):
            code, out, _ = run(capsys, argv + ["--precision", precision,
                                               "--format", fmt])
            assert code == 0
            if fmt == "json":
                doc = json.loads(out)
                columns, rows = doc["columns"], doc["rows"]
            else:
                lines = out.splitlines()[1:]
                columns, rows = lines[0].split(), [s.split() for s in lines[1:]]
            for row in rows:
                cells = dict(zip(columns, row))
                for col, ref in _reference_cells(int(row[0]), m, i).items():
                    if col in cells:
                        with mp.workdps(dps):
                            assert cells[col] == mp.nstr(+ref, digits), (argv, row[0], col)
                        checked.add((argv[0], fmt, col))
                        pinned = (row[0], col)
                        if (precision, fmt) == ("double", "text") and pinned in ROUNDED_ONCE:
                            assert cells[col] == ROUNDED_ONCE[pinned]
    assert len(checked) == 10  # 2 expectation and 3 convergence columns, 2 formats


def test_expectation_rejects_small_n_before_the_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run(capsys, ["expectation", "--m", "2", "--i", "1", "--n", "40",
                        "--cache-dir", str(cache)])[0] == 0
    code, out, err = run(capsys, ["expectation", "--m", "2", "--i", "1",
                                  "--n", "-5", "--cache-dir", str(cache)])
    assert code == 2
    assert out == ""
    assert "argument --n: must be >= 1" in err
    assert "p-table" not in err


def test_bad_class_is_rejected_before_table_work(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out, err = run(capsys, ["convergence", "--m", "2", "--i", "5",
                                  "--n-max", "32000", "--cache-dir", str(cache)])
    assert code == 2
    assert out == ""
    assert "residue index" in err
    assert not list(cache.glob("p-table-*"))


def test_convergence_needs_room_for_a_ladder(capsys):
    code, _, err = run(capsys, ["convergence", "--m", "2", "--i", "1",
                                "--n-max", "300"])
    assert code == 2
    assert "ladder" in err


def test_constants_pass(capsys):
    code, out, _ = run(capsys, ["constants", "--m", "6", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["verdict"] == "PASS"
    labels = [row[0] for row in doc["rows"]]
    assert "gamma[1] roots-of-unity" in labels
    assert "gamma[6] digamma" in labels
    assert "b[3]" in labels and "c[6]" in labels
    assert "gamma_sum" in labels and "max_cross_deviation" in labels


def test_constants_json_keeps_working_precision(capsys):
    code, out, _ = run(capsys, ["constants", "--m", "2", "--format", "json"])
    assert code == 0
    rows = dict((row[0], row[1]) for row in json.loads(out)["rows"])
    with mp.workdps(70):
        err = abs(mp.mpf(rows["gamma[1] roots-of-unity"]) - mp.log(2) / 2)
        assert err < mp.mpf("1e-45")


def test_constants_double_precision(capsys):
    code, out, _ = run(
        capsys, ["constants", "--m", "4", "--precision", "double"]
    )
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("m", [17, 40, 64])
def test_constants_routes_print_the_same_cell(capsys, m, precision):
    code, out, _ = run(capsys, ["constants", "--m", str(m), "--precision",
                                precision, "--format", "json"])
    assert code == 0
    rows = dict(json.loads(out)["rows"])
    for h in range(1, m + 1):
        cells = {rows[f"gamma[{h}] {route}"]
                 for route in ("roots-of-unity", "gauss", "digamma")}
        assert len(cells) == 1, (h, cells)


def test_lambert_within_error_proxy(capsys):
    code, out, _ = run(
        capsys,
        ["lambert", "--alpha", "0.05", "--m", "3", "--h", "2", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    rows = dict((row[0], row[1]) for row in doc["rows"])
    assert rows["within_2x_last_term"] is True
    assert rows["terms_used"] == "8"
    assert float(rows["abs_difference"]) <= 2 * float(rows["last_term_magnitude"])


def test_lambert_double_check_is_not_failed_by_rounding(capsys):
    # |exact - series| is 1.6e-24 and twice the last term 7.5e-20, far below
    # the spacing of 56-bit numbers near 161.
    code, out, _ = run(capsys, ["lambert", "--alpha", "0.01", "--m", "3",
                                "--h", "2", "--precision", "double"])
    assert code == 0
    assert "within_2x_last_term  True" in out


def test_lambert_double_grid_within_2x_last_term(capsys):
    failures = []
    for alpha in ("0.1", "0.05", "0.02", "0.01", "0.005", "0.002", "0.001"):
        for m in range(1, 7):
            for h in range(1, m + 1):
                code, out, _ = run(capsys, [
                    "lambert", "--alpha", alpha, "--m", str(m), "--h", str(h),
                    "--precision", "double", "--format", "json"])
                rows = dict(json.loads(out)["rows"]) if code == 0 else {}
                if rows.get("within_2x_last_term") is not True:
                    failures.append((alpha, m, h))
    assert not failures


def test_lambert_rejects_nonpositive_max_terms(capsys):
    for terms in ("0", "-1"):
        code, out, err = run(
            capsys,
            ["lambert", "--alpha", "0.05", "--m", "3", "--h", "2",
             "--max-terms", terms, "--format", "json"],
        )
        assert code == 2
        assert out == ""
        assert "argument --max-terms: must be >= 1" in err


def test_lambert_without_error_proxy_is_usage_error(capsys):
    # At m = 2h the first tail coefficient is 0, so one term keeps nothing;
    # the usage error is the one report, with no warning beside it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys,
            ["lambert", "--alpha", "0.05", "--m", "2", "--h", "1",
             "--max-terms", "1"],
        )
    assert code == 2
    assert out == ""
    assert "--max-terms" in err


def test_lambert_truncation_warning_shows_once():
    # Under the default warning filters a warning shows once per call site,
    # however many precisions the command tries.
    env = _package_env()
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "partsums", "lambert", "--alpha", "40",
         "--m", "1", "--h", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("lambert (alpha=40, m=1, h=1,")
    assert proc.stderr.count("Lambert tail truncated at its first term") == 1


def test_cli_warning_and_error_print_one_line():
    # entry() prints a warning like an error: one line, no source path
    env = _package_env()
    env.pop("PYTHONWARNINGS", None)
    for argv, code, stderr in [
        (["--alpha", "40", "--m", "1", "--h", "1"], 0,
         "warning: Lambert tail truncated at its first term; alpha = 40.0 is"
         " too large for the asymptotic expansion\n"),
        (["--alpha", "0.3", "--m", "2", "--h", "1", "--max-terms", "1"], 2,
         "error: --max-terms 1 keeps no nonzero tail term, so there is no"
         " error proxy to check against\n"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "partsums", "lambert", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (code, stderr), argv


def test_lambert_rejects_bad_alpha(capsys):
    code, _, err = run(capsys, ["lambert", "--alpha", "-1", "--m", "1", "--h", "1"])
    assert code == 2
    assert "alpha" in err


def test_lambert_rejects_unresolvable_alpha(capsys):
    for alpha, reason in [("inf", "finite"), ("1e-60", "too small")]:
        code, out, err = run(
            capsys, ["lambert", "--alpha", alpha, "--m", "2", "--h", "1"]
        )
        assert code == 2, alpha
        assert out == ""
        assert reason in err


def test_lambert_nan_alpha_exits_2_without_hanging():
    # A NaN term never compares below the stop threshold, so a missing check
    # loops forever, and a tiny alpha needs ~1e18 terms; the subprocess
    # timeout turns either into a failure.
    env = _package_env()
    for extra, reason in [
        (["--alpha", "nan"], "finite"),
        (["--alpha", "1e-17", "--precision", "double"], "too small"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from partsums.cli import main; sys.exit(main(sys.argv[1:]))",
             "lambert", "--m", "2", "--h", "1", *extra],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, extra
        assert proc.stdout == ""
        assert reason in proc.stderr


def test_python_m_partsums_runs_the_cli():
    env = _package_env()
    proc = subprocess.run(
        [sys.executable, "-m", "partsums", "f-table", "--n", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "f-table (n=5)"
    assert proc.stdout.splitlines()[1].split() == ["j", "f", "pair_count", "match"]
    proc = subprocess.run(
        [sys.executable, "-m", "partsums", "f-table"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_closed_stdout_pipe_keeps_the_exit_status():
    # The reader leaves after one line, as `| head -1` does.  The 107 kB
    # table overruns the 64 kB pipe buffer, so the CLI is still writing then.
    with subprocess.Popen(
        [sys.executable, "-m", "partsums", "f-table", "--n", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_package_env(),
    ) as proc:
        assert proc.stdout.readline() == b"f-table (n=2000)\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(n):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(exact, "f_table", broken)
    code, out, err = run(capsys, ["f-table", "--n", "5"])
    assert code == 3
    assert out == ""
    assert "ZeroDivisionError: injected" in err


def test_consistency_failure_exits_1(capsys, monkeypatch):
    def broken(n):
        raise exact.ConsistencyError("injected")

    monkeypatch.setattr(exact, "f_table", broken)
    code, out, err = run(capsys, ["f-table", "--n", "5"])
    assert code == 1
    assert out == ""
    assert err == "consistency failure: injected\n"


def _prediction_off_by_n(f):
    return lambda n, *rest: f(n, *rest) + n


# id -> (argv, (module, name, wrap) or None, exit code, first line, one row).
# wrap(real) is the stand-in; a float in the row is compared to 1e-3 relative.
_VERDICTS = {
    "theorem1": (["theorem1", "--n-max", "8"],
                 (exact, "theorem1_check", lambda f: lambda n: f(n) + (n == 5)),
                 1, "theorem1 (n_max=8, verdict=FAIL)", ["5", "3", "2", "False"]),
    "convergence": (["convergence", "--m", "2", "--i", "2", "--n-max", "1600"],
                    (asymptotics, "predict_expected_subsum", _prediction_off_by_n),
                    1, "convergence (m=2, i=2, n_max=1600, precision=extended,"
                       " improving=False)", ["1600", 762.874, -1600.40]),
    "constants": (["constants", "--m", "3", "--precision", "double"],
                  (asymptotics, "gamma_mh_digamma",
                   lambda f: lambda *a: f(*a) + mp.mpf("1e-3")),
                  1, "constants (m=3, precision=double, verdict=FAIL)",
                  ["max_cross_deviation", 1e-3]),
    "lambert": (["lambert", "--alpha", "0.05", "--m", "3", "--h", "2"],
                (asymptotics, "lambert_tau_exact", lambda f: lambda *a: 2 * f(*a)),
                1, "lambert (alpha=0.05, m=3, h=2, max_terms=8, precision=extended)",
                ["within_2x_last_term", "False"]),
    "bijection": (["bijection", "--partition", "5,4,2,1"],
                  (cli, "inverse", lambda f: lambda alpha, beta, n: (n,)),
                  1, "bijection (partition=5,4,2,1)", ["roundtrip_ok", "False"]),
    "oeis-check": (["oeis-check", "--bfile", str(BFILE)],
                   (exact, "a000712", lambda f: lambda j: f(j) + (j == 3)),
                   1, f"oeis-check (bfile={BFILE}, generator=a000712, count=16)",
                   ["first_mismatch_index", "3"]),
    # no verdict: a mismatch or a wrong prediction is a value, not a failure
    "f-table": (["f-table", "--n", "8"], None,
                0, "f-table (n=8)", ["3", "9", "10", "False"]),
    "expectation": (["expectation", "--m", "2", "--i", "2", "--n", "1600"],
                    (asymptotics, "predict_expected_subsum", _prediction_off_by_n),
                    0, "expectation (m=2, i=2, precision=extended)", ["1600"]),
}


@pytest.mark.parametrize("argv, patch, status, first, row", _VERDICTS.values(),
                         ids=list(_VERDICTS))
def test_verdict_sets_the_exit_code_and_the_table_still_prints(
        argv, patch, status, first, row, capsys, monkeypatch):
    if patch is not None:
        module, name, wrap = patch
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code, out, err = run(capsys, argv)
    assert (code, err) == (status, "")
    lines = out.splitlines()
    assert lines[0] == first

    def matches(cells):
        return len(cells) >= len(row) and all(
            c == w if isinstance(w, str) else float(c) == pytest.approx(w, rel=1e-3)
            for c, w in zip(cells, row))

    assert sum(matches(line.split()) for line in lines[2:]) == 1, out


# Imports the CLI, then runs each argv in the same interpreter.  For each
# step it prints the exit code, the watched modules that step loaded and
# the argv.  Modules loaded before the import (a site hook's) never count.
_IMPORT_PROBE = """
import contextlib, io, sys
watched = {"dataclasses", "inspect", "csv", "json", "traceback"}
seen = set(sys.modules)
def step(code, argv):
    global seen
    added = watched & (set(sys.modules) - seen)
    seen = set(sys.modules)
    print(code, ",".join(sorted(added)), argv, sep="\t")
from partsums.cli import main
step(0, "import")
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv.split())
    step(code, argv)
"""


def test_runs_import_only_the_modules_their_format_uses():
    ladder = "convergence --m 3 --i 2 --n-max 400"
    text_runs = [ladder, "expectation --m 3 --i 2 --n 400", "constants --m 5",
                 "lambert --alpha 0.05 --m 3 --h 2", "f-table --n 20",
                 "bijection --partition 5,4,2,2,1"]
    json_run, csv_run = f"{ladder} --format json", f"{ladder} --format csv"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *text_runs, json_run, csv_run],
        capture_output=True, text=True, env=_package_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    steps = [line.split("\t") for line in proc.stdout.splitlines()]
    expected = [("import", ""), *((argv, "") for argv in text_runs),
                (json_run, "json"), (csv_run, "csv")]
    assert [(argv, added) for _, added, argv in steps] == expected
    assert {code for code, _, _ in steps} == {"0"}


def test_constants_rejects_nonpositive_modulus(capsys):
    for m in ("0", "-3"):
        code, out, err = run(capsys, ["constants", "--m", m])
        assert code == 2
        assert out == ""
        assert "argument --m: must be >= 1" in err


def test_bijection_forward(capsys):
    code, out, _ = run(
        capsys, ["bijection", "--partition", "5,4,2,1", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    rows = dict((row[0], row[1]) for row in doc["rows"])
    assert rows["alpha"] == "(2,1,1)"
    assert rows["beta"] == "(1)"
    assert rows["j"] == "5"
    assert rows["roundtrip_ok"] is True


def test_bijection_inverse(capsys):
    code, out, _ = run(
        capsys,
        ["bijection", "--alpha", "2,1", "--beta", "1", "--n", "12",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    rows = dict((row[0], row[1]) for row in doc["rows"])
    assert rows["partition"] == "(6,3,2,1)"


def test_bijection_empty_pair(capsys):
    code, out, _ = run(
        capsys,
        ["bijection", "--alpha", "", "--beta", "", "--n", "7", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    rows = dict((row[0], row[1]) for row in doc["rows"])
    assert rows["partition"] == "(7)"


def test_bijection_no_preimage_is_usage_error(capsys):
    code, _, err = run(
        capsys, ["bijection", "--alpha", "3", "--beta", "3", "--n", "10"]
    )
    assert code == 2
    assert "exceeds" in err


def test_bijection_inverse_needs_all_pieces(capsys):
    code, _, err = run(capsys, ["bijection", "--alpha", "2,1"])
    assert code == 2


def test_bijection_forward_rejects_inverse_options(capsys):
    for extra in (["--beta", "2", "--n", "9"], ["--beta", ""], ["--n", "0"]):
        code, out, err = run(capsys, ["bijection", "--partition", "3,1", *extra])
        assert code == 2, extra
        assert out == ""
        assert err.startswith("usage: partsums bijection "), err
        assert "takes no --beta or --n" in err


def test_bijection_bad_partition_text(capsys):
    code, _, err = run(capsys, ["bijection", "--partition", "2,x"])
    assert code == 2
    assert "parse" in err


def test_oeis_check_reference_file(capsys):
    code, out, _ = run(
        capsys, ["oeis-check", "--bfile", str(BFILE), "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    rows = dict((row[0], row[1]) for row in doc["rows"])
    assert rows["verdict"] == "PASS"
    assert rows["entries_checked"] == "16"
    assert rows["first_mismatch_index"] == "none"


def test_oeis_check_partial_count(capsys):
    code, out, _ = run(
        capsys,
        ["oeis-check", "--bfile", str(BFILE), "--count", "5", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    rows = dict((row[0], row[1]) for row in doc["rows"])
    assert rows["entries_checked"] == "5"


def test_oeis_check_rejects_nonpositive_count(capsys):
    for count in ("0", "-3"):
        code, out, err = run(
            capsys, ["oeis-check", "--bfile", str(BFILE), "--count", count]
        )
        assert code == 2
        assert out == ""
        assert "argument --count: must be >= 1" in err


def test_oeis_check_overlong_count_warns_in_parameters(capsys):
    code, out, _ = run(
        capsys,
        ["oeis-check", "--bfile", str(BFILE), "--count", "99", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert "warning" in doc["parameters"]
    rows = dict((row[0], row[1]) for row in doc["rows"])
    assert rows["entries_checked"] == "16"


def test_oeis_check_detects_mismatch(tmp_path, capsys):
    bad = tmp_path / "b.txt"
    bad.write_text("0 1\n1 2\n2 5\n3 11\n")
    code, out, _ = run(capsys, ["oeis-check", "--bfile", str(bad), "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    rows = dict((row[0], row[1]) for row in doc["rows"])
    assert rows["verdict"] == "FAIL"
    assert rows["first_mismatch_index"] == "3"


def test_oeis_check_rejects_malformed_files(tmp_path, capsys):
    cases = {"0 1\n2 5\n": "indices not consecutive at index 2",
             "0 1\nxyz 4\n": "line 2: non-integer field",
             "": "no entries found",
             "0 1 2\n": "line 1: expected 'index value'",
             "-1 1\n0 1\n": "negative start index -1 not supported"}
    for text, reason in cases.items():
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, _, err = run(capsys, ["oeis-check", "--bfile", str(bad)])
        assert code == 2, text
        assert err.startswith("error:")
        assert reason in err, err
    code, _, err = run(capsys, ["oeis-check", "--bfile", str(tmp_path / "nope.txt")])
    assert code == 2


def test_cache_dir_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["expectation", "--m", "2", "--i", "1", "--n", "400",
            "--cache-dir", str(cache), "--format", "json"]
    code1, out1, _ = run(capsys, argv)
    assert code1 == 0
    assert (cache / "p-table-400.bin").exists()
    assert not list(cache.glob("divisors-*"))
    code2, out2, _ = run(capsys, argv)
    assert code2 == 0
    assert out1 == out2


def test_cache_dir_serves_smaller_request_from_larger_table(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, _, _ = run(capsys, ["convergence", "--m", "3", "--i", "2",
                              "--n-max", "1600", "--cache-dir", str(cache)])
    assert code == 0
    before = sorted(path.name for path in cache.iterdir())
    assert before == ["p-table-1600.bin"]
    argv = ["expectation", "--m", "3", "--i", "2", "--n", "400", "--n", "57"]
    code1, cached, _ = run(capsys, argv + ["--cache-dir", str(cache)])
    code2, uncached, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert cached == uncached
    assert sorted(path.name for path in cache.iterdir()) == before


def test_cache_dir_failed_save_leaves_no_table(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"

    def failing_save(fh, values):
        fh.write(f"p-table max_n={len(values) - 1} width=1\n".encode() + b"\x01")
        raise OSError("disk full")

    argv = ["expectation", "--m", "2", "--i", "1", "--n", "300",
            "--cache-dir", str(cache)]
    monkeypatch.setattr(exact, "save_p_table", failing_save)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "disk full" in err
    assert list(cache.iterdir()) == []
    monkeypatch.undo()
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert [path.name for path in cache.iterdir()] == ["p-table-300.bin"]
    assert out == run(capsys, argv[:-2])[1]


def test_cache_dir_rejects_corrupt_table(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "p-table-200.bin").write_text("garbage\n")
    code, _, err = run(
        capsys,
        ["expectation", "--m", "2", "--i", "1", "--n", "200",
         "--cache-dir", str(cache)],
    )
    assert code == 2
    assert "p-table-200.bin" in err


def test_cache_error_names_the_table_as_the_directory_joins_it(tmp_path, capsys,
                                                                 monkeypatch):
    # a relative --cache-dir prints the path as given, with no "./" prefix
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p-table-200.bin").write_text("garbage\n")
    code, out, err = run(capsys, ["expectation", "--m", "2", "--i", "1", "--n", "200",
                                  "--cache-dir", "."])
    assert code == 2
    assert out == ""
    assert err.startswith("error: p-table-200.bin: not a p-table header"), err


@pytest.mark.parametrize("damage, reason", [
    ("edit", "checksum"), ("truncate", "bytes after the header")])
def test_cache_dir_rejects_damaged_table(tmp_path, capsys, damage, reason):
    cache = tmp_path / "cache"
    argv = ["expectation", "--m", "2", "--i", "1", "--n", "200",
            "--cache-dir", str(cache)]
    assert run(capsys, argv)[0] == 0
    table = cache / "p-table-200.bin"
    data = bytearray(table.read_bytes())
    if damage == "edit":  # one bit of p(148)
        width = (exact.partition_counts(200)[200].bit_length() + 7) // 8
        data[data.index(b"\n") + 1 + 148 * width] ^= 1
    else:
        del data[-1000:]
    table.write_bytes(bytes(data))
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert str(table) in err and reason in err


def test_cache_dir_ignores_old_text_table(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    old, text = cache / "p-table-400.txt", "p-table max_n=400\n" + "7\n" * 401
    old.write_text(text)  # wrong values: reading them would exit 2
    argv = ["expectation", "--m", "3", "--i", "2", "--n", "300"]
    code, cached, _ = run(capsys, argv + ["--cache-dir", str(cache)])
    assert code == 0
    assert cached == run(capsys, argv)[1]
    assert sorted(path.name for path in cache.iterdir()) == [
        "p-table-300.bin", "p-table-400.txt"]
    assert old.read_text() == text


def test_usage_errors_exit_2(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["f-table"])[0] == 2
    assert run(capsys, ["f-table", "--n", "-3"])[0] == 2
    assert run(capsys, ["f-table", "--n", "5", "--format", "yaml"])[0] == 2
    assert run(capsys, ["f-table", "--n", "5", "--threads", "2"])[0] == 2  # unknown flag


def test_usage_errors_show_the_subcommand_usage(capsys):
    for argv in (["expectation", "--m", "2", "--i", "1", "--n", "-5"],
                 ["theorem1", "--n-max", "2"], ["f-table", "--n", "-3"]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith(f"usage: partsums {argv[0]} "), err


def test_traced_layers_resolve():
    """Every function the benchmark tracer wraps exists on the package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for modname, fname in tracing.LAYERS:
        assert callable(getattr(getattr(partsums, modname), fname, None)), fname


SUBCOMMANDS = ("f-table", "theorem1", "expectation", "convergence", "constants",
               "lambert", "bijection", "oeis-check")


@pytest.mark.parametrize("argv", [
    ["f-table", "--n", "5", "--precision", "double"],
    ["theorem1", "--n-max", "12", "--cache-dir", "D"],
    ["constants", "--m", "2", "--cache-dir", "D"],
    ["lambert", "--alpha", "0.05", "--m", "3", "--h", "2", "--cache-dir", "D"],
    ["bijection", "--partition", "1", "--precision", "double"],
    ["bijection", "--alpha", "1", "--beta", "1", "--n", "-3"],
    ["oeis-check", "--bfile", str(BFILE), "--generator", "a000712"],
    ["expectation", "--m", "0", "--i", "1", "--n", "40", "--cache-dir", "D"],
    ["convergence", "--m", "0", "--i", "1", "--n-max", "400", "--cache-dir", "D"],
    ["convergence", "--m", "2", "--i", "1", "--n-max", "300", "--cache-dir", "D"],
    ["lambert", "--alpha", "0.05", "--m", "0", "--h", "1"],
    ["expectation", "--m", "2", "--i", "5", "--n", "40", "--cache-dir", "D"],
    ["convergence", "--m", "3", "--i", "0", "--n-max", "400", "--cache-dir", "D"],
    ["lambert", "--alpha", "0.05", "--m", "3", "--h", "4"],
])
def test_subcommands_take_only_the_options_they_read(argv, tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage: partsums {argv[0]} "), err
    assert not list(tmp_path.iterdir())


def test_help_exits_cleanly(capsys):
    assert run(capsys, ["--help"])[0] == 0
    for cmd in SUBCOMMANDS:
        code, out, _ = run(capsys, [cmd, "--help"])
        assert code == 0, cmd
        assert out.startswith(f"usage: partsums {cmd} "), cmd


# Every help text and every top-level usage error, pinned byte for byte.
HELP_RUNS = [["--help"], ["-h", "convergence"],
             *([cmd, "--help"] for cmd in SUBCOMMANDS),
             [], ["xyz"], ["convergenc", "--m", "3"], ["--"]]


def _help_transcript():
    """Each HELP_RUNS argv with its exit code, stdout and stderr."""
    chunks = []
    for argv in HELP_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        chunks.append(f"$ {' '.join(['partsums', *argv])}\nexit {code}\n"
                      f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return "".join(chunks)


@pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)),
                    reason="later argparse releases reflow usage lines")
def test_help_and_usage_errors_match_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    text = _help_transcript().replace("optional arguments:", "options:")  # 3.10
    assert text == HELP_GOLDEN.read_text()


@pytest.mark.parametrize("argv", [["-h", "convergence"], ["lambert", "--help"]])
def test_entry_point_prints_what_main_prints(argv, capsys, monkeypatch):
    """`python -m partsums` reaches main() with argv=None, read from sys.argv."""
    monkeypatch.setenv("COLUMNS", "80")
    proc = subprocess.run(
        [sys.executable, "-m", "partsums", *argv],
        capture_output=True, text=True, env=_package_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert proc.stdout == out
    if argv[0] == "-h":
        assert re.findall(r"^    (\S+)", out, re.M) == list(SUBCOMMANDS)


def test_readme_command_table_lists_every_flag():
    """Each README row names its subcommand's flags; --format has one sentence."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", section, re.M))
    assert set(rows) == set(cli.COMMANDS)
    for name, (_, _, specs) in cli.COMMANDS.items():
        flags = {spec[0] for entry in specs
                 for spec in (entry if isinstance(entry, list) else [entry])}
        assert "--format" in flags, name
        assert set(re.findall(r"`(--[\w-]+)`", rows[name])) == flags - {"--format"}, name
    assert "All eight take `--format text|json|csv`" in section


if __name__ == "__main__":  # rewrite the pinned help text after an intended change
    os.environ["COLUMNS"] = "80"
    HELP_GOLDEN.write_text(_help_transcript())
