"""Byte-for-byte stdout of fast CLI runs and of the demos against data/golden.

Any change to an output byte shows up as a failure here and as a diff of
the golden files.  After an intended output change, rewrite the files with
    PYTHONPATH=src python tests/test_golden.py
and commit the diff together with the change that caused it.
"""

import doctest
import json
import runpy
from pathlib import Path

import mpmath as mp
import pytest

import references
from partsums.asymptotics import precision_named
from partsums.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

COMMANDS = {
    "f-table": (["f-table", "--n", "20"], False),
    "theorem1": (["theorem1", "--n-max", "40"], False),
    "constants": (["constants", "--m", "6"], True),
    "lambert": (["lambert", "--alpha", "0.05", "--m", "3", "--h", "2"], True),
    "expectation": (["expectation", "--m", "5", "--i", "3",
                     "--n", "57", "--n", "500"], True),
    "convergence": (["convergence", "--m", "5", "--i", "3",
                     "--n-max", "2000"], True),
    "bijection": (["bijection", "--partition", "5,4,2,2,1"], False),
    # relative to DATA, so the path printed in the parameters is fixed
    "oeis-check": (["oeis-check", "--bfile", "b000712_16.txt"], False),
}

CASES = {
    f"{name}.{prec}.{fmt}" if prec else f"{name}.{fmt}": argv
    + ["--format", fmt]
    + (["--precision", prec] if prec else [])
    for name, (argv, uses_precision) in COMMANDS.items()
    for prec in (("double", "extended") if uses_precision else (None,))
    for fmt in ("text", "json", "csv")
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_matches_golden(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.encode() == (GOLDEN / f"demo.{demo.stem}.out").read_bytes()


def test_readme_examples():
    """The README's library examples run and print what it shows."""
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted >= 11
    assert result.failed == 0


def _constants_references(params):
    m = int(params["m"])
    refs = {}
    for h in range(1, m + 1):
        for route in ("roots-of-unity", "gauss", "digamma"):
            refs[f"gamma[{h}] {route}"] = references.gamma(m, h)
    for i in range(1, m + 1):
        refs[f"b[{i}]"] = references.b(m, i)
        refs[f"c[{i}]"] = references.c(m, i)
    return refs


def _lambert_references(params, dps, terms_used):
    """alpha is parsed at the working precision dps, as the command parses it."""
    m, h = int(params["m"]), int(params["h"])
    with mp.workdps(dps):
        alpha = mp.mpf(params["alpha"])
    exact = references.lambert(alpha, m, h)
    series, last = references.lambert_series(alpha, m, h, terms_used)
    return {"exact": exact, "asymptotic": series,
            "abs_difference": abs(exact - series), "last_term_magnitude": last}


ZERO_CELLS = {"gamma_sum", "max_cross_deviation"}  # true value 0: rounding noise
NOT_FLOAT = {"terms_used", "within_2x_last_term"}


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith(".json")
                                        and n.split(".")[0] in ("constants", "lambert")))
def test_golden_floats_are_rounded_once(name):
    """Every float cell equals a 90-digit reference rounded once to its precision.

    The references (tests/references.py) use mpmath only, nothing from the package.
    """
    doc = json.loads((GOLDEN / name).read_text())
    params, rows = doc["parameters"], dict(doc["rows"])
    dps = precision_named(params["precision"]).dps
    with mp.workdps(90):
        if doc["kind"] == "constants":
            refs = _constants_references(params)
        else:
            refs = _lambert_references(params, dps, int(rows["terms_used"]))
    checked = 0
    for label, cell in rows.items():
        if label in ZERO_CELLS | NOT_FLOAT:
            continue
        with mp.workdps(dps):
            assert cell == mp.nstr(+refs[label], dps), (name, label)
        checked += 1
    assert checked == len(refs)


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.chdir(DATA)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, argv
        (GOLDEN / name).write_bytes(buf.getvalue().encode())
    for demo in DEMOS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            runpy.run_path(str(demo), run_name="__main__")
        (GOLDEN / f"demo.{demo.stem}.out").write_bytes(buf.getvalue().encode())
