"""Byte-for-byte stdout of fast CLI runs against files in data/golden.

Any change to an output byte shows up as a failure here and as a diff of
the golden files.  After an intended output change, rewrite the files with
    PYTHONPATH=src python tests/test_golden.py
and commit the diff together with the change that caused it.
"""

from pathlib import Path

import pytest

from partsums.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

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
