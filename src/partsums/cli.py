"""Command-line interface over the exact tables and asymptotic series.

Every subcommand returns its parameters, columns, rows and one verdict.
main prints the table under the subcommand's name in the requested format
and exits 0 on success, 1 when a verdict or another mathematical check
failed, 2 on bad usage or unreadable input, 3 on an internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, Sequence

import mpmath as mp

from . import asymptotics, exact
from .bijection import forward, inverse
from .exact import ConsistencyError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _cell(v, digits: int) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, mp.mpf):
        return mp.nstr(v, digits)  # a float would keep only 17 digits
    return str(v)  # decimal strings keep big integers lossless in JSON


def emit(kind: str, parameters: dict, columns: list, rows: list, fmt: str, out,
         dps: int) -> None:
    with mp.workdps(dps):  # the one place a printed float is rounded
        rows = [[+v if isinstance(v, mp.mpf) else v for v in row]
                for row in rows]
    if fmt == "json":
        import json

        def cell(v):
            return v if isinstance(v, bool) else _cell(v, dps)

        doc = {
            "kind": kind,
            "parameters": {k: cell(v) for k, v in parameters.items()},
            "columns": columns,
            "rows": [[cell(v) for v in row] for row in rows],
        }
        json.dump(doc, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(out)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v, 17) for v in row])
    else:
        params = ", ".join(f"{k}={_cell(v, 17)}" for k, v in parameters.items())
        out.write(f"{kind} ({params})\n")
        cells = [columns] + [[_cell(v, 17) for v in row] for row in rows]
        widths = [max(len(r[c]) for r in cells) for c in range(len(columns))]
        for r in cells:
            out.write("  ".join(s.ljust(w) for s, w in zip(r, widths)).rstrip() + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_f_table(args) -> tuple[dict, list, list, bool]:
    n = args.n
    f = exact.f_table(n)
    hi = 0 if n == 0 else n // 2 + 1
    rows = []
    for j in range(hi + 1):
        aj = exact.a000712(j)
        rows.append((j, f[j], aj, f[j] == aj))
    return {"n": n}, ["j", "f", "pair_count", "match"], rows, True


def cmd_theorem1(args) -> tuple[dict, list, list, bool]:
    rows = []
    all_ok = True
    for n in range(3, args.n_max + 1):
        found = exact.theorem1_check(n)
        expected = n // 3 + 1
        ok = found == expected
        all_ok = all_ok and ok
        rows.append((n, found, expected, ok))
    return (
        {"n_max": args.n_max, "verdict": "PASS" if all_ok else "FAIL"},
        ["n", "first_mismatch", "expected", "ok"],
        rows,
        all_ok,
    )


def _class_means(args, ns: list[int]) -> Iterator[tuple]:
    """Yield (n, exact mean, mean, prediction, residual) of the (--m, --i) class.

    The mean is the exact Fraction rounded once to working precision.  The
    prediction and the residual mean - prediction, which cancels digits,
    carry GUARD_DPS more; emit rounds them.
    """
    m, i, prec = args.m, args.i, args.precision
    guarded = prec._replace(dps=prec.dps + asymptotics.GUARD_DPS)
    # predictions before the p-table is held: a ladder job peaks ~0.1 MB lower
    predictions = [asymptotics.predict_expected_subsum(n, m, i, guarded) for n in ns]
    exact.ensure_p_table(max(ns), args.cache_dir)
    for n, predicted in zip(ns, predictions):
        mean = exact.expected_subsum(n, m, i)
        with mp.workdps(guarded.dps):
            residual = mp.fdiv(mean.numerator, mean.denominator) - predicted
        yield n, mean, mp.fdiv(mean.numerator, mean.denominator), predicted, residual


def cmd_expectation(args) -> tuple[dict, list, list, bool]:
    return (
        {"m": args.m, "i": args.i, "precision": args.precision.name},
        ["n", "mean_exact", "mean", "predicted", "residual"],
        list(_class_means(args, sorted(set(args.n)))),
        True,
    )


def _ladder(n_max: int) -> list[int]:
    out = []
    n = n_max
    while n >= 100:
        out.append(n)
        n //= 4
    return sorted(out)


def cmd_convergence(args) -> tuple[dict, list, list, bool]:
    rows = []
    for n, _, mean, _, r in _class_means(args, _ladder(args.n_max)):
        with mp.extradps(asymptotics.GUARD_DPS):  # r carries the guard digits
            rows.append((n, mean, r, abs(r) / mp.sqrt(n), abs(r) / mp.log(n)))
    improving = all(x[3] > y[3] or y[3] == 0 for x, y in zip(rows, rows[1:]))
    return (
        {
            "m": args.m,
            "i": args.i,
            "n_max": args.n_max,
            "precision": args.precision.name,
            "improving": improving,
        },
        ["n", "mean", "residual", "abs_residual_over_sqrt_n", "abs_residual_over_log_n"],
        rows,
        improving,
    )


def cmd_constants(args) -> tuple[dict, list, list, bool]:
    m, prec = args.m, args.precision
    guarded = prec._replace(dps=prec.dps + asymptotics.GUARD_DPS)  # emit rounds once
    routes = {"roots-of-unity": asymptotics.gamma_mh_roots,
              "gauss": asymptotics.gamma_mh_gauss,
              "digamma": asymptotics.gamma_mh_digamma}
    rows = []
    worst = mp.mpf(0)
    total = mp.mpf(0)
    with mp.workdps(guarded.dps):
        for h in range(1, m + 1):
            values = [route(m, h, guarded) for route in routes.values()]
            dev = max(abs(a - b) for a in values for b in values)
            worst = max(worst, dev)
            total += values[0]
            rows += [(f"gamma[{h}] {name}", v) for name, v in zip(routes, values)]
    rows.append(("gamma_sum", total))
    rows.append(("max_cross_deviation", worst))
    for i in range(1, m + 1):
        rows.append((f"b[{i}]", asymptotics.b_coeff(m, i, guarded)))
        rows.append((f"c[{i}]", asymptotics.c_coeff(m, i, guarded)))
    ok = worst <= prec.cross_tol and abs(total) <= prec.cross_tol
    return (
        {"m": m, "precision": prec.name, "verdict": "PASS" if ok else "FAIL"},
        ["label", "value"],
        rows,
        ok,
    )


def cmd_lambert(args) -> tuple[dict, list, list, bool]:
    """Exact sum against the series, within twice the series' last term.

    The series comes first, so a --max-terms usage error costs no exact sum.
    Both sides get dps + GUARD_DPS digits past the last term, and more while
    their difference keeps fewer than dps + 3; printed values round once.
    """
    prec = args.precision
    alpha = mp.mpf(args.alpha)  # parsed once, at working precision

    def lost(small):  # leading digits that value - series cancels
        return int(max(mp.ceil(mp.log10(abs(series.value) / small)), 0))

    work = prec.dps + asymptotics.GUARD_DPS
    probe = True  # the first pass sizes work from the series alone
    while True:  # one call site, so a truncation warning shows once
        at = prec._replace(dps=work)
        series = asymptotics.lambert_tau_asymptotic(
            alpha, args.m, args.h, args.max_terms, at)
        last = small = series.last_term_magnitude
        if not mp.isfinite(last):
            raise ValueError(f"--max-terms {args.max_terms} keeps no nonzero tail"
                             " term, so there is no error proxy to check against")
        if not probe:
            exact_value = asymptotics.lambert_tau_exact(alpha, args.m, args.h, at)
            diff = abs(exact_value - series.value)  # rounded once, to dps
            small = min(diff, last) or last
            if work >= prec.dps + 3 + lost(small):
                break
        work, probe = prec.dps + asymptotics.GUARD_DPS + lost(small), False
    within = bool(diff <= 2 * last)
    rows = [
        ("exact", exact_value),
        ("asymptotic", series.value),
        ("abs_difference", diff),
        ("terms_used", series.terms_used),
        ("last_term_magnitude", last),
        ("within_2x_last_term", within),
    ]
    return (
        {
            "alpha": args.alpha,
            "m": args.m,
            "h": args.h,
            "max_terms": args.max_terms,
            "precision": prec.name,
        },
        ["label", "value"],
        rows,
        within,
    )


def _parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        parts = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return exact.check_partition(parts)


def cmd_bijection(args) -> tuple[dict, list, list, bool]:
    if args.partition is not None:
        parts = _parse_partition(args.partition)
        image = forward(parts)
        ok = inverse(image.alpha, image.beta, image.n) == parts
        rows = [
            ("direction", "forward"),
            ("partition", _format_partition(parts)),
            ("alpha", _format_partition(image.alpha)),
            ("beta", _format_partition(image.beta)),
            ("n", image.n),
            ("j", image.j),
            ("roundtrip_ok", ok),
        ]
        params = {"partition": args.partition}
    else:
        alpha = _parse_partition(args.alpha)
        beta = _parse_partition(args.beta)
        parts = inverse(alpha, beta, args.n)
        image = forward(parts)
        ok = (image.alpha, image.beta) == (alpha, beta)
        rows = [
            ("direction", "inverse"),
            ("alpha", _format_partition(alpha)),
            ("beta", _format_partition(beta)),
            ("n", args.n),
            ("partition", _format_partition(parts)),
            ("j", sum(alpha) + sum(beta)),
            ("roundtrip_ok", ok),
        ]
        params = {"alpha": args.alpha, "beta": args.beta, "n": args.n}
    return params, ["label", "value"], rows, ok


def read_bfile(path: Path) -> list[tuple[int, int]]:
    """Parse an OEIS b-file: 'index value' per line, # comments allowed."""
    entries = []
    with path.open() as fh:
        for lineno, raw in enumerate(fh, 1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            fields = s.split()
            if len(fields) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'index value'")
            try:
                entries.append((int(fields[0]), int(fields[1])))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer field in {s!r}"
                ) from None
    if not entries:
        raise ValueError(f"{path}: no entries found")
    start = entries[0][0]
    for offset, (idx, _) in enumerate(entries):
        if idx != start + offset:
            raise ValueError(f"{path}: indices not consecutive at index {idx}")
    if start < 0:
        raise ValueError(f"{path}: negative start index {start} not supported")
    return entries


def cmd_oeis_check(args) -> tuple[dict, list, list, bool]:
    entries = read_bfile(args.bfile)
    count = args.count if args.count is not None else len(entries)
    params = {"bfile": str(args.bfile), "generator": "a000712", "count": count}
    if count > len(entries):
        params["warning"] = (
            f"requested {count} entries but the file holds {len(entries)}"
        )
        count = len(entries)
    checked = entries[:count]
    first_bad = next(
        (idx for idx, value in checked if exact.a000712(idx) != value), None
    )
    rows = [
        ("entries_checked", len(checked)),
        ("first_mismatch_index", "none" if first_bad is None else first_bad),
        ("verdict", "PASS" if first_bad is None else "FAIL"),
    ]
    return params, ["label", "value"], rows, first_bad is None


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _at_least(low: int, why: str = ""):
    """An argparse type: an int that is >= low, else a usage error."""
    def check(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}{why}")
        return value

    check.__name__ = "int"  # argparse names it in "invalid int value"
    return check


class _Subcommand(argparse.ArgumentParser):
    """Rejects an option it does not take under its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, []


_FORMAT = ("--format", {"choices": ("json", "csv", "text"), "default": "text",
                        "help": "output format (default: text)"})
_PRECISION = ("--precision", {"choices": ("double", "extended"), "default": "extended",
                              "help": "working precision for floating-point results"})
_CACHE = ("--cache-dir", {"type": Path, "help": "directory for persisted p-tables; a "
                          "larger cached table also serves smaller requests"})
_M = ("--m", {"type": _at_least(1), "required": True})
_I = ("--i", {"type": int, "required": True})

# name -> (help, handler, argument specs); a list is a required either-or group
COMMANDS = {
    "f-table": ("even-index subsum counts next to pair counts", cmd_f_table,
                [_FORMAT, ("--n", {"type": _at_least(0), "required": True})]),
    "theorem1": ("locate the first f/pair-count mismatch per n", cmd_theorem1,
                 [_FORMAT, ("--n-max", {"type": _at_least(3), "required": True})]),
    "expectation": ("exact mean subsum with its asymptotic prediction", cmd_expectation,
                    [_FORMAT, _PRECISION, _CACHE, _M, _I,
                     ("--n", {"type": _at_least(1), "action": "append", "required": True,
                              "help": "target weight; may be repeated"})]),
    "convergence": ("residual trend along a geometric ladder", cmd_convergence,
                    [_FORMAT, _PRECISION, _CACHE, _M, _I,
                     ("--n-max", {"type": _at_least(400, " to form a ladder"),
                                  "required": True})]),
    "constants": ("gamma constants by three routes, with b and c", cmd_constants,
                  [_FORMAT, _PRECISION, _M]),
    "lambert": ("exact vs asymptotic residue-class Lambert series", cmd_lambert,
                [_FORMAT, _PRECISION,
                 ("--alpha", {"required": True, "help": "positive rate parameter, "
                              "parsed at working precision"}),
                 _M, ("--h", {"type": int, "required": True}),
                 ("--max-terms", {"type": _at_least(1), "default": 8})]),
    "bijection": ("apply the subsum bijection in either direction", cmd_bijection,
                  [_FORMAT, [("--partition", {"help": "comma-separated parts; "
                                                      "empty string for ()"}),
                             ("--alpha", {})],
                   ("--beta", {}), ("--n", {"type": _at_least(0)})]),
    "oeis-check": ("compare A000712 against a b-file", cmd_oeis_check,
                   [_FORMAT, ("--bfile", {"type": Path, "required": True}),
                    ("--count", {"type": _at_least(1)})]),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The root parser with argv[0]'s subparser, or with all of them.

    No argv, -h, -- or an unknown name gets every subparser, so the root
    help and the invalid-choice error list them all.
    """
    parser = argparse.ArgumentParser(
        prog="partsums",
        description="Exact and asymptotic spaced subsums of integer partitions",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Subcommand)
    for name in argv[:1] if argv and argv[0] in COMMANDS else COMMANDS:
        help_text, handler, specs = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        for spec in specs:
            if isinstance(spec, list):
                group = sp.add_mutually_exclusive_group(required=True)
                for flag, kwargs in spec:
                    group.add_argument(flag, **kwargs)
            else:
                sp.add_argument(spec[0], **spec[1])
        # usage_error serves the cross-option checks in main
        sp.set_defaults(handler=handler, usage_error=sp.error)
    return parser


def _format_partition(parts: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in parts) + ")"


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if args.command == "bijection":
            if args.partition is None and None in (args.alpha, args.beta, args.n):
                args.usage_error("inverse direction needs --alpha, --beta and --n")
            if args.partition is not None and (args.beta, args.n) != (None, None):
                args.usage_error("forward direction takes no --beta or --n")
        index = "h" if args.command == "lambert" else "i"
        if index in args and not 1 <= getattr(args, index) <= args.m:
            args.usage_error(f"residue index --{index} must lie in "
                             f"1..{args.m}, got {getattr(args, index)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    if "precision" in args:  # the others compute no floating-point value
        args.precision = asymptotics.precision_named(args.precision)
    dps = args.precision.dps if "precision" in args else mp.mp.dps
    try:
        with mp.workdps(dps):
            *table, ok = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception:
        import traceback

        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    try:
        emit(args.command, *table, args.format, sys.stdout, dps)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early (`| head`): drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def entry() -> None:
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    raise SystemExit(main())
