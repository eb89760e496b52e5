"""Command-line front end.

Commands: homology, jones, verify, cube-stats.  Inputs are braid text
(--braid) or a signed PD file (--pd).  Exit codes: 0 success, 1 input
error, 2 resource-cap error, 3 verification failure.  When a write to
stdout finds its reader gone (`khlab verify ... | head -1`), main exits 1
with nothing on stderr; run itself lets the BrokenPipeError through.

The argument parser is built once per process, on the first call of run,
and never mutated after: run only calls its parse_args.  What a call may
change between calls is read at call time: KHLAB_CAP, sys.stdout and
sys.stderr (argparse looks them up when it prints), and this module's
globals.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

from . import braid as braid_mod
from . import diagram as diagram_mod
from .cube import DEFAULT_CAP, build_complex
from .errors import CapExceededError, InputError
from .homology import BigradedGroup, homology_table
from .invariants import (
    convention_toggle,
    graded_euler_characteristic,
    jones_state_sum,
    verify_positive_braid,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_VERIFY = 3

_INTEGER = re.compile(r"[+-]?[0-9]+")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khlab",
        description="Integral Khovanov homology of braid closures and signed PD codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command takes only the flags it reads.
    for name, text, formats in (
        ("homology", "compute the bigraded homology table", ("text", "json", "csv")),
        ("jones", "compute the Jones polynomial by the state sum", ("text", "json", "csv")),
        ("verify", "check the positive-braid structure theorems", ("text", "json")),
        ("cube-stats", "print per-column dimensions and differential nonzeros",
         ("text", "json")),
    ):
        cmd = sub.add_parser(name, help=text)
        src = cmd.add_mutually_exclusive_group(required=True)
        src.add_argument("--braid", help="braid word text, e.g. 'p=3; 1 2 1 2'")
        src.add_argument("--pd", help="path to a signed PD file")
        if name == "homology":
            cmd.add_argument("--ring", choices=("z", "q"), default="z",
                             help="z: integral (default); q: rational, torsion dropped")
        if name in ("homology", "jones"):
            cmd.add_argument("--convention", choices=("standard", "inverted"),
                             default="standard",
                             help="inverted negates all q-gradings")
        cmd.add_argument("--cap", default=None,
                         help=f"crossing cap (default {DEFAULT_CAP}; env KHLAB_CAP)")
        cmd.add_argument("--format", choices=formats, default="text", dest="fmt")
    return parser


def _resolve_cap(args) -> int:
    """The crossing cap: --cap, else KHLAB_CAP when set, else DEFAULT_CAP.
    Either must match [+-]?[0-9]+, which int() alone would widen to "1_0",
    other scripts' digits and surrounding spaces."""
    if args.cap is not None:
        source, text = "--cap", args.cap
    elif os.environ.get("KHLAB_CAP"):
        source, text = "KHLAB_CAP", os.environ["KHLAB_CAP"]
    else:
        return DEFAULT_CAP
    try:
        if not _INTEGER.fullmatch(text):
            raise ValueError
        cap = int(text)  # also ValueError past int()'s digit limit
    except ValueError:
        raise InputError(f"{source} is not an integer: {text!r}") from None
    if cap < 1:
        raise InputError(f"crossing cap must be >= 1, got {cap}")
    return cap


def _load_input(args):
    """Returns (kind, text, word-or-None, diagram)."""
    if args.braid is not None:
        word = braid_mod.parse_braid(args.braid)
        return "braid", args.braid, word, braid_mod.braid_closure(word)
    try:
        with open(args.pd, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read PD file {args.pd}: {exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"cannot read PD file {args.pd}: not UTF-8 text") from None
    return "pd", text, None, diagram_mod.from_pd(text)


def render_table(t: BigradedGroup, fmt: str) -> str:
    """Render a homology table as a text grid or CSV rows."""

    def cell(rank, torsion):
        return str(rank) + "".join(f"+T{d}" for d in torsion)

    if fmt == "csv":
        lines = ["i,j,rank,torsion"]
        for (i, j), (rank, torsion) in t.entries():
            lines.append(f"{i},{j},{rank},{';'.join(map(str, torsion))}")
        return "\n".join(lines)

    if not t.table:
        return "j\\i"
    i_vals = sorted({i for i, _ in t.table})
    j_vals = sorted({j for _, j in t.table}, reverse=True)
    header = ["j\\i"] + [str(i) for i in i_vals]
    rows = [header]
    for j in j_vals:
        row = [str(j)]
        for i in i_vals:
            rank, torsion = t.entry(i, j)
            row.append(cell(rank, torsion) if (rank or torsion) else ".")
        rows.append(row)
    widths = [max(len(r[k]) for r in rows) for k in range(len(header))]
    return "\n".join(
        "  ".join(val.rjust(widths[k]) for k, val in enumerate(row))
        for row in rows
    )


def _table_json(t: BigradedGroup) -> list:
    out = []
    for (i, j), (rank, torsion) in t.entries():
        out.append({
            "i": i,
            "j": j,
            "rank": rank,
            "torsion": list(torsion),
        })
    return out


def _poly_json(poly) -> dict:
    return {str(e): poly.coeffs[e] for e in sorted(poly.coeffs)}


def _print_header(kind, text, word, d, started) -> None:
    """The text formats' two comment lines: the input, its counts and the time so far."""
    strands = word.strands if word else None
    # A PD file's records go on the one comment line, so no bare line
    # precedes the table.
    shown = "; ".join(line.strip() for line in text.splitlines() if line.strip())
    print(f"# input ({kind}): {shown}")
    print(f"# strands={strands} n+={d.n_plus} n-={d.n_minus} "
          f"components={d.component_count()} time={(time.monotonic() - started) * 1000:.1f}ms")


def _print_json(kind, text, word, d, convention, **fields) -> None:
    """The JSON document of homology and jones: the input and its counts, then fields."""
    print(json.dumps({
        "input": {"kind": kind, "text": text.strip(),
                  "strands": word.strands if word else None},
        "n_plus": d.n_plus,
        "n_minus": d.n_minus,
        "components": d.component_count(),
        "convention": convention,
        **fields,
    }, indent=2))


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    started = time.monotonic()
    try:
        cap = _resolve_cap(args)
        kind, text, word, d = _load_input(args)

        if args.command == "verify":
            if word is None:
                raise InputError("verify requires --braid input")
            report = verify_positive_braid(word, cap=cap)
            if args.fmt == "json":
                print(json.dumps(report.to_json(), indent=2))
            else:
                _print_header(kind, text, word, d, started)
                for check in report.checks:
                    print(f"{check.name}: {check.status} ({check.details})")
            return EXIT_OK if report.all_passed else EXIT_VERIFY

        if args.command == "jones":
            poly = jones_state_sum(d, cap=cap)
            if args.convention == "inverted":
                poly = poly.mirror()
            if args.fmt == "json":
                _print_json(kind, text, word, d, args.convention,
                            euler_characteristic=_poly_json(poly))
            elif args.fmt == "csv":
                print("exponent,coefficient")
                for e in sorted(poly.coeffs):
                    print(f"{e},{poly.coeffs[e]}")
            else:
                _print_header(kind, text, word, d, started)
                print(poly)
            return EXIT_OK

        complex_ = build_complex(d, cap=cap)

        if args.command == "cube-stats":
            dims = complex_.dims
            # (i, unnormalized q, rows, cols, nonzeros) of every block of d^i
            shapes = [(i, q, b.rows, b.cols, sum(map(len, b.columns.values())))
                      for i in range(complex_.m)
                      for q, b in sorted(complex_.blocks(i).items())]
            nnz = [sum(s[4] for s in shapes if s[0] == i) for i in range(complex_.m)]
            if args.fmt == "json":
                keys = ("i", "q", "rows", "cols", "nonzeros")
                print(json.dumps({"dims": list(dims), "nonzeros": nnz,
                                  "blocks": [dict(zip(keys, s)) for s in shapes]}))
            else:
                print("column  dim  nonzeros(d^i)")
                for i, dim in enumerate(dims):
                    n = nnz[i] if i < len(nnz) else "-"
                    print(f"{i:6d}  {dim:4d}  {n}")
                print()
                print("d^i     q  rows  cols  nonzeros")
                for s in shapes:
                    print("%3d  %4d  %4d  %4d  %8d" % s)
            return EXIT_OK

        # homology
        table = homology_table(complex_)
        poly = graded_euler_characteristic(complex_)
        if args.convention == "inverted":
            table = convention_toggle(table)
            poly = poly.mirror()
        if args.ring == "q":
            table = BigradedGroup(
                {key: (rank, ()) for key, (rank, _) in table.table.items()}
            )
        if args.fmt == "json":
            _print_json(kind, text, word, d, args.convention,
                        homology=_table_json(table), euler_characteristic=_poly_json(poly))
        elif args.fmt == "csv":
            print(render_table(table, "csv"))
        else:
            _print_header(kind, text, word, d, started)
            print(render_table(table, "text"))
            print(f"euler characteristic: {poly}")
        return EXIT_OK

    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left: point stdout at devnull so that the flush at
        # exit cannot fail again and print to stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_INPUT)
    sys.exit(code)


if __name__ == "__main__":
    main()
