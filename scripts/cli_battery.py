#!/usr/bin/env python3
"""Run a fixed battery of CLI calls in one or two checkouts and compare them.

    python3 scripts/cli_battery.py CHECKOUT            # one record per call
    python3 scripts/cli_battery.py PARENT CHANGE       # list the calls that differ

Each checkout runs the whole battery in one interpreter, in-process through
``ringinv.cli.main``, with ``CHECKOUT/src`` first on the path.  A call's
record is its argv, its exit code and the sha256 of its stdout and of its
stderr.  With one checkout the records are printed as JSON lines.  With two,
every argv whose record differs is printed, and the exit code is 1 if any
does.

The battery: all 17 laws on Z/27 (``--json``), on M2(Z/2), on M2(Z/5)
sampled (``--samples 200 --seed 4``), with ``--json --seed 0 --samples
500`` on M2(Z/7) and Z/27, and on Z/12 (``--json``); ``classify`` and
``decompose``, human and ``--json``, on every element of Z/5, Z/9, Z/25,
Z/12, M2(Z/2) and M2(Z/3); eight censuses, four of them on composite moduli
near the caps; integer matrices; laws 3.3 and 3.4 where 2 is not a unit;
laws 2.2, 3.1 and 3.6 (``--json``) on M2(Z/6) and Z/360; censuses and
scanning laws on each side of the scan's int32 bound; refused inputs,
among them numbers of 6 021 digits (2^20000, above Python's default
int-string limit) and a superscript digit; element and ring literals, the
refused ones whose messages the literal tests pin and accepted ones with
tabs, newlines and Unicode minus signs.  That is 791 runs.  A call that
raises instead of exiting is recorded with the exception's type as its exit
code.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

LAW_IDS = ("2.1", "2.2", "2.4", "3.1", "3.2", "3.3", "3.4", "3.6",
           "4.1", "4.2", "4.3", "4.4", "4.5", "5.1", "5.2", "5.4", "5.5")

LAW_RUNS = (
    ("Z/27", "--json"),
    ("M2(Z/2)",),
    ("M2(Z/5)", "--samples", "200", "--seed", "4"),
    ("M2(Z/7)", "--json", "--seed", "0", "--samples", "500"),
    ("Z/27", "--json", "--seed", "0", "--samples", "500"),
    # a composite modulus, whose scan is lifted from its prime-power components
    ("Z/12", "--json"),
)

# 2^20000 in decimal, built without int -> str and its digit limit
BIG = str(decimal.Context(prec=7000).power(decimal.Decimal(2), 20000))

ELEMENT_RINGS = ((False, 5), (False, 9), (False, 25), (False, 12), (True, 2), (True, 3))

CENSUSES = (
    ("Z/27", "--json"),
    ("M2(Z/3)",),
    ("M2(Z/4)", "--json"),
    ("Z/20000", "--seed", "1", "--samples", "20", "--json"),
    # composite moduli near the caps, whose masks come from prime-power components
    ("M2(Z/30)", "--json"),
    ("Z/720720", "--json"),
    ("Z/1000000", "--seed", "2", "--json"),
    ("M2(Z/6)",),
)

OTHER_RUNS = (
    # integers and integer matrices
    ("classify", "Z", "0"), ("classify", "Z", "-1"), ("classify", "Z", "2"),
    ("classify", "Z", "3", "--json"),
    ("classify", "M2(Z)", "[[1,0],[0,0]]"), ("classify", "M2(Z)", "[[0,1],[0,0]]"),
    ("classify", "M2(Z)", "[[2,0],[0,0]]", "--json"),
    ("classify", "M3(Z)", "[[-2,3,2],[-2,3,2],[1,-1,-1]]"),
    ("decompose", "Z", "-1"), ("decompose", "Z", "2"),
    ("decompose", "M2(Z)", "[[1,0],[0,-1]]", "--json"),
    # where 2 is not a unit
    ("decompose", "Z/4", "1"), ("verify", "3.3", "M2(Z/2)"), ("verify", "3.4", "Z/12"),
    # refused inputs
    ("classify", "Q", "1"), ("classify", "Z/9", "1.5"), ("classify", "Z/9", "true"),
    ("classify", "M2(Z/3)", "1"), ("classify", "Z/9", "[[1]]"),
    ("classify", "M2(Z/3)", "[[1,0]]"), ("classify", "M9(Z/2)", "0"),
    ("decompose", "Z/5", "2"),
    ("census", "Z"), ("census", "Z/20000", "--samples", "0"),
    ("census", "Z/20000", "--samples", "10001"),
    ("census", "M5(Z/2)"), ("census", "Z/9", "--max-ring-size", "100"),
    ("verify", "9.9", "Z/9"), ("verify", "3.6", "M3(Z/4)"),
    ("verify", "2.2", "M3(Z/4)"), ("verify", "3.1", "M3(Z/4)"),
    ("verify", "4.1", "M2(Z/7)", "--samples", "0"),
    ("verify", "2.1", "Z"), (),
    # scan widths: int32 stacks up to Z/46337, int64 from Z/46349; composites
    # whose components are int32 and whose full modulus is int64, Z/98337's
    # lift above 2^31
    *(("census", ring, *seed) for ring in ("Z/32768", "Z/46337", "Z/46349", "Z/59049")
      for seed in ((), ("--seed", "3"))),
    ("census", "M2(Z/23)"), ("census", "Z/720720"), ("census", "Z/98337"),
    ("verify", "2.2", "Z/2187"), ("verify", "3.1", "M2(Z/5)"),
    # the laws that read the scan, on composite moduli
    *(("verify", law, ring, "--json")
      for ring in ("M2(Z/6)", "Z/360") for law in ("2.2", "3.1", "3.6")),
    ("classify", f"Z/{BIG}", "3"), ("classify", "Z/9", BIG), ("classify", "Z/9", "²"),
    # element literals: the refused texts whose message tests/test_literals.py
    # pins, at the interpreter's default digit limit, and accepted whitespace
    # and minus signs
    *(("classify", "M2(Z/9)", text) for text in (
        "[[- 3]]", "[[1,2],[3,4]", "[[1,,2]]", "[[1,2],]", "[]", "[ ]", "[[]]",
        "[[1,2] [3,4]]", "", "[[1,2],[3]]", "[[1,2,3],[4,5,6]]", "[1,2]", "5",
        "[[1,2],[3,4]] junk", "[[1,0],[0,\u0663]]", "[[1,2],[3,4]]" + " " * 80 + "x",
        "[[1,0],[0,-1" + "0" * 4300 + "]]",
        " [ [ 1 , -2 ] , [ 3 , 4 ] ] ", "\t[\n[1,-2]\n,\t[3,4]\t]\n", "[[\u22121,2],[3,\u22124]]",
    )),
    ("classify", "Z/9", "-1\u00b2"), ("classify", "Z/9", "1" + "0" * 4300),
    ("classify", "Z/9", "\u22122"), ("classify", "Z/9", "\u2212 2"),
    *(("classify", ring, "1") for ring in (
        "Z /9", "Z/ 9", "M 2(Z/9)", "M2(Z /9)", "Z/\u00b2", "M\u0662(Z/3)", "Z/1" + "0" * 4300,
        "M2(Z/3)" + " " * 72 + ")", "M2(Z/3)" + " " * 200 + "x" + " " * 200,
    )),
)


def _literal(matrix: bool, entries: tuple[int, ...]) -> str:
    if not matrix:
        return str(entries[0])
    return f"[[{entries[0]},{entries[1]}],[{entries[2]},{entries[3]}]]"


def battery() -> list[list[str]]:
    """The fixed argv list, in run order."""
    runs = [["verify", law, *rest] for rest in LAW_RUNS for law in LAW_IDS]
    for matrix, n in ELEMENT_RINGS:
        ring = f"M2(Z/{n})" if matrix else f"Z/{n}"
        for entries in itertools.product(range(n), repeat=4 if matrix else 1):
            element = _literal(matrix, entries)
            for command in ("classify", "decompose"):
                runs.append([command, ring, element])
                runs.append([command, ring, element, "--json"])
    runs += [["census", *rest] for rest in CENSUSES]
    runs += [list(argv) for argv in OTHER_RUNS]
    return runs


def _shown(arg: str) -> str:
    """An argument as a differs: line shows it: one above 40 characters is
    cut to its first 20 and its length."""
    return arg if len(arg) <= 40 else f"{arg[:20]}...({len(arg)} characters)"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_inside(argvs: list[list[str]]) -> list[dict]:
    """Every argv through ringinv.cli.main in this interpreter."""
    from ringinv.cli import main

    records = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
            except Exception as raised:  # a traceback, not an exit
                code = f"raised {type(raised).__name__}"
        records.append({"argv": argv, "exit": code,
                        "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())})
    return records


def start(checkout: Path) -> subprocess.Popen:
    """One interpreter that runs the battery against checkout/src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.Popen(
        [sys.executable, __file__, "--inside"], cwd=checkout, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def collect(checkout: Path, child: subprocess.Popen, argvs: list[list[str]]) -> list[dict]:
    out, _ = child.communicate(json.dumps(argvs))
    if child.returncode != 0:
        sys.exit(f"the battery failed in {checkout} (exit {child.returncode})")
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkouts", type=Path, nargs="*", metavar="CHECKOUT",
                        help="one checkout, or a parent and a change")
    parser.add_argument("--inside", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.inside:
        json.dump(run_inside(json.load(sys.stdin)), sys.stdout)
        return 0
    if not 1 <= len(args.checkouts) <= 2:
        parser.error("give one checkout, or a parent and a change")

    argvs = battery()
    checkouts = [path.resolve() for path in args.checkouts]
    children = [start(path) for path in checkouts]
    results = [collect(path, child, argvs) for path, child in zip(checkouts, children)]
    if len(results) == 1:
        for record in results[0]:
            print(json.dumps(record))
        return 0
    differ = [old["argv"] for old, new in zip(*results) if old != new]
    for argv in differ:
        print("differs:", " ".join(map(_shown, argv)))
    print(f"{len(argvs)} runs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
