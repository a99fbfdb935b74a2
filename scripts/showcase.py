#!/usr/bin/env python3
"""Tour of the main constructions on a small zoo of rings and elements.

Runs every classifier on a handful of instructive fixtures, prints the
tripotent decompositions where they exist, and closes with censuses of
the small rings.  Purely illustrative; every value shown here is locked
down by the test suite.
"""

from __future__ import annotations

import argparse

from ringinv import (
    Z,
    classify,
    format_polynomial,
    has_hirano,
    hirano,
    matrix,
    modular,
    run_census,
    square_zero_sum,
    tripotent_decomposition,
)

FIXTURES = [
    (modular(9), 2),
    (modular(9), 3),
    (modular(5), 3),
    (modular(5), 4),
    (modular(3), 2),
    (matrix(modular(2), 2), [[0, 1], [1, 1]]),
    (matrix(modular(3), 2), [[1, 1], [0, 1]]),
    (matrix(Z, 3), [[-2, 3, 2], [-2, 3, 2], [1, -1, -1]]),
    (matrix(Z, 2), [[2, 0], [0, 0]]),
]

CENSUS_RINGS = [modular(3), modular(9), matrix(modular(2), 2), matrix(modular(3), 2)]


def describe(flag: bool | None) -> str:
    if flag is None:
        return "undecided"
    return "yes" if flag else "no"


def show_classifications() -> None:
    print("== classifications ==")
    for ring, payload in FIXTURES:
        a = ring.element(payload)
        report = classify(a)
        print(f"{a} in {ring}")
        print(f"  hirano: {describe(report.has_hirano)}", end="")
        if report.hirano is not None:
            print(f" -> {report.hirano.b}", end="")
        print()
        print(f"  strongly drazin: {describe(report.has_strongly_drazin)}", end="")
        if report.strongly_drazin is not None:
            print(f" -> {report.strongly_drazin.b}", end="")
        print()
        print(f"  drazin: {describe(report.has_drazin)}", end="")
        if report.drazin is not None:
            print(f" -> {report.drazin.b} (index {report.drazin.index})", end="")
        print()


def show_decompositions() -> None:
    print()
    print("== tripotent decompositions ==")
    for ring, payload in [(modular(9), 2), (modular(27), 5), (modular(3), 2)]:
        a = ring.element(payload)
        if not has_hirano(a):
            continue
        dec = tripotent_decomposition(a)
        print(
            f"{a} in {ring}: p = {dec.tripotent}, w = {dec.nilpotent_part} "
            f"(index {dec.nilpotent_witness.index})"
        )
        print(f"  p = {format_polynomial(dec.tripotent_certificate.coefficients)}")


def show_square_zero_sum() -> None:
    print()
    print("== square-zero sum ==")
    m2 = matrix(Z, 2)
    a = m2.element([[0, 1], [0, 0]])
    b = m2.element([[0, 0], [1, 0]])
    result = square_zero_sum(a, b, hirano(a * b), hirano(b * a))
    print(f"a = {a}, b = {b}: (a+b) has Hirano inverse {result.certificate.b}")
    print(f"  statement and proof forms agree: {result.forms_agree}")


def show_censuses() -> None:
    print()
    print("== censuses ==")
    for ring in CENSUS_RINGS:
        report = run_census(ring)
        counts = report.counts
        print(
            f"{ring}: {counts['total']} elements, "
            f"{counts['hirano']} hirano, {counts['strongly_drazin']} strongly drazin, "
            f"{counts['unit']} units, strongly 2-nil-clean: {report.is_strongly_2_nil_clean}"
        )
        for witness in report.witnesses:
            print(f"  witness: {witness.element} {witness.reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    show_classifications()
    show_decompositions()
    show_square_zero_sum()
    show_censuses()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
