"""Command-line interface.

Subcommands: classify, decompose, census, verify.  Ring literals use the
grammar from literals (Z, Z/9, M2(Z/3), ...), elements are integers or
row-major nested lists.  Exit codes: 0 on success, 1 on parse or
precondition failure, 2 when law verification found violations.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import (
    _COUNT_KEYS,
    CROSS_CHECK_SAMPLES,
    LAW_SAMPLES,
    LAWS,
    RING_SIZE_CAP,
    run_census,
    verify_theorem,
)
from .gen_inverse import classify, tripotent_decomposition
from .lifting import PolynomialCertificate, format_polynomial
from .literals import ParseError, parse_element, parse_ring
from .rings import PreconditionError, RingError

MAX_CLI_DIM = 8


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="ringinv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="existence flags and inverses of one element")
    p.add_argument("ring", help="ring literal, e.g. Z, Z/9, M2(Z/3)")
    p.add_argument("element", help="element literal, e.g. 5 or [[0,1],[1,1]]")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("decompose", help="tripotent-plus-nilpotent decomposition")
    p.add_argument("ring")
    p.add_argument("element")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("census", help="classify every element of a finite ring")
    p.add_argument("ring")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled cross-check")
    p.add_argument(
        "--samples",
        type=int,
        default=CROSS_CHECK_SAMPLES,
        help="cross-check samples above 10^4 elements",
    )
    p.add_argument("--max-ring-size", type=int, default=RING_SIZE_CAP, dest="max_ring_size")

    p = sub.add_parser("verify", help="check one law id against a finite ring")
    p.add_argument("law", metavar="id", choices=sorted(LAWS), help="law id, e.g. 3.1 or 5.5")
    p.add_argument("ring")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=LAW_SAMPLES)
    return parser


def _parse_ring_arg(text: str):
    ring = parse_ring(text)
    if ring.dim > MAX_CLI_DIM:
        raise PreconditionError(f"matrix dimension {ring.dim} above the CLI cap {MAX_CLI_DIM}")
    return ring


def _cert_text(cert: PolynomialCertificate | None) -> str | None:
    if cert is None:
        return None
    return format_polynomial(cert.coefficients)


def _cmd_classify(args) -> int:
    ring = _parse_ring_arg(args.ring)
    a = parse_element(ring, args.element)
    report = classify(a)
    if args.as_json:
        payload = {
            "ring": str(ring),
            "element": str(a),
            "has_hirano": report.has_hirano,
            "has_strongly_drazin": report.has_strongly_drazin,
            "has_drazin": report.has_drazin,
            "hirano": None if report.hirano is None else str(report.hirano.b),
            "strongly_drazin": None
            if report.strongly_drazin is None
            else str(report.strongly_drazin.b),
            "drazin": None if report.drazin is None else str(report.drazin.b),
            "drazin_index": None if report.drazin is None else report.drazin.index,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(f"element {a} in {ring}")
    if report.hirano is not None:
        print(f"  hirano: {report.hirano.b}")
    else:
        print("  hirano: none")
    if report.strongly_drazin is not None:
        print(f"  strongly drazin: {report.strongly_drazin.b}")
    else:
        print("  strongly drazin: none")
    if report.drazin is not None:
        print(f"  drazin: {report.drazin.b} (index {report.drazin.index})")
    elif report.has_drazin is False:
        print("  drazin: none")
    else:
        print("  drazin: undecided")
    return 0


def _cmd_decompose(args) -> int:
    ring = _parse_ring_arg(args.ring)
    a = parse_element(ring, args.element)
    d = tripotent_decomposition(a)
    if args.as_json:
        payload = {
            "ring": str(ring),
            "element": str(a),
            "tripotent": str(d.tripotent),
            "nilpotent": str(d.nilpotent_part),
            "nilpotent_index": d.nilpotent_witness.index,
            "plus_idempotent": None if d.plus_idempotent is None else str(d.plus_idempotent),
            "minus_idempotent": None if d.minus_idempotent is None else str(d.minus_idempotent),
            "tripotent_certificate": _cert_text(d.tripotent_certificate),
            "plus_certificate": _cert_text(d.plus_certificate),
            "minus_certificate": _cert_text(d.minus_certificate),
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(f"element {a} in {ring}")
    print(f"  tripotent p = {d.tripotent}")
    print(f"    p as a polynomial in a: {_cert_text(d.tripotent_certificate)}")
    print(f"  nilpotent w = {d.nilpotent_part} (index {d.nilpotent_witness.index})")
    if d.plus_idempotent is not None:
        print(f"  idempotent e = {d.plus_idempotent}")
        if d.plus_certificate is not None:
            print(f"    e as a polynomial in a: {_cert_text(d.plus_certificate)}")
        print(f"  idempotent f = {d.minus_idempotent}")
        if d.minus_certificate is not None:
            print(f"    f as a polynomial in a: {_cert_text(d.minus_certificate)}")
    return 0


def _cmd_census(args) -> int:
    ring = _parse_ring_arg(args.ring)
    report = run_census(
        ring,
        max_ring_size=args.max_ring_size,
        seed=args.seed,
        samples=args.samples,
    )
    if args.as_json:
        print(report.to_json())
        return 0
    counts = report.counts
    print(f"census of {report.ring}: {counts['total']} elements")
    for key in _COUNT_KEYS[1:]:
        print(f"  {key.replace('_', ' ')}: {counts[key]}")
    print(f"  strongly 2-nil-clean: {'yes' if report.is_strongly_2_nil_clean else 'no'}")
    for w in report.witnesses:
        print(f"  witness {w.element} (index {w.index}): {w.reason}")
    cc = report.cross_check
    seed_note = "" if cc.seed is None else f", seed {cc.seed}"
    print(f"  cross-check: {cc.strategy} over {cc.checked} elements{seed_note}")
    return 0


def _cmd_verify(args) -> int:
    ring = _parse_ring_arg(args.ring)
    report = verify_theorem(args.law, ring, seed=args.seed, samples=args.samples)
    if args.as_json:
        print(report.to_json())
    else:
        print(
            f"law {report.theorem} on {report.ring}: {report.strategy}, "
            f"{report.instances} instances, {report.checked} checked, "
            f"{len(report.violations)} violations"
        )
        for v in report.violations:
            print(f"  violation at ({', '.join(v.inputs)}): {v.detail}")
        for note in report.notes:
            print(f"  note: {note}")
    return 0 if report.ok else 2


_COMMANDS = {
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "census": _cmd_census,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ParseError, RingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
