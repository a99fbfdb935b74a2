"""Workload definitions: seeded inputs, the calls into ringinv, and the
canonical text each call's output is checked with.

Every workload is a closed loop with one client: a round is a fixed list of
operations, each issued only after the previous one returned.  Inputs come
from the workload seed alone.  Operations whose output depends on an inner
seed (sampled census cross-checks, sampled law passes) draw that seed from a
small fixed pool, and classify requests are drawn from a fixed request pool,
so every operation a run can issue has a recorded reference output.

Only ``ringinv.cli.main`` argv and the package's public names are used, and
they are looked up at call time so that the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CENSUS_EXHAUSTIVE_RINGS = ("M2(Z/7)", "M3(Z/2)", "Z/997")
CENSUS_SAMPLED_RINGS = ("M2(Z/12)", "Z/32768")
VERIFY_RINGS = ("M2(Z/7)", "Z/27")
LAW_IDS = (
    "2.1", "2.2", "2.4", "3.1", "3.2", "3.3", "3.4", "3.6", "4.1",
    "4.2", "4.3", "4.4", "4.5", "5.1", "5.2", "5.4", "5.5",
)
VERIFY_SAMPLES = 500
# Inner seeds for sampled cross-checks and sampled law passes come from this
# pool, which the reference file covers completely.
INNER_SEEDS = tuple(range(8))

# classify-stream: (operation, ring, requests per pass).  Orbit-heavy
# classify on Z/10007 and M2(Z/101) sets the tail; M3(Z/5), M4(Z/3) and
# M6(Z/2) are multiplication-heavy; Mk(Z) takes the orbit-free Hirano route;
# decompose on Z/2187 and M2(Z/9) is lifting-heavy.
CLASSIFY_MIX = (
    ("classify", "Z/10007", 48),
    ("classify", "M2(Z/101)", 86),
    ("classify", "M3(Z/5)", 144),
    ("classify", "M4(Z/3)", 144),
    ("classify", "M6(Z/2)", 96),
    ("classify", "M2(Z)", 197),
    ("classify", "M3(Z)", 197),
    ("decompose", "Z/2187", 144),
    ("decompose", "M2(Z/9)", 144),
)
# The pool holds this many requests per request of a pass.  A pass takes one
# request from each stratum of POOL_FACTOR requests of similar cost, so every
# seed gets a different pass with the same cost profile.
POOL_FACTOR = 3
POOL_SEED = "ringinv-classify-pool-1"

WORKLOADS = {
    "census-exhaustive": (
        "ringinv census on M2(Z/7), M3(Z/2), Z/997 (<=10^4 elements): the exhaustive "
        "cross-check (inverse_scan, drazin_finite, lifting) is most of the time"
    ),
    "census-sampled": (
        "ringinv census on M2(Z/12), Z/32768 (>10^4 elements, 50-element sampled "
        "cross-check): the pure-Python count path over Element is most of the time"
    ),
    "classify-stream": (
        "1200 seeded parse/classify/decompose requests, one client: orbit-heavy Z/10007 "
        "and M2(Z/101) set the tail, Mk(Z) the Hirano route, Z/2187 and M2(Z/9) lifting"
    ),
    "verify-laws": (
        "ringinv verify, all 17 law ids on M2(Z/7) and Z/27, 500 samples: the only "
        "workload reaching calculus, with many tiny instances instead of ring sweeps"
    ),
}


@dataclass(frozen=True)
class Op:
    """One call into ringinv.

    ``kind`` is "cli" (``args`` is the argv of ``cli.main``), "classify" or
    "decompose" (``args`` is the ring literal and the element literal).
    """

    kind: str
    args: tuple

    @property
    def key(self) -> str:
        return " ".join((self.kind,) + self.args)


@dataclass(frozen=True)
class Outcome:
    seconds: float
    text: str | None  # canonical output, None when the call raised
    work: int  # units of work this call completed
    error: str | None = None


def census_op(ring: str, seed: int | None = None) -> Op:
    argv = ("census", ring, "--json")
    if seed is not None:
        argv += ("--seed", str(seed))
    return Op("cli", argv)


def verify_op(law: str, ring: str, seed: int) -> Op:
    return Op("cli", ("verify", law, ring, "--json", "--seed", str(seed),
                      "--samples", str(VERIFY_SAMPLES)))


# ---------------------------------------------------------------- requests

def matrix_literal(rows) -> str:
    return "[" + ",".join("[" + ",".join(str(v) for v in row) + "]" for row in rows) + "]"


def _matmul(a, b, mod=None):
    k = len(a)
    out = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
    if mod is not None:
        out = [[v % mod for v in row] for row in out]
    return out


def _random_matrix(rng: random.Random, k: int, lo: int, hi: int):
    return [[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)]


def _hirano_integer_matrix(rng: random.Random, k: int):
    """An integer matrix with a Hirano inverse, built independently of ringinv.

    Upper-triangular t with diagonal in {-1, 0, 1} has t - t^3 strictly upper
    triangular, hence nilpotent; conjugating by a unit lower-triangular l keeps
    that, and spreads the entries.
    """
    t = [[0] * k for _ in range(k)]
    for i in range(k):
        t[i][i] = rng.choice((-1, 0, 1))
        for j in range(i + 1, k):
            t[i][j] = rng.randint(-2, 2)
    low = [[int(i == j) if j >= i else rng.randint(-1, 1) for j in range(k)] for i in range(k)]
    inv = [[0] * k for _ in range(k)]
    for col in range(k):  # forward substitution, exact over Z (unit diagonal)
        for i in range(k):
            inv[i][col] = int(i == col) - sum(low[i][t_] * inv[t_][col] for t_ in range(i))
    return _matmul(_matmul(low, t), inv)


def _mod3_defect_nilpotent(a) -> bool:
    """Whether a - a^3 is nilpotent mod 3, i.e. a has a Hirano inverse over Z/3^e."""
    k = len(a)
    cube = _matmul(_matmul(a, a, 3), a, 3)
    d = [[(a[i][j] - cube[i][j]) % 3 for j in range(k)] for i in range(k)]
    power = d
    for _ in range(k - 1):
        power = _matmul(power, d, 3)
    return not any(any(row) for row in power)


def _element_literal(kind: str, ring: str, rng: random.Random) -> str:
    if ring == "Z/10007":
        return str(rng.randrange(10007))
    if ring == "Z/2187":  # every residue mod 3^7 has a Hirano inverse
        return str(rng.randrange(2187))
    if ring == "M2(Z/9)":
        while True:
            a = _random_matrix(rng, 2, 0, 8)
            if _mod3_defect_nilpotent(a):
                return matrix_literal(a)
    k = int(ring[1])
    if ring.endswith("(Z)"):  # half random (mostly undecided), half Hirano-invertible
        a = _random_matrix(rng, k, -4, 4) if rng.random() < 0.5 else _hirano_integer_matrix(rng, k)
        return matrix_literal(a)
    modulus = int(ring[ring.index("/") + 1:-1])
    return matrix_literal(_random_matrix(rng, k, 0, modulus - 1))


def request_pool() -> dict[tuple[str, str], list[Op]]:
    """The fixed pool of classify-stream requests, per (operation, ring), distinct."""
    pool = {}
    for kind, ring, count in CLASSIFY_MIX:
        rng = random.Random(f"{POOL_SEED}:{kind}:{ring}")
        seen: dict[str, None] = {}
        while len(seen) < count * POOL_FACTOR:
            seen.setdefault(_element_literal(kind, ring, rng))
        pool[kind, ring] = [Op(kind, (ring, lit)) for lit in seen]
    return pool


def classify_requests(seed: int, costs: dict[str, int]) -> list[Op]:
    """One pass of classify-stream: a seeded stratified draw from the pool.

    ``costs`` ranks pool requests (recorded multiplication counts); each
    stratum is POOL_FACTOR consecutive requests in cost order.
    """
    rng = random.Random(seed)
    requests = []
    for (kind, ring), ops in request_pool().items():
        ranked = sorted(ops, key=lambda op: (costs[op.key], op.key))
        for start in range(0, len(ranked), POOL_FACTOR):
            requests.append(rng.choice(ranked[start:start + POOL_FACTOR]))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------- rounds

def build(workload: str, seed: int, reference: dict) -> list[tuple[Op, ...]]:
    """The fixed steps one round of ``workload`` issues.

    A step is one or more operations timed together as one latency sample:
    a verify-laws step checks one law id on every ring of the workload, which
    keeps the latency samples alike enough for a steady median.
    """
    rng = random.Random(seed)
    if workload == "census-exhaustive":
        steps = [(census_op(ring),) for ring in CENSUS_EXHAUSTIVE_RINGS]
    elif workload == "census-sampled":
        steps = [(census_op(ring, rng.choice(INNER_SEEDS)),) for ring in CENSUS_SAMPLED_RINGS]
    elif workload == "verify-laws":
        steps = []
        for law in LAW_IDS:
            law_seed = rng.choice(INNER_SEEDS)
            steps.append(tuple(verify_op(law, ring, law_seed) for ring in VERIFY_RINGS))
    elif workload == "classify-stream":
        return [(op,) for op in classify_requests(seed, reference["costs"])]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(steps)
    return steps


def load_reference() -> dict:
    """Reference output digests by op key, and the recorded Element
    multiplication count of every pool request (its cost rank).

    The file lists pool entries in request_pool() order, so regenerating the
    pool with other literals shows up as failed operations.
    """
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    outputs, costs = dict(raw["cli"]), {}
    for (kind, ring), ops in request_pool().items():
        for op, (out, muls) in zip(ops, raw["pool"][f"{kind} {ring}"], strict=True):
            outputs[op.key] = out
            costs[op.key] = muls
    return {"outputs": outputs, "costs": costs}


def all_cli_ops() -> list[Op]:
    """Every CLI operation any seed can issue."""
    ops = [census_op(ring) for ring in CENSUS_EXHAUSTIVE_RINGS]
    ops += [census_op(ring, s) for ring in CENSUS_SAMPLED_RINGS for s in INNER_SEEDS]
    ops += [verify_op(law, ring, s) for ring in VERIFY_RINGS for law in LAW_IDS for s in INNER_SEEDS]
    return ops


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _render_classify(report) -> str:
    """The classify answer, with the fields `ringinv classify --json` prints."""
    def b(cert):
        return None if cert is None else str(cert.b)
    return json.dumps({
        "element": str(report.element),
        "has_hirano": report.has_hirano,
        "has_strongly_drazin": report.has_strongly_drazin,
        "has_drazin": report.has_drazin,
        "hirano": b(report.hirano),
        "strongly_drazin": b(report.strongly_drazin),
        "drazin": b(report.drazin),
        "drazin_index": None if report.drazin is None else report.drazin.index,
    }, sort_keys=True)


def _render_decompose(d, format_polynomial) -> str:
    """The decomposition, with the fields `ringinv decompose --json` prints."""
    def s(x):
        return None if x is None else str(x)

    def cert(c):
        return None if c is None else format_polynomial(c.coefficients)
    return json.dumps({
        "element": str(d.subject),
        "tripotent": str(d.tripotent),
        "nilpotent": str(d.nilpotent_part),
        "nilpotent_index": d.nilpotent_witness.index,
        "plus_idempotent": s(d.plus_idempotent),
        "minus_idempotent": s(d.minus_idempotent),
        "tripotent_certificate": cert(d.tripotent_certificate),
        "plus_certificate": cert(d.plus_certificate),
        "minus_certificate": cert(d.minus_certificate),
    }, sort_keys=True)


def _canonical_cli(argv: tuple, code: int, stdout: str) -> tuple[str, int]:
    """Canonical text of a CLI call and its work units.

    Verify reports drop ``elapsed_seconds``, a wall-clock reading, so a
    report is accepted with or without it.
    """
    report = json.loads(stdout)
    if argv[0] == "verify":
        report.pop("elapsed_seconds", None)
        work = report["instances"]
    else:
        work = report["counts"]["total"]
    return f"exit {code}\n" + json.dumps(report, sort_keys=True), work


def execute(ringinv, op: Op) -> Outcome:
    """Issue one operation; time only the call into ringinv."""
    perf = time.perf_counter
    try:
        if op.kind == "cli":
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = perf()
                code = ringinv.cli.main(list(op.args))
                took = perf() - start
            text, work = _canonical_cli(op.args, code, out.getvalue())
            return Outcome(took, text, work)
        ring_text, element_text = op.args
        start = perf()
        ring = ringinv.parse_ring(ring_text)
        a = ringinv.parse_element(ring, element_text)
        if op.kind == "classify":
            text = _render_classify(ringinv.classify(a))
        else:
            text = _render_decompose(ringinv.tripotent_decomposition(a), ringinv.format_polynomial)
        return Outcome(perf() - start, text, 1)
    except Exception as err:  # a failed operation is counted, not fatal
        return Outcome(0.0, None, 0, f"{type(err).__name__}: {err}")
