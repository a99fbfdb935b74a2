"""Per-layer tracing of ringinv from outside its source.

``installed(tracer)`` wraps the public functions of every ringinv module
and a few hot methods, in every ringinv namespace that holds the original
object (names are imported into several modules), and restores them all on
exit.  Wrapped functions record spans (id, name, start, end, parent,
request id); the hottest methods (Element arithmetic, element_at) are
counted only, because a span per call would cost more than the call.

Spans are kept in memory up to SPAN_CAP and written out at the end; the
per-name aggregates (calls, time, self time) always cover every call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from workloads import CENSUS_EXHAUSTIVE_RINGS, CENSUS_SAMPLED_RINGS, LAW_IDS

SPAN_CAP = 50_000
MODULES = ("rings", "literals", "lifting", "gen_inverse", "calculus", "census", "_scan", "cli")
# A metric name may not start with "_", so _scan reports as "scan".
LAYER = {name: name.lstrip("_") for name in MODULES}
SPANNED_METHODS = (
    ("_scan", "RingScan", "__init__", "scan.RingScan"),
    ("_scan", "RingScan", "inverse_scan", "scan.inverse_scan"),
)
COUNTED_METHODS = (
    ("rings", "Element", "__mul__", "rings.mul.calls"),
    ("rings", "Element", "__add__", "rings.add_sub.calls"),
    ("rings", "Element", "__sub__", "rings.add_sub.calls"),
    ("rings", "RingSpec", "element_at", "rings.element_at.calls"),
)


class Tracer:
    """Spans and exact counters of one traced run; no global state."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.stack: list[list] = []  # open spans: [span id, child seconds, name]
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)  # outermost calls only
        self.self_seconds: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()  # exact work counters
        self.phase_seconds: defaultdict = defaultdict(float)  # census phases, rings, laws
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.request: int | None = None
        self.scan_split: float | None = None  # first RingScan inside run_census

    def span(self, name: str, fn, after=None):
        stack, depth, perf = self.stack, self.depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0, name]
            stack.append(frame)
            level = depth[name]
            depth[name] = level + 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[name] = level
                took = end - start
                self.calls[name] += 1
                if level == 0:
                    self.seconds[name] += took
                self.self_seconds[name] += took - frame[1]
                if parent is not None:
                    parent[1] += took
                if len(self.spans) < self.span_cap:
                    self.spans.append(
                        (sid, name, start, end, None if parent is None else parent[0], self.request)
                    )
                else:
                    self.dropped += 1
            if after is not None:
                after(self, args, result, start, end)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def counter(self, name: str, fn):
        counts, stack = self.counts, self.stack
        nil_steps = name == "rings.mul.calls"  # also count the power steps of is_nilpotent

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            if nil_steps and stack and stack[-1][2] == "rings.is_nilpotent":
                counts["rings.is_nilpotent.powers"] += 1
            return fn(*args)

        counted.__perfbench_original__ = fn
        return counted

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans), dropped=self.dropped)) + "\n")
            for sid, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


# ------------------------------------------------------------ exact counters

def _after_semigroup_profile(tr, args, profile, start, end):
    tr.counts["gen_inverse.semigroup_profile.orbit_len"] += profile.index + profile.period


def _after_lift_idempotent(tr, args, lifted, start, end):
    # each refinement step triples the certificate's degree, starting from 1
    degree, steps = len(lifted.certificate.coefficients) - 1, 0
    while degree > 1:
        degree //= 3
        steps += 1
    tr.counts["lifting.lift_idempotent.steps"] += steps


def _after_inverse_scan(tr, args, found, start, end):
    scan = args[0]
    block = sys.modules["ringinv._scan"]._BLOCK
    tr.counts["scan.inverse_scan.blocks"] += -(-scan.size // block)


def _after_ringscan_init(tr, args, result, start, end):
    if tr.depth["census.run_census"] and tr.scan_split is None:
        tr.scan_split = start


def _after_run_census(tr, args, report, start, end):
    """Split run_census at its first RingScan: counts before, cross-check after."""
    split = tr.scan_split if tr.scan_split is not None and tr.scan_split >= start else end
    tr.scan_split = None
    tr.phase_seconds["census.count_path_s"] += split - start
    tr.phase_seconds["census.cross_check_s"] += end - split
    tr.phase_seconds["census.ring_s." + ring_key(str(args[0]))] += end - start
    tr.counts["census.cross_check.checked"] += report.cross_check.checked


def _after_verify_theorem(tr, args, report, start, end):
    tr.phase_seconds["census.law_s." + law_key(args[0])] += end - start
    tr.counts["census.law.instances"] += report.instances
    tr.counts["census.law.checked"] += report.checked


AFTER = {
    "gen_inverse.semigroup_profile": _after_semigroup_profile,
    "lifting.lift_idempotent": _after_lift_idempotent,
    "scan.inverse_scan": _after_inverse_scan,
    "scan.RingScan": _after_ringscan_init,
    "census.run_census": _after_run_census,
    "census.verify_theorem": _after_verify_theorem,
}


def ring_key(ring: str) -> str:
    """ASCII-safe metric key for a ring literal: M2(Z/7) -> M2_Z7."""
    return ring.replace("(", "_").replace(")", "").replace("/", "")


def law_key(law: str) -> str:
    return law.replace(".", "_")


# ------------------------------------------------------------ patching

def _namespaces():
    return [m for n, m in sys.modules.items() if n == "ringinv" or n.startswith("ringinv.")]


def public_functions():
    """(layer name, original) for every public function defined in a ringinv module."""
    out = []
    for module_name in MODULES:
        module = sys.modules["ringinv." + module_name]
        for attr, value in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(value) \
                    and value.__module__ == module.__name__:
                out.append((f"{LAYER[module_name]}.{attr}", value))
    return out


def install(tracer: Tracer) -> list[tuple]:
    """Wrap everything traced; return the (holder, attribute, original) patches."""
    patches = []
    namespaces = _namespaces()
    for name, original in public_functions():
        wrapper = tracer.span(name, original, AFTER.get(name))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)
    for module_name, cls_name, attr, name in SPANNED_METHODS + COUNTED_METHODS:
        cls = getattr(sys.modules["ringinv." + module_name], cls_name)
        original = cls.__dict__[attr]
        if (module_name, cls_name, attr, name) in SPANNED_METHODS:
            wrapper = tracer.span(name, original, AFTER.get(name))
        else:
            wrapper = tracer.counter(name, original)
        patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for holder, attr, original in reversed(patches):
        setattr(holder, attr, original)


@contextmanager
def installed(tracer: Tracer):
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)


def is_wrapper(obj) -> bool:
    return hasattr(obj, "__perfbench_original__")


# ------------------------------------------------------------ metrics

GEN_INVERSE_FUNCS = ("drazin_finite", "hirano", "strongly_drazin", "has_hirano",
                     "has_strongly_drazin", "classify", "tripotent_decomposition")
CALCULUS_FUNCS = ("cline", "power_transfer", "commuting_product", "power_formula",
                  "jacobson_transfer", "orthogonal_sum", "square_zero_sum")
LITERALS_FUNCS = ("parse_ring", "parse_element")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [
        ("rings.mul.calls", "count", "lower"),
        ("rings.add_sub.calls", "count", "lower"),
        ("rings.is_nilpotent.calls", "count", "lower"),
        ("rings.is_nilpotent.powers", "count", "lower"),
        ("rings.is_unit.s", "s", "lower"),
        ("rings.element_at.calls", "count", "lower"),
        ("rings.mul_us", "us", "lower"),
        ("rings.add_us", "us", "lower"),
        ("census.count_path_s", "s", "lower"),
        ("census.cross_check_s", "s", "lower"),
        ("census.cross_check.checked", "count", "higher"),
    ]
    spec += [(f"census.ring_s.{ring_key(r)}", "s", "lower")
             for r in CENSUS_EXHAUSTIVE_RINGS + CENSUS_SAMPLED_RINGS]
    spec += [(f"census.law_s.{law_key(law)}", "s", "lower") for law in LAW_IDS]
    spec += [
        ("census.law.instances", "count", "higher"),
        ("census.law.checked_ratio", "ratio", "higher"),
        ("scan.RingScan.s", "s", "lower"),
        ("scan.inverse_scan.calls", "count", "lower"),
        ("scan.inverse_scan.s", "s", "lower"),
        ("scan.inverse_scan.blocks", "count", "lower"),
    ]
    for fn in GEN_INVERSE_FUNCS:
        spec += [(f"gen_inverse.{fn}.calls", "count", "lower"), (f"gen_inverse.{fn}.s", "s", "lower")]
    spec += [
        ("gen_inverse.semigroup_profile.orbit_len", "count", "lower"),
        ("lifting.lift_idempotent.calls", "count", "lower"),
        ("lifting.lift_idempotent.s", "s", "lower"),
        ("lifting.lift_idempotent.steps", "count", "lower"),
    ]
    for fn in CALCULUS_FUNCS:
        spec += [(f"calculus.{fn}.calls", "count", "lower"), (f"calculus.{fn}.s", "s", "lower")]
    for fn in LITERALS_FUNCS:
        spec += [(f"literals.{fn}.calls", "count", "lower"), (f"literals.{fn}.s", "s", "lower")]
    spec += [
        ("cli.main.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


def layer_values(tr: Tracer, extra: dict) -> dict[str, float]:
    """Value of every per-layer metric from a finished traced round.

    ``extra`` supplies the rows measured outside the trace (micro timings,
    tracing overhead).  Metrics a workload never reaches read 0.
    """
    values: dict[str, float] = dict(tr.counts)
    values.update(tr.phase_seconds)
    for name in tr.calls:
        values[name + ".calls"] = tr.calls[name]
        values[name + ".s"] = tr.seconds[name]
    instances = tr.counts["census.law.instances"]
    values["census.law.checked_ratio"] = tr.counts["census.law.checked"] / instances if instances else 0.0
    values["cli.main.self_s"] = tr.self_seconds["cli.main"]
    values.update(extra)
    return values

