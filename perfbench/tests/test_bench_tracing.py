"""The traced run's wrappers: installed everywhere, removed afterwards,
absent from untraced runs, and exact counters that repeat."""

import sys

import ringinv
import ringinv.cli  # noqa: F401
import tracing
import workloads
from ringinv import gen_inverse, lifting, rings

SMALL_OPS = [
    workloads.census_op("M2(Z/2)"),
    workloads.Op("classify", ("Z/9", "4")),
    workloads.Op("classify", ("M2(Z/5)", "[[1,2],[3,4]]")),
    workloads.Op("decompose", ("M2(Z/3)", "[[1,1],[0,2]]")),
    workloads.verify_op("4.1", "Z/5", 0),
]
EXACT = ("rings.mul.calls", "rings.is_nilpotent.powers", "gen_inverse.semigroup_profile.orbit_len",
         "lifting.lift_idempotent.steps", "scan.inverse_scan.blocks")


def _namespace_snapshot():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "ringinv" or name.startswith("ringinv.")
            for attr, value in vars(module).items()}


def test_install_patches_every_holder_and_restores_them():
    before = _namespace_snapshot()
    methods = (rings.Element.__mul__, rings.RingSpec.element_at)
    originals = [fn for _, fn in tracing.public_functions()]
    patches = tracing.install(tracing.Tracer())
    try:
        held = {id(v) for v in _namespace_snapshot().values()}
        assert not any(id(fn) in held for fn in originals)
        assert tracing.is_wrapper(ringinv.census.has_hirano)
        assert ringinv.census.has_hirano is ringinv.gen_inverse.has_hirano is ringinv.has_hirano
        assert tracing.is_wrapper(rings.Element.__mul__)
    finally:
        tracing.uninstall(patches)
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert (rings.Element.__mul__, rings.RingSpec.element_at) == methods


def test_untraced_run_calls_the_original_objects():
    wrapper_codes = {tracing.Tracer().span("x", len).__code__,
                     tracing.Tracer().counter("x", len).__code__}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        outcomes = [workloads.execute(ringinv, op) for op in SMALL_OPS]
    finally:
        sys.setprofile(None)
    assert all(out.text is not None for out in outcomes)
    assert not called & wrapper_codes
    for fn in (rings.is_nilpotent, gen_inverse.classify, gen_inverse.drazin_finite,
               lifting.lift_idempotent, ringinv.cli.main, rings.Element.__mul__):
        assert fn.__code__ in called, fn.__qualname__


def _traced_counts():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        outcomes = [workloads.execute(ringinv, op) for op in SMALL_OPS]
    assert all(out.text is not None for out in outcomes)
    return tracer


def test_exact_counters_repeat():
    first, second = _traced_counts(), _traced_counts()
    assert first.counts == second.counts
    assert first.calls == second.calls
    for name in EXACT:
        assert first.counts[name] > 0, name
    assert first.calls["scan.inverse_scan"] > 0
