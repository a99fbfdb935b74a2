from __future__ import annotations

import functools
import signal

import pytest
from hypothesis import strategies as st

from ringinv import (
    RingSpec,
    VerificationError,
    census,
    gen_inverse,
    lifting,
    matrix,
    modular,
    rings,
)
from ringinv._scan import RingScan

SMALL_MODULAR = [modular(n) for n in range(2, 17)]
SMALL_MATRIX = [
    matrix(modular(2), 2),
    matrix(modular(3), 2),
    matrix(modular(4), 2),
    matrix(modular(2), 3),
]
SMALL_RINGS = SMALL_MODULAR + SMALL_MATRIX

# Companion matrix of x^3 - x - 5 over Z/47: power period 103 822.
COMPANION_M3_Z47 = "[[0,0,5],[1,0,1],[0,1,0]]"
# A singular M8(Z/47) element with Drazin index 2.
M8_Z47_ELEMENT = (
    "[[14,23,24,8,12,45,2,5],[8,15,32,13,25,41,1,29],[31,29,24,31,36,12,25,5],"
    "[31,14,1,44,17,33,26,30],[24,46,7,42,16,6,4,24],[39,24,6,42,3,21,15,44],"
    "[0,0,0,0,0,0,0,1],[0,0,0,0,0,0,0,0]]"
)
# nextprime(10**30) * nextprime(2 * 10**30): Pollard rho needs about 10**15
# steps to split it, far past the factorization budget.
UNFACTORABLE_MODULUS = 2000000000000000000000000000185000000000000000000000000004047

# wall-clock seconds a test under the wall_clock_limit fixture may run; the
# guarded tests take a few seconds each
WALL_CLOCK_LIMIT = 60

finite_rings = st.sampled_from(SMALL_RINGS)


@st.composite
def ring_elements(draw, rings=finite_rings):
    """One element of one small finite ring."""
    ring = draw(rings)
    index = draw(st.integers(0, ring.size() - 1))
    return ring.element_at(index)


@st.composite
def ring_element_pairs(draw, rings=finite_rings):
    """Two elements of the same small finite ring."""
    ring = draw(rings)
    size = ring.size()
    i = draw(st.integers(0, size - 1))
    j = draw(st.integers(0, size - 1))
    return ring.element_at(i), ring.element_at(j)


HIRANO_FAILURE = "constructed Hirano inverse failed its equations"


@pytest.fixture
def hirano_fails_at_two(monkeypatch):
    """The law registry's hirano raises VerificationError on 2 in Z/9."""
    real_hirano = census.hirano

    def failing_at_two(a):
        if a == modular(9).element(2):
            raise VerificationError(HIRANO_FAILURE)
        return real_hirano(a)

    monkeypatch.setattr(census, "hirano", failing_at_two)


def counting_nilpotency_tests(monkeypatch) -> list[int]:
    """Patch is_nilpotent in every module that imports it; the one-item list
    counts the calls."""
    return counting_calls(monkeypatch, [rings, lifting, gen_inverse, census], "is_nilpotent")


def counting_calls(monkeypatch, modules, name) -> list[int]:
    """Patch the function ``name`` in each of ``modules``; the one-item list
    counts the calls."""
    real = getattr(modules[0], name)
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def counting_renders(monkeypatch) -> list[int]:
    """Patch Element.__repr__; the one-item list counts the renders."""
    return counting_calls(monkeypatch, [rings.Element], "__repr__")


def counting_products(monkeypatch) -> list[int]:
    """Patch every ring's product kernel, so products on entry tuples count
    as well as ``Element * Element``; the one-item list counts the products.
    Integer multiples are not products and are not counted."""
    calls = [0]
    kernel_of = rings.RingSpec._product.func

    def counting_kernel(ring):
        kernel = kernel_of(ring)

        def counting(a, b, m):
            calls[0] += 1
            return kernel(a, b, m)

        return counting

    monkeypatch.setattr(rings.RingSpec, "_product", property(counting_kernel))
    return calls


def altering_masks(monkeypatch, alter) -> None:
    """Patch RingScan.masks to alter(scan, masks), the masks it builds,
    still built once per scan."""
    build = RingScan.masks.func
    masks = functools.cached_property(lambda scan: alter(scan, build(scan)))
    masks.__set_name__(RingScan, "masks")
    monkeypatch.setattr(RingScan, "masks", masks)


@pytest.fixture
def wall_clock_limit():
    """Fail the test with TimeoutError once it has run WALL_CLOCK_LIMIT
    seconds, so a loop that never ends fails its test instead of stalling
    the suite (SIGALRM: Unix, main thread)."""

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its {WALL_CLOCK_LIMIT} s wall-clock limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WALL_CLOCK_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def z9():
    return modular(9)


@pytest.fixture(scope="session")
def m2z2():
    return matrix(modular(2), 2)


@pytest.fixture(scope="session")
def m2z3():
    return matrix(modular(3), 2)


def all_elements(ring: RingSpec):
    return list(ring.elements())
