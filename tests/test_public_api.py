from __future__ import annotations

import dataclasses
import inspect

import pytest

import ringinv
from ringinv import calculus, census, gen_inverse

PUBLIC_NAMES = [
    "CensusMismatchError",
    "CensusReport",
    "CrossCheckInfo",
    "DrazinCertificate",
    "Element",
    "HiranoCertificate",
    "InclusionWitness",
    "InfiniteRingError",
    "InverseReport",
    "LAWS",
    "LiftedIdempotent",
    "NilpotencyWitness",
    "ParseError",
    "PolynomialCertificate",
    "PreconditionError",
    "RingError",
    "RingMismatchError",
    "RingSpec",
    "SDrazinCertificate",
    "SquareZeroSum",
    "TheoremReport",
    "TripotentDecomposition",
    "UnsupportedRingError",
    "VerificationError",
    "ViolationRecord",
    "Z",
    "char_poly",
    "check_drazin",
    "check_hirano",
    "check_strongly_drazin",
    "classify",
    "cline",
    "commuting_product",
    "det",
    "drazin_finite",
    "format_polynomial",
    "has_hirano",
    "has_strongly_drazin",
    "hirano",
    "hirano_of_hirano",
    "inverse_of_unipotent",
    "is_idempotent",
    "is_nilpotent",
    "is_tripotent",
    "is_unit",
    "lift_idempotent",
    "matrix",
    "modular",
    "nilpotency_bound",
    "orthogonal_sum",
    "parse_element",
    "parse_ring",
    "power_formula",
    "run_census",
    "sd_difference_decomposition",
    "square_zero_sum",
    "strongly_drazin",
    "tripotent_decomposition",
    "unit_exponent",
    "verify_theorem",
]

# Test oracles and a second route to law 2.4; the oracles live in tests/oracles.py.
REMOVED_NAMES = [
    "SemigroupProfile",
    "brute_force_drazin",
    "brute_force_hirano",
    "brute_force_strongly_drazin",
    "hirano_via_square",
    "one_minus_counterexample",
    "semigroup_profile",
]


def test_all_is_pinned_and_resolves():
    assert sorted(ringinv.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ringinv, name) is not None, name


@pytest.mark.parametrize("module", [ringinv, gen_inverse, calculus], ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    for name in REMOVED_NAMES:
        assert not hasattr(module, name), name


def test_ring_spec_is_modulus_and_dim():
    assert [f.name for f in dataclasses.fields(ringinv.RingSpec)] == ["modulus", "dim"]


def test_element_is_ring_and_entries():
    assert [f.name for f in dataclasses.fields(ringinv.Element)] == ["ring", "entries"]


@pytest.mark.parametrize(
    "function, parameters",
    [
        (ringinv.verify_theorem, ["theorem_id", "ring", "seed", "samples"]),
        (ringinv.run_census, ["ring", "seed", "samples"]),
        (ringinv.format_polynomial, ["coeffs"]),
    ],
    ids=["verify_theorem", "run_census", "format_polynomial"],
)
def test_request_signature_is_pinned(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters


def test_every_arity_one_law_walks_the_whole_ring():
    """verify_theorem runs a law exhaustively when size ** arity is at most
    MAX_EXHAUSTIVE_INSTANCES; every ring it accepts passes at arity 1."""
    assert census.RING_SIZE_CAP <= census.MAX_EXHAUSTIVE_INSTANCES
