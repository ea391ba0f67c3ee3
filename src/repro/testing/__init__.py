"""Conformance-testing subsystem.

Reusable infrastructure for checking the efficient clock-synchronization
algorithm against independently derived ground truth:

- :mod:`repro.testing.oracle` - from-scratch reference implementations of
  the paper's definitions (sync graph, Definition 3.1 liveness,
  Theorem 2.1 bounds) sharing no graph code with the production path.
- :mod:`repro.testing.differential` - a driver that runs the efficient
  algorithm, the full-information reference, and the oracles over one
  adversarial schedule and diffs every observable surface; divergences
  minimize into deterministic repro scripts and JSON corpus entries.
- :mod:`repro.testing.invariants` - debug-mode structural invariant
  checks (``REPRO_DEBUG=1``) wired into the estimator and AGDP.
- :mod:`repro.testing.asserts` - shared interval-comparison predicates.
- :mod:`repro.testing.strategies` - the Hypothesis strategy library
  (imported lazily so the rest of the package works without hypothesis).
- :mod:`repro.testing.mutants` - deliberately broken estimator variants
  for mutation smoke tests.
- :mod:`repro.testing.reference` - the pure-Python dict AGDP solver and
  the pre-optimization AGDP/history implementations, frozen as
  differential oracles for the production solver and hot-path rewrites.
"""

from .asserts import DEFAULT_TOLERANCE, assert_bound_equal, bounds_equal, endpoint_equal
from .differential import (
    CORPUS_FORMAT,
    DifferentialReport,
    Divergence,
    check_schedule,
    load_corpus_entry,
    minimize_schedule,
    repro_script,
    run_differential,
    write_corpus_entry,
)
from .invariants import (
    InvariantViolation,
    check_agdp_invariants,
    check_csa_invariants,
    debug_checks_enabled,
)
from .mutants import BrokenGCCSA, broken_gc_factory
from .reference import ReferenceAGDP, ReferenceHistoryModule, ReferenceNumpyAGDP
from .oracle import (
    OracleInconsistencyError,
    oracle_all_pairs,
    oracle_causal_past,
    oracle_distances_from,
    oracle_distances_to,
    oracle_external_bounds,
    oracle_live_points,
    oracle_source_point,
    oracle_sync_edges,
)

__all__ = [
    "BrokenGCCSA",
    "CORPUS_FORMAT",
    "DEFAULT_TOLERANCE",
    "DifferentialReport",
    "Divergence",
    "InvariantViolation",
    "OracleInconsistencyError",
    "ReferenceAGDP",
    "ReferenceHistoryModule",
    "ReferenceNumpyAGDP",
    "assert_bound_equal",
    "bounds_equal",
    "broken_gc_factory",
    "check_agdp_invariants",
    "check_csa_invariants",
    "check_schedule",
    "debug_checks_enabled",
    "endpoint_equal",
    "load_corpus_entry",
    "minimize_schedule",
    "oracle_all_pairs",
    "oracle_causal_past",
    "oracle_distances_from",
    "oracle_distances_to",
    "oracle_external_bounds",
    "oracle_live_points",
    "oracle_source_point",
    "oracle_sync_edges",
    "repro_script",
    "run_differential",
    "strategies",
    "write_corpus_entry",
]


def __getattr__(name):
    # hypothesis is a test-only dependency; load the strategy library on
    # first access so production imports of repro.testing never require it
    if name == "strategies":
        from . import strategies

        return strategies
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
