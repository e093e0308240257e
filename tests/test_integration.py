"""Integration tests: the full stack on exhaustive small workloads.

The strongest statement the library can check end-to-end is
Corollary 3.1 itself: for every STIC of a small graph, UniversalRV
meets exactly when the characterization says it can.
"""

import pytest

from repro.core import rendezvous, enumerate_stics
from repro.core.profile import TUNED
from repro.baselines import elect_leader
from repro.graphs import (
    oriented_ring,
    path_graph,
    star_graph,
    two_node_graph,
)
from repro.graphs.random_graphs import random_connected_graph


FEASIBLE_HORIZON = None  # auto budget
INFEASIBLE_HORIZON = 30_000


@pytest.mark.parametrize(
    "graph,max_delta",
    [
        (two_node_graph(), 2),
        (path_graph(3), 1),
        (oriented_ring(3), 1),
        (star_graph(2), 1),
    ],
    ids=["P2", "P3", "C3", "star2"],
)
def test_corollary31_exhaustive(graph, max_delta):
    """UniversalRV meets iff the STIC is feasible — every STIC checked."""
    for stic, verdict in enumerate_stics(graph, max_delta):
        if verdict.feasible:
            result = rendezvous(graph, stic.u, stic.v, stic.delta)
            assert result.met, (stic, verdict.reason)
        else:
            result = rendezvous(
                graph, stic.u, stic.v, stic.delta, max_rounds=INFEASIBLE_HORIZON
            )
            assert not result.met, (stic, verdict.reason)


def test_meeting_produces_leader_everywhere():
    graph = path_graph(3)
    for stic, verdict in enumerate_stics(graph, 1):
        if not verdict.feasible:
            continue
        result = rendezvous(graph, stic.u, stic.v, stic.delta, record_traces=True)
        assert result.met
        election = elect_leader(result)
        assert election.leader in (0, 1)


def test_random_nonsymmetric_instances():
    """Random graphs: every non-symmetric pair must meet at delta 0."""
    for seed in range(3):
        g = random_connected_graph(5, 2, seed=seed)
        for stic, verdict in enumerate_stics(g, 0):
            if verdict.symmetric:
                continue
            result = rendezvous(g, stic.u, stic.v, 0)
            assert result.met, (seed, stic)


def test_time_measured_from_later_agent():
    g = two_node_graph()
    result = rendezvous(g, 0, 1, 3)
    assert result.met
    assert result.meeting_time == result.time_from_later + 3


def test_crossings_recorded_on_infeasible_runs():
    # On the two-node graph with delta 0 the agents repeatedly swap:
    # the trace must show crossings but no meeting, exactly the
    # crossing rounds the scalar scheduler records.
    from repro.core.universal import UniversalOracle, make_universal_algorithm
    from repro.sim import run_rendezvous

    g = two_node_graph()
    result = rendezvous(g, 0, 1, 0, max_rounds=5_000)
    scalar = run_rendezvous(
        g, 0, 1, 0, make_universal_algorithm(TUNED), max_rounds=5_000,
        oracles=(UniversalOracle(g, 0, TUNED), UniversalOracle(g, 1, TUNED)),
    )
    assert not result.met
    assert len(result.crossings) > 0
    assert result.crossings == scalar.crossings


def test_profile_consistency_small():
    """Reference and tuned profiles agree on feasibility outcomes for
    the smallest instance (they differ only in constants)."""
    from repro.core.profile import REFERENCE

    g = path_graph(3)
    tuned = rendezvous(g, 0, 2, 1, profile=TUNED)
    reference = rendezvous(g, 0, 2, 1, profile=REFERENCE, max_rounds=10**7)
    assert tuned.met and reference.met
