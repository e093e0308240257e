"""Differential fuzz: segment-compiled UniversalRV against the scalar
scheduler.

:func:`repro.core.universal.rendezvous` answers oracle-mode profiles
through :mod:`repro.core.segments` (closed-form AsymmRV segments,
compiled SymmRV segments, windowed meeting solve).  The scalar
:func:`~repro.sim.scheduler.run_rendezvous` interpreting
:func:`~repro.core.universal.universal_rv` is the oracle: every
:class:`~repro.sim.scheduler.RendezvousResult` must be equal (``==``,
crossings included), and every per-agent position must equal
:func:`~repro.sim.scheduler.run_single_agent`.
"""

import pytest

from harness import assert_engines_identical, graph_pool
from repro.core import segments, universal
from repro.core.asymm_rv import asymm_rv
from repro.core.combinators import run_segment
from repro.core.profile import TUNED, tuned_profile
from repro.core.segments import compiled_rendezvous, universal_positions
from repro.core.universal import (
    UniversalOracle,
    make_universal_algorithm,
    rendezvous,
)
from repro.experiments import e_infeasible, e_universal
from repro.graphs import oriented_ring, path_graph, two_node_graph
from repro.sim.scheduler import run_rendezvous, run_single_agent
from repro.symmetry import classify_stic
from repro.util.lcg import SplitMix64, derive_seed

#: A second oracle-mode profile: hashed 32-bit labels, a short UXS and
#: a capped view depth give different slot lengths and label waits.
SMALL = tuned_profile(label_mode="hash32", uxs_scale=3, view_depth_cap=2)
PROFILES = {"tuned": TUNED, "small": SMALL}
AGENT_SEEDS = (3, 17, 29)
CASES = [
    (graph_idx, seed, name)
    for graph_idx in range(len(graph_pool()))
    for seed in AGENT_SEEDS
    for name in PROFILES
]


def _oracles(graph, u, v, profile):
    return (UniversalOracle(graph, u, profile), UniversalOracle(graph, v, profile))


def scalar_result(graph, u, v, delta, profile, max_rounds):
    """The retained scalar reference for one STIC."""
    return run_rendezvous(
        graph,
        u,
        v,
        delta,
        make_universal_algorithm(profile),
        max_rounds=max_rounds,
        oracles=_oracles(graph, u, v, profile),
    )


def compiled_result(graph, u, v, delta, profile, max_rounds):
    return compiled_rendezvous(
        graph,
        u,
        v,
        delta,
        profile,
        max_rounds=max_rounds,
        oracles=_oracles(graph, u, v, profile),
    )


def stic_case(graph_idx: int, seed: int, name: str) -> str | None:
    """Six seeded STICs: odd draws are infeasible STICs (which run to
    their budget, through SymmRV segments), even draws any pair and
    delay (``u == v`` allowed)."""
    graph = graph_pool()[graph_idx]
    profile = PROFILES[name]
    rng = SplitMix64(derive_seed("universal-diff", graph_idx, seed, name))
    infeasible = [
        (u, v, delta)
        for u in range(graph.n)
        for v in range(graph.n)
        for delta in range(8)
        if u != v and not classify_stic(graph, u, v, delta).feasible
    ]
    for draw in range(6):
        if draw % 2 and infeasible:
            u, v, delta = infeasible[rng.randrange(len(infeasible))]
            max_rounds = rng.randrange(40_000)
        else:
            u, v = rng.randrange(graph.n), rng.randrange(graph.n)
            delta = rng.randrange(40)
            max_rounds = rng.randrange(60_000)
        want = scalar_result(graph, u, v, delta, profile, max_rounds)
        got = compiled_result(graph, u, v, delta, profile, max_rounds)
        if got != want:
            return f"stic {(u, v, delta)} budget {max_rounds}: {got} vs {want}"
    return None


def test_fuzzed_stics_match_scalar():
    """The acceptance bar: at least 200 fuzzed STICs, full equality."""
    assert_engines_identical(stic_case, CASES, min_cases=len(CASES))
    assert 6 * len(CASES) >= 200


@pytest.mark.parametrize(
    "module", [e_infeasible, e_universal], ids=lambda m: m.SCENARIO.exp_id
)
def test_fast_tier_rendezvous_calls_match_scalar(monkeypatch, module):
    """Every ``rendezvous()`` call a fast-tier shard makes: the compiled
    answer it used equals the scalar scheduler on the same budget."""
    original = universal.compiled_rendezvous
    seen = []

    def checked(graph, u, v, delta, profile, *, max_rounds, oracles):
        got = original(
            graph, u, v, delta, profile, max_rounds=max_rounds, oracles=oracles
        )
        want = scalar_result(graph, u, v, delta, profile, max_rounds)
        assert got == want, (u, v, delta, max_rounds)
        seen.append((u, v, delta))
        return got

    monkeypatch.setattr(universal, "compiled_rendezvous", checked)
    config = module.SCENARIO.config("fast")
    shards = module.make_shards(config)
    for shard in shards:
        assert module.run_shard(config, shard)["ok"]
    assert len(seen) == len(shards)


@pytest.mark.parametrize("graph_idx", range(len(graph_pool())))
def test_positions_match_single_agent(graph_idx):
    """Per-agent positions from every home, compared over a horizon
    with SymmRV segments and at cuts that end inside active slots."""
    graph = graph_pool()[graph_idx]
    horizon = 40_000
    for home in range(graph.n):
        oracle = UniversalOracle(graph, home, SMALL)
        want, _ = run_single_agent(
            graph,
            home,
            lambda percept: universal.universal_rv(percept, SMALL, oracle),
            max_rounds=horizon,
        )
        got = universal_positions(graph, home, SMALL, oracle, horizon)
        assert got.tolist() == want
        for cut in (0, 1, 517, 4_099, 12_345):
            assert universal_positions(graph, home, SMALL, oracle, cut).tolist() == (
                want[: cut + 1]
            )


def test_positions_match_single_agent_tuned():
    """The default profile, through its first SymmRV segments."""
    graph = oriented_ring(5)
    horizon = 120_000
    for home in (0, 2):
        oracle = UniversalOracle(graph, home, TUNED)
        want, _ = run_single_agent(
            graph,
            home,
            lambda percept: universal.universal_rv(percept, TUNED, oracle),
            max_rounds=horizon,
        )
        assert universal_positions(graph, home, TUNED, oracle, horizon).tolist() == want


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_next_move_never_skips_a_move(name):
    """The meeting solve jumps from round ``c`` to ``next_move(c)``:
    the agent must sit still on every round in between."""
    profile = PROFILES[name]
    graph, horizon = oriented_ring(5), 60_000
    plan = segments._Plan(graph, profile)
    for home in (0, 3):
        path = segments._AgentPath(plan, home, UniversalOracle(graph, home, profile))
        positions = path.positions(0, horizon)
        moves = set((positions[1:] != positions[:-1]).nonzero()[0].tolist())
        jumps = 0
        for clock in range(0, horizon, 7):
            target = path.next_move(clock)
            assert target >= clock
            assert not moves & set(range(clock, min(target, horizon))), clock
            jumps += target > clock
        assert jumps > 0


def test_long_infeasible_run_matches_scalar():
    """Past round 261632 the solve jumps over a pad (two-node graph)."""
    graph = two_node_graph()
    assert compiled_result(graph, 0, 1, 0, TUNED, 270_000) == scalar_result(
        graph, 0, 1, 0, TUNED, 270_000
    )


# -- edge cases ---------------------------------------------------------------


def test_same_node_zero_delay_meets_at_round_zero():
    graph = oriented_ring(6)
    got = compiled_result(graph, 2, 2, 0, TUNED, 1_000)
    assert got == scalar_result(graph, 2, 2, 0, TUNED, 1_000)
    assert got.met and got.meeting_time == 0 and got.rounds_executed == 0


@pytest.mark.parametrize("max_rounds", [0, 5, 39])
def test_delay_beyond_budget_never_meets(max_rounds):
    graph = oriented_ring(6)
    got = compiled_result(graph, 0, 0, 40, TUNED, max_rounds)
    assert got == scalar_result(graph, 0, 0, 40, TUNED, max_rounds)
    assert not got.met and got.rounds_executed == max_rounds
    assert got.crossings == ()


def test_meeting_exactly_at_budget():
    graph, u, v, delta = path_graph(4), 0, 3, 2
    meeting = scalar_result(graph, u, v, delta, TUNED, 10**6).meeting_time
    assert meeting is not None and meeting > delta
    for max_rounds in (meeting, meeting - 1):
        got = compiled_result(graph, u, v, delta, TUNED, max_rounds)
        assert got == scalar_result(graph, u, v, delta, TUNED, max_rounds)
        assert got.met == (max_rounds == meeting)


def test_asymm_segment_with_budget_inside_label_wait():
    """Budgets at or below the ``2 view_budget`` label wait make no
    move; budgets just past it cut the first active slot."""
    graph, home = oriented_ring(5), 1
    params = SMALL.asymm_params(3)
    raw = UniversalOracle(graph, home, SMALL).raw_label(3)
    run = segments._AsymmRun(graph, home, params, raw)
    wait = 2 * params.view_budget
    slot = run.slot
    budgets = (0, 1, wait - 1, wait, wait + 1, wait + slot // 2, wait + 3 * slot + 5)
    for budget in budgets:

        def segment(percept, budget=budget):
            return run_segment(percept, asymm_rv(percept, params, raw), budget)

        want, _ = run_single_agent(graph, home, segment, max_rounds=2 * budget)
        assert run.fill(0, 2 * budget + 1, budget).tolist() == want, budget
        if budget <= wait:
            assert run.moves(budget) == 0


# -- dispatch -----------------------------------------------------------------


def test_record_traces_stays_scalar(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("traced runs must use the scalar scheduler")

    monkeypatch.setattr(universal, "compiled_rendezvous", forbidden)
    result = rendezvous(path_graph(3), 0, 2, 1, record_traces=True)
    assert result.met and result.traces is not None


def test_faithful_profile_stays_scalar(monkeypatch):
    calls = []
    original = universal.run_rendezvous

    def counting(*args, **kwargs):
        calls.append(args[:4])
        return original(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("faithful profiles must use the scalar scheduler")

    monkeypatch.setattr(universal, "run_rendezvous", counting)
    monkeypatch.setattr(universal, "compiled_rendezvous", forbidden)
    faithful = tuned_profile(view_mode="faithful", uxs_scale=3, name="faithful")
    rendezvous(two_node_graph(), 0, 1, 0, profile=faithful, max_rounds=2_000)
    assert len(calls) == 1


def test_oracle_profile_uses_compiled_path(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle profiles without traces are compiled")

    monkeypatch.setattr(universal, "run_rendezvous", forbidden)
    result = rendezvous(two_node_graph(), 0, 1, 0, max_rounds=5_000)
    assert not result.met and result.crossings
