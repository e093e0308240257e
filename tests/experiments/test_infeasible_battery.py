"""EXP-L31's oblivious battery against its scalar definition.

The battery draws each port word in bulk from the vectorized
SplitMix64 stream; :func:`scalar_battery` is the per-draw
``SplitMix64.randrange`` loop it replaced, kept here as the reference.
"""

import pytest

from repro.experiments import e_infeasible
from repro.experiments.scenarios import build_graph
from repro.graphs import oriented_ring, path_graph
from repro.util.lcg import SplitMix64, derive_seed


def scalar_battery(graph, u, v, delta, rounds, seeds) -> bool:
    succ = graph.succ_node_array
    degrees = graph.degrees
    for seed in seeds:
        rng = SplitMix64(derive_seed("infeasible-battery", seed))
        word = [rng.randrange(64) for _ in range(rounds)]
        pos_a, pos_b = u, v
        for t in range(rounds):
            if t >= delta and pos_a == pos_b:
                return True
            pos_a = int(succ[pos_a, word[t] % int(degrees[pos_a])])
            if t >= delta:
                pos_b = int(succ[pos_b, word[t - delta] % int(degrees[pos_b])])
    return False


@pytest.mark.parametrize("seed", range(8))
def test_fast_tier_cells_match_scalar(seed):
    config = e_infeasible.SCENARIO.config("fast")
    rounds = config.params["battery_rounds"]
    for shard in e_infeasible.make_shards(config):
        graph = build_graph(shard["graph"])
        args = (graph, shard["u"], shard["v"], shard["delta"], rounds, [seed])
        assert e_infeasible._oblivious_battery(*args) == scalar_battery(*args)
        assert not scalar_battery(*args)


@pytest.mark.parametrize(
    "graph,u,v,delta",
    [(path_graph(4), 0, 2, 1), (oriented_ring(5), 0, 2, 3), (path_graph(5), 1, 4, 0)],
)
def test_feasible_stics_match_scalar(graph, u, v, delta):
    """Feasible STICs, where words do meet, agree too."""
    for seeds in (range(8), [5], [2, 7]):
        args = (graph, u, v, delta, 300, seeds)
        assert e_infeasible._oblivious_battery(*args) == scalar_battery(*args)
