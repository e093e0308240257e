"""Which ``repro`` functions the traced run wraps, and the per-layer metrics.

Layers are ``src/repro/`` packages.  :data:`SPANS` names the public
functions and methods timed for each layer; :func:`install` wraps them
(plus the action and deepening-step counters) and
:func:`layer_metrics` folds the recorded spans into the per-layer
metrics that ``BENCHMARK.json`` lists.  :data:`MOVES` records, for each
of them, the end-to-end metric and workload it is predicted to move,
so later changes can cite it.
"""

from __future__ import annotations

import functools
import math
import statistics
from typing import Any, Callable, Iterator

from tracer import Tracer

# (span name, module, attribute).  ``Class.method`` wraps on the class.
SPANS: list[tuple[str, str, str]] = [
    ("graphs.build", "repro.experiments.scenarios", "build_graph"),
    ("symmetry.context", "repro.symmetry.context", "symmetry_context"),
    ("symmetry.context.built", "repro.symmetry.context", "SymmetryContext.__init__"),
    ("symmetry.distances", "repro.symmetry.context", "SymmetryContext.distances"),
    ("symmetry.distances", "repro.symmetry.context", "SymmetryContext.distances_block"),
    ("symmetry.distances", "repro.symmetry.shrink", "all_pairs_distances"),
    ("symmetry.shrink", "repro.symmetry.shrink", "shrink"),
    ("symmetry.shrink", "repro.symmetry.context", "SymmetryContext.shrink_pairs"),
    ("symmetry.shrink", "repro.symmetry.context", "SymmetryContext.shrink_all_into"),
    ("core.rendezvous", "repro.core.universal", "rendezvous"),
    ("core.certify", "repro.core.universal", "certify_instance"),
    ("core.certify", "repro.core.universal", "certify_graph"),
    ("core.certify", "repro.core.universal", "certify_labels"),
    ("core.certify", "repro.core.universal", "certify_all_labels"),
    ("core.uxs", "repro.core.uxs", "apply_uxs"),
    ("core.uxs", "repro.core.uxs", "is_uxs_for_graph"),
    ("sim.run_rendezvous", "repro.sim.scheduler", "run_rendezvous"),
    ("sim.batch", "repro.sim.batch", "run_rendezvous_batch"),
    ("sim.schedule_sweep", "repro.sim.schedule_adversary", "run_schedule_sweep"),
    ("exec.trace", "repro.exec.trace", "TraceCompiler.traces"),
    ("exec.meeting", "repro.exec.meeting", "solve_sync_meeting"),
    ("exec.meeting", "repro.exec.meeting", "resolve_sync_cell"),
    ("exec.meeting", "repro.exec.meeting", "resolve_async_cell"),
    ("exec.uxs", "repro.exec.uxs", "covered_counts"),
    ("exec.uxs", "repro.exec.uxs", "is_uxs_for_graph_vectorized"),
    ("hardness.simulate", "repro.hardness.lower_bound", "simulate_word"),
    ("hardness.simulate", "repro.hardness.batch", "simulate_word_batch"),
    ("experiments.plan", "repro.experiments.orchestrator", "plan_shards"),
    ("experiments.plan", "repro.experiments.store", "shard_key"),
    ("experiments.store.get", "repro.experiments.store", "ResultStore.get"),
    ("experiments.store.put", "repro.experiments.store", "ResultStore.put"),
    ("experiments.journal.append", "repro.experiments.journal", "RunJournal.append"),
    ("experiments.journal.replay", "repro.experiments.journal", "replay_journal"),
    ("experiments.queue.fail", "repro.experiments.queue", "WorkQueue.fail"),
]

#: Driver modules whose ``merge`` is timed as ``experiments.merge``.
MERGE_MODULES = [
    "repro.experiments.e_fig1",
    "repro.experiments.e_shrink",
    "repro.experiments.e_infeasible",
    "repro.experiments.e_symm_rv",
    "repro.experiments.e_universal",
    "repro.experiments.e_hardness",
    "repro.experiments.e_baselines",
    "repro.experiments.e_open_problem",
    "repro.experiments.e_async_random",
    "repro.campaigns.driver",
]

CAMPAIGN_DRIVER = "repro.campaigns.driver"
CHECK_KINDS = ("differential", "metamorphic", "statistical")

_E2E_COLD = "wall_s on fast-tier"
#: Per-layer metric -> the end-to-end metric and workload it should move.
#: Names, units and directions are in ``BENCHMARK.json``; this rationale
#: has no field there.
MOVES: dict[str, str] = {
    "graphs.build.calls": "wall_s on campaign-fast (small)",
    "graphs.build.s": "wall_s on campaign-fast (small)",
    "symmetry.context.calls": "wall_s on campaign-fast (small)",
    "symmetry.context.built": "peak_rss_mb on every workload",
    "symmetry.context.s": "wall_s on campaign-fast (small)",
    "symmetry.distances.s": "wall_s on campaign-fast (small)",
    "symmetry.shrink.calls": "wall_s on warm-rerun (planning)",
    "symmetry.shrink.s": "wall_s on warm-rerun (planning)",
    "core.rendezvous.calls": _E2E_COLD,
    "core.rendezvous.s": _E2E_COLD,
    "core.certify.s": _E2E_COLD,
    "core.actions": _E2E_COLD,
    "core.rounds": _E2E_COLD,
    "core.rounds_per_s": _E2E_COLD,
    "core.uxs.s": "wall_s on campaign-fast",
    "sim.run_rendezvous.calls": _E2E_COLD,
    "sim.run_rendezvous.s": _E2E_COLD,
    "sim.batch.s": "wall_s on campaign-fast",
    "sim.schedule_sweep.s": "wall_s on campaign-fast",
    "exec.trace.calls": "wall_s on campaign-fast",
    "exec.trace.s": "wall_s on campaign-fast",
    "exec.trace.starts": "wall_s on campaign-fast",
    "exec.deepen.calls": "wall_s on campaign-fast",
    "exec.deepen.steps": "wall_s on campaign-fast",
    "exec.meeting.s": "wall_s on campaign-fast",
    "exec.uxs.s": "wall_s on campaign-fast",
    "hardness.simulate.s": "wall_s on campaign-fast (small)",
    "experiments.plan.s": "wall_s on warm-rerun",
    "experiments.shard.calls": "wall_s on fast-tier and campaign-fast",
    "experiments.shard.s": "wall_s on fast-tier and campaign-fast",
    "experiments.shard.p50_ms": "wall_s on campaign-fast",
    "experiments.shard.tail_ms": _E2E_COLD,
    "experiments.merge.s": "wall_s on warm-rerun",
    "experiments.store.gets": "wall_s on warm-rerun",
    "experiments.store.hits": "wall_s on warm-rerun",
    "experiments.store.get_s": "wall_s on warm-rerun",
    "experiments.store.puts": "wall_s on fast-tier and campaign-fast (small)",
    "experiments.store.put_s": "wall_s on fast-tier and campaign-fast (small)",
    "experiments.store.bytes": "wall_s on warm-rerun",
    "experiments.journal.events": "wall_s on warm-rerun",
    "experiments.journal.append_s": "wall_s on warm-rerun",
    "experiments.journal.replay_s": "wall_s on warm-rerun",
    "experiments.journal.bytes": "wall_s on warm-rerun",
    "experiments.queue.retries": "ok_frac on every workload",
    "experiments.queue.quarantined": "ok_frac on every workload",
    "experiments.cycle.p50_ms": "wall_s on warm-rerun",
    "experiments.cycle.p90_ms": "wall_s on warm-rerun",
    "campaigns.check.differential.s": "wall_s on campaign-fast",
    "campaigns.check.metamorphic.s": "wall_s on campaign-fast",
    "campaigns.check.statistical.s": "wall_s on campaign-fast",
    "campaigns.cells": "wall_s on campaign-fast",
    "campaigns.failures": "ok_frac on campaign-fast",
    "process.import_s": "setup_s on every workload",
    "trace.overhead_s": "none (cost of tracing itself)",
}

#: Metrics counted directly by the hooks :func:`install` adds.
HOOK_COUNTS = [
    "core.actions",
    "core.rounds",
    "exec.trace.starts",
    "exec.deepen.steps",
    "experiments.store.hits",
    "experiments.store.bytes",
    "experiments.journal.bytes",
    "experiments.queue.retries",
    "experiments.queue.quarantined",
    "campaigns.cells",
    "campaigns.failures",
]

#: Counts that must repeat exactly for the same code, workload and seed.
EXACT_COUNTS = [
    "core.actions",
    "core.rounds",
    "exec.trace.starts",
    "experiments.shard.calls",
    "experiments.store.bytes",
    "experiments.journal.events",
]


def install(tracer: Tracer) -> None:
    """Wrap every target; ``repro`` and the workload's drivers are loaded."""
    from repro.campaigns.checks import CHECKS
    from repro.experiments.queue import PENDING, QUARANTINED
    from repro.util.encoding import canonical_json

    sizes: dict[str, int] = {}

    def payload_bytes(key: str, data: Any) -> int:
        """Canonical size of a shard payload (the entry's ``meta`` holds timings)."""
        if key not in sizes:
            sizes[key] = len(canonical_json(data))
        return sizes[key]

    def on_get(t: Tracer, args: tuple, _kw: dict, result: Any, _s: float) -> None:
        if result is not None:
            t.counts["experiments.store.hits"] += 1
            t.counts["experiments.store.bytes"] += payload_bytes(args[1], result)

    def on_put(t: Tracer, args: tuple, kw: dict, _r: Any, _s: float) -> None:
        data = args[2] if len(args) > 2 else kw["data"]
        t.counts["experiments.store.bytes"] += payload_bytes(args[1], data)

    def on_append(t: Tracer, args: tuple, kw: dict, _r: Any, _s: float) -> None:
        event = args[1] if len(args) > 1 else kw["event"]
        t.counts["experiments.journal.bytes"] += len(canonical_json(event)) + 1

    def on_fail(t: Tracer, _a: tuple, _kw: dict, status: Any, _s: float) -> None:
        if status == QUARANTINED:
            t.counts["experiments.queue.quarantined"] += 1
        elif status == PENDING:
            t.counts["experiments.queue.retries"] += 1

    def on_traces(t: Tracer, args: tuple, kw: dict, _r: Any, _s: float) -> None:
        t.counts["exec.trace.starts"] += len(args[1] if len(args) > 1 else kw["horizons"])

    def on_run(t: Tracer, _a: tuple, _kw: dict, result: Any, _s: float) -> None:
        t.counts["core.rounds"] += result.rounds_executed

    def on_shard(t: Tracer, args: tuple, _kw: dict, result: Any, seconds: float) -> None:
        t.samples["shard"].append(seconds)
        if args[0] == CAMPAIGN_DRIVER:
            t.counts["campaigns.cells"] += 1
            t.counts["campaigns.failures"] += len(result[0].get("failures", []))

    after: dict[str, Callable[..., None]] = {
        "experiments.store.get": on_get,
        "experiments.store.put": on_put,
        "experiments.journal.append": on_append,
        "experiments.queue.fail": on_fail,
        "exec.trace": on_traces,
        "sim.run_rendezvous": on_run,
    }
    for name, module, attr in SPANS:
        tracer.install(module, attr, lambda f, n=name: tracer.wrap(f, n, after.get(n)))
    for module in MERGE_MODULES:
        tracer.install(module, "merge", lambda f: tracer.wrap(f, "experiments.merge"))
    tracer.install(
        "repro.experiments.queue",
        "execute_shard_task",
        lambda f: tracer.wrap(f, "experiments.shard", on_shard),
    )
    tracer.install(
        CAMPAIGN_DRIVER,
        "run_check",
        lambda f: tracer.wrap(
            f, lambda args, kw: "campaigns.check." + CHECKS[args[0]].kind
        ),
    )

    def count_actions(script: Iterator[Any]) -> Any:
        """Forward a UniversalRV agent script, counting what it yields."""
        try:
            action = next(script)
            while True:
                tracer.counts["core.actions"] += 1
                action = script.send((yield action))
        except StopIteration as stop:
            return stop.value
        finally:
            script.close()

    tracer.install(
        "repro.core.universal",
        "universal_rv",
        lambda f: functools.wraps(f)(lambda *a, **k: count_actions(f(*a, **k))),
    )

    def deepen(f: Callable[..., Any]) -> Callable[..., Any]:
        def counted(count: int, step: Callable[..., Any], **kwargs: Any) -> Any:
            def counting_step(*args: Any) -> Any:
                tracer.counts["exec.deepen.steps"] += 1
                return step(*args)

            return f(count, counting_step, **kwargs)

        return tracer.wrap(functools.wraps(f)(counted), "exec.deepen")

    tracer.install("repro.exec.deepen", "resolve_adaptive", deepen)


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values: list[float]) -> float:
    """Highest order statistic with at least ten samples beyond it.

    With 20 samples or fewer no rank above the median qualifies, and
    the median is reported.
    """
    ordered = sorted(values)
    k = len(ordered) - 11
    return ordered[k] if k >= len(ordered) // 2 else statistics.median(ordered)


def layer_metrics(
    tracer: Tracer, *, cycles: list[float], import_s: float
) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``."""
    own = tracer.self_seconds()
    calls = tracer.counts

    def s(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names)

    shards = tracer.samples["shard"] or [0.0]
    run_s = tracer.inclusive_seconds("sim.run_rendezvous")
    out: dict[str, float] = {name: calls[name] for name in HOOK_COUNTS}
    out.update({
        "graphs.build.calls": calls["graphs.build.calls"],
        "graphs.build.s": s("graphs.build"),
        "symmetry.context.calls": calls["symmetry.context.calls"],
        "symmetry.context.built": calls["symmetry.context.built.calls"],
        "symmetry.context.s": s("symmetry.context", "symmetry.context.built"),
        "symmetry.distances.s": s("symmetry.distances"),
        "symmetry.shrink.calls": calls["symmetry.shrink.calls"],
        "symmetry.shrink.s": s("symmetry.shrink"),
        "core.rendezvous.calls": calls["core.rendezvous.calls"],
        "core.rendezvous.s": s("core.rendezvous"),
        "core.certify.s": s("core.certify"),
        "core.rounds_per_s": calls["core.rounds"] / run_s if run_s > 0 else 0.0,
        "core.uxs.s": s("core.uxs"),
        "sim.run_rendezvous.calls": calls["sim.run_rendezvous.calls"],
        "sim.run_rendezvous.s": s("sim.run_rendezvous"),
        "sim.batch.s": s("sim.batch"),
        "sim.schedule_sweep.s": s("sim.schedule_sweep"),
        "exec.trace.calls": calls["exec.trace.calls"],
        "exec.trace.s": s("exec.trace"),
        "exec.deepen.calls": calls["exec.deepen.calls"],
        "exec.meeting.s": s("exec.meeting"),
        "exec.uxs.s": s("exec.uxs"),
        "hardness.simulate.s": s("hardness.simulate"),
        "experiments.plan.s": s("experiments.plan"),
        "experiments.shard.calls": calls["experiments.shard.calls"],
        "experiments.shard.s": s("experiments.shard"),
        "experiments.shard.p50_ms": statistics.median(shards) * 1e3,
        "experiments.shard.tail_ms": tail(shards) * 1e3,
        "experiments.merge.s": s("experiments.merge"),
        "experiments.store.gets": calls["experiments.store.get.calls"],
        "experiments.store.get_s": s("experiments.store.get"),
        "experiments.store.puts": calls["experiments.store.put.calls"],
        "experiments.store.put_s": s("experiments.store.put"),
        "experiments.journal.events": calls["experiments.journal.append.calls"],
        "experiments.journal.append_s": s("experiments.journal.append"),
        "experiments.journal.replay_s": s("experiments.journal.replay"),
        "experiments.cycle.p50_ms": nearest_rank(cycles, 0.5) * 1e3,
        "experiments.cycle.p90_ms": nearest_rank(cycles, 0.9) * 1e3,
        "process.import_s": import_s,
    })
    for kind in CHECK_KINDS:
        out[f"campaigns.check.{kind}.s"] = s(f"campaigns.check.{kind}")
    return out
