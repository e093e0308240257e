"""One benchmark process: set up a workload, time it, check its output.

Run by ``perfbench/run.py`` as a fresh interpreter per sample, so that
set-up (interpreter start, ``repro`` imports, store creation) and the
cold compute are what a user of ``python -m repro`` pays::

    python3 perfbench/workloads.py WORKLOAD SEED SPAWNED_AT SPAWN_STEAL WORKDIR MODE [STOP_AT]

``SPAWNED_AT`` is the parent's ``time.time()`` and ``SPAWN_STEAL`` its
:func:`steal_seconds` just before the spawn; ``WORKDIR`` is an empty
directory for the result store (and the span dump).  ``MODE`` is
``run``, ``trace`` (the timed phase runs traced) or ``setup`` (stop
once set-up is measured).  ``STOP_AT``, a
``time.time()`` value, lets ``warm-rerun`` time batches until the next
one would end after it (at least :data:`MIN_WARM_BATCHES`) instead of
exactly :data:`WARM_BATCHES`.  The last stdout line is one JSON object.

Host speed.  The benchmark runs on a few vCPUs of a shared host.  Its
hypervisor steals 0-30% of a vCPU's time, and the same code's CPU time
swings by up to 1.5x as the host core is shared or not, both changing
from seconds to minutes apart.  Raw wall times of identical runs
therefore spread past any useful bound, so every time reported
(``setup_s`` and each batch) is a :class:`HostClock` span: wall time
without the steal, with its CPU part scaled to the reference CPU speed
measured by probes taken during the span, and its waiting (``fsync``)
kept as measured.  The raw wall, steal, CPU time and probe speed of
each span are reported beside it.

Workloads (all serial, ``jobs=1``, on an on-disk journaled store):

``fast-tier``
    every experiment at tier ``fast`` into a fresh store.
``campaign-fast``
    both built-in campaigns at tier ``fast`` into a fresh store.
``warm-rerun``
    set-up runs the experiments and both campaigns cold at tier
    ``smoke``; the timed phase is batches of :data:`WARM_CYCLES`
    cycles of (warm experiments, warm campaigns,
    experiments ``resume=True``).  Each batch is timed on its own: the
    cycles append fsynced journal lines, and a median over many short
    batches rides out the shared disk's latency bursts.

The output checks count one operation per shard run (a campaign
shard is one cell), one per record, one per golden comparison and
one per warm cycle; each failing check is one failed operation.

Seed ``s`` runs every spec at its own default seed plus ``s``; seed 0
is the default configuration, where fast-tier records must equal the
golden fixtures under ``tests/experiments/golden/``.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "experiments" / "golden"

WORKLOADS = ("fast-tier", "campaign-fast", "warm-rerun")
#: ``warm-rerun`` timed phase: cycles per batch, and batches per sample
#: without ``STOP_AT`` (the traced run) or at least with it.
WARM_CYCLES = 20
WARM_BATCHES = 15
MIN_WARM_BATCHES = 3
MODES = ("run", "trace", "setup")


#: Thread CPU seconds of one probe at the reference CPU speed (the
#: 2-vCPU Xeon VM's fast state, with the workloads running); every time
#: is reported at this speed.
REFERENCE_PROBE_S = 0.00017
#: Process CPU seconds between probes (under 1% of the CPU time), and
#: iterations of a probe's loop.
PROBE_INTERVAL_S = 0.05
PROBE_ITERATIONS = 250
#: Fewest probes a span's speed is taken from; a shorter span uses
#: every probe so far.  Probes are only taken by the timer: back-to-back
#: probes find their code and data in cache and read the CPU as faster
#: than it is while the workload runs.
MIN_PROBES = 5


def steal_seconds() -> float:
    """Hypervisor steal accrued so far on the CPUs this process may use.

    0.0 where ``/proc/stat`` has no per-CPU steal column.
    """
    cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)}
    ticks = 0
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] in cpus and len(fields) > 8:
                    ticks += int(fields[8])
    except (OSError, ValueError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def _probe_call(x: int) -> int:
    return {"a": x, "b": x + 1}["b"]


class HostClock:
    """Times spans of this process in reference-host seconds.

    While started, a ``SIGPROF`` timer probes the CPU after every
    :data:`PROBE_INTERVAL_S` of process CPU time, so the probes sample
    its speed wherever the span's CPU time is spent.  A probe times, in
    thread CPU time, a fixed loop of the interpreter's everyday work:
    calls, dict and list updates, ``str`` and ``sorted``.  (Of the loops
    tried, this one tracked both the interpreter-bound ``fast-tier`` and
    the numpy-heavy ``campaign-fast`` best; pure arithmetic and random
    reads from a large table each tracked only one.)  A probe's speed is
    :data:`REFERENCE_PROBE_S` over its time, and a span's speed ``k`` is
    the 10%-trimmed mean of its probes'.  A span of wall time ``raw``
    with ``steal`` stolen and ``cpu`` spent on the CPU (probes excluded)
    counts as ``(raw - steal - probe wall - cpu) + cpu * k``.
    """

    def __init__(self) -> None:
        self.speed: list[float] = []
        self.probe_cpu: list[float] = []
        self.probe_wall: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _probe(self, _signum: int = 0, _frame: object = None) -> None:
        # thread_time, not process_time: with a process CPU timer armed
        # the process clock only advances on scheduler ticks.
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        table: dict[int, int] = {}
        items: list[str] = []
        for i in range(PROBE_ITERATIONS):
            table[i & 63] = _probe_call(i)
            items.append(str(i))
            if i % 16 == 0:
                items = sorted(items[-8:], key=len)
        cpu = time.thread_time() - cpu0
        self.speed.append(REFERENCE_PROBE_S / cpu)
        self.probe_cpu.append(cpu)
        self.probe_wall.append(time.perf_counter() - wall0)

    def mark(self) -> tuple[float, float, float, int]:
        """Start of a span: wall clock, process CPU, steal, probes so far."""
        return (time.time(), time.process_time(), steal_seconds(),
                len(self.speed))

    def span(self, start: tuple[float, float, float, int]) -> dict[str, float]:
        """The span from ``start`` to now, raw and adjusted."""
        end = self.mark()
        wall, cpu, steal = (end[i] - start[i] for i in range(3))
        first = start[3]
        probe_wall = sum(self.probe_wall[first:])
        cpu -= sum(self.probe_cpu[first:])
        probes = self.speed[first:]
        if len(probes) < MIN_PROBES:
            probes = self.speed or [1.0]
        cut = len(probes) // 10
        speed = statistics.mean(sorted(probes)[cut:len(probes) - cut])
        return {
            "s": wall - steal - probe_wall - cpu + cpu * speed,
            "raw_s": wall,
            "steal_s": steal,
            "cpu_s": cpu,
            "speed": speed,
        }


class Outcome:
    """Attempted/failed operation tally with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)


def _specs(seed: int):
    from repro.campaigns.registry import CAMPAIGNS
    from repro.experiments.scenarios import all_scenarios

    experiments = [replace(s, seed=s.seed + seed) for s in all_scenarios().values()]
    campaigns = [replace(s, seed=s.seed + seed) for s in CAMPAIGNS.values()]
    return experiments, campaigns


def _slug(exp_id: str) -> str:
    return exp_id.lower().replace("/", "_").replace("-", "_")


def _check_runs(runs, out: Outcome, *, golden: bool) -> None:
    """No shard quarantined, no campaign cell failing, every record passed."""
    from repro.util.encoding import canonical_json

    for run in runs:
        exp_id = run.config.exp_id
        campaign = exp_id.startswith("CAMPAIGN/")
        for shard in run.shards:
            ok = not shard.quarantined and (
                not campaign or (shard.result or {}).get("ok") is True
            )
            out.check(ok, f"{exp_id} shard {shard.index} failed")
        out.check(run.record.passed, f"{exp_id} record not passed")
        if golden:
            expected = json.loads((GOLDEN / f"{_slug(exp_id)}.fast.json").read_text())
            out.check(
                canonical_json(run.record.to_json_dict()) == canonical_json(expected),
                f"{exp_id} record differs from its golden fixture",
            )


def _markdown(runs, tier: str) -> str:
    from repro.experiments.runner import to_markdown

    return to_markdown([(run.record, run.seconds) for run in runs], tier=tier)


def _check_warm(
    warm, reference: tuple[str, str], out: Outcome, first_cycle: int
) -> None:
    """One check per warm cycle: every shard served from the store, same markdown."""
    for cycle, (exp, camp, resumed) in enumerate(warm, start=first_cycle):
        problems = []
        for label, runs, md in (
            ("warm experiments", exp, reference[0]),
            ("warm campaigns", camp, reference[1]),
            ("resumed experiments", resumed, reference[0]),
        ):
            recomputed = [
                f"{run.config.exp_id}#{shard.index}"
                for run in runs
                for shard in run.shards
                if not shard.cached
            ]
            if recomputed:
                problems.append(f"{label} recomputed {recomputed[:5]}")
            if _markdown(runs, "smoke") != md:
                problems.append(f"{label} markdown differs from the cold run")
        out.check(not problems, f"cycle {cycle}: {'; '.join(problems)}")


def main(argv: list[str]) -> int:
    workload, seed, spawned_at, spawn_steal, workdir, mode = (
        argv[0], int(argv[1]), float(argv[2]), float(argv[3]), Path(argv[4]),
        argv[5],
    )
    stop_at = float(argv[6]) if len(argv) > 6 else None
    if workload not in WORKLOADS or mode not in MODES:
        raise SystemExit(
            f"usage: {WORKLOADS} SEED SPAWNED_AT SPAWN_STEAL WORKDIR {MODES} [STOP_AT]"
        )
    clock = HostClock()
    clock.start()
    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import repro.campaigns.driver  # noqa: F401  (campaign shards run in-process)
    import repro.experiments.runner  # noqa: F401  (what `python -m repro` loads)
    from repro.experiments.orchestrator import run_suite
    from repro.experiments.store import ResultStore

    import_s = time.perf_counter() - t_import

    experiments, campaigns = _specs(seed)
    store = ResultStore(workdir / "store")
    out = Outcome()
    if workload == "warm-rerun":
        cold_exp = run_suite(experiments, tier="smoke", store=store)
        cold_camp = run_suite(campaigns, tier="smoke", store=store)
        _check_runs(cold_exp + cold_camp, out, golden=False)
        reference = (_markdown(cold_exp, "smoke"), _markdown(cold_camp, "smoke"))

    tracer = None
    if mode == "trace":
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    # The process's CPU time and probes start at 0 with the spawn.
    setup = clock.span((spawned_at, 0.0, spawn_steal, 0))
    if mode == "setup":
        clock.stop()
        print(json.dumps({
            "setup": setup, "attempted": out.attempted, "failed": out.failed,
            "notes": out.notes,
        }))
        return 0

    cycles: list[float] = []
    batches: list[dict[str, float]] = []
    if workload == "warm-rerun":
        step_s = 0.0  # last batch and its check
        while (
            len(batches) < WARM_BATCHES
            if stop_at is None
            else len(batches) < MIN_WARM_BATCHES or time.time() + step_s <= stop_at
        ):
            step_start = time.time()
            warm = []
            batch_start = clock.mark()
            for _cycle in range(WARM_CYCLES):
                t0 = time.perf_counter()
                if tracer is not None:
                    tracer.run_id = f"cycle-{len(cycles)}"
                warm.append((
                    run_suite(experiments, tier="smoke", store=store),
                    run_suite(campaigns, tier="smoke", store=store),
                    run_suite(experiments, tier="smoke", store=store, resume=True),
                ))
                cycles.append(time.perf_counter() - t0)
            batches.append(clock.span(batch_start))
            # Checked between batches, untimed, so results are not kept.
            _check_warm(warm, reference, out, len(cycles) - len(warm))
            step_s = time.time() - step_start
    else:
        if tracer is not None:
            tracer.run_id = workload
        specs = experiments if workload == "fast-tier" else campaigns
        batch_start = clock.mark()
        started = time.perf_counter()
        runs = run_suite(specs, tier="fast", store=store)
        cycles.append(time.perf_counter() - started)
        batches.append(clock.span(batch_start))
        _check_runs(runs, out, golden=workload == "fast-tier" and seed == 0)

    clock.stop()
    result = {
        "wall_s": sum(b["s"] for b in batches),
        "batches": batches,
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": out.attempted,
        "failed": out.failed,
        "notes": out.notes,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        import layers

        result["layers"] = layers.layer_metrics(
            tracer, cycles=cycles, import_s=import_s
        )
        tracer.write_spans(workdir / "spans.jsonl")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
