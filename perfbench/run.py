"""Benchmark entry point: end-to-end samples, or one traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload fast-tier --seed 0 --seconds 40 --trace 0

Workloads are described in ``perfbench/workloads.py`` and
``BENCHMARK.json``.  Each sample is a fresh interpreter running
``perfbench/workloads.py``.

Every time reported is in reference-host seconds: hypervisor steal
taken out and CPU time scaled to the reference CPU speed (see
``HostClock`` in ``perfbench/workloads.py``).  The run and its samples
are pinned to one CPU, so that the steal read from ``/proc/stat`` and
the speed probes are the samples' own.

``--trace 0`` on a cold workload starts samples until the next one
would overrun ``--seconds`` (at least one), then spends what is left
on set-up-only samples; on ``warm-rerun`` it runs two samples that
each time warm batches until their half of ``--seconds`` ends.  It
reports medians: ``wall_s`` (one timed batch: the whole cold run, or
one batch of warm cycles), ``setup_s`` (spawn to timed phase, over
every sample),
``peak_rss_mb`` (``ru_maxrss``) and ``ok_frac`` (operations that
passed their output check, over those attempted, in the worst sample).

``--trace 1`` runs one untraced and one traced sample and reports the
per-layer metrics from the traced one, with
``trace.overhead_s`` = traced minus untraced timed-phase time.  The
exact counts of ``layers.EXACT_COUNTS`` are compared with the last
traced run of the same code, workload and seed recorded in
``.perfbench/history.jsonl``; a difference fails the run.

The last stdout line is the result object; the line before it holds
the run's environment metadata.  Every run appends both to
``.perfbench/history.jsonl``; the traced sample's spans are written to
``.perfbench/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
HISTORY = OUT / "history.jsonl"

sys.path.insert(0, str(HERE))
from layers import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS, steal_seconds  # noqa: E402

#: A run must end within this many seconds, whatever a sample does.
RUN_LIMIT_S = 170.0
#: ``warm-rerun`` samples per untraced run.
WARM_SAMPLES = 2


def code_fingerprint() -> str:
    """SHA-256 over the program and benchmark sources (works without git)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD's commit read from ``.git`` when present (no git process)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def sample(
    workload: str,
    seed: int,
    mode: str,
    workdir: Path,
    deadline: float,
    stop_at: float | None = None,
) -> dict:
    """One fresh-interpreter sample; raises if it fails or overruns."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
            repr(time.time()), repr(steal_seconds()), str(workdir), mode]
    if stop_at is not None:
        argv.append(repr(stop_at))
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} sample exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_ticks() -> list[int] | None:
    """The aggregate ``cpu`` line of ``/proc/stat``, where there is one."""
    try:
        with open("/proc/stat") as fh:
            return [int(field) for field in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor took between two ``cpu_ticks``."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def previous_counts(workload: str, seed: int, code: str) -> dict | None:
    if not HISTORY.is_file():
        return None
    found = None
    for line in HISTORY.read_text().splitlines():
        entry = json.loads(line)
        meta = entry["meta"]
        if (meta["trace"], meta["workload"], meta["seed"], meta["code"]) == (
            1, workload, seed, code,
        ):
            found = entry["meta"]["exact_counts"]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"no repro sources under {ROOT / 'src'}; run from a full checkout")
    # One CPU for the run and (inherited) every sample: the workloads are
    # serial, and steal is then read for the CPU they run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    t_begin = time.monotonic()
    t_begin_epoch = time.time()
    deadline = t_begin + RUN_LIMIT_S
    # Bytecode up front, so a fresh checkout's first sample does not
    # charge compilation to setup_s (users pay it once, not per run).
    compileall.compile_dir(ROOT / "src", quiet=1)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    load_start = os.getloadavg()
    ticks_start = cpu_ticks()
    code = code_fingerprint()

    def fill(mode: str, guess: float) -> list[dict]:
        """``mode`` samples, started while the next one should end in time."""
        got: list[dict] = []
        durations: list[float] = []
        while time.monotonic() - t_begin + (
            median(durations) if durations else guess
        ) <= args.seconds:
            t0 = time.monotonic()
            workdir = scratch / f"{mode}-{len(got)}"
            got.append(sample(args.workload, args.seed, mode, workdir, deadline))
            durations.append(time.monotonic() - t0)
        return got

    setups: list[dict] = []
    try:
        if args.trace:
            samples = [
                sample(args.workload, args.seed, mode, scratch / mode, deadline)
                for mode in ("run", "trace")
            ]
            shutil.copyfile(scratch / "trace" / "spans.jsonl",
                            OUT / f"spans-{args.workload}.jsonl")
        elif args.workload == "warm-rerun":
            # Each sample repopulates a store cold (~5 s) before its timed
            # phase, so set-up-only samples would crowd out the warm
            # batches.  Instead each sample times batches until its share
            # of the window ends: the batches fill most of the window and
            # spread across it, and host-speed swings average out.
            samples = [
                sample(args.workload, args.seed, "run", scratch / f"run-{i}",
                       deadline,
                       stop_at=t_begin_epoch + (i + 1) * args.seconds / WARM_SAMPLES)
                for i in range(WARM_SAMPLES)
            ]
        else:
            # Full samples while they fit, then the rest of the budget on
            # set-up-only samples, so setup_s is a median over many.
            samples = fill("run", 0.0)
            if not samples:
                sys.exit(f"--seconds {args.seconds} leaves no time for a sample")
            setups = fill("setup", median(s["setup"]["raw_s"] for s in samples))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(s["attempted"] for s in samples + setups)
    failed = sum(s["failed"] for s in samples + setups)
    notes = [note for s in samples + setups for note in s["notes"]]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": len(samples),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        # Stolen time slows every timed phase without any code change.
        "steal_share": steal_share(ticks_start, cpu_ticks()),
        "python": platform.python_version(),
        "numpy": samples[0]["numpy"],
        "git_commit": git_commit(),
        "code": code,
        "cpu": sorted(os.sched_getaffinity(0)),
        # Each span: adjusted s, raw_s, steal_s, cpu_s and CPU speed.
        "sample_batches": [s["batches"] for s in samples],
        "sample_setups": [s["setup"] for s in samples + setups],
    }
    if args.trace:
        untraced, traced = samples
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        counts = {name: metrics[name] for name in EXACT_COUNTS}
        meta["exact_counts"] = counts
        before = previous_counts(args.workload, args.seed, code)
        attempted += 1
        if before is not None and before != counts:
            drift = {k: (before[k], counts[k]) for k in counts if before[k] != counts[k]}
            meta["count_drift"] = drift
            notes.append(f"exact counts changed on the same code and seed: {drift}")
            failed += 1
    else:
        # ok_frac is the worst sample's, so one failed operation in any
        # sample moves it by at least 1/attempted of that sample.
        metrics = {
            "wall_s": median(b["s"] for s in samples for b in s["batches"]),
            "setup_s": median(s["setup"]["s"] for s in samples + setups),
            "peak_rss_mb": median(s["peak_rss_mb"] for s in samples),
            "ok_frac": min(
                1 - s["failed"] / s["attempted"]
                for s in samples + setups
                if s["attempted"]
            ),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    meta["failed_frac"] = failed / attempted
    meta["failure_notes"] = notes[:10]
    for note in notes:
        print(f"FAILED: {note}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps({"meta": meta, "result": result}, sort_keys=True) + "\n")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
