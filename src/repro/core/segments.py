"""Segment-compiled UniversalRV: closed-form positions, windowed meeting.

Algorithm UniversalRV (:mod:`repro.core.universal`) is a concatenation
of fixed-length *segments*.  Phase ``P`` decodes ``(n, d, delta') =
g^-1(P)`` and, when ``d < n``, runs an AsymmRV segment with budget
``B = P(n) + delta'``, then, when ``delta' >= d``, a SymmRV segment
with budget ``T(n, d, delta')``.  Each segment is ``run_segment``: run
for ``B`` rounds, replay the recorded moves backwards, wait until
``2 B``.  Segment lengths depend only on the profile, and every
segment starts and ends at the agent's home node, so an agent's
position at any clock is a function of its home and one segment.
This module evaluates those positions in bulk instead of interpreting
the agent generators one action at a time:

* **AsymmRV segments are closed form** (oracle view mode only).  After
  the ``2 view_budget``-round label wait, slot ``j`` (``s`` rounds) is
  the out-and-back UXS walk when bit ``j`` of the schedule word is
  set, else a wait at home.  Every active slot retraces the same walk
  ``slot_pos`` (``slot_pos[0] == slot_pos[s] == home``), so the
  position after the ``i``-th move of the segment is
  ``slot_pos[i mod s]`` and the backtrack is closed form as well.
  The walk and the word are computed once per ``(home, n)``.
* **SymmRV segments** are compiled once per ``(n, d, delta')`` by
  :class:`~repro.exec.trace.TraceCompiler` on
  ``run_segment(symm_rv(...), T)``, and extended geometrically only
  as far as the windows reach (``T`` can exceed ``10^9`` rounds).

:func:`compiled_rendezvous` compares the two ``delta``-shifted
position arrays in windows of rounds, jumps over stretches in which
neither agent moves, and returns the
:class:`~repro.sim.scheduler.RendezvousResult` the scalar scheduler
returns for the same STIC, crossings included.  Every memo lives in
one call.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.asymm_rv import AsymmParams, finalize_label
from repro.core.combinators import run_segment
from repro.core.pairing import untriple
from repro.core.profile import Profile
from repro.core.schedules import schedule_word
from repro.core.symm_rv import symm_rv
from repro.core.uxs import apply_uxs
from repro.exec.trace import PortTrace, TraceCompiler
from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.actions import Perception
from repro.sim.agent import AgentScript
from repro.sim.scheduler import RendezvousResult

if TYPE_CHECKING:  # circular at runtime: universal imports segments
    from repro.core.universal import UniversalOracle

__all__ = [
    "Segment",
    "phase_segments",
    "compiled_rendezvous",
    "universal_positions",
]

#: Meeting-solve window: the first window is short (most feasible STICs
#: meet within a few hundred rounds), later ones double up to the cap.
_FIRST_WINDOW = 512
_MAX_WINDOW = 1 << 16
#: Smallest horizon a SymmRV segment trace is compiled to.
_FIRST_HORIZON = 1024


class Segment(NamedTuple):
    """One ``run_segment`` call of UniversalRV: AsymmRV(``n``) with
    assumed delay ``delta`` or, when ``symmetric``, SymmRV(``n``,
    ``d``, ``delta``); it lasts exactly ``2 * budget`` rounds."""

    n: int
    d: int
    delta: int
    budget: int
    symmetric: bool


def phase_segments(profile: Profile, phase: int) -> tuple[Segment, ...]:
    """The segments phase ``phase`` runs, in order (none when ``d >= n``)."""
    # g is a bijection on positive integers; delays are non-negative,
    # so the third component encodes delta + 1.
    n, d, delta_code = untriple(phase)
    delta = delta_code - 1
    if d >= n:
        return ()
    asymm = Segment(n, d, delta, profile.asymm_bound(n) + delta, False)
    if delta < d:
        return (asymm,)
    return (asymm, Segment(n, d, delta, profile.symm_bound(n, d, delta), True))


class _AsymmRun:
    """AsymmRV from one home under one assumed size, in closed form."""

    __slots__ = ("home", "wait", "slot", "slot_pos", "word", "ones")

    def __init__(
        self,
        graph: PortLabeledGraph,
        home: int,
        params: AsymmParams,
        raw_label: Sequence[int],
    ) -> None:
        walk = apply_uxs(graph, home, params.uxs)
        self.home = home
        self.wait = 2 * params.view_budget
        self.slot = 2 * (len(walk) - 1)
        self.slot_pos = np.array(walk + walk[-2::-1], dtype=np.int64)
        word = schedule_word(finalize_label(raw_label, params))
        self.word = np.array(word, dtype=bool)
        self.ones = np.concatenate(([0], np.cumsum(word, dtype=np.int64)))

    def moves(self, budget: int) -> int:
        """Moves in the first ``budget`` rounds (the backtrack length)."""
        full, part = divmod(max(budget - self.wait, 0), self.slot)
        period, rest = divmod(full, len(self.word))
        active = period * int(self.ones[-1]) + int(self.ones[rest])
        return active * self.slot + (part if self.word[rest] else 0)

    def fill(self, lo: int, hi: int, budget: int) -> np.ndarray:
        """Positions at segment offsets ``lo .. hi - 1``."""
        out = np.full(hi - lo, self.home, dtype=np.int64)
        moves = self.moves(budget)
        # Forward run: after ``r`` slot rounds the agent is ``q = r mod s``
        # rounds into slot ``r // s`` (home when that slot is passive).
        a, b = max(lo, self.wait + 1), min(hi, budget + 1)
        if a < b:
            slot, q = np.divmod(np.arange(a - self.wait, b - self.wait), self.slot)
            out[a - lo : b - lo] = np.where(
                self.word[slot % len(self.word)], self.slot_pos[q], self.home
            )
        # Backtrack: offset ``budget + j`` is the position after move
        # ``moves - j``.
        a, b = max(lo, budget + 1), min(hi, budget + moves + 1)
        if a < b:
            out[a - lo : b - lo] = self.slot_pos[
                (budget + moves - np.arange(a, b)) % self.slot
            ]
        return out

    def next_move(self, offset: int, budget: int) -> int | None:
        """A lower bound on the first move round ``>= offset`` (``None``
        when the segment makes no further move)."""
        moves = self.moves(budget)
        if moves == 0 or offset >= budget + moves:
            return None
        return max(offset, self.wait)


class _SymmRun:
    """One SymmRV segment, compiled per home as far as it is read."""

    def __init__(
        self, graph: PortLabeledGraph, segment: Segment, uxs: tuple[int, ...]
    ) -> None:
        n, d, delta, budget, _ = segment

        def script(percept: Perception) -> AgentScript:
            return run_segment(percept, symm_rv(percept, n, d, delta, uxs=uxs), budget)

        self._compiler = TraceCompiler(graph, script)
        self._traces: dict[int, PortTrace] = {}
        self.length = 2 * budget

    def _trace(self, home: int, clock: int) -> PortTrace:
        """The trace of ``home``, valid through ``clock`` (or the end)."""
        need = min(clock, self.length)
        trace = self._traces.get(home)
        if trace is None or (not trace.complete and trace.valid_through < need):
            known = 0 if trace is None else trace.valid_through
            horizon = min(max(need, 2 * known, _FIRST_HORIZON), self.length)
            trace = self._traces[home] = self._compiler.trace(home, horizon)
        if trace.error is not None:
            raise trace.error
        return trace

    def fill(self, home: int, lo: int, hi: int) -> np.ndarray:
        trace = self._trace(home, hi - 1)
        index = np.searchsorted(trace.times, np.arange(lo, hi), side="right") - 1
        return np.asarray(trace.nodes[index], dtype=np.int64)

    def next_move(self, home: int, offset: int) -> int | None:
        trace = self._trace(home, offset + 1)
        index = int(np.searchsorted(trace.times, offset, side="right"))
        if index < len(trace.times):
            return int(trace.times[index]) - 1
        if trace.complete or trace.valid_through >= self.length:
            return None
        return trace.valid_through


class _Plan:
    """The segment timeline of one call, shared by both agents:
    ``segments[i]`` starts at clock ``starts[i]``, and ``starts[-1]``
    is the end of the last segment built so far."""

    def __init__(self, graph: PortLabeledGraph, profile: Profile) -> None:
        if profile.view_mode != "oracle":
            raise ValueError(
                f"profile {profile.name!r}: segment compilation needs oracle "
                "view mode"
            )
        self.graph = graph
        self.profile = profile
        self.starts = [0]
        self.segments: list[Segment] = []
        self._phase = 1
        self._symm: dict[Segment, _SymmRun] = {}

    def symm(self, segment: Segment) -> _SymmRun:
        if segment not in self._symm:
            self._symm[segment] = _SymmRun(
                self.graph, segment, self.profile.uxs(segment.n)
            )
        return self._symm[segment]

    def index(self, clock: int) -> int:
        """Index of the segment containing local ``clock``."""
        while self.starts[-1] <= clock:
            for segment in phase_segments(self.profile, self._phase):
                self.segments.append(segment)
                self.starts.append(self.starts[-1] + 2 * segment.budget)
            self._phase += 1
        return bisect_right(self.starts, clock) - 1


class _AgentPath:
    """One agent's UniversalRV positions by local clock."""

    def __init__(self, plan: _Plan, home: int, oracle: UniversalOracle) -> None:
        self._plan = plan
        self._home = home
        self._oracle = oracle
        self._asymm: dict[int, _AsymmRun] = {}

    def _asymm_run(self, n: int) -> _AsymmRun:
        if n not in self._asymm:
            self._asymm[n] = _AsymmRun(
                self._plan.graph,
                self._home,
                self._plan.profile.asymm_params(n),
                self._oracle.raw_label(n),
            )
        return self._asymm[n]

    def positions(self, lo: int, hi: int) -> np.ndarray:
        """Positions at local clocks ``lo .. hi`` inclusive."""
        plan = self._plan
        out = np.empty(hi - lo + 1, dtype=np.int64)
        clock = lo
        while clock <= hi:
            i = plan.index(clock)
            start = plan.starts[i]
            stop = min(plan.starts[i + 1], hi + 1)
            segment = plan.segments[i]
            if segment.symmetric:
                part = plan.symm(segment).fill(self._home, clock - start, stop - start)
            else:
                part = self._asymm_run(segment.n).fill(
                    clock - start, stop - start, segment.budget
                )
            out[clock - lo : stop - lo] = part
            clock = stop
        return out

    def next_move(self, clock: int) -> int:
        """A lower bound on the first round ``>= clock`` with a move."""
        plan = self._plan
        while True:
            i = plan.index(clock)
            start = plan.starts[i]
            segment = plan.segments[i]
            if segment.symmetric:
                offset = plan.symm(segment).next_move(self._home, clock - start)
            else:
                offset = self._asymm_run(segment.n).next_move(
                    clock - start, segment.budget
                )
            if offset is not None:
                return start + offset
            clock = plan.starts[i + 1]


def universal_positions(
    graph: PortLabeledGraph,
    home: int,
    profile: Profile,
    oracle: UniversalOracle,
    horizon: int,
) -> np.ndarray:
    """Positions of one UniversalRV agent from ``home`` at local clocks
    ``0 .. horizon`` (the ``positions`` list of
    :func:`repro.sim.scheduler.run_single_agent`)."""
    return _AgentPath(_Plan(graph, profile), home, oracle).positions(0, horizon)


def compiled_rendezvous(
    graph: PortLabeledGraph,
    u: int,
    v: int,
    delta: int,
    profile: Profile,
    *,
    max_rounds: int,
    oracles: tuple[UniversalOracle, UniversalOracle],
) -> RendezvousResult:
    """UniversalRV on STIC ``[(u, v), delta]``, equal to the scalar
    :func:`~repro.sim.scheduler.run_rendezvous` result without traces.

    A meeting is the first global round ``t`` in ``[delta, max_rounds]``
    with ``a(t) == b(t - delta)``; a crossing is a round ``t`` in
    ``[delta, min(meeting, max_rounds))`` in which the agents swap the
    endpoints of an edge.
    """
    if delta < 0:
        raise ValueError(f"delay must be non-negative, got {delta}")
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    plan = _Plan(graph, profile)
    first = _AgentPath(plan, u, oracles[0])
    second = _AgentPath(plan, v, oracles[1])
    crossings: list[int] = []

    def result(met: bool, time: int, node: int | None = None) -> RendezvousResult:
        return RendezvousResult(
            met=met,
            meeting_node=node,
            meeting_time=time if met else None,
            time_from_later=time - delta if met else None,
            rounds_executed=time,
            crossings=tuple(crossings),
            traces=None,
        )

    t, width = delta, _FIRST_WINDOW
    while t <= max_rounds:
        end = min(t + width, max_rounds)
        a = first.positions(t, end)
        b = second.positions(t - delta, end - delta)
        same = a == b
        meet = int(same.argmax()) if same.any() else -1
        rounds = meet if meet >= 0 else end - t
        # Before the meeting the positions differ, so a swap is exactly
        # a(t+1) == b(t) and b(t+1) == a(t).
        swaps = (a[1 : rounds + 1] == b[:rounds]) & (b[1 : rounds + 1] == a[:rounds])
        crossings.extend((t + np.flatnonzero(swaps)).tolist())
        if meet >= 0:
            return result(True, t + meet, int(a[meet]))
        if end == max_rounds:
            break
        # Positions at ``end`` differ; they stay put until either agent
        # moves again, so no meeting or crossing happens before then.
        t = min(
            first.next_move(end), second.next_move(end - delta) + delta, max_rounds
        )
        width = min(2 * width, _MAX_WINDOW)
    return result(False, max_rounds)
