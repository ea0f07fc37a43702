"""Discrete-event simulation engine.

The whole memory system is simulated on a single logical clock measured in
CPU cycles.  Components schedule callbacks on the :class:`Simulator`; the
engine fires events in timestamp order (FIFO among equal timestamps) and
invokes them.  This is deliberately minimal — deterministic, allocation
light, and easy to reason about in tests.

Calendar queue
--------------

The scheduler is a *calendar queue* sized to the simulator's bounded
latency horizon rather than a binary heap: a ring of ``day_length``
per-cycle slots plus a small heap-backed *far list* for the rare
event scheduled a full rotation or more ahead (watchdog timers, BPQ
overflow timeouts, OS costs such as fork/page-fault latencies).

* ``schedule(delay < day_length)`` is an O(1) list append into
  ``ring[when & mask]``.  Because the drain pointer empties each slot
  before advancing, and every near event lands strictly ahead of it
  within one rotation, a slot only ever holds events for a single
  future cycle — no per-event timestamp checks are needed on the ring.
  Slot lists are emptied with ``clear()`` and reused, so the steady
  state allocates nothing but the events themselves.
* A ``bytearray`` *occupancy map* beside the ring holds one byte per
  slot: the append sets it, draining the slot clears it.  Finding the
  next busy cycle is one ``find(1, i)`` (a C ``memchr``) plus one
  wrap-around retry, not a Python-level walk over empty slots — a
  latency-bound run (a pointer chase firing ~0.03 events per cycle)
  skips dozens of idle cycles per event.  Every loop (``run``'s fast
  and observed loops, ``step()``) uses it, capped at the far head or
  the ``until`` horizon.
* ``schedule(delay >= day_length)`` pushes ``(when, key, event)`` onto
  the far heap (the PR 3 tuple layout, compared entirely in C).  When
  the drain reaches ``far[0]``'s cycle the events are *promoted* into
  that cycle's slot and the slot re-sorted by sequence number, so far
  events interleave with near events in exact FIFO order.
* ``day_length`` defaults to the smallest power of two covering twice
  the worst common component round trip from the latency table
  (:mod:`repro.common.params`): DRAM row conflict + two controller
  traversals + two interconnect hops + a CTT broadcast + a burst train.
  Every latency the components schedule per-access falls inside it;
  only OS-scale costs overflow to the far list.

Batched same-cycle dispatch
---------------------------

``run()`` jumps from busy cycle to busy cycle and drains each slot as one
tight cursor loop over the plain list — one Python-level iteration per
event, no heap sift, no key tuple.  Same-cycle *phases* order dispatch
within the slot: phase 0 for ordinary component events (completions,
deliveries, timers), phase 1 for *component arbiters* that must observe
every same-cycle phase-0 state change before deciding (the core's
issue pump, store-order retry polls), phase 2 for *shared rendezvous*
that must observe every same-cycle request including those issued by
phase-1 arbiters (the interconnect's grant arbitration).  Ordinary sim
code never passes ``phase``.  The slot is stable-sorted by phase once
at the start of the cycle (appends within a phase are already in
sequence order, so the stable sort *is* the full dispatch order); a
one-element slot skips the sort entirely.

A *tie-break hook* — installed per instance or as the process default
via :func:`set_default_tie_break` — permutes the dispatch order of
equal-(cycle, phase) events: the slot is sorted by
``(phase, tie(seq), seq)`` before dispatch, a cheaper and more direct
implementation of the PR 7 contract than re-keying a heap.  ``None``
(the default) keeps native FIFO order.  No simulation result may
depend on tie order; the hook exists so the tie-order sanitizer
(:mod:`repro.analysis.simsan`, ``REPRO_TIE_ORDER``) can *prove* it by
running the same config under several permutations.  Far-list keys
still fold the phase in as ``phase * 2**40 + tie(seq)``, so a hook
must return values of magnitude below 2**40.

A callback scheduling a *same-cycle* event appends it to the very list
being drained, and the cursor picks it up in place — the common case
(an arbiter scheduled at a phase no lower than anything still pending)
costs nothing.  Only when the new event must fire *before* something
already pending — a phase below ``_drain_maxp``, or any same-cycle
schedule under a tie-break hook that may sort it earlier — does
``schedule()`` raise a preempt flag, and the drain re-sorts its
unconsumed tail in place, reproducing the old heap's global-min
semantics exactly.

``run()`` dispatches to one of two loops.  The fast loop assumes no
watchdog, no profiler, and no tracer, and keeps everything it touches
in locals; the observed loop pays for
:meth:`~repro.faults.watchdog.Watchdog.observe`, per-label cost
accounting, and/or the per-event trace hook.  The split means a
watchdog attached *while* ``run()`` is executing (from inside a
callback) takes effect on the next ``run()``/``step()`` call, not
mid-drain; every existing caller attaches before running.  ``run()``
is not re-entrant — no callback calls ``sim.run()`` (the system layer
owns the loop).

Cancellation marks the event dead in place.  Ring tombstones are
skipped (and reclaimed) by the drain within one rotation, so the ring
never needs compacting; only the far list — where a tombstone could
otherwise sit for millions of cycles — is compacted once more than
half of it is dead.  ``pending`` stays O(1) via live counters, exact
even mid-callback.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from sys import intern as _intern_str
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.common import params
from repro.common.errors import LivelockError, SimulationError
from repro.sim.shard import shared

Callback = Callable[[], None]

#: Maps an event's insertion sequence number to its tie-break key.
TieBreak = Callable[[int], int]

#: Far lists below this size are never compacted: a handful of dead
#: events is cheaper to pop through than to rebuild around.
_COMPACT_MIN_QUEUE = 64

#: Far-heap key offset per same-cycle phase.  Tie-break hooks must
#: return keys with magnitude below this so phases stay totally ordered.
_PHASE_STRIDE = 1 << 40

#: Dispatch-order sort keys.  Slot appends within a phase are already
#: in sequence order, so a *stable* phase sort yields the full FIFO
#: dispatch order; promotion restores the per-phase invariant with a
#: plain sequence sort.
_SEQ_KEY = attrgetter("seq")
_PHASE_KEY = attrgetter("phase")


def _tie_key(tie: TieBreak) -> Callable[["Event"], Tuple[int, int, int]]:
    """Full dispatch-order sort key under a tie-break hook."""
    return lambda e: (e.phase, tie(e.seq), e.seq)


def _next_pow2(n: int) -> int:
    """Smallest power of two >= ``n`` (n >= 1)."""
    return 1 << (n - 1).bit_length()


def _default_day_length() -> int:
    """Calendar day sized from the component latency table.

    Covers twice the worst common round trip — DRAM row conflict, two
    controller static traversals, two interconnect hops, one CTT
    broadcast, and an eight-burst train — rounded up to a power of two
    so the slot index is a mask.  Delays at or past this go to the
    heap-backed far list (OS costs, watchdog timers, BPQ overflow).
    """
    horizon = (params.DRAM_ROW_CONFLICT_CYCLES
               + 2 * params.MC_STATIC_LATENCY_CYCLES
               + 2 * params.INTERCONNECT_HOP_CYCLES
               + params.BROADCAST_CYCLES
               + 8 * params.DRAM_BURST_CYCLES)
    return _next_pow2(2 * horizon)


_DEFAULT_DAY_LENGTH = _default_day_length()

#: Process-default tie-break adopted by every Simulator constructed
#: afterwards.  None means native FIFO (slot append order).  Only
#: entry-point infrastructure (the perf runner, simsan, tests) installs
#: this — ambient sim code must never depend on, or even look at, tie
#: order.
_DEFAULT_TIE_BREAK: Optional[TieBreak] = None


def set_default_tie_break(key: Optional[TieBreak]) -> None:
    """Install ``key`` as the tie-break for new :class:`Simulator`\\ s.

    ``None`` restores the native FIFO order.  Existing simulators are
    unaffected — use :meth:`Simulator.set_tie_break` to re-key one.
    """
    global _DEFAULT_TIE_BREAK
    _DEFAULT_TIE_BREAK = key


def default_tie_break() -> Optional[TieBreak]:
    """The currently installed process-default tie-break (or None)."""
    return _DEFAULT_TIE_BREAK


#: Process-default event trace hook adopted by every Simulator
#: constructed afterwards (see :meth:`Simulator.enable_tracing`).  The
#: tie-order sanitizer installs this to capture the (cycle, label)
#: event stream of simulators built *inside* a sweep point, where it
#: has no handle on the instance.  None keeps the fast run() loop.
_DEFAULT_TRACE_HOOK: Optional[Callable[[str, int], None]] = None


def set_default_trace_hook(
        hook: Optional[Callable[[str, int], None]]) -> None:
    """Install ``hook`` as the trace hook for new :class:`Simulator`\\ s.

    ``None`` restores untraced construction.  Existing simulators are
    unaffected — use :meth:`Simulator.enable_tracing` on an instance.
    """
    global _DEFAULT_TRACE_HOOK
    _DEFAULT_TRACE_HOOK = hook


def default_trace_hook() -> Optional[Callable[[str, int], None]]:
    """The currently installed process-default trace hook (or None)."""
    return _DEFAULT_TRACE_HOOK


@shared
class Event:
    """A scheduled callback.  Cancellable; compare by (when, phase, seq)."""

    # ``cancelled`` and ``_in_far`` are class-level defaults rather
    # than per-instance stores: the schedule hot path never writes
    # them, and the rare paths that flip them (cancel, a far-list
    # schedule) shadow the default through the lazy ``__dict__`` slot.
    __slots__ = ("when", "seq", "callback", "label", "phase", "_sim",
                 "__dict__")

    #: True once cancel() ran; flipping it is the cancellation itself.
    cancelled = False
    #: True while the event sits in the far heap (vs a ring slot):
    #: only far tombstones are worth compacting.
    _in_far = False

    def __init__(self, when: int, seq: int, callback: Callback, label: str = "",
                 phase: int = 0):
        self.when = when
        self.seq = seq
        self.callback = callback
        self.label = label
        self.phase = phase
        # Owning simulator while the event sits in its queue (cleared on
        # dispatch) so cancel() can keep the live/cancelled counters
        # exact even when called after the event already fired.
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Safe to call repeatedly."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancel(self)

    def __lt__(self, other: "Event") -> bool:
        return ((self.when, self.phase, self.seq)
                < (other.when, other.phase, other.seq))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(when={self.when}, label={self.label!r}, {state})"


@shared
class Simulator:
    """Calendar-queue event loop with a cycle-granularity clock."""

    def __init__(self, tie_break: Optional[TieBreak] = None,
                 day_length: Optional[int] = None) -> None:
        day = day_length if day_length is not None else _DEFAULT_DAY_LENGTH
        if day < 1:
            raise SimulationError(f"day_length must be >= 1, got {day}")
        day = _next_pow2(day)
        self._day = day
        self._mask = day - 1
        # One slot per cycle modulo day: a plain event list in append
        # order.  A slot only ever holds a single future cycle's events
        # (see the module docstring), so no (when, ...) keys are stored;
        # within each phase the append order is the sequence order.
        self._ring: List[List[Event]] = [[] for _ in range(day)]
        # Occupancy map beside the ring: byte s is 1 exactly while
        # ring[s] is non-empty (set on every append, cleared when the
        # slot drains), so the drain finds the next busy cycle with one
        # bytearray.find (memchr) instead of walking empty slots.
        self._occ = bytearray(day)
        # Events >= one rotation out: (when, key, event) min-heap.
        self._far: List[Tuple[int, int, Event]] = []
        self._seq = 0
        # Equal-timestamp dispatch order: None keeps FIFO (a stable
        # phase sort of the slot); a hook sorts each slot by
        # (phase, hook(seq), seq) before dispatch (see
        # set_default_tie_break).
        self._tie_break: Optional[TieBreak] = (
            tie_break if tie_break is not None else _DEFAULT_TIE_BREAK)
        self.now: int = 0
        self._events_fired = 0
        # Live counters.  _seq already counts every event ever stored,
        # so the schedule hot path keeps no second counter; _consumed
        # counts events removed from the structures (fired, tombstones
        # reclaimed, compacted away) and _cancelled the
        # stored-but-cancelled subset.  Stored (ring + far, tombstones
        # included) = _seq - _consumed; pending = stored - _cancelled;
        # the ring's share is stored - len(_far).
        self._consumed = 0
        self._cancelled = 0
        # Cancelled events still sitting in the far heap (compaction
        # trigger; ring tombstones self-clean within one rotation).
        self._far_cancelled = 0
        # Drain state for same-cycle preemption: the highest phase
        # present in the slot being dispatched, and the flag schedule()
        # raises when a new same-cycle event must fire before the
        # unconsumed tail of that slot.  Both may be stale outside a
        # drain; a stale preempt only costs one redundant (stable,
        # order-preserving) tail re-sort at the next drain.
        self._drain_maxp = 0
        self._preempt = False
        # Optional progress monitor (see repro.faults.watchdog.Watchdog):
        # observes every fired event and raises LivelockError with a
        # post-mortem when simulated time stops advancing.
        self.watchdog = None
        # Optional host-side cost profiler (see repro.perf.profile):
        # ``_profile_clock`` returns float seconds, ``_label_costs`` maps
        # label -> [count, total_s, min_s, max_s].  ``_interned`` dedups
        # label strings at the schedule site while profiling, so the
        # per-event cost-bucket lookup hits the interned-string fast
        # path.  Never enabled by the engine itself, so default
        # behaviour stays wall-clock free.
        self._profile_clock: Optional[Callable[[], float]] = None
        self._label_costs: Optional[Dict[str, List[float]]] = None
        self._interned: Optional[Dict[str, str]] = None
        # Optional event tracer (see repro.obs.tracer.Tracer): called as
        # hook(label, now) after every fired event.  When None, run()
        # takes the fast loop and the hot path pays nothing.
        self._trace_hook: Optional[Callable[[str, int], None]] = \
            _DEFAULT_TRACE_HOOK

    # ------------------------------------------------------------ schedule
    def schedule(self, delay: int, callback: Callback, label: str = "",
                 phase: int = 0) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        ``phase`` orders same-cycle dispatch across tie-breaks: a
        ``phase=1`` event fires after every same-cycle ``phase=0``
        event no matter which tie-break is installed.  Ordinary sim
        code never passes it (see the module docstring).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        when = self.now + delay
        if label and self._interned is not None:
            label = self._intern_label(label)
        # Hottest allocation site in the simulator: build the Event with
        # plain slot stores instead of an __init__ frame.
        event = Event.__new__(Event)
        event.when = when
        event.seq = seq
        event.callback = callback
        event.label = label
        event.phase = phase
        event._sim = self
        if delay < self._day:
            slot = when & self._mask
            self._ring[slot].append(event)
            self._occ[slot] = 1
            if not delay:
                # Same-cycle: fires before the current drain finishes
                # its slot unless its phase lets it ride the tail.
                maxp = self._drain_maxp
                if phase < maxp or (phase == maxp
                                    and self._tie_break is not None):
                    self._preempt = True
                elif phase > maxp:
                    self._drain_maxp = phase
        else:
            tie = self._tie_break
            key = seq if tie is None else tie(seq)
            if phase:
                key += phase * _PHASE_STRIDE
            event._in_far = True
            heapq.heappush(self._far, (when, key, event))
        return event

    def schedule_at(self, when: int, callback: Callback, label: str = "",
                    phase: int = 0) -> Event:
        """Schedule ``callback`` at absolute cycle ``when`` (>= now)."""
        now = self.now
        if when < now:
            raise SimulationError(f"cannot schedule at {when}, now is {now}")
        seq = self._seq
        self._seq = seq + 1
        if label and self._interned is not None:
            label = self._intern_label(label)
        event = Event.__new__(Event)
        event.when = when
        event.seq = seq
        event.callback = callback
        event.label = label
        event.phase = phase
        event._sim = self
        if when - now < self._day:
            slot = when & self._mask
            self._ring[slot].append(event)
            self._occ[slot] = 1
            if when == now:
                maxp = self._drain_maxp
                if phase < maxp or (phase == maxp
                                    and self._tie_break is not None):
                    self._preempt = True
                elif phase > maxp:
                    self._drain_maxp = phase
        else:
            tie = self._tie_break
            key = seq if tie is None else tie(seq)
            if phase:
                key += phase * _PHASE_STRIDE
            event._in_far = True
            heapq.heappush(self._far, (when, key, event))
        return event

    def _intern_label(self, label: str) -> str:
        """Dedup ``label`` through the profiling intern table."""
        interned = self._interned
        cached = interned.get(label)  # type: ignore[union-attr]
        if cached is None:
            cached = _intern_str(label)
            interned[cached] = cached  # type: ignore[index]
        return cached

    def set_tie_break(self, key: Optional[TieBreak]) -> None:
        """Re-key equal-timestamp ordering for this simulator.

        Applies to queued events too: ring slots are sorted with the
        active tie-break at dispatch time (and normalized back to
        sequence order here when ``key`` is None), and the far heap is
        rebuilt, so a mid-run switch reorders any not-yet-fired ties as
        well.  ``None`` restores FIFO (sequence order).
        """
        self._tie_break = key
        far = self._far
        if far:
            far[:] = [
                (when,
                 (event.seq if key is None else key(event.seq))
                 + event.phase * _PHASE_STRIDE,
                 event)
                for when, _key, event in far]
            heapq.heapify(far)
        if key is None:
            # Hook order lives only in the dispatch-time sort; restore
            # the FIFO invariant that slot lists are seq-ordered within
            # each phase (a plain seq sort is stronger, and fine: the
            # drain re-sorts by phase anyway).
            for lst in self._ring:
                if len(lst) > 1:
                    lst.sort(key=_SEQ_KEY)
        # When called from inside a callback this makes the drain
        # re-sort the unconsumed tail of its slot under the new order,
        # like the old heap re-keying did; outside a drain the stale
        # flag only costs one redundant order-preserving re-sort.
        self._preempt = True

    # ----------------------------------------------------------- cancelled
    def _note_cancel(self, event: Event) -> None:
        """Account one freshly-cancelled queued event; maybe compact."""
        self._cancelled += 1
        if event._in_far:
            self._far_cancelled += 1
            far = self._far
            if (len(far) >= _COMPACT_MIN_QUEUE
                    and self._far_cancelled * 2 > len(far)):
                self._compact()

    def _compact(self) -> None:
        """Drop every cancelled event from the far heap, in place.

        In place (slice assignment, not rebinding) so any frame holding
        a local reference keeps seeing the live list.  Ring tombstones
        are not compacted: the drain reclaims them within one rotation.
        """
        far = self._far
        before = len(far)
        far[:] = [entry for entry in far if not entry[2].cancelled]
        heapq.heapify(far)
        removed = before - len(far)
        self._consumed += removed
        self._cancelled -= removed
        self._far_cancelled = 0

    # ----------------------------------------------------------------- run
    def run(self, until: Optional[int] = None, max_events: int = 200_000_000) -> int:
        """Drain the event queue.

        Runs until the queue is empty, or the clock would pass ``until``
        (events at exactly ``until`` still fire).  Returns the final clock.
        """
        if (self.watchdog is not None or self._profile_clock is not None
                or self._trace_hook is not None):
            return self._run_observed(until, max_events)

        # Fast loop: hot names bound locally, no watchdog or profiler
        # branches, events_fired flushed once on the way out.
        ring = self._ring
        occ = self._occ
        mask = self._mask
        far = self._far
        fired = 0
        c = self.now
        try:
            while True:
                # ---- locate the next busy cycle c ----
                if not far:
                    # Common case: nothing beyond the horizon, so every
                    # queued event is in the ring.
                    if self._seq == self._consumed:
                        # Idle: the queue is fully drained.
                        if until is not None and until > self.now:
                            self.now = until
                        return self.now
                    lst = ring[c & mask]
                    if not lst:
                        # Jump to the next busy slot: one memchr over
                        # the occupancy map, wrapping once.  Some slot
                        # is busy because the ring holds every stored
                        # event.
                        i = c & mask
                        j = occ.find(1, i)
                        if j < 0:
                            j = occ.find(1, 0, i)
                        c += (j - i) & mask
                        lst = ring[j]
                    if until is not None and c > until:
                        self.now = until
                        return until
                else:
                    while True:
                        if self._seq - self._consumed > len(far):
                            lst = ring[c & mask]
                            if not lst:
                                # Jump to the next busy slot, capped at
                                # the far head / until horizon.
                                stop = far[0][0] if far else None
                                if until is not None and (stop is None
                                                          or until < stop):
                                    stop = until
                                i = c & mask
                                j = occ.find(1, i)
                                if j < 0:
                                    j = occ.find(1, 0, i)
                                nxt = c + ((j - i) & mask)
                                if stop is None or nxt <= stop:
                                    c = nxt
                                elif c < stop:
                                    c = stop
                                lst = ring[c & mask]
                        elif far:
                            c = far[0][0]
                            lst = ring[c & mask]
                        else:
                            if until is not None and until > self.now:
                                self.now = until
                            return self.now
                        if until is not None and c > until:
                            self.now = until
                            return until
                        if far and far[0][0] <= c:
                            # Far events due now: merge them into the
                            # slot (raises if a poisoned entry went
                            # backwards in time).
                            self._promote(far, c & mask)
                            if lst:
                                break
                            continue  # promoted only tombstones: rescan
                        if lst:
                            break
                        # Empty slot, nothing far due: the jump stopped
                        # at the `until` horizon with nothing before it.
                        self.now = until
                        return until
                # ---- drain cycle c's slot as one cursor pass ----
                n = len(lst)
                if n > 1:
                    tie = self._tie_break
                    if tie is not None:
                        lst.sort(key=_tie_key(tie))
                    elif n == 2:
                        a, b = lst
                        if a.phase > b.phase:
                            lst[0] = b
                            lst[1] = a
                    else:
                        lst.sort(key=_PHASE_KEY)
                    self._drain_maxp = lst[n - 1].phase
                # n == 1 leaves _drain_maxp stale: the tail starts
                # empty, so schedule()'s append rule re-establishes the
                # invariant on its own and a stale-high value at worst
                # raises a spurious preempt whose stable re-sort
                # preserves the order exactly.
                prev_now = self.now
                self.now = c
                cycle_fired = fired
                j = 0
                try:
                    # Same-cycle schedules append to `lst` and the
                    # iterator picks them up in place; the preempt
                    # re-sort below keeps the cursor position valid
                    # because the tail is replaced length-preserving.
                    for event in lst:
                        j += 1
                        self._consumed += 1
                        if event.cancelled:
                            self._cancelled -= 1
                            event._sim = None
                            continue
                        event._sim = None
                        event.callback()
                        fired += 1
                        if fired >= max_events and self._seq > self._consumed:
                            self._raise_livelock(max_events)
                        if self._preempt:
                            self._preempt = False
                            rest = lst[j:]
                            if rest:
                                tie = self._tie_break
                                rest.sort(key=_PHASE_KEY if tie is None
                                          else _tie_key(tie))
                                lst[j:] = rest
                                self._drain_maxp = rest[-1].phase
                except BaseException:
                    del lst[:j]
                    if not lst:
                        occ[c & mask] = 0
                    raise
                lst.clear()
                occ[c & mask] = 0
                if fired == cycle_fired:
                    # Every event this cycle was a tombstone: the clock
                    # never observably reached c.
                    self.now = prev_now
                c += 1
        finally:
            self._events_fired += fired
            self._preempt = False

    def _run_observed(self, until: Optional[int], max_events: int) -> int:
        """The watched/profiled/traced drain loop (see :meth:`run`).

        Structured identically to the fast loop, plus the per-event
        watchdog/profiler/tracer work.
        """
        ring = self._ring
        occ = self._occ
        mask = self._mask
        far = self._far
        clock = self._profile_clock
        costs = self._label_costs
        fired = 0
        c = self.now
        try:
            while True:
                # ---- locate the next busy cycle c (see run()) ----
                if not far:
                    if self._seq == self._consumed:
                        if until is not None and until > self.now:
                            self.now = until
                        return self.now
                    lst = ring[c & mask]
                    if not lst:
                        i = c & mask
                        j = occ.find(1, i)
                        if j < 0:
                            j = occ.find(1, 0, i)
                        c += (j - i) & mask
                        lst = ring[j]
                    if until is not None and c > until:
                        self.now = until
                        return until
                else:
                    while True:
                        if self._seq - self._consumed > len(far):
                            lst = ring[c & mask]
                            if not lst:
                                stop = far[0][0] if far else None
                                if until is not None and (stop is None
                                                          or until < stop):
                                    stop = until
                                i = c & mask
                                j = occ.find(1, i)
                                if j < 0:
                                    j = occ.find(1, 0, i)
                                nxt = c + ((j - i) & mask)
                                if stop is None or nxt <= stop:
                                    c = nxt
                                elif c < stop:
                                    c = stop
                                lst = ring[c & mask]
                        elif far:
                            c = far[0][0]
                            lst = ring[c & mask]
                        else:
                            if until is not None and until > self.now:
                                self.now = until
                            return self.now
                        if until is not None and c > until:
                            self.now = until
                            return until
                        if far and far[0][0] <= c:
                            self._promote(far, c & mask)
                            if lst:
                                break
                            continue
                        if lst:
                            break
                        self.now = until
                        return until
                n = len(lst)
                if n > 1:
                    tie = self._tie_break
                    if tie is not None:
                        lst.sort(key=_tie_key(tie))
                    elif n == 2:
                        a, b = lst
                        if a.phase > b.phase:
                            lst[0] = b
                            lst[1] = a
                    else:
                        lst.sort(key=_PHASE_KEY)
                    self._drain_maxp = lst[n - 1].phase
                # n == 1 leaves _drain_maxp stale: the tail starts
                # empty, so schedule()'s append rule re-establishes the
                # invariant on its own and a stale-high value at worst
                # raises a spurious preempt whose stable re-sort
                # preserves the order exactly.
                prev_now = self.now
                self.now = c
                cycle_fired = fired
                j = 0
                try:
                    for event in lst:
                        j += 1
                        self._consumed += 1
                        if event.cancelled:
                            self._cancelled -= 1
                            event._sim = None
                            continue
                        event._sim = None
                        if clock is not None:
                            start = clock()
                            event.callback()
                            elapsed = clock() - start
                            cost = costs.get(event.label)
                            if cost is None:
                                costs[event.label] = [1, elapsed, elapsed,
                                                      elapsed]
                            else:
                                cost[0] += 1
                                cost[1] += elapsed
                                if elapsed < cost[2]:
                                    cost[2] = elapsed
                                if elapsed > cost[3]:
                                    cost[3] = elapsed
                        else:
                            event.callback()
                        fired += 1
                        self._events_fired += 1
                        if self.watchdog is not None:
                            self.watchdog.observe(event.label, self.now)
                        if self._trace_hook is not None:
                            self._trace_hook(event.label, self.now)
                        if fired >= max_events and self._seq > self._consumed:
                            self._raise_livelock(max_events)
                        if self._preempt:
                            self._preempt = False
                            rest = lst[j:]
                            if rest:
                                tie = self._tie_break
                                rest.sort(key=_PHASE_KEY if tie is None
                                          else _tie_key(tie))
                                lst[j:] = rest
                                self._drain_maxp = rest[-1].phase
                except BaseException:
                    del lst[:j]
                    if not lst:
                        occ[c & mask] = 0
                    raise
                lst.clear()
                occ[c & mask] = 0
                if fired == cycle_fired:
                    self.now = prev_now
                c += 1
        finally:
            self._preempt = False

    def _promote(self, far: List[Tuple[int, int, Event]],
                 slot: int) -> None:
        """Move every far event due at the far head's cycle into ``slot``.

        Appends in place (the slot list is never rebound) and re-sorts
        the slot by sequence number so promoted events (older seqs)
        interleave with ring events in FIFO order; a tie-break hook
        re-sorts at dispatch anyway.
        """
        lst = self._ring[slot]
        heappop = heapq.heappop
        due = far[0][0]
        if due < self.now:
            raise SimulationError("event queue went backwards in time")
        while far and far[0][0] == due:
            _when, _key, event = heappop(far)
            if event.cancelled:
                self._consumed += 1
                self._cancelled -= 1
                self._far_cancelled -= 1
                event._sim = None
                continue
            event._in_far = False
            lst.append(event)
            self._occ[slot] = 1
        if len(lst) > 1:
            lst.sort(key=_SEQ_KEY)

    def _raise_livelock(self, max_events: int) -> None:
        message = f"exceeded {max_events} events; likely a livelock"
        post_mortem = ""
        if self.watchdog is not None:
            post_mortem = self.watchdog.post_mortem(
                f"event budget of {max_events} exhausted")
        raise LivelockError(message, post_mortem=post_mortem)

    def step(self) -> bool:
        """Fire the single next pending event.  Returns False when idle."""
        ring = self._ring
        occ = self._occ
        mask = self._mask
        far = self._far
        c = self.now
        while True:
            if self._seq - self._consumed > len(far):
                lst = ring[c & mask]
                if not lst:
                    # Jump to the next busy slot, capped at the far head.
                    stop = far[0][0] if far else None
                    i = c & mask
                    j = occ.find(1, i)
                    if j < 0:
                        j = occ.find(1, 0, i)
                    nxt = c + ((j - i) & mask)
                    if stop is None or nxt <= stop:
                        c = nxt
                    elif c < stop:
                        c = stop
                    lst = ring[c & mask]
            elif far:
                c = far[0][0]
                lst = ring[c & mask]
            else:
                return False
            if far and far[0][0] <= c:
                self._promote(far, c & mask)
            if not lst:
                continue
            if c < self.now:
                raise SimulationError("event queue went backwards in time")
            tie = self._tie_break
            if len(lst) > 1:
                lst.sort(key=_PHASE_KEY if tie is None else _tie_key(tie))
            while lst:
                event = lst.pop(0)
                if not lst:
                    occ[c & mask] = 0
                self._consumed += 1
                if event.cancelled:
                    self._cancelled -= 1
                    event._sim = None
                    continue
                event._sim = None
                self.now = c
                event.callback()
                self._events_fired += 1
                if self._trace_hook is not None:
                    self._trace_hook(event.label, self.now)
                return True
            # every event at cycle c was a tombstone — keep scanning

    # ----------------------------------------------------------- profiling
    def enable_profiling(self, clock: Callable[[], float]) -> None:
        """Record per-label callback costs using ``clock`` (host seconds).

        The engine never reads a clock on its own: the caller supplies
        one (see :mod:`repro.perf.profile`), keeping the default
        simulation path free of any wall-clock dependence.
        """
        self._profile_clock = clock
        if self._label_costs is None:
            self._label_costs = {}
        if self._interned is None:
            self._interned = {}

    def disable_profiling(self) -> None:
        """Stop recording callback costs (retains collected data)."""
        self._profile_clock = None

    # ------------------------------------------------------------- tracing
    def enable_tracing(self, hook: Callable[[str, int], None]) -> None:
        """Invoke ``hook(label, now)`` after every fired event.

        Like the watchdog/profiler, attaching mid-``run()`` takes effect
        on the next ``run()``/``step()`` call.  The hook must not
        schedule events — it observes the simulation, it is not part of
        it (see :mod:`repro.obs`).
        """
        self._trace_hook = hook

    def disable_tracing(self) -> None:
        """Detach the event trace hook; run() returns to the fast loop."""
        self._trace_hook = None

    def label_costs(self) -> Dict[str, Dict[str, float]]:
        """Collected per-label costs: count/total/min/max seconds."""
        costs = self._label_costs or {}
        return {
            (label or "<unlabelled>"): {
                "count": bucket[0],
                "total_s": bucket[1],
                "min_s": bucket[2],
                "max_s": bucket[3],
            }
            for label, bucket in sorted(costs.items())
        }

    # -------------------------------------------------------- introspection
    def _live_events(self) -> Iterator[Event]:
        """Yield every live (queued, not cancelled) event, any order."""
        for lst in self._ring:
            for event in lst:
                # _sim distinguishes the unconsumed tail from the
                # already-dispatched prefix of the slot being drained.
                if event._sim is self and not event.cancelled:
                    yield event
        for _when, _key, event in self._far:
            if not event.cancelled:
                yield event

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1)."""
        return self._seq - self._consumed - self._cancelled

    def queue_labels(self, limit: Optional[int] = None) -> Dict[str, int]:
        """Histogram of pending-event labels, most frequent first.

        The watchdog post-mortem uses this to answer "what is the queue
        full of?" — a livelock usually shows one label dominating.
        """
        counts: Dict[str, int] = {}
        for event in self._live_events():
            label = event.label or "<unlabelled>"
            counts[label] = counts.get(label, 0) + 1
        # Tie-break equal counts by label so the histogram is a pure
        # function of the queue contents, not of insertion order.
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if limit is not None:
            ordered = ordered[:limit]
        return dict(ordered)

    @property
    def events_fired(self) -> int:
        """Total events executed since construction."""
        return self._events_fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now}, pending={self.pending})"
