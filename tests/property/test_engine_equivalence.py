"""Property test: calendar queue vs. the retired heap scheduler.

The calendar-queue engine replaced a binary heap whose dispatch order
*was* the repo's ordering contract: pop by ``(when, key)`` with
``key = tie(seq) + phase * 2**40``.  This test keeps that old engine
alive as a ~40-line oracle (:class:`_HeapScheduler`, distilled from the
pre-rewrite ``sim/engine.py``) and drives randomized
schedule/cancel/run workloads — including callback-time schedules and
cancels, partial ``run(until)`` drains, and far-list-crossing delays —
through both.  The (cycle, phase, label) dispatch sequences must be
identical under every installed tie break: fifo (native), lifo, and
the ``seeded:N`` Weyl hash used by ``REPRO_TIE_ORDER``.

A second, *sparse* strategy targets the idle-cycle skip: delays mostly
above half a day, gaps that wrap the ring, slots holding only
tombstones, ``run(until)`` stopping inside a gap, and interleaved
``step()`` calls.  Each script is replayed through the fast loop, the
observed loop (a no-op trace hook) and ``step()`` alone, and the ring's
occupancy map must match the slots afterwards.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.sim.engine import _DEFAULT_DAY_LENGTH, _PHASE_STRIDE, Simulator

_TIE_BREAKS = (
    ("fifo", None),
    ("lifo", lambda seq: -seq),
    ("seeded:7", lambda seq: ((seq + 7) * 0x9E3779B1) & 0xFFFFFFFF),
    ("seeded:23", lambda seq: ((seq + 23) * 0x9E3779B1) & 0xFFFFFFFF),
)


class _OracleEvent:
    """Cancellation handle matching :class:`repro.sim.engine.Event`."""

    __slots__ = ("callback", "cancelled", "fired")

    def __init__(self, callback):
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        if not self.fired:
            self.cancelled = True


class _HeapScheduler:
    """The pre-calendar-queue engine, reduced to its ordering contract.

    One global heap of ``(when, key, seq, event)`` entries where
    ``key = tie(seq) + phase * _PHASE_STRIDE`` — exactly the retired
    implementation's ordering (``seq`` added as a tiebreak column only
    to keep tuples comparable; the real engine relied on tie keys being
    collision-free, which the property below inherits).
    """

    def __init__(self, tie_break=None):
        self.now = 0
        self._queue = []
        self._seq = 0
        self._tie = tie_break

    def schedule(self, delay, callback, label="", phase=0):
        assert delay >= 0
        seq = self._seq
        self._seq = seq + 1
        key = seq if self._tie is None else self._tie(seq)
        key += phase * _PHASE_STRIDE
        event = _OracleEvent(callback)
        heapq.heappush(self._queue, (self.now + delay, key, seq, event))
        return event

    def step(self):
        queue = self._queue
        while queue:
            when, _key, _seq, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            event.fired = True
            self.now = when
            event.callback()
            return True
        return False

    def run(self, until=None):
        queue = self._queue
        while queue:
            when, _key, _seq, event = queue[0]
            if event.cancelled:
                heapq.heappop(queue)
                continue
            if until is not None and when > until:
                self.now = until
                return until
            heapq.heappop(queue)
            event.fired = True
            self.now = when
            event.callback()
        if until is not None and until > self.now:
            self.now = until
        return self.now


@st.composite
def workloads(draw):
    """A script both schedulers replay identically.

    Top-level actions: schedule an event (with children its callback
    schedules and an optional handle its callback cancels), cancel a
    handle from outside, or partially drain with ``run(until)``.
    """
    actions = []
    scheduled = 0
    for _ in range(draw(st.integers(2, 40))):
        kind = draw(st.sampled_from(
            ("schedule", "schedule", "schedule", "cancel", "run_until")))
        if kind == "schedule":
            children = draw(st.lists(
                st.tuples(st.integers(0, 40),
                          st.sampled_from((0, 0, 0, 1, 2))),
                max_size=3))
            cancel_target = draw(st.one_of(
                st.none(), st.integers(0, 200)))
            actions.append(("schedule", draw(st.integers(0, 90)),
                            draw(st.sampled_from((0, 0, 0, 1, 2))),
                            children, cancel_target))
            scheduled += 1
        elif kind == "cancel":
            actions.append(("cancel", draw(st.integers(0, 200))))
        else:
            actions.append(("run_until", draw(st.integers(0, 50))))
    return actions


@st.composite
def sparse_workloads(draw):
    """``(day_length, script)`` for a calendar that is mostly idle.

    Delays sit mostly above ``day/2`` (many wrap the ring or go far),
    ``dead`` actions leave slots holding only tombstones, ``run_until``
    horizons land inside the gaps, and ``step`` actions fire single
    events between the drains.
    """
    day_length = draw(st.sampled_from((4, 16, 64, None)))
    day = day_length or _DEFAULT_DAY_LENGTH
    delays = st.one_of(st.integers(day // 2, 3 * day),
                       st.integers(day // 2, 3 * day),
                       st.integers(day // 2, 3 * day),
                       st.integers(0, day))
    actions = []
    for _ in range(draw(st.integers(2, 30))):
        kind = draw(st.sampled_from(
            ("schedule", "schedule", "schedule", "dead", "cancel",
             "run_until", "step")))
        if kind == "schedule":
            children = draw(st.lists(
                st.tuples(delays, st.sampled_from((0, 0, 1, 2))),
                max_size=2))
            actions.append(("schedule", draw(delays),
                            draw(st.sampled_from((0, 0, 1, 2))),
                            children,
                            draw(st.one_of(st.none(),
                                           st.integers(0, 200)))))
        elif kind == "dead":
            actions.append(("dead", draw(delays), draw(st.integers(1, 3))))
        elif kind == "cancel":
            actions.append(("cancel", draw(st.integers(0, 200))))
        elif kind == "run_until":
            actions.append(("run_until", draw(st.integers(0, 3 * day))))
        else:
            actions.append(("step",))
    return day_length, actions


def _make_sim(mode, tie, day_length):
    """A Simulator whose ``run()`` takes the loop ``mode`` names."""
    sim = Simulator(tie_break=tie, day_length=day_length)
    if mode == "observed":
        sim.enable_tracing(lambda label, now: None)
    return sim


def _assert_occupancy(sim):
    """The occupancy map flags exactly the non-empty ring slots."""
    assert [bool(b) for b in sim._occ] == [bool(lst) for lst in sim._ring]


def _replay(sched, actions, drain="run"):
    """Run ``actions`` against ``sched``; return the dispatch log.

    ``drain="step"`` empties the queue at the end with ``step()`` calls
    instead of one ``run()``.
    """
    log = []
    handles = []

    def make_callback(label, phase, children, cancel_target):
        def callback():
            log.append((sched.now, phase, label))
            for j, (cdelay, cphase) in enumerate(children):
                clabel = f"{label}.c{j}"
                handles.append(sched.schedule(
                    cdelay, make_callback(clabel, cphase, (), None),
                    clabel, cphase))
            if cancel_target is not None and handles:
                handles[cancel_target % len(handles)].cancel()
        return callback

    for i, action in enumerate(actions):
        if action[0] == "schedule":
            _, delay, phase, children, cancel_target = action
            label = f"e{i}"
            handles.append(sched.schedule(
                delay, make_callback(label, phase, children, cancel_target),
                label, phase))
        elif action[0] == "dead":
            # Every event at this cycle is cancelled: a tombstone slot.
            _, delay, count = action
            for k in range(count):
                sched.schedule(delay, make_callback(f"d{i}.{k}", 0, (), None),
                               f"d{i}.{k}").cancel()
        elif action[0] == "cancel" and handles:
            handles[action[1] % len(handles)].cancel()
        elif action[0] == "run_until":
            sched.run(until=sched.now + action[1])
        elif action[0] == "step":
            sched.step()
    if drain == "step":
        while sched.step():
            pass
    else:
        sched.run()
    return log


@settings(max_examples=120, deadline=None)
@given(workloads(), st.sampled_from((1, 4, 16, None)),
       st.sampled_from(range(len(_TIE_BREAKS))))
def test_calendar_queue_matches_heap_oracle(actions, day_length, tie_index):
    """Identical (cycle, phase, label) sequences, any tie break."""
    name, tie = _TIE_BREAKS[tie_index]
    expected = _replay(_HeapScheduler(tie_break=tie), actions)
    actual = _replay(Simulator(tie_break=tie, day_length=day_length),
                     actions)
    assert actual == expected, (
        f"dispatch order diverged from heap oracle under {name} "
        f"(day_length={day_length})")


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_fifo_matches_native_default(actions):
    """fifo (tie=None) and the default construction agree."""
    assert (_replay(Simulator(), actions)
            == _replay(_HeapScheduler(), actions))


@settings(max_examples=120, deadline=None)
@given(sparse_workloads(), st.sampled_from(("fast", "observed", "step")),
       st.sampled_from(range(len(_TIE_BREAKS))))
def test_sparse_calendar_matches_heap_oracle_in_every_loop(
        workload, mode, tie_index):
    """The idle-cycle skip lands on the same cycles in all three loops."""
    day_length, actions = workload
    name, tie = _TIE_BREAKS[tie_index]
    drain = "step" if mode == "step" else "run"
    expected = _replay(_HeapScheduler(tie_break=tie), actions, drain)
    sim = _make_sim(mode, tie, day_length)
    actual = _replay(sim, actions, drain)
    assert actual == expected, (
        f"{mode} loop diverged from heap oracle under {name} "
        f"(day_length={day_length})")
    assert sim.pending == 0
    _assert_occupancy(sim)
