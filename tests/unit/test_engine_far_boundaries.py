"""Boundary tests for the calendar queue's heap-backed far list.

The ring only holds events less than one day (``day_length`` cycles)
out; everything at or past the horizon sits in a heap until its cycle
comes around.  These tests pin the seams of that split: delays beyond
one (and several) full rotations, the degenerate one-slot calendar,
``schedule_at`` in the past, ``run(until)`` stopping short of the far
head, ``step()`` across a promotion, and ``max_events`` off-by-one
behaviour matching the retired heap engine (a budget exhausted with
only cancelled events left still livelocks, exactly as a non-empty
heap did).  The last seam is the ring's occupancy map: a ``day-1``
delay lands in the slot just behind the drain pointer, and a callback
that raises leaves its slot half-drained; the map must keep flagging
exactly the non-empty slots through both.
"""

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import Simulator


class TestBeyondOneRotation:
    def test_delay_past_one_rotation_goes_far_and_fires_in_order(self):
        sim = Simulator(day_length=8)
        fired = []
        # Interleave near (ring) and far delays; several share cycles.
        for delay in (50, 3, 8, 7, 9, 0, 23, 23, 15, 2):
            sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
        assert len(sim._far) == 6  # delays >= day_length (8)
        sim.run()
        assert fired == sorted(fired, key=lambda pair: pair[0])
        assert [pair[0] for pair in fired] == [0, 2, 3, 7, 8, 9, 15, 23,
                                              23, 50]
        # Same-cycle far events fire in schedule (seq) order.
        assert fired[7] == (23, 23) and fired[8] == (23, 23)

    def test_multiple_empty_rotations_are_skipped(self):
        sim = Simulator(day_length=4)
        fired = []
        sim.schedule(4 * 3 + 2, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [14]
        assert sim.now == 14

    def test_rearming_across_the_horizon_round_trips(self):
        # An event that re-schedules itself exactly one day out keeps
        # crossing ring -> far -> promotion without losing a beat.
        sim = Simulator(day_length=8)
        fired = []

        def rearm():
            fired.append(sim.now)
            if len(fired) < 5:
                sim.schedule(8, rearm)

        sim.schedule(8, rearm)
        sim.run()
        assert fired == [8, 16, 24, 32, 40]

    def test_day_length_one_degenerates_to_a_pure_heap(self):
        sim = Simulator(day_length=1)
        fired = []
        for delay in (5, 0, 2, 2, 9, 1):
            sim.schedule(delay, lambda d=delay: fired.append(d))
        # Only the delay-0 event fits the single-slot ring.
        assert len(sim._far) == 5
        sim.run()
        assert fired == [0, 1, 2, 2, 5, 9]


class TestPastScheduling:
    def test_schedule_at_in_the_past_raises(self):
        sim = Simulator(day_length=8)
        sim.schedule(10, lambda: None)
        sim.run()
        assert sim.now == 10
        with pytest.raises(SimulationError):
            sim.schedule_at(9, lambda: None)

    def test_schedule_at_now_is_fine_even_past_a_rotation(self):
        sim = Simulator(day_length=4)
        sim.schedule(17, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(17, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [17]

    def test_schedule_at_in_the_past_raises_from_a_callback(self):
        sim = Simulator(day_length=4)
        boom = []

        def tardy():
            try:
                sim.schedule_at(sim.now - 1, lambda: None)
            except SimulationError:
                boom.append(sim.now)

        sim.schedule(9, tardy)
        sim.run()
        assert boom == [9]


class TestRunUntilAndStepAcrossTheHorizon:
    def test_until_before_far_head_stops_and_advances_clock(self):
        sim = Simulator(day_length=4)
        fired = []
        sim.schedule(30, lambda: fired.append(sim.now))
        assert sim.run(until=20) == 20
        assert sim.now == 20 and fired == []
        assert sim.pending == 1
        sim.run()
        assert fired == [30]

    def test_until_exactly_at_far_head_fires_it(self):
        sim = Simulator(day_length=4)
        fired = []
        sim.schedule(30, lambda: fired.append(sim.now))
        sim.run(until=30)
        assert fired == [30] and sim.now == 30

    def test_step_promotes_and_fires_exactly_one_event(self):
        sim = Simulator(day_length=4)
        fired = []
        sim.schedule(21, lambda: fired.append("a"))
        sim.schedule(21, lambda: fired.append("b"))
        assert sim.step() is True
        assert fired == ["a"] and sim.now == 21
        assert sim.step() is True
        assert fired == ["a", "b"]
        assert sim.step() is False


class TestMaxEventsParity:
    def test_budget_spent_with_far_work_remaining_raises(self):
        sim = Simulator(day_length=4)
        for i in range(6):
            sim.schedule(10 * (i + 1), lambda: None)  # all far
        with pytest.raises(SimulationError):
            sim.run(max_events=5)

    def test_budget_spent_on_final_far_event_does_not_raise(self):
        sim = Simulator(day_length=4)
        fired = []
        for i in range(5):
            sim.schedule(10 * (i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=5)
        assert fired == [0, 1, 2, 3, 4]

    def test_budget_spent_with_only_tombstones_left_raises(self):
        # Heap-engine parity: cancelled-but-unreclaimed events kept the
        # old queue non-empty at budget exhaustion, so it raised; the
        # calendar queue's stored count includes tombstones the same way.
        sim = Simulator(day_length=4)
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        doomed = sim.schedule(40, lambda: None)
        doomed.cancel()
        with pytest.raises(SimulationError):
            sim.run(max_events=5)


def _assert_occupancy(sim):
    assert [bool(b) for b in sim._occ] == [bool(lst) for lst in sim._ring]


class _Boom(Exception):
    pass


class TestOccupancyMap:
    def test_day_minus_one_delay_wraps_behind_the_cursor(self):
        sim = Simulator(day_length=8)
        fired = []
        sim.schedule(5, lambda: fired.append(sim.now))
        sim.run()
        # now=5: delay 7 lands in slot (5 + 7) & 7 == 4, one behind the
        # cursor, so the next-busy search must wrap to find it.
        sim.schedule(7, lambda: fired.append(sim.now))
        assert len(sim._far) == 0
        _assert_occupancy(sim)
        sim.run()
        assert fired == [5, 12]
        _assert_occupancy(sim)

    def test_day_minus_one_delay_from_a_callback_with_until(self):
        sim = Simulator(day_length=16)
        fired = []

        def rearm():
            fired.append(sim.now)
            if len(fired) < 4:
                sim.schedule(15, rearm)

        sim.schedule(3, rearm)
        assert sim.run(until=30) == 30
        assert fired == [3, 18]
        _assert_occupancy(sim)
        sim.run()
        assert fired == [3, 18, 33, 48]
        _assert_occupancy(sim)

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("boom_last", [False, True])
    def test_raising_callback_then_resumed_run(self, observed, boom_last):
        sim = Simulator(day_length=8)
        if observed:
            sim.enable_tracing(lambda label, now: None)
        fired = []

        def boom():
            fired.append("boom")
            raise _Boom()

        sim.schedule(3, lambda: fired.append("a"))
        sim.schedule(3, boom)
        if not boom_last:
            sim.schedule(3, lambda: fired.append("b"))
        sim.schedule(6, lambda: fired.append("c"))
        sim.schedule(20, lambda: fired.append("far"))
        with pytest.raises(_Boom):
            sim.run()
        assert sim.now == 3
        # The raising slot keeps exactly its unconsumed tail.
        assert bool(sim._ring[3]) is not boom_last
        _assert_occupancy(sim)
        sim.run()
        tail = ["c", "far"] if boom_last else ["b", "c", "far"]
        assert fired == ["a", "boom"] + tail
        assert sim.pending == 0
        _assert_occupancy(sim)

    def test_raising_callback_under_step(self):
        sim = Simulator(day_length=8)
        fired = []

        def boom():
            raise _Boom()

        sim.schedule(2, boom)
        sim.schedule(9, lambda: fired.append(sim.now))
        with pytest.raises(_Boom):
            sim.step()
        _assert_occupancy(sim)
        assert sim.step() is True
        assert fired == [9]
        assert sim.step() is False
        _assert_occupancy(sim)
