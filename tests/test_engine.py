"""Unit tests for the one-port engine (:mod:`repro.core.engine`).

The hand-computed scenarios mirror the schedule expressions used throughout
the Section 3 proofs (e.g. two tasks on the same slave complete at
``max(c + 2p, 2c + p)``), so the engine's semantics are pinned to the
paper's model rather than to its own implementation.
"""

from __future__ import annotations

from collections.abc import Sequence

import pytest

from repro.core.engine import Decision, OnePortEngine, PendingTasks, simulate
from repro.core.platform import Platform
from repro.core.task import TaskSet
from repro.exceptions import (
    InvalidDecisionError,
    SchedulingError,
    SchedulingStalledError,
)
from repro.scenarios import PlatformTimeline, SpeedChange
from repro.schedulers.base import OnlineScheduler
from repro.schedulers.random_policy import FixedAssignmentScheduler
from repro.workloads.release import all_at_zero


class DelayingScheduler(OnlineScheduler):
    """Waits until a fixed time before assigning everything to worker 0."""

    name = "DELAY"

    def __init__(self, until: float) -> None:
        super().__init__()
        self.until = until

    def decide(self, view):
        if view.now < self.until:
            return Decision.wait_until(self.until)
        return Decision.assign(self._fifo_task(view), 0)


class StallingScheduler(OnlineScheduler):
    """Always refuses to act (used to exercise the stall detection)."""

    name = "STALL"

    def decide(self, view):
        return Decision.wait()


class BadWorkerScheduler(OnlineScheduler):
    name = "BAD-WORKER"

    def decide(self, view):
        return Decision.assign(self._fifo_task(view), 99)


class BadTaskScheduler(OnlineScheduler):
    name = "BAD-TASK"

    def decide(self, view):
        return Decision.assign(12345, 0)


class NotADecisionScheduler(OnlineScheduler):
    name = "BAD-TYPE"

    def decide(self, view):
        return "send it somewhere"


class PastWakeupScheduler(OnlineScheduler):
    name = "PAST-WAKEUP"

    def decide(self, view):
        return Decision.wait_until(view.now - 5.0)


class TestBasicSemantics:
    def test_single_task_completion(self):
        platform = Platform.from_times([1.0], [3.0])
        schedule = simulate(FixedAssignmentScheduler([0]), platform, all_at_zero(1))
        record = schedule[0]
        assert record.send_start == pytest.approx(0.0)
        assert record.send_end == pytest.approx(1.0)
        assert record.compute_start == pytest.approx(1.0)
        assert record.compute_end == pytest.approx(4.0)  # c + p

    def test_two_tasks_same_worker_pipeline(self):
        # Completion of the second task is max(c + 2p, 2c + p): the slave
        # receives the second task while computing the first.
        platform = Platform.from_times([1.0], [3.0])
        schedule = simulate(FixedAssignmentScheduler([0, 0]), platform, all_at_zero(2))
        assert schedule[1].compute_end == pytest.approx(max(1 + 2 * 3, 2 * 1 + 3))

    def test_two_tasks_same_worker_communication_bound(self):
        # When p < c the slave idles between tasks: completion is 2c + p.
        platform = Platform.from_times([2.0], [0.5])
        schedule = simulate(FixedAssignmentScheduler([0, 0]), platform, all_at_zero(2))
        assert schedule[1].compute_end == pytest.approx(2 * 2.0 + 0.5)

    def test_one_port_serialises_sends(self):
        platform = Platform.from_times([1.0, 1.0], [3.0, 7.0])
        schedule = simulate(FixedAssignmentScheduler([0, 1]), platform, all_at_zero(2))
        assert schedule[0].send_end <= schedule[1].send_start + 1e-12
        # Theorem 1's case analysis: makespan max(c+p1, 2c+p2) = 9.
        assert max(r.compute_end for r in schedule) == pytest.approx(9.0)

    def test_release_dates_respected(self):
        platform = Platform.from_times([1.0], [1.0])
        tasks = TaskSet.from_releases([0.0, 5.0])
        schedule = simulate(FixedAssignmentScheduler([0, 0]), platform, tasks)
        assert schedule[1].send_start >= 5.0

    def test_task_size_factors_scale_costs(self):
        platform = Platform.from_times([1.0], [2.0])
        tasks = all_at_zero(1).with_factors(comm_factors=[2.0], comp_factors=[0.5])
        schedule = simulate(FixedAssignmentScheduler([0]), platform, tasks)
        record = schedule[0]
        assert record.send_end - record.send_start == pytest.approx(2.0)
        assert record.compute_end - record.compute_start == pytest.approx(1.0)

    def test_fifo_queue_on_worker(self):
        # Three tasks on one slave execute in arrival order.
        platform = Platform.from_times([0.5], [2.0])
        schedule = simulate(FixedAssignmentScheduler([0, 0, 0]), platform, all_at_zero(3))
        runs = schedule.records_for_worker(0)
        assert [r.task_id for r in runs] == [0, 1, 2]
        assert runs[2].compute_end == pytest.approx(0.5 + 3 * 2.0)

    def test_schedule_is_feasible(self, run_and_validate, heterogeneous_platform):
        run_and_validate(
            FixedAssignmentScheduler([0, 1, 2, 3, 0, 1]),
            heterogeneous_platform,
            all_at_zero(6),
        )


class TestDelaysAndWakeups:
    def test_deliberate_delay_honoured(self):
        platform = Platform.from_times([1.0], [3.0])
        schedule = simulate(DelayingScheduler(until=2.0), platform, all_at_zero(1))
        assert schedule[0].send_start == pytest.approx(2.0)
        assert schedule[0].compute_end == pytest.approx(2.0 + 1.0 + 3.0)

    def test_wait_until_now_is_allowed(self):
        platform = Platform.from_times([1.0], [1.0])
        schedule = simulate(DelayingScheduler(until=0.0), platform, all_at_zero(2))
        assert schedule[0].send_start == pytest.approx(0.0)

    def test_past_wakeup_rejected(self):
        platform = Platform.from_times([1.0], [1.0])
        tasks = TaskSet.from_releases([10.0])
        with pytest.raises(InvalidDecisionError):
            simulate(PastWakeupScheduler(), platform, tasks)


class TestErrorHandling:
    def test_stalled_scheduler_detected(self):
        platform = Platform.from_times([1.0], [1.0])
        with pytest.raises(SchedulingStalledError):
            simulate(StallingScheduler(), platform, all_at_zero(2))

    def test_unknown_worker_rejected(self):
        platform = Platform.from_times([1.0], [1.0])
        with pytest.raises(InvalidDecisionError):
            simulate(BadWorkerScheduler(), platform, all_at_zero(1))

    def test_unknown_task_rejected(self):
        platform = Platform.from_times([1.0], [1.0])
        with pytest.raises(InvalidDecisionError):
            simulate(BadTaskScheduler(), platform, all_at_zero(1))

    def test_non_decision_return_rejected(self):
        platform = Platform.from_times([1.0], [1.0])
        with pytest.raises(InvalidDecisionError):
            simulate(NotADecisionScheduler(), platform, all_at_zero(1))

    def test_event_budget_guard(self):
        platform = Platform.from_times([1.0], [1.0])
        engine = OnePortEngine(platform, all_at_zero(2), max_events=1)
        with pytest.raises(SchedulingError):
            engine.run(FixedAssignmentScheduler([0, 0]))


class TestSchedulerView:
    def test_view_exposes_task_count_only_when_asked(self):
        platform = Platform.from_times([1.0], [1.0])
        engine = OnePortEngine(platform, all_at_zero(3), expose_task_count=True)
        assert engine.view().n_total == 3
        engine = OnePortEngine(platform, all_at_zero(3), expose_task_count=False)
        assert engine.view().n_total is None

    def test_view_free_workers_and_ready_times(self):
        platform = Platform.from_times([1.0, 1.0], [2.0, 2.0])

        observations = []

        class Spy(OnlineScheduler):
            name = "SPY"

            def decide(self, view):
                observations.append(
                    (view.now, tuple(w.backlog for w in view.workers))
                )
                return Decision.assign(self._fifo_task(view), 0)

        simulate(Spy(), platform, all_at_zero(2))
        # First decision: both workers free; second (at t=c): worker 0 busy.
        assert observations[0][1] == (0, 0)
        assert observations[1][1] == (1, 0)

    def test_estimated_completion_matches_engine(self):
        platform = Platform.from_times([1.0, 2.0], [3.0, 5.0])

        predictions = []

        class Predictor(OnlineScheduler):
            name = "PREDICT"

            def decide(self, view):
                task = view.next_pending
                target = view.workers[task.task_id % 2]
                predictions.append((task.task_id, target.estimated_completion(view.now)))
                return Decision.assign(task.task_id, target.worker_id)

        schedule = simulate(Predictor(), platform, all_at_zero(4))
        for task_id, predicted in predictions:
            assert schedule[task_id].compute_end == pytest.approx(predicted)


class PendingSpy(OnlineScheduler):
    """Logs ``(now, pending ids, n_released)`` per consult, assigns by rule.

    ``pick`` maps the pending ids to the index of the task to send, so a
    test can take tasks from the middle of the queue, not only its head.
    """

    name = "PENDING-SPY"

    def __init__(self, log, pick=lambda ids: 0):
        super().__init__()
        self.log = log
        self.pick = pick
        self.views = []

    def decide(self, view):
        ids = tuple(task.task_id for task in view.pending)
        self.log.append(("consult", view.now, ids, view.n_released))
        self.views.append(view)
        return Decision.assign(ids[self.pick(ids)], 0)


class LoggingEngine(OnePortEngine):
    """Records each heap event it handles, in handling order."""

    def __init__(self, *args, log, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = log

    def _on_send_complete(self, task_id, worker_id):
        self.log.append(("SEND_COMPLETE", self.now))
        super()._on_send_complete(task_id, worker_id)

    def _on_compute_complete(self, task_id, worker_id):
        self.log.append(("COMPUTE_COMPLETE", self.now))
        super()._on_compute_complete(task_id, worker_id)

    def _on_platform_event(self, index):
        self.log.append(("PLATFORM_EVENT", self.now))
        super()._on_platform_event(index)


class TestPendingView:
    def test_first_consult_sees_every_same_instant_release(self):
        log = []
        simulate(PendingSpy(log), Platform.from_times([1.0], [1.0]), all_at_zero(4))
        _, now, ids, n_released = log[0]
        assert now == 0.0
        assert ids == (0, 1, 2, 3)
        assert n_released == 4

    def test_views_share_one_live_pending_object(self):
        platform = Platform.from_times([1.0], [1.0])
        engine = OnePortEngine(platform, all_at_zero(3))
        assert engine.view().pending is engine.view().pending
        spy = PendingSpy([])
        engine.run(spy)
        first = spy.views[0].pending
        assert all(view.pending is first for view in spy.views)
        assert first is engine.view().pending
        # Live, not a copy: every task has been assigned by now.
        assert len(first) == 0
        assert list(first) == []

    def test_pending_is_a_read_only_sequence(self):
        engine = OnePortEngine(Platform.from_times([1.0], [1.0]), all_at_zero(3))
        snapshots = []

        class Snapshot(OnlineScheduler):
            name = "SNAPSHOT"

            def decide(self, view):
                pending = view.pending
                assert isinstance(pending, PendingTasks)
                assert isinstance(pending, Sequence)
                snapshots.append(tuple(pending))
                assert pending[0] is view.next_pending
                assert pending[-1] is pending[len(pending) - 1]
                assert pending.index(pending[-1]) == len(pending) - 1
                assert pending[0] in pending
                for name in (
                    "append",
                    "appendleft",
                    "extend",
                    "insert",
                    "pop",
                    "popleft",
                    "remove",
                    "clear",
                    "rotate",
                    "__setitem__",
                    "__delitem__",
                    "__iadd__",
                ):
                    assert not hasattr(pending, name), name
                with pytest.raises(TypeError):
                    pending[0] = pending[0]
                with pytest.raises(AttributeError):
                    pending.extra = 1
                return Decision.assign(pending[0].task_id, 0)

        engine.run(Snapshot())
        # tuple(view.pending) keeps its snapshot after decide returns.
        assert [[t.task_id for t in snap] for snap in snapshots] == [[0, 1, 2], [1, 2], [2]]

    @pytest.mark.parametrize("pick", ["head", "middle", "tail"])
    def test_pending_matches_released_unassigned_fifo(self, pick):
        releases = [0.0, 0.0, 0.0, 0.5, 0.5, 2.0, 2.0, 2.0, 7.0]
        tasks = TaskSet.from_releases(releases)
        rule = {
            "head": lambda ids: 0,
            "middle": lambda ids: len(ids) // 2,
            "tail": lambda ids: len(ids) - 1,
        }[pick]
        log = []
        schedule = simulate(PendingSpy(log, rule), Platform.from_times([0.3], [1.0]), tasks)
        assigned = set()
        for _, now, ids, n_released in log:
            released = [t for t in tasks if t.release <= now]
            expected = [t.task_id for t in released if t.task_id not in assigned]
            assert ids == tuple(expected)
            assert n_released == len(released)
            assigned.add(ids[rule(ids)])
        assert len(schedule) == len(releases)


class TestSameInstantOrdering:
    """A release dated exactly at a heap event's time, per (time, kind)."""

    @pytest.mark.parametrize(
        "kind, releases, comm, comp, timeline",
        [
            # task 0 is sent over [0, 1], so its SEND_COMPLETE is at t = 1
            ("SEND_COMPLETE", [0.0, 1.0], 1.0, 2.0, None),
            # task 0 computes over [1, 3], so its COMPUTE_COMPLETE is at t = 3
            ("COMPUTE_COMPLETE", [0.0, 3.0], 1.0, 2.0, None),
            # the worker's speed changes at t = 2
            (
                "PLATFORM_EVENT",
                [0.0, 2.0],
                1.0,
                5.0,
                PlatformTimeline(1, [SpeedChange(2.0, 0, comp_speed=0.5)]),
            ),
        ],
    )
    def test_release_follows_same_time_heap_event(self, kind, releases, comm, comp, timeline):
        log = []
        engine = LoggingEngine(
            Platform.from_times([comm], [comp]),
            TaskSet.from_releases(releases),
            timeline=timeline,
            log=log,
        )
        engine.run(PendingSpy(log))
        t = releases[1]
        handled = log.index((kind, t))
        consult = next(
            index for index, entry in enumerate(log) if entry[0] == "consult" and entry[1] == t
        )
        assert handled < consult
        assert log[consult][2] == (1,)

    def test_release_precedes_same_time_wakeup(self):
        log = []

        class WaitThenFifo(PendingSpy):
            def decide(self, view):
                ids = tuple(task.task_id for task in view.pending)
                self.log.append(("consult", view.now, ids, view.n_released))
                if view.now < 2.0:
                    return Decision.wait_until(2.0)
                return Decision.assign(ids[0], 0)

        simulate(
            WaitThenFifo(log), Platform.from_times([1.0], [1.0]), TaskSet.from_releases([0.0, 2.0])
        )
        at_two = [entry for entry in log if entry[1] == 2.0]
        # The wake-up at t = 2 consults only after the release dated t = 2.
        assert at_two[0][2] == (0, 1)
        assert at_two[0][3] == 2
