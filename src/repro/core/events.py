"""Discrete-event machinery for the one-port master-slave engine.

The engine is event driven: simulated time jumps from decision point to
decision point.  Only five event kinds exist in the model:

* ``TASK_RELEASE`` — a task becomes known to the master;
* ``SEND_COMPLETE`` — the master's port frees and the task arrives in the
  target worker's input queue;
* ``COMPUTE_COMPLETE`` — a worker finishes executing a task;
* ``PLATFORM_EVENT`` — the platform changes (worker speed change, downtime,
  recovery or elastic join) according to a scenario's
  :class:`~repro.scenarios.events.PlatformTimeline`;
* ``WAKEUP`` — a scheduler explicitly asked to be re-consulted at a given
  time (used by deliberately-delaying strategies such as the adversary
  branches of the lower-bound proofs).

Events are totally ordered by ``(time, priority, sequence)``; the priority
encodes the convention that at equal times the engine first learns about
completions, then platform changes, then releases, then wake-ups.
Processing completions before platform events is what guarantees that a
platform event landing exactly on a ``SEND_COMPLETE``/``COMPUTE_COMPLETE``
timestamp can never alter in-flight durations (they were fixed when the
send/computation started).

Releases never enter the :class:`EventQueue`: the engine merges a cursor over
the sorted task set with the queue's top under the same rule (see
``docs/ARCHITECTURE.md`` §1).
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..exceptions import SchedulingError

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(enum.IntEnum):
    """Kinds of simulation events, ordered by same-time processing priority."""

    COMPUTE_COMPLETE = 0
    SEND_COMPLETE = 1
    PLATFORM_EVENT = 2
    TASK_RELEASE = 3
    WAKEUP = 4


@dataclass(frozen=True, order=True, slots=True)
class Event:
    """A single simulation event.

    ``task_id`` and ``worker_id`` are ``-1`` when not applicable (wake-ups).
    """

    time: float
    kind: EventKind
    sequence: int = field(compare=True, default=0)
    task_id: int = field(compare=False, default=-1)
    worker_id: int = field(compare=False, default=-1)

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0.0:
            raise SchedulingError(f"event time must be finite and >= 0, got {self.time}")


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    The queue assigns a monotonically increasing sequence number to each
    pushed event so that events with identical time and kind are processed in
    insertion order — this keeps the simulation fully deterministic.

    Heap entries are plain ``(time, kind, sequence, event)`` tuples rather
    than the events themselves: tuple comparisons run in C, whereas comparing
    dataclass instances would rebuild a field tuple per comparison on the
    engine's hottest path.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Event]:
        """Iterate over pending events in an unspecified order (heap order)."""
        return iter([entry[3] for entry in self._heap])

    def push(
        self,
        time: float,
        kind: EventKind,
        task_id: int = -1,
        worker_id: int = -1,
    ) -> Event:
        """Create an event and insert it into the queue."""
        sequence = next(self._counter)
        event = Event(
            time=time,
            kind=kind,
            sequence=sequence,
            task_id=task_id,
            worker_id=worker_id,
        )
        heapq.heappush(self._heap, (time, kind, sequence, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SchedulingError("pop from an empty event queue")
        return heapq.heappop(self._heap)[3]

    def peek(self) -> Optional[Event]:
        """Return the earliest event without removing it, or ``None``."""
        return self._heap[0][3] if self._heap else None

    @property
    def next_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None
