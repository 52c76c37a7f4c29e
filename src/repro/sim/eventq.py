"""Event queue and simulation driver.

The :class:`Simulator` owns a single global event queue ordered by
``(tick, priority, sequence)``.  Ties at the same tick are broken first by an
explicit priority (lower runs earlier) and then by insertion order, which
makes runs fully deterministic -- a property the regression tests rely on.

Hot-path design
---------------
This module is the innermost loop of every experiment, so it trades a
little generality for speed:

* The heap holds plain ``(when, priority, seq, event)`` tuples.  Tuple
  comparison runs entirely in C and, because ``seq`` is unique, never
  falls through to comparing the :class:`Event` payload itself.
* :class:`Event` is a ``__slots__`` class used purely as a handle
  (cancellation) and a callback carrier; it is never compared.
* Executed and skipped-cancelled events return to a per-queue freelist,
  so steady-state scheduling allocates no new objects.  A handle is
  therefore only valid until its event fires or is reaped after
  cancellation -- cancelling a stale handle may affect a recycled event.
  Nothing in the tree holds handles past completion.
* Lazy deletion lives in one place (:meth:`EventQueue._prune`), shared
  by ``pop`` and ``peek_tick``; every reaped cancelled event is counted
  in :attr:`EventQueue.skipped_cancelled` (surfaced as
  :attr:`Simulator.events_skipped`).
* ``Simulator.run`` / ``run_until_idle`` inline the pop/prune logic with
  locals-bound heap operations, and ``run_until_idle`` throttles the
  ``quiesce()`` predicate adaptively instead of calling it per event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

#: Default event priority.  Lower values run first within a tick.
PRIORITY_DEFAULT = 100
#: Priority for bookkeeping events that must observe a settled state.
PRIORITY_LATE = 1000
#: Priority for events that must run before ordinary work at a tick.
PRIORITY_EARLY = 10

#: Freelist bound: beyond this many retired events, let the GC have them.
_FREELIST_MAX = 8192

#: run_until_idle throttle: after this many consecutive "not quiesced"
#: answers the check interval doubles, up to the cap.  Short runs (fewer
#: than BACKOFF_AFTER events) therefore see exactly the historical
#: check-after-every-event behaviour.
_QUIESCE_BACKOFF_AFTER = 8
_QUIESCE_MAX_INTERVAL = 64


class Event:
    """A scheduled callback handle.

    Events live in the heap as the payload of ``(when, priority, seq,
    event)`` tuples; the object itself is never ordered.  ``cancelled``
    events stay in the heap but are skipped (and recycled) when they
    surface, which keeps cancellation O(1).
    """

    __slots__ = ("when", "priority", "seq", "callback", "name", "cancelled")

    def __init__(
        self,
        when: int,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        name: str = "",
    ) -> None:
        self.when = when
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        Only valid while the event is pending: handles are recycled once
        the event has fired or been reaped (see module docstring).  A
        handle sitting on the freelist (fired, not yet reused) is
        detected and rejected here -- its ``callback`` was cleared on
        release -- which catches the common cancel-after-completion bug
        at the call site instead of silently dropping whichever future
        event the handle gets recycled into.  A handle cancelled after
        its object was *already reused* cannot be distinguished from the
        new occupant; don't hold handles past their event's completion.
        """
        if self.callback is None:
            raise RuntimeError(
                "cancelling a completed event handle (handles are only "
                "valid until their event fires; see repro.sim.eventq)"
            )
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event @{self.when} prio={self.priority}{state} {self.name!r}>"


class EventQueue:
    """A deterministic min-heap of scheduled events.

    The public interface still speaks :class:`Event` (``push`` returns a
    handle, ``pop`` returns the next live event); the tuple layout and
    the freelist are internal.
    """

    __slots__ = ("_heap", "_seq", "_free", "skipped_cancelled")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._free: list = []
        #: Cancelled events reaped by lazy deletion (pop/peek/run loops).
        self.skipped_cancelled = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self,
        when: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
        name: str = "",
    ) -> Event:
        """Insert a callback to run at tick ``when`` and return its handle."""
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.when = when
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.name = name
            event.cancelled = False
        else:
            event = Event(when, priority, seq, callback, name)
        heappush(self._heap, (when, priority, seq, event))
        return event

    def _release(self, event: Event) -> None:
        """Recycle a finished event through the freelist."""
        event.callback = None  # drop the closure reference eagerly
        free = self._free
        if len(free) < _FREELIST_MAX:
            free.append(event)

    def _prune(self) -> None:
        """Reap cancelled events at the head (the one lazy-deletion site)."""
        heap = self._heap
        skipped = 0
        while heap and heap[0][3].cancelled:
            self._release(heappop(heap)[3])
            skipped += 1
        if skipped:
            self.skipped_cancelled += skipped

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty.

        The returned event is *not* recycled -- external callers own it.
        The run loops use their own inlined pop that recycles after
        dispatch.
        """
        self._prune()
        heap = self._heap
        if not heap:
            return None
        return heappop(heap)[3]

    def peek_tick(self) -> Optional[int]:
        """Tick of the next live event without removing it, or None."""
        self._prune()
        heap = self._heap
        return heap[0][0] if heap else None


class Simulator:
    """Drives the event queue and tracks the current tick.

    A single Simulator instance is shared by every :class:`SimObject` in a
    system.  Typical use::

        sim = Simulator()
        sim.schedule(ns(10), lambda: print("hello at 10ns"))
        sim.run()

    The simulator also keeps a registry of every :class:`SimObject` bound
    to it (in construction order), which is what lets a fully wired system
    be reset to its pristine state and reused for another run instead of
    being rebuilt from scratch.
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now: int = 0
        self._running = False
        self.events_executed: int = 0
        #: Largest freelist population observed at the end of a run loop
        #: (diagnostic: how much event recycling the run actually used).
        self.freelist_high_water: int = 0
        #: Every SimObject constructed against this simulator, in order.
        self.objects: list = []

    def register(self, obj) -> None:
        """Record a SimObject for system-wide reset walks."""
        self.objects.append(obj)

    def reset(self) -> None:
        """Rewind to tick 0 with an empty queue.

        Replacing the queue (rather than draining it) also resets the
        event sequence counter, freelist and skipped-event count, so a
        reset simulator schedules events in exactly the order a freshly
        built one would -- a precondition for reused systems producing
        bit-identical results.
        """
        if self._running:
            raise RuntimeError("cannot reset a running simulator")
        self.queue = EventQueue()
        self.now = 0
        self.events_executed = 0
        # Diagnostic counters describe *one* run of the system; a reset
        # system must report them from scratch, not cumulatively
        # (events_skipped resets with the queue above).
        self.freelist_high_water = 0

    @property
    def events_skipped(self) -> int:
        """Cancelled events reaped by lazy deletion since the last reset."""
        return self.queue.skipped_cancelled

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` ticks from now.

        The body duplicates :meth:`EventQueue.push` deliberately: this is
        called once per event and the extra frame shows up on every
        sweep profile.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        queue = self.queue
        when = self.now + delay
        seq = queue._seq
        queue._seq = seq + 1
        free = queue._free
        if free:
            event = free.pop()
            event.when = when
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.name = name
            event.cancelled = False
        else:
            event = Event(when, priority, seq, callback, name)
        heappush(queue._heap, (when, priority, seq, event))
        return event

    def schedule_at(
        self,
        when: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run at absolute tick ``when``."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule at tick {when}, current tick is {self.now}"
            )
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        free = queue._free
        if free:
            event = free.pop()
            event.when = when
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.name = name
            event.cancelled = False
        else:
            event = Event(when, priority, seq, callback, name)
        heappush(queue._heap, (when, priority, seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains (or limits hit).

        Parameters
        ----------
        until:
            Stop before executing events scheduled after this tick.
        max_events:
            Safety valve for tests; stop after this many events.

        Returns the tick of the last executed event (i.e. ``self.now``).
        """
        self._running = True
        executed = 0
        queue = self.queue
        heap = queue._heap
        free = queue._free
        pop = heappop
        budget = max_events if max_events is not None else (1 << 62)
        try:
            if until is None:
                # Common case (drain the queue): pop unconditionally, no
                # per-event peek.  This is the monomorphic inner loop
                # every experiment spends its time in; `now` mirrors
                # self.now in a local so the monotonicity check costs a
                # local load (the attribute store remains, because
                # callbacks read self.now).
                now = self.now
                while heap:
                    when, _prio, _seq, event = pop(heap)
                    if event.cancelled:
                        queue.skipped_cancelled += 1
                        event.callback = None
                        if len(free) < _FREELIST_MAX:
                            free.append(event)
                        continue
                    if when < now:
                        raise RuntimeError(
                            f"event {event.name!r} scheduled at {when} "
                            f"but time already at {now}"
                        )
                    self.now = now = when
                    event.callback()
                    event.callback = None
                    if len(free) < _FREELIST_MAX:
                        free.append(event)
                    executed += 1
                    if executed >= budget:
                        break
            else:
                # Bounded run: peek before popping so events beyond
                # `until` stay queued for the next call.
                while heap:
                    head = heap[0]
                    event = head[3]
                    if event.cancelled:
                        pop(heap)
                        queue.skipped_cancelled += 1
                        event.callback = None
                        if len(free) < _FREELIST_MAX:
                            free.append(event)
                        continue
                    when = head[0]
                    if when > until:
                        break
                    if when < self.now:
                        raise RuntimeError(
                            f"event {event.name!r} scheduled at {when} "
                            f"but time already at {self.now}"
                        )
                    pop(heap)
                    self.now = when
                    event.callback()
                    event.callback = None
                    if len(free) < _FREELIST_MAX:
                        free.append(event)
                    executed += 1
                    if executed >= budget:
                        break
        finally:
            self.events_executed += executed
            if len(free) > self.freelist_high_water:
                self.freelist_high_water = len(free)
            self._running = False
        return self.now

    def run_until_idle(self, quiesce: Callable[[], bool], max_events: int = 10**9) -> int:
        """Run until ``quiesce()`` returns True.

        The predicate is evaluated between events, but *throttled*: after
        ``quiesce`` has answered "not yet" a handful of times in a row,
        the check interval backs off (doubling up to a small cap) so long
        drains stop paying a Python call per event.  Short runs see the
        historical check-after-every-event behaviour exactly; a throttled
        run may execute up to the current interval of extra events after
        the predicate first turns true.  The predicate is always
        re-checked before an event-budget return, so this method never
        reports quiescence that does not hold.

        Raises ``RuntimeError`` if the ``max_events`` budget is exhausted
        before the system quiesces, or if time would move backwards --
        the same monotonicity contract :meth:`run` enforces.
        """
        self._running = True
        executed = 0
        queue = self.queue
        heap = queue._heap
        free = queue._free
        pop = heappop
        interval = 1
        misses = 0  # consecutive "not quiesced" answers at this interval
        drained = False
        try:
            while True:
                if quiesce():
                    break
                if heap and not drained:
                    misses += 1
                    if (misses >= _QUIESCE_BACKOFF_AFTER
                            and interval < _QUIESCE_MAX_INTERVAL):
                        interval <<= 1
                        misses = 0
                elif drained:
                    break  # queue empty and quiesce still false: give up
                # Execute up to `interval` events before asking again.
                ran = 0
                while ran < interval and executed + ran < max_events:
                    if not heap:
                        drained = True
                        break
                    head = heap[0]
                    event = head[3]
                    if event.cancelled:
                        pop(heap)
                        queue.skipped_cancelled += 1
                        event.callback = None
                        if len(free) < _FREELIST_MAX:
                            free.append(event)
                        continue
                    when = head[0]
                    if when < self.now:
                        raise RuntimeError(
                            f"event {event.name!r} scheduled at {when} "
                            f"but time already at {self.now}"
                        )
                    pop(heap)
                    self.now = when
                    event.callback()
                    event.callback = None
                    if len(free) < _FREELIST_MAX:
                        free.append(event)
                    ran += 1
                executed += ran
                if not drained and executed >= max_events:
                    if not quiesce():
                        raise RuntimeError(
                            f"run_until_idle exhausted max_events="
                            f"{max_events} before quiescing"
                        )
                    break
        finally:
            self.events_executed += executed
            if len(free) > self.freelist_high_water:
                self.freelist_high_water = len(free)
            self._running = False
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (including cancelled)."""
        return len(self.queue)

    def diagnostics(self) -> dict:
        """Run-health counters (all reset by :meth:`reset`)."""
        return {
            "events_executed": self.events_executed,
            "events_skipped": self.events_skipped,
            "freelist_high_water": self.freelist_high_water,
        }
