"""Event-driven simulation of the n-server FCFS queue with a common
state-dependent service rate.

Everything in service drains at rate k(X/n), where X is the number of
customers in the system, and X only changes at events, so the rate is
piecewise constant and every departure time is exact.  Remaining work is
tracked through a single cumulative drain offset: a customer entering
service at offset o with requirement v departs when the offset reaches
o + v.  The customers in service are a heap of these finish offsets, bare
floats, so the residual-work measure is the heap's keys less the drain.
Events therefore cost O(log m) float comparisons with m customers in
service, and the work integral over any service interval is an exact
difference of offsets.  Which customer holds an offset is looked up only
by runs that record.

X moves by +-1, so each simulator tabulates k(X/n) per integer count on
first use and never evaluates the rate function twice at one count.
Arrival times and requirements are drawn 1024 at a time and handed out
by ``itertools.chain``, so no Python frame resumes per customer.
``Simulator.run`` is one loop over locals: each event costs one rate
lookup, a departure-time division, one comparison against the next
arrival and one against the next grid-or-snapshot time, the event itself
(one heap pop per departure), and the state invariants tested as integer
comparisons.  The event log and the customer records are kept on request.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, repeat
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .laws import ArrivalLaw, RateFunction, ServiceLaw, _positive
from .measures import AtomicMeasure, TailFunction

RESIDUAL_TOL = 1e-12  # residual work at or below this counts as finished

ARRIVAL = "arrival"
START = "start_service"
DEPARTURE = "departure"


class Event(NamedTuple):
    time: float
    kind: str
    customer: int


@dataclass
class CustomerRecord:
    requirement: float
    arrival_time: Optional[float]  # None for customers present at time 0
    start_time: Optional[float] = None
    start_drained: Optional[float] = None
    departure_time: Optional[float] = None
    departure_drained: Optional[float] = None


@dataclass
class SimState:
    """Full queue state; counters are exact integers.

    ``heap`` is a heap of the finish offsets of the customers in service,
    bare floats: a customer's residual work is its offset less
    ``drained``.  ``serving`` maps each finish offset to the indices of
    the customers in service with that offset, a list because offsets can
    tie exactly.  ``init`` fills it and only runs that record update it,
    so it is current while ``unrecorded_events`` is 0, the only time
    anything reads it.  ``started`` is the index of the last customer to
    have entered service, which always equals arrivals - queue length
    (initial customers carry indices <= 0).  ``records`` stays empty
    until the first run that records, which enters the customers present
    at time 0 from ``serving`` and ``queue``; a run adds to and updates
    it only when it records.  ``unrecorded_events`` counts the events of
    runs that did not record, which left no trace in ``records`` or
    ``serving``.
    """

    n: int
    clock: float = 0.0
    drained: float = 0.0
    heap: list = field(default_factory=list)
    serving: dict = field(default_factory=dict)
    queue: deque = field(default_factory=deque)
    arrivals: int = 0
    departures: int = 0
    started: int = 0
    count: int = 0
    initial_count: int = 0
    records: dict = field(default_factory=dict)
    unrecorded_events: int = 0

    def check(self):
        busy = len(self.heap)
        waiting = len(self.queue)
        if self.count != busy + waiting:
            raise AssertionError("count != in service + queue")
        if waiting != max(self.count - self.n, 0):
            raise AssertionError("queue length violates work conservation")
        if busy != min(self.count, self.n):
            raise AssertionError("busy servers != min(count, n)")
        if self.started != self.arrivals - waiting:
            raise AssertionError("start counter out of sync")
        if self.heap and self.heap[0] - self.drained < -RESIDUAL_TOL:
            raise AssertionError("negative residual work: internal bug")


def init(n: int, residuals: Sequence[float] = (), queue_requirements: Sequence[float] = ()) -> SimState:
    """Initial state: ``residuals`` for customers already in service,
    ``queue_requirements`` for customers waiting, head first.

    Customers present at time 0 get indices -X0+1 .. 0, the in-service
    block first, so that the waiting customer served next has index
    started + 1.
    """
    if n < 1:
        raise ValueError("need at least one server")
    residuals = [float(v) for v in residuals]
    queue_requirements = [float(v) for v in queue_requirements]
    if any(v <= 0 for v in residuals) or any(v <= 0 for v in queue_requirements):
        raise ValueError("initial work amounts must be positive")
    if len(residuals) > n:
        raise ValueError("more initial customers in service than servers")
    if queue_requirements and len(residuals) != n:
        raise ValueError("a nonempty initial queue requires all servers busy")
    q0 = len(queue_requirements)
    x0 = len(residuals) + q0
    state = SimState(n=n, started=-q0, count=x0, initial_count=x0)
    idx = -x0 + 1
    for v in residuals:
        heappush(state.heap, v)
        state.serving.setdefault(v, []).append(idx)
        idx += 1
    for v in queue_requirements:
        state.queue.append((idx, v))
        idx += 1
    state.check()
    return state


def _initial_records(state: SimState) -> dict:
    """Records of the customers present at time 0, in index order, read
    off a state that no event has touched: ``serving`` is then as ``init``
    filled it, and each of its offsets is its customers' requirement."""
    records = {}
    for idx, v in sorted((idx, v) for v, held in state.serving.items() for idx in held):
        records[idx] = CustomerRecord(
            requirement=v, arrival_time=None, start_time=0.0, start_drained=0.0
        )
    for idx, v in state.queue:
        records[idx] = CustomerRecord(requirement=v, arrival_time=None)
    return records


def sample_initial(
    initial_tail: TailFunction,
    queue_mass: float,
    n: int,
    service: ServiceLaw,
    rng: np.random.Generator,
):
    """Draw an n-scale initial condition whose fluid scaling matches the
    given tail function and queue mass.

    In-service residuals are inverse-transform samples from the normalized
    tail; waiting customers get fresh requirements from the service law.
    """
    z0 = initial_tail.total_mass
    if z0 > 1.0 + 1e-9:
        raise ValueError("initial in-service mass exceeds server capacity")
    in_service = min(n, int(round(n * z0)))
    queue_count = int(round(n * queue_mass))
    if queue_count > 0 and in_service != n:
        raise ValueError("initial queue mass requires full initial tail")
    # a level within two ulps of z0 rounds to x = 0 and is drawn again
    draw = lambda r, size: initial_tail.inverse(r.uniform(0.0, z0, size))
    residuals = _positive(draw, rng, in_service)
    reqs = service.sample(rng, queue_count) if queue_count else np.empty(0)
    return list(residuals), list(reqs)


@dataclass
class Snapshot:
    time: float
    measure: AtomicMeasure          # residual-work measure, one atom per customer
    drained: float                  # cumulative drain at the snapshot time


@dataclass
class Trajectory:
    """Paths sampled on a reporting grid, residual-work snapshots and,
    when the run records, the event log and customer records.

    Columns: count (in system), queue, in_service, started (index of the
    last customer to enter service) and drained (cumulative per-server
    work).  Counts are unscaled integers; queue and in_service are
    (count - n)^+ and min(count, n).  The paths are right-continuous: a
    point at an event's time sees the state after it.  ``event_count`` is
    the number of log entries (arrivals, service starts, departures) the
    run made, recorded or not; without recording ``events`` and
    ``records`` are empty.
    """

    n: int
    horizon: float
    times: np.ndarray
    count: np.ndarray
    queue: np.ndarray
    in_service: np.ndarray
    started: np.ndarray
    drained: np.ndarray
    event_count: int
    events: list
    snapshots: list
    records: dict
    initial_count: int


def _upto(times: list, horizon: float) -> list:
    """The leading run of ``times`` at or before ``horizon``, then inf."""
    k = 0
    while k < len(times) and times[k] <= horizon:
        k += 1
    return times[:k] + [math.inf]


def _arrival_chunks(arrivals, n, rng):
    """A law's arrival times in lists of 1024.  ``np.cumsum`` adds left to
    right, so each time is the float of ``last = last + g / n``."""
    times = np.zeros(1)  # the clock starts at zero
    while True:
        gaps = arrivals.sample_gaps(rng, 1024) / n
        with np.errstate(over="ignore"):  # to inf, as a Python float sum does
            times = np.cumsum(np.concatenate((times[-1:], gaps)))[1:]
        yield times.tolist()


def _arrival_times(arrivals, n, rng):
    """Arrival times, then inf forever: renewal gaps from a law scaled by
    1/n on a clock that starts at zero, or an explicit list of floats."""
    if isinstance(arrivals, ArrivalLaw) and arrivals.rate != 0.0:  # a zero rate never arrives
        return chain.from_iterable(_arrival_chunks(arrivals, n, rng))
    return chain(arrivals if isinstance(arrivals, list) else (), repeat(math.inf))


def _exhausted():
    raise ValueError("explicit requirement list exhausted")


def _requirements(service, rng):
    """Service requirements in arrival-index order, from a law in chunks of
    1024 or from an explicit list of floats, past whose end a draw raises."""
    if isinstance(service, ServiceLaw):
        return chain.from_iterable(iter(lambda: service.sample(rng, 1024).tolist(), None))
    return chain(service, iter(_exhausted, None))


class Simulator:
    """Stateful driver; one instance per run, never shared."""

    def __init__(
        self,
        n: int,
        service: Union[ServiceLaw, Sequence[float]],
        rate: RateFunction,
        arrivals: Union[ArrivalLaw, Sequence[float], None] = None,
        state: Optional[SimState] = None,
        seed: int = 0,
    ):
        self.n = n
        self.rate = rate
        self.state = state if state is not None else init(n)
        if self.state.n != n:
            raise ValueError("state was built for a different server count")
        if arrivals is not None and not isinstance(arrivals, ArrivalLaw):
            arrivals = [float(t) for t in arrivals]
            if any(b < a for a, b in zip(arrivals, arrivals[1:])):
                raise ValueError("explicit arrival times must be nondecreasing")
        if not isinstance(service, ServiceLaw):
            service = [float(v) for v in service]
        ss = np.random.SeedSequence(seed)
        arr_seed, svc_seed = ss.spawn(2)
        self._arrivals = _arrival_times(arrivals, n, np.random.default_rng(arr_seed))
        self._next_arrival = next(self._arrivals)
        self._requirements = _requirements(service, np.random.default_rng(svc_seed))
        self._rates: dict = {}  # count c -> float(rate(c / n)), filled on first use

    def run(
        self,
        horizon: float,
        grid: Optional[Sequence[float]] = None,
        snapshot_times: Sequence[float] = (),
        record: bool = False,
    ) -> Trajectory:
        """Process every event up to ``horizon``; departures win ties with
        arrivals, and simultaneous departures are one event, logged in
        customer-index order.

        Counters are sampled at the ``grid`` points (101 points on
        [0, horizon] by default) and the residual-work measure at
        ``snapshot_times``; a point at time t sees the state after every
        event at t.  A snapshot residual within ``RESIDUAL_TOL`` below 0
        reads 0.  The points from the first one past the horizon on are
        dropped.  The event log, the customer records and the state's
        ``serving`` map are kept only with ``record``.  A state that has
        run events without ``record`` refuses it from then on, since those
        events left no records to update and ``serving`` stale.

        The loop keeps the state's scalars in locals and writes them back
        when it stops.  After every event it tests the five invariants of
        ``SimState.check`` as integer comparisons and stops at the first
        broken one, which the closing ``check`` then names.  A grid point
        stores count, started and drained; queue and in_service follow.
        """
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        s = self.state
        if record and s.unrecorded_events:
            raise ValueError(
                f"cannot record: an earlier run on this state processed {s.unrecorded_events} "
                "events without record=True, so their customers have no CustomerRecord"
            )
        if record and not s.records:
            # no earlier run ran an event: an unrecorded one was refused
            # above and a recorded one left records, so heap and queue are
            # as init left them
            s.records = _initial_records(s)
        if grid is None:
            grid = np.linspace(0.0, horizon, 101) if horizon > 0 else np.array([0.0])
        grid = _upto(np.asarray(grid, dtype=float).tolist(), horizon)
        snaps_at = _upto(sorted(float(t) for t in snapshot_times), horizon)
        n = self.n
        heap, serving, queue, records = s.heap, s.serving, s.queue, s.records
        clock, drained = s.clock, s.drained
        arrivals, departures, started, count = s.arrivals, s.departures, s.started, s.count
        counters_before = arrivals + departures + started
        rates, rate_fn = self._rates, self.rate
        next_arrival, draw = self._arrivals.__next__, self._requirements.__next__
        inf = math.inf
        neg_tol = -RESIDUAL_TOL
        events, snapshots, counts, starts, drains = [], [], [], [], []
        gi = si = 0
        t_sample = min(grid[0], snaps_at[0])  # next grid or snapshot time
        arr = self._next_arrival
        try:
            while True:
                r = rates.get(count)  # k(count / n), tabulated per count on first use
                if r is None:
                    r = rates[count] = float(rate_fn(count / n))
                dep = inf if not heap or r <= 0.0 else clock + (heap[0] - drained) / r
                t_next = dep if dep <= arr else arr
                if t_sample < t_next:
                    while grid[gi] < t_next:
                        counts.append(count)
                        starts.append(started)
                        drains.append(drained + r * (grid[gi] - clock))
                        gi += 1
                    while snaps_at[si] < t_next:
                        t = snaps_at[si]
                        d = drained + r * (t - clock)
                        if heap and heap[0] - d < neg_tol:  # d may round past heap[0] near a departure
                            raise AssertionError("negative residual work: internal bug")
                        locs = np.maximum(np.array(heap, dtype=float) - d, 0.0)
                        snapshots.append(Snapshot(t, AtomicMeasure(locs, np.ones_like(locs)), d))
                        si += 1
                    t_sample = min(grid[gi], snaps_at[si])
                if t_next > horizon or t_next == inf:
                    break
                if dep <= arr:
                    clock = dep
                    drained = heappop(heap)  # exact: kills accumulation drift
                    gone = [drained]
                    while heap and heap[0] <= drained + RESIDUAL_TOL:  # ties
                        gone.append(heappop(heap))
                    departures += len(gone)
                    count -= len(gone)
                    if record:
                        # every customer at a popped offset left with it
                        leaving = [idx for key in set(gone) for idx in serving.pop(key)]
                        for idx in sorted(leaving):
                            rec = records[idx]
                            rec.departure_time = dep
                            rec.departure_drained = drained
                            events.append(Event(dep, DEPARTURE, idx))
                    while queue and len(heap) < n:
                        idx, v = queue.popleft()
                        if idx != started + 1:
                            raise AssertionError("FCFS violated in queue admission")
                        started = idx
                        key = drained + v
                        heappush(heap, key)
                        if record:
                            serving.setdefault(key, []).append(idx)
                            rec = records[idx]
                            rec.start_time = dep
                            rec.start_drained = drained
                            events.append(Event(dep, START, idx))
                else:
                    drained += r * (arr - clock)
                    clock = arr
                    arrivals += 1
                    idx = arrivals
                    v = draw()
                    if v <= 0:
                        raise ValueError("service requirement must be positive")
                    count += 1
                    if record:
                        rec = records[idx] = CustomerRecord(requirement=v, arrival_time=arr)
                        events.append(Event(arr, ARRIVAL, idx))
                    if len(heap) < n:
                        if idx != started + 1:
                            raise AssertionError("FCFS violated on direct entry")
                        started = idx
                        key = drained + v
                        heappush(heap, key)
                        if record:
                            serving.setdefault(key, []).append(idx)
                            rec.start_time = arr
                            rec.start_drained = drained
                            events.append(Event(arr, START, idx))
                    else:
                        queue.append((idx, v))
                    arr = next_arrival()
                busy = len(heap)
                waiting = len(queue)
                if (count != busy + waiting
                        or waiting != (count - n if count > n else 0)
                        or busy != (count if count < n else n)
                        or started != arrivals - waiting
                        or (heap and heap[0] - drained < neg_tol)):
                    break
        finally:
            s.clock, s.drained = clock, drained
            s.arrivals, s.departures, s.started, s.count = arrivals, departures, started, count
            if not record:
                s.unrecorded_events += arrivals + departures + started - counters_before
            self._next_arrival = arr
        s.check()
        count_path = np.array(counts, dtype=np.int64)
        return Trajectory(
            n=n,
            horizon=horizon,
            times=np.array(grid[:gi]),
            count=count_path,
            queue=np.maximum(count_path - n, 0),
            in_service=np.minimum(count_path, n),
            started=np.array(starts, dtype=np.int64),
            drained=np.array(drains),
            event_count=arrivals + departures + started - counters_before,
            events=events,
            snapshots=snapshots,
            records=records if record else {},
            initial_count=s.initial_count,
        )
