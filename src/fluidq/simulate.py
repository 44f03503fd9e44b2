"""Event-driven simulation of the n-server FCFS queue with a common
state-dependent service rate.

Everything in service drains at rate k(X/n), where X is the number of
customers in the system, and X only changes at events, so the rate is
piecewise constant and every departure time is exact.  Remaining work is
tracked through a single cumulative drain offset: a customer entering
service at offset o with requirement v departs when the offset reaches
o + v.  Events therefore cost O(log m) with m customers in service, and the
work integral over any service interval is an exact difference of offsets.

X moves by +-1, so each simulator tabulates k(X/n) per integer count on
first use and never evaluates the rate function twice at one count.  The
run loop peeks the next event time once per event and hands that peek to
the step that processes the event.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .laws import ArrivalLaw, RateFunction, ServiceLaw
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

    ``heap`` holds (finish_offset, customer_index) for customers in
    service, ordered by when the cumulative drain will reach them.
    ``started`` is the index of the last customer to have entered service,
    which always equals arrivals - queue length (initial customers carry
    indices <= 0).
    """

    n: int
    clock: float = 0.0
    drained: float = 0.0
    heap: list = field(default_factory=list)
    queue: deque = field(default_factory=deque)
    arrivals: int = 0
    departures: int = 0
    started: int = 0
    count: int = 0
    initial_count: int = 0
    records: dict = field(default_factory=dict)

    @property
    def in_service(self) -> int:
        return len(self.heap)

    @property
    def queue_length(self) -> int:
        return len(self.queue)

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
        if self.heap and self.heap[0][0] - self.drained < -RESIDUAL_TOL:
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
        heappush(state.heap, (v, idx))
        state.records[idx] = CustomerRecord(
            requirement=v, arrival_time=None, start_time=0.0, start_drained=0.0
        )
        idx += 1
    for v in queue_requirements:
        state.queue.append((idx, v))
        state.records[idx] = CustomerRecord(requirement=v, arrival_time=None)
        idx += 1
    state.check()
    return state


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
    if in_service == 0:
        residuals = np.empty(0)
    else:
        levels = rng.uniform(0.0, z0, in_service)
        residuals = initial_tail.inverse(levels)
        while np.any(residuals <= 0.0):
            bad = residuals <= 0.0
            residuals[bad] = initial_tail.inverse(rng.uniform(0.0, z0, int(bad.sum())))
    reqs = service.sample(rng, queue_count) if queue_count else np.empty(0)
    return list(residuals), list(reqs)


@dataclass
class Snapshot:
    time: float
    measure: AtomicMeasure          # residual-work measure, one atom per customer
    drained: float                  # cumulative drain at the snapshot time


@dataclass
class Trajectory:
    """Event log plus paths sampled on a reporting grid.

    Columns: count (in system), queue, in_service, started (index of the
    last customer to enter service) and drained (cumulative per-server
    work).  Counts are unscaled integers.
    """

    n: int
    horizon: float
    times: np.ndarray
    count: np.ndarray
    queue: np.ndarray
    in_service: np.ndarray
    started: np.ndarray
    drained: np.ndarray
    events: list
    snapshots: list
    records: dict
    initial_count: int


class _GapStream:
    """Arrival gaps from a law (scaled by 1/n) or an explicit time list."""

    def __init__(self, arrivals, n, rng):
        self._n = n
        self._rng = rng
        self._law = None
        self._times = None
        self._pos = 0
        self._buf = np.empty(0)
        self._last = 0.0  # renewal clock starts at time zero
        if arrivals is None:
            self._next = math.inf
        elif isinstance(arrivals, ArrivalLaw):
            self._law = arrivals
            self._next = math.inf if arrivals.rate == 0.0 else self._last + self._draw() / n
        else:
            self._times = [float(t) for t in arrivals]
            if any(b < a for a, b in zip(self._times, self._times[1:])):
                raise ValueError("explicit arrival times must be nondecreasing")
            self._next = self._times[0] if self._times else math.inf

    def _draw(self) -> float:
        if self._pos >= self._buf.size:
            self._buf = self._law.sample_gaps(self._rng, 1024)
            self._pos = 0
        g = float(self._buf[self._pos])
        self._pos += 1
        return g

    @property
    def next_time(self) -> float:
        return self._next

    def advance(self):
        if self._law is not None:
            self._last = self._next
            self._next = self._last + self._draw() / self._n
        else:
            self._pos += 1
            self._next = (
                self._times[self._pos] if self._pos < len(self._times) else math.inf
            )


class _RequirementStream:
    """Service requirements in arrival-index order."""

    def __init__(self, service, rng):
        self._law = None
        self._list = None
        self._pos = 0
        self._buf = np.empty(0)
        if isinstance(service, ServiceLaw):
            self._law = service
            self._rng = rng
        else:
            self._list = [float(v) for v in service]

    def draw(self) -> float:
        if self._law is not None:
            if self._pos >= self._buf.size:
                self._buf = self._law.sample(self._rng, 1024)
                self._pos = 0
            v = float(self._buf[self._pos])
            self._pos += 1
            return v
        if self._pos >= len(self._list):
            raise ValueError("explicit requirement list exhausted")
        v = self._list[self._pos]
        self._pos += 1
        return v


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
        ss = np.random.SeedSequence(seed)
        arr_seed, svc_seed = ss.spawn(2)
        self._gaps = _GapStream(arrivals, n, np.random.default_rng(arr_seed))
        self._reqs = _RequirementStream(service, np.random.default_rng(svc_seed))
        self._rates: dict = {}  # count c -> float(rate(c / n)), filled on first use

    # -- event machinery --------------------------------------------------

    def _current_rate(self) -> float:
        c = self.state.count
        r = self._rates.get(c)
        if r is None:
            r = self._rates[c] = float(self.rate(c / self.n))
        return r

    def _departure_time(self, r: float) -> float:
        s = self.state
        if not s.heap or r <= 0.0:
            return math.inf
        return s.clock + (s.heap[0][0] - s.drained) / r

    def peek_next_time(self):
        r = self._current_rate()
        return r, self._departure_time(r), self._gaps.next_time

    def _step(self, r: float, dep: float, arr: float) -> list:
        """Advance to the next event given the current
        ``peek_next_time()``; departures win ties with arrivals.

        Returns the list of log entries produced (simultaneous departures
        come out as one event, ordered by customer index) or an empty list
        when no further event can occur.
        """
        s = self.state
        if min(dep, arr) == math.inf:
            return []
        out = []
        if dep <= arr:
            target = s.heap[0][0]
            s.clock = dep
            s.drained = target  # exact: kills accumulation drift
            leaving = []
            while s.heap and s.heap[0][0] <= s.drained + RESIDUAL_TOL:
                key, idx = heappop(s.heap)
                leaving.append(idx)
            leaving.sort()
            for idx in leaving:
                s.departures += 1
                s.count -= 1
                rec = s.records[idx]
                rec.departure_time = dep
                rec.departure_drained = s.drained
                out.append(Event(dep, DEPARTURE, idx))
            while s.queue and len(s.heap) < s.n:
                idx, v = s.queue.popleft()
                if idx != s.started + 1:
                    raise AssertionError("FCFS violated in queue admission")
                s.started = idx
                heappush(s.heap, (s.drained + v, idx))
                rec = s.records[idx]
                rec.start_time = dep
                rec.start_drained = s.drained
                out.append(Event(dep, START, idx))
        else:
            s.drained += r * (arr - s.clock)
            s.clock = arr
            s.arrivals += 1
            idx = s.arrivals
            v = self._reqs.draw()
            if v <= 0:
                raise ValueError("service requirement must be positive")
            s.records[idx] = CustomerRecord(requirement=v, arrival_time=arr)
            s.count += 1
            out.append(Event(arr, ARRIVAL, idx))
            if len(s.heap) < s.n:
                if idx != s.started + 1:
                    raise AssertionError("FCFS violated on direct entry")
                s.started = idx
                heappush(s.heap, (s.drained + v, idx))
                rec = s.records[idx]
                rec.start_time = arr
                rec.start_drained = s.drained
                out.append(Event(arr, START, idx))
            else:
                s.queue.append((idx, v))
            self._gaps.advance()
        s.check()
        return out

    def snapshot(self, at_time: Optional[float] = None) -> Snapshot:
        """Residual-work measure at ``at_time`` (>= clock, before the next
        event); defaults to the current clock."""
        s = self.state
        t = s.clock if at_time is None else at_time
        r = self._current_rate()
        drained = s.drained + r * (t - s.clock)
        locs = np.fromiter((key - drained for key, _ in s.heap), dtype=float, count=len(s.heap))
        return Snapshot(time=t, measure=AtomicMeasure(locs, np.ones_like(locs)), drained=drained)

    def run(
        self,
        horizon: float,
        grid: Optional[Sequence[float]] = None,
        snapshot_times: Sequence[float] = (),
    ) -> Trajectory:
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        if grid is None:
            grid = np.linspace(0.0, horizon, 101) if horizon > 0 else np.array([0.0])
        grid = np.asarray(grid, dtype=float).tolist()
        snaps_at = sorted(float(t) for t in snapshot_times)
        s = self.state
        events: list = []
        rows = {k: [] for k in ("t", "count", "queue", "zsrv", "started", "drained")}
        snapshots: list = []
        gi = si = 0
        while True:
            r, dep, arr = self.peek_next_time()
            t_next = min(dep, arr)
            while gi < len(grid) and grid[gi] <= horizon and grid[gi] < t_next:
                g = grid[gi]
                rows["t"].append(g)
                rows["count"].append(s.count)
                rows["queue"].append(s.queue_length)
                rows["zsrv"].append(s.in_service)
                rows["started"].append(s.started)
                rows["drained"].append(s.drained + r * (g - s.clock))
                gi += 1
            while si < len(snaps_at) and snaps_at[si] <= horizon and snaps_at[si] < t_next:
                snapshots.append(self.snapshot(snaps_at[si]))
                si += 1
            if t_next > horizon or t_next == math.inf:
                break
            events.extend(self._step(r, dep, arr))
        return Trajectory(
            n=self.n,
            horizon=horizon,
            times=np.array(rows["t"]),
            count=np.array(rows["count"], dtype=np.int64),
            queue=np.array(rows["queue"], dtype=np.int64),
            in_service=np.array(rows["zsrv"], dtype=np.int64),
            started=np.array(rows["started"], dtype=np.int64),
            drained=np.array(rows["drained"]),
            events=events,
            snapshots=snapshots,
            records=s.records,
            initial_count=s.initial_count,
        )
