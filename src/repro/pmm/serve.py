"""Inference serving simulation (§3.4, §5.5).

The paper deploys PMM behind torchserve on a GPU VM; Syzkaller submits
mutation queries over gRPC and continues fuzzing while inference is
pending.  This module reproduces that architecture against the virtual
clock: a fixed pool of server slots, each serving one request at a time
with the configured latency.  ``submit`` returns the virtual time at
which the prediction becomes available; ``poll`` hands back completed
predictions.  Saturation throughput is ``servers / latency`` — with the
paper's 0.69 s latency, 39 slots give the measured ≈57 queries/second.

The service is resilient by construction (the deployment's replicas
time out and crash, §5.5):

- prediction evaluation is **deferred** to ``poll`` — a request that is
  lost to an injected timeout or slot crash never computes (or pays
  for) a prediction that would be discarded;
- each request carries a **deadline** and is retried with exponential
  backoff in virtual time, up to ``max_retries`` times, all on the
  seeded :class:`~repro.faults.FaultInjector` schedule;
- a :class:`~repro.faults.CircuitBreaker` trips after consecutive
  delivery failures; while open, ``submit`` rejects immediately and the
  fuzzer routes localization to its heuristic fallback until a
  half-open probe succeeds;
- failures are observable: ``drain_failures`` hands back the lost
  queries, and :class:`InferenceStats` counts rejections, timeouts,
  slot crashes, retries, and breaker transitions, and records the full
  queue-delay distribution plus a batch-size histogram.

:class:`BatchingInferenceService` adds **dynamic batching** on top: the
GPU tier amortizes its fixed per-pass cost over many requests, so
requests queue until ``max_batch_size`` accumulate or ``batch_timeout``
virtual seconds elapse, and a batch of ``b`` occupies one slot for
``base_latency + b * marginal_latency``.  Saturation throughput rises
from ``servers / latency`` to
``servers * max_batch_size / latency_of(max_batch_size)`` — the
mechanism that lets one serving tier absorb a whole fuzzing fleet's
query stream.  Under fault injection a failed slot loses the *whole*
batch; retries re-enqueue the member requests individually.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import InferenceTimeout, ModelError
from repro.faults import CircuitBreaker, FaultInjector
from repro.observe import (
    CounterView,
    LabeledCounterMap,
    MetricsRegistry,
    Tracer,
)

__all__ = [
    "BatchingInferenceService",
    "InferenceService",
    "InferenceStats",
    "PendingPrediction",
]

# Failure kinds a request can be lost to.
TIMEOUT = "timeout"
SLOT_CRASH = "slot_crash"


class InferenceStats(CounterView):
    """Serving counters for the §5.5 characterisation.

    ``rejected`` counts queue-full rejections (previously silent),
    ``breaker_rejections`` counts submissions refused by an open
    circuit breaker; both send the fuzzer down its heuristic path.

    Backed by a :class:`~repro.observe.MetricsRegistry`: counters are
    ``serve.*`` series, the queue-delay distribution is a streaming
    histogram (``serve.queue_delay`` — p50/p95/p99 without storing
    samples), and the dispatched-batch-size histogram is the labeled
    family ``serve.batches{size=...}``.  The attribute surface of the
    old dataclass is preserved as thin views.
    """

    PREFIX = "serve"
    COUNTERS = (
        "submitted",
        "completed",
        "rejected",
        "shed",
        "breaker_rejections",
        "timeouts",
        "slot_crashes",
        "retries",
        "failures",
        "breaker_trips",
    )

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        labels: dict | None = None,
    ):
        super().__init__(registry, labels)
        self._latency = self.registry.counter(
            "serve.total_latency", **self.labels
        )
        # One sample per dispatched request (per attempt under batching),
        # so the tail of the queueing distribution is observable, not
        # just the mean.
        self._queue_delay = self.registry.histogram(
            "serve.queue_delay", **self.labels
        )
        # The unbatched service dispatches every request as a batch of 1.
        self._batch_sizes = LabeledCounterMap(
            self.registry, "serve.batches", "size", self.labels, key_type=int
        )
        self.breaker_state = "closed"

    @property
    def total_latency(self) -> float:
        return self._latency.value

    @total_latency.setter
    def total_latency(self, value: float) -> None:
        self._latency.set(value)

    @property
    def total_queue_delay(self) -> float:
        return self._queue_delay.total

    @property
    def queue_delay(self):
        """The underlying streaming histogram (``serve.queue_delay``)."""
        return self._queue_delay

    @property
    def batch_sizes(self):
        """{batch size: batches dispatched} view."""
        return self._batch_sizes

    @batch_sizes.setter
    def batch_sizes(self, mapping) -> None:
        self._batch_sizes.replace(
            {int(size): count for size, count in mapping.items()}
        )

    @property
    def mean_latency(self) -> float:
        """Mean submit→delivery latency of *completed* requests."""
        return self.total_latency / self.completed if self.completed else 0.0

    @property
    def mean_queue_delay(self) -> float:
        """Mean wait for dispatch, over all dispatched requests."""
        return self._queue_delay.mean

    @property
    def p50_queue_delay(self) -> float:
        return self._queue_delay.p50

    @property
    def p95_queue_delay(self) -> float:
        return self._queue_delay.p95

    @property
    def max_queue_delay(self) -> float:
        return self._queue_delay.vmax

    @property
    def mean_batch_size(self) -> float:
        """Mean size of dispatched batches (1.0 for unbatched serving)."""
        sizes = dict(self._batch_sizes)
        batches = sum(sizes.values())
        if not batches:
            return 0.0
        weighted = sum(size * count for size, count in sizes.items())
        return weighted / batches

    def record_queue_delay(self, delay: float) -> None:
        # Cross-worker virtual-clock skew in a shared tier can dispatch
        # a batch marginally "before" a laggard's request arrived; the
        # distribution tracks real waiting, so skew clamps to zero.
        self._queue_delay.add(max(0.0, delay))

    def record_batch(self, size: int) -> None:
        self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1

    # ----- checkpointing -----

    def state_dict(self) -> dict:
        return {
            "counters": self.counter_values(),
            "breaker_state": self.breaker_state,
            "total_latency": self.total_latency,
            "queue_delay": self._queue_delay.state_dict(),
            "batch_sizes": {
                str(size): count for size, count in self._batch_sizes.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self.restore_counters(state["counters"])
        self.breaker_state = state["breaker_state"]
        self.total_latency = float(state["total_latency"])
        self._queue_delay.restore(state["queue_delay"])
        self.batch_sizes = state["batch_sizes"]


@dataclass(order=True)
class PendingPrediction:
    ready_at: float
    sequence: int
    payload: object = field(compare=False)
    submitted_at: float = field(compare=False, default=0.0)
    # None for a request that will deliver; TIMEOUT/SLOT_CRASH for one
    # whose every attempt was lost (``ready_at`` is then the virtual
    # time the failure is *observed*, after retries and backoff).
    failure: str | None = field(compare=False, default=None)
    attempts: int = field(compare=False, default=1)


class InferenceService:
    """A virtual-time model server with a fixed slot pool."""

    def __init__(
        self,
        predict_fn,
        latency: float,
        servers: int = 4,
        max_queue: int = 256,
        deadline: float | None = None,
        max_retries: int = 0,
        retry_backoff: float | None = None,
        injector: FaultInjector | None = None,
        breaker: CircuitBreaker | None = None,
        strict: bool = False,
        shed_timeout: float | None = None,
        registry: MetricsRegistry | None = None,
        labels: dict | None = None,
        tracer: Tracer | None = None,
        track: str = "serve",
    ):
        if latency <= 0:
            raise ModelError(f"latency must be positive, got {latency}")
        if servers < 1:
            raise ModelError(f"need at least one server, got {servers}")
        if deadline is not None and deadline <= 0:
            raise ModelError(f"deadline must be positive, got {deadline}")
        if max_retries < 0:
            raise ModelError(f"max_retries must be >= 0, got {max_retries}")
        if shed_timeout is not None and shed_timeout <= 0:
            raise ModelError(
                f"shed_timeout must be positive, got {shed_timeout}"
            )
        self.predict_fn = predict_fn
        self.latency = latency
        self.servers = servers
        self.max_queue = max_queue
        self.deadline = deadline
        self.max_retries = max_retries
        # First-retry delay; subsequent retries double it.
        self.retry_backoff = latency if retry_backoff is None else retry_backoff
        self.injector = injector
        self.breaker = breaker
        self.strict = strict
        # Deadline-aware load shedding: a submission whose projected
        # wait for a free slot exceeds this is refused up front (the
        # caller degrades to its heuristic path) instead of queueing
        # work that would arrive too late to matter.  None disables.
        self.shed_timeout = shed_timeout
        self.stats = InferenceStats(registry=registry, labels=labels)
        self.tracer = tracer
        self.track = track
        self._server_free = [0.0] * servers
        self._pending: list[PendingPrediction] = []
        self._failures: list[tuple[object, str]] = []
        self._sequence = 0

    @property
    def saturation_throughput(self) -> float:
        """Queries/second the pool can sustain."""
        return self.servers / self.latency

    def submit(self, query, now: float) -> float | None:
        """Enqueue a query at virtual time ``now``.

        Returns the delivery time (success or observed failure), or None
        when the request is rejected — queue full, or circuit breaker
        open — in which case the fuzzer falls back to heuristic
        mutation for this base.
        """
        if self.breaker is not None and not self.breaker.allow(now):
            self.stats.breaker_rejections += 1
            self._sync_breaker()
            return None
        if len(self._pending) >= self.max_queue:
            self.stats.rejected += 1
            if self.breaker is not None:
                # The breaker admitted this request (possibly as its
                # half-open probe); un-reserve the probe so the next
                # submission can carry it instead.
                self.breaker.cancel_probe()
            return None
        if self._shed(now):
            return None
        slot = min(range(self.servers), key=lambda i: self._server_free[i])
        first_start = max(now, self._server_free[slot])
        start = first_start
        failure: str | None = None
        attempts = 0
        while True:
            attempts += 1
            failure = self._attempt_failure(start)
            if failure is None:
                ready = start + self.latency
                break
            # A timed-out attempt is detected after the request deadline;
            # a crashed slot only after the full service latency.
            detection = (
                self.deadline
                if failure == TIMEOUT and self.deadline is not None
                else self.latency
            )
            if attempts > self.max_retries:
                ready = start + detection
                break
            self.stats.retries += 1
            start = start + detection + self.retry_backoff * 2 ** (attempts - 1)
        self._server_free[slot] = ready
        self._sequence += 1
        heapq.heappush(
            self._pending,
            PendingPrediction(
                ready_at=ready, sequence=self._sequence, payload=query,
                submitted_at=now, failure=failure, attempts=attempts,
            ),
        )
        self.stats.submitted += 1
        self.stats.record_queue_delay(first_start - now)
        self.stats.record_batch(1)
        return ready

    def _shed(self, now: float) -> bool:
        """Deadline-aware admission control at submit time.

        The projected wait is how long the earliest-free slot stays
        busy; when that already exceeds ``shed_timeout`` the request is
        shed — counted separately from queue-full ``rejected`` — and
        the caller degrades to its heuristic path immediately instead
        of waiting on a saturated tier.
        """
        if self.shed_timeout is None:
            return False
        projected = min(self._server_free) - now
        if projected <= self.shed_timeout:
            return False
        self.stats.shed += 1
        if self.breaker is not None:
            self.breaker.cancel_probe()
        if self.tracer is not None:
            self.tracer.instant(
                self.track, "shed", now, cat="serve", wait=projected,
            )
        return True

    def poll(self, now: float) -> list[tuple[object, object]]:
        """All (query, prediction) pairs delivered by time ``now``.

        Predictions are computed here, lazily: requests lost to injected
        faults never invoke ``predict_fn``.  Lost queries are recorded
        for :meth:`drain_failures` and, in strict mode, raise
        :class:`~repro.errors.InferenceTimeout` instead.
        """
        done: list[tuple[object, object]] = []
        while self._pending and self._pending[0].ready_at <= now:
            item = heapq.heappop(self._pending)
            if item.failure is None:
                prediction = self.predict_fn(item.payload)
                self.stats.completed += 1
                self.stats.total_latency += item.ready_at - item.submitted_at
                if self.breaker is not None:
                    self.breaker.record_success(item.ready_at)
                if self.tracer is not None:
                    self.tracer.record(
                        self.track, "inference", item.submitted_at,
                        item.ready_at, cat="inference",
                        attempts=item.attempts,
                    )
                done.append((item.payload, prediction))
                continue
            self.stats.failures += 1
            if item.failure == TIMEOUT:
                self.stats.timeouts += 1
            else:
                self.stats.slot_crashes += 1
            if self.tracer is not None:
                self.tracer.instant(
                    self.track, "inference_loss", item.ready_at, cat="fault",
                    kind=item.failure, attempts=item.attempts,
                )
            self._record_breaker_failure(item.ready_at)
            self._failures.append((item.payload, item.failure))
            if self.strict:
                self._sync_breaker()
                raise InferenceTimeout(
                    f"request lost to {item.failure} after "
                    f"{item.attempts} attempt(s)"
                )
        self._sync_breaker()
        return done

    def drain_failures(self) -> list[tuple[object, str]]:
        """Queries lost since the last drain, with their failure kind."""
        failures = self._failures
        self._failures = []
        return failures

    def pending_count(self) -> int:
        return len(self._pending)

    # ----- checkpointing -----

    def state_dict(self) -> dict:
        """Serializable service state.  In-flight requests are *not*
        captured — a crashed worker loses them (§3.4's degradation
        story); the count is recorded so a resumed campaign can account
        the loss."""
        return {
            "server_free": list(self._server_free),
            "sequence": self._sequence,
            "lost_in_flight": len(self._pending),
            "stats": self.stats.state_dict(),
            "breaker": (
                self.breaker.state_dict() if self.breaker is not None else None
            ),
        }

    def restore(self, state: dict) -> int:
        """Restore :meth:`state_dict`; returns the lost in-flight count."""
        self._server_free = [float(value) for value in state["server_free"]]
        self._sequence = int(state["sequence"])
        self._pending = []
        self._failures = []
        self.stats.restore_state(state["stats"])
        if state.get("breaker") is not None and self.breaker is not None:
            self.breaker.restore(state["breaker"])
        return int(state.get("lost_in_flight", 0))

    # ----- internals -----

    def _attempt_failure(self, start: float) -> str | None:
        """Fault decision for one service attempt starting at ``start``."""
        if self.injector is None:
            return None
        if self.injector.fires("inference", start):
            return TIMEOUT
        if self.injector.fires("server_slot", start):
            return SLOT_CRASH
        return None

    def _record_breaker_failure(self, time: float) -> None:
        """Feed the breaker, emitting a trip instant if this failure
        pushed it open."""
        if self.breaker is None:
            return
        trips_before = self.breaker.trips
        self.breaker.record_failure(time)
        if self.tracer is not None and self.breaker.trips > trips_before:
            self.tracer.instant(
                self.track, "breaker_trip", time, cat="fault",
            )

    def _sync_breaker(self) -> None:
        if self.breaker is not None:
            self.stats.breaker_trips = self.breaker.trips
            self.stats.breaker_state = self.breaker.state.value


# ----- dynamic batching -----


@dataclass
class _QueuedRequest:
    """A request waiting in the forming batch."""

    payload: object
    arrival: float        # when it (re-)entered the queue
    submitted_at: float   # original submission time, for latency stats
    attempts: int = 0     # failed batch attempts so far


@dataclass(order=True)
class _PendingBatch:
    """A dispatched batch occupying one slot until ``ready_at``."""

    ready_at: float
    sequence: int
    requests: list = field(compare=False, default_factory=list)
    failure: str | None = field(compare=False, default=None)
    # Virtual time the batch started occupying its slot (trace span).
    started: float = field(compare=False, default=0.0)


class BatchingInferenceService(InferenceService):
    """An :class:`InferenceService` with dynamic request batching.

    Requests queue until ``max_batch_size`` accumulate or
    ``batch_timeout`` virtual seconds pass since the oldest queued
    request; the batch then occupies the earliest-free slot for
    ``base_latency + len(batch) * marginal_latency``.  With a marginal
    cost well below the base cost this raises saturation throughput far
    above the unbatched ``servers / latency`` — the paper's GPU tier
    serving an entire fleet of fuzzing VMs.

    Failure semantics follow the deployment: an injected fault loses the
    *whole* batch (the replica crashed holding it), and each member
    request re-enqueues individually at the detection time, up to
    ``max_retries`` times, before being reported through
    ``drain_failures``.

    ``submit`` returns a worst-case delivery estimate for requests still
    queueing (the batch may leave earlier if it fills); exact delivery
    order is what ``poll`` observes, and it is deterministic.
    """

    def __init__(
        self,
        predict_fn,
        base_latency: float,
        marginal_latency: float,
        max_batch_size: int = 8,
        batch_timeout: float | None = None,
        servers: int = 4,
        max_queue: int = 256,
        deadline: float | None = None,
        max_retries: int = 0,
        retry_backoff: float | None = None,
        injector: FaultInjector | None = None,
        breaker: CircuitBreaker | None = None,
        strict: bool = False,
        shed_timeout: float | None = None,
        registry: MetricsRegistry | None = None,
        labels: dict | None = None,
        tracer: Tracer | None = None,
        track: str = "serve",
    ):
        if base_latency <= 0:
            raise ModelError(
                f"base latency must be positive, got {base_latency}"
            )
        if marginal_latency < 0:
            raise ModelError(
                f"marginal latency must be >= 0, got {marginal_latency}"
            )
        if max_batch_size < 1:
            raise ModelError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        single = base_latency + marginal_latency
        super().__init__(
            predict_fn,
            latency=single,
            servers=servers,
            max_queue=max_queue,
            deadline=deadline,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            injector=injector,
            breaker=breaker,
            strict=strict,
            shed_timeout=shed_timeout,
            registry=registry,
            labels=labels,
            tracer=tracer,
            track=track,
        )
        self.base_latency = base_latency
        self.marginal_latency = marginal_latency
        self.max_batch_size = max_batch_size
        self.batch_timeout = single if batch_timeout is None else batch_timeout
        if self.batch_timeout <= 0:
            raise ModelError(
                f"batch_timeout must be positive, got {self.batch_timeout}"
            )
        self._queue: list[_QueuedRequest] = []
        self._batches: list[_PendingBatch] = []
        self._completed: list[tuple[object, object]] = []
        self._last_dispatch_ready = 0.0

    def latency_of(self, batch_size: int) -> float:
        """Slot occupancy of one batch of ``batch_size`` requests."""
        return self.base_latency + self.marginal_latency * batch_size

    @property
    def saturation_throughput(self) -> float:
        """Queries/second at full batches — the batching win."""
        return (
            self.servers * self.max_batch_size
            / self.latency_of(self.max_batch_size)
        )

    # ----- the service interface -----

    def submit(self, query, now: float) -> float | None:
        if self.breaker is not None and not self.breaker.allow(now):
            self.stats.breaker_rejections += 1
            self._sync_breaker()
            return None
        # Dispatch batches that should already have left, so a late
        # submission never joins a batch whose deadline has passed.
        self._advance(now)
        if len(self._queue) + self._in_flight() >= self.max_queue:
            self.stats.rejected += 1
            if self.breaker is not None:
                self.breaker.cancel_probe()
            return None
        if self._shed(now):
            return None
        self._queue.append(
            _QueuedRequest(payload=query, arrival=now, submitted_at=now)
        )
        self.stats.submitted += 1
        if len(self._queue) >= self.max_batch_size:
            self._dispatch(now)
        return self._estimate_ready(now)

    def poll(self, now: float) -> list[tuple[object, object]]:
        self._advance(now)
        self._sync_breaker()
        done = self._completed
        self._completed = []
        return done

    def pending_count(self) -> int:
        return len(self._queue) + self._in_flight()

    # ----- checkpointing -----

    def state_dict(self) -> dict:
        state = super().state_dict()
        # Queued and in-flight requests all die with the worker.
        state["lost_in_flight"] = self.pending_count()
        return state

    def restore(self, state: dict) -> int:
        lost = super().restore(state)
        self._queue = []
        self._batches = []
        self._completed = []
        return lost

    # ----- internals -----

    def _in_flight(self) -> int:
        return sum(len(batch.requests) for batch in self._batches)

    def _estimate_ready(self, now: float) -> float:
        """Worst-case delivery time of the newest request."""
        if not self._queue:
            # The request dispatched immediately (batch filled).
            return self._last_dispatch_ready
        deadline = (
            min(request.arrival for request in self._queue)
            + self.batch_timeout
        )
        start = max(deadline, min(self._server_free))
        return start + self.latency_of(len(self._queue))

    def _advance(self, now: float) -> None:
        """Process every dispatch/completion event due by ``now``.

        Events are consumed in virtual-time order, so completions that
        re-enqueue retries interleave correctly with timeout-driven
        dispatches — the whole cascade is deterministic.
        """
        while True:
            deadline = (
                min(request.arrival for request in self._queue)
                + self.batch_timeout
                if self._queue else float("inf")
            )
            ready = (
                self._batches[0].ready_at if self._batches else float("inf")
            )
            event = min(deadline, ready)
            if event > now:
                return
            if ready <= deadline:
                self._complete(heapq.heappop(self._batches))
            else:
                self._dispatch(deadline)

    def _dispatch(self, time: float) -> None:
        """Move up to ``max_batch_size`` queued requests onto a slot."""
        batch_requests = self._queue[: self.max_batch_size]
        del self._queue[: self.max_batch_size]
        size = len(batch_requests)
        slot = min(range(self.servers), key=lambda i: self._server_free[i])
        start = max(time, self._server_free[slot])
        failure = self._attempt_failure(start)
        if failure is None:
            ready = start + self.latency_of(size)
        else:
            detection = (
                self.deadline
                if failure == TIMEOUT and self.deadline is not None
                else self.latency_of(size)
            )
            ready = start + detection
        self._server_free[slot] = ready
        self._last_dispatch_ready = ready
        for request in batch_requests:
            self.stats.record_queue_delay(start - request.arrival)
        self.stats.record_batch(size)
        self._sequence += 1
        heapq.heappush(
            self._batches,
            _PendingBatch(
                ready_at=ready, sequence=self._sequence,
                requests=batch_requests, failure=failure, started=start,
            ),
        )

    def _complete(self, batch: _PendingBatch) -> None:
        if batch.failure is None:
            for request in batch.requests:
                prediction = self.predict_fn(request.payload)
                self.stats.completed += 1
                self.stats.total_latency += (
                    batch.ready_at - request.submitted_at
                )
                self._completed.append((request.payload, prediction))
            if self.breaker is not None:
                self.breaker.record_success(batch.ready_at)
            if self.tracer is not None:
                self.tracer.record(
                    self.track, "inference_batch", batch.started,
                    batch.ready_at, cat="inference",
                    size=len(batch.requests),
                )
            return
        # The slot died holding the batch: every member is lost together
        # and retries individually.
        if batch.failure == TIMEOUT:
            self.stats.timeouts += 1
        else:
            self.stats.slot_crashes += 1
        if self.tracer is not None:
            self.tracer.instant(
                self.track, "batch_lost", batch.ready_at, cat="fault",
                kind=batch.failure, size=len(batch.requests),
            )
        self._record_breaker_failure(batch.ready_at)
        for request in batch.requests:
            if request.attempts < self.max_retries:
                request.attempts += 1
                request.arrival = batch.ready_at
                self.stats.retries += 1
                self._queue.append(request)
            else:
                self.stats.failures += 1
                self._failures.append((request.payload, batch.failure))
                if self.strict:
                    self._sync_breaker()
                    raise InferenceTimeout(
                        f"batched request lost to {batch.failure} after "
                        f"{request.attempts + 1} attempt(s)"
                    )
        # Re-enqueued retries may already fill a batch.
        while len(self._queue) >= self.max_batch_size:
            self._dispatch(batch.ready_at)
