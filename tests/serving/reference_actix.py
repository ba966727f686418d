"""The Actix server's intake, CPU worker and GPU executor before the wait
elisions: one zero-delay wake per parked CPU worker, and every linger
through a deadline timer, a ``Signal`` and a zero-delay hop. Each worker
process tests ``admission`` and the tenant counts on every dequeue.
With them, the completion they call: ``_respond_ok`` sends the 200 (or
the 503 after a crash), the CPU worker writes its own access record,
and the GPU executor schedules a closure from ``_make_responder`` per
response.

Kept verbatim as the reference that ``test_wait_elision_differential.py``
checks the production server against, but for the completion counter's
``inc``: the counter now reads ``completed`` itself. ``ReferenceServer``
overrides only the intake, CPU worker and GPU executor, and adds the
two completion methods; everything else is the production server's. It
runs on ``tests/simulation/reference_simulator.py``, whose handles
cancel themselves, as these methods expect.

What those methods need that the production server no longer has is
kept here too, verbatim from the server before its idle GPU executor
parked and its batches stopped folding same-key entries: the work and
linger signal attributes (set in ``__init__``), ``_wait_for_work`` and
``assemble_unique``.
"""

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.serving.access_log import AccessRecord
from repro.serving.actix import EtudeInferenceServer
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationRequest,
    RecommendationResponse,
    ResponseCallback,
)
from repro.simulation import Signal

Entry = TypeVar("Entry")


def assemble_unique(
    entries: Sequence[Entry],
    key_of: Callable[[Entry], Optional[object]],
) -> Tuple[List[Entry], List[Entry]]:
    """Split a batch into unique-key entries and same-key duplicates.

    With the result cache enabled, a GPU batch must contain at most one
    request per cache key — duplicates would spend batch slots recomputing
    an answer the singleflight table already has in flight. The intake-side
    coalescing makes duplicates impossible in the normal flow; this helper
    *enforces* the invariant at batch-assembly time (and is the surface the
    coalescing tests exercise). Entries whose key is ``None`` (no cache
    involvement) always pass through.

    Returns ``(unique, duplicates)`` preserving arrival order.
    """
    seen: set = set()
    unique: List[Entry] = []
    duplicates: List[Entry] = []
    for entry in entries:
        key = key_of(entry)
        if key is not None and key in seen:
            duplicates.append(entry)
            continue
        if key is not None:
            seen.add(key)
        unique.append(entry)
    return unique, duplicates


class ReferenceServer(EtudeInferenceServer):
    def __init__(self, *args, **kwargs):
        # The processes first step at the first event, after this.
        super().__init__(*args, **kwargs)
        name = self.name
        self._work_name = f"{name}-work"
        self._linger_name = f"{name}-linger"
        self._work_signal = Signal(self._work_name)
        #: Set while the GPU executor idles inside the linger window, so
        #: intake can cut the wait short the moment the buffer fills.
        self._linger_wake: Optional[Signal] = None

    def _wait_for_work(self) -> Signal:
        if self._work_signal.fired:
            self._work_signal = Signal(self._work_name)
        return self._work_signal

    def _enqueue(
        self, request: RecommendationRequest, respond: ResponseCallback
    ) -> None:
        """The paper-faithful intake: admission, backlog cap, queue."""
        if self.admission is not None and not self.admission.viable(
            request.deadline_s, self.simulator.now
        ):
            # Doomed on arrival: shed before it occupies a queue slot.
            self._shed(request, respond, reason="deadline")
            return
        if self._tenant_queued is not None and not self._fair_admit(request):
            # Weighted-fair shedding: this tenant is already over its
            # entitled share of the backlog — its storm, its sheds.
            self._shed(request, respond, reason="tenant_fair")
            return
        if len(self._queue) >= self.profile.max_queue_depth:
            self._shed(request, respond, reason="queue_full")
            return
        if self.telemetry is not None:
            trace = self.telemetry.trace
            now = self.simulator.now
            # The client→server leg: from send time to intake.
            trace.record("sent", request.request_id, request.sent_at, now)
            self._queued_spans[request.request_id] = trace.begin(
                "queued", request.request_id, server=self.name
            )
        self._queue.append((request, respond, self.simulator.now))
        if self._tenant_queued is not None:
            self._note_queued(request)
        self._work_signal.fire()
        if (
            self._linger_wake is not None
            and len(self._queue) >= self.batching.max_batch_size
        ):
            self._linger_wake.fire()

    def _cpu_worker(self, index: int):
        while True:
            if not self._queue:
                yield self._wait_for_work()
                continue
            if self.admission is None:
                request, respond, arrival = self._queue.popleft()
                if self._tenant_queued is not None:
                    self._note_dequeued(request)
            else:
                entry = self._next_viable()
                if entry is None:
                    continue  # everything queued was doomed and got shed
                request, respond, arrival = entry
            started = self.simulator.now
            queue_s = started - arrival
            if self.telemetry is not None:
                queued_span = self._queued_spans.pop(request.request_id, None)
                if queued_span is not None:
                    queued_span.finish(at=started)
            self._active_workers += 1
            inference_s = self._cpu_service_time(
                None if self.tenants is None else self._tenant_profile(request)
            )
            http_s = self._http_overhead()
            yield http_s + inference_s
            self._active_workers -= 1
            self._batch_counter += 1
            if self.access_log is not None:
                self.access_log.append(
                    AccessRecord(
                        request_id=request.request_id,
                        arrived_at=arrival,
                        started_at=started,
                        completed_at=self.simulator.now,
                        batch_id=self._batch_counter,
                        batch_size=1,
                        status=HTTP_OK if self.healthy else HTTP_SERVICE_UNAVAILABLE,
                    )
                )
            if self.telemetry is not None:
                trace = self.telemetry.trace
                rid = request.request_id
                trace.record(
                    "inference", rid, started, started + inference_s,
                    batch_id=self._batch_counter, batch_size=1,
                )
                trace.record(
                    "http_respond", rid, started + inference_s,
                    started + inference_s + http_s,
                )
                self._batch_size_hist.observe(1)
            if self.retrieval is not None:
                self._note_retrieval(request.request_id, started, inference_s)
            self._respond_ok(
                request, respond, inference_s, batch_size=1, queue_s=queue_s
            )

    def _gpu_executor(self):
        simulator = self.simulator
        queue = self._queue
        while True:
            # Re-read the knobs every iteration: the heterogeneous
            # scheduler's tuner swaps ``self.batching`` between epochs,
            # and the next flush must honour the new window. Untuned runs
            # read the same values every time, so this is bit-identical
            # to hoisting them out of the loop.
            batching = self.batching
            max_batch = batching.max_batch_size
            if not queue:
                yield self._wait_for_work()
                continue
            # Honour the linger window: flush when the oldest buffered
            # request is max_delay old or the buffer is full.
            linger_started = None
            deadline = queue[0][2] + batching.max_delay_s
            if simulator.now < deadline and len(queue) < max_batch:
                # The executor is idle and deliberately waiting for the
                # buffer to fill — that wait is batch-linger, not queueing.
                # Wake at the deadline OR the moment intake fills the
                # buffer: sleeping out the rest of the window with a full
                # buffer only delays a flush that could already happen.
                linger_started = simulator.now
                wake = Signal(self._linger_name)
                deadline_timer = simulator.call_at(deadline, wake.fire)
                self._linger_wake = wake
                yield wake
                self._linger_wake = None
                deadline_timer.cancel()
            take = min(len(queue), max_batch)
            if take == 0:
                continue
            if self.admission is None:
                batch = [queue.popleft() for _ in range(take)]
                if self._tenant_queued is not None:
                    for entry in batch:
                        self._note_dequeued(entry[0])
            else:
                # Assemble the batch from still-viable requests only:
                # doomed work must not occupy a GPU batch slot.
                batch = []
                while queue and len(batch) < max_batch:
                    entry = self._next_viable()
                    if entry is None:
                        break
                    batch.append(entry)
                if not batch:
                    continue
                take = len(batch)
            if self.cache is not None:
                # GPU batches execute unique keys only: intake coalescing
                # already guarantees this, assemble_unique enforces it —
                # any same-key straggler re-parks behind the leader in the
                # same batch instead of burning a batch slot.
                batch, duplicates = assemble_unique(
                    batch,
                    lambda entry: self._flight_keys.get(entry[0].request_id),
                )
                for dup_request, dup_respond, dup_arrival in duplicates:
                    key = self._flight_keys.pop(dup_request.request_id)
                    self.cache.join_flight(
                        key, (dup_request, dup_respond, dup_arrival)
                    )
                if not batch:
                    continue
                take = len(batch)
            started = simulator.now
            batch_time = self._gpu_batch_time(take, batch)
            yield batch_time
            self._batch_counter += 1
            self.batched_requests += take
            batch_id = self._batch_counter
            if self.telemetry is not None:
                self._trace_batch(batch, started, batch_time, take, linger_started)
            for request, respond, arrival in batch:
                if self.retrieval is not None:
                    self._note_retrieval(request.request_id, started, batch_time)
                # HTTP handling happens concurrently on the event loop; it
                # adds latency but does not occupy the device.
                http_s = self._http_overhead()
                if self.telemetry is not None:
                    now = simulator.now
                    self.telemetry.trace.record(
                        "http_respond", request.request_id, now, now + http_s
                    )
                simulator.call_in(
                    http_s,
                    self._make_responder(
                        request, respond, batch_time, take, started, arrival,
                        batch_id,
                    ),
                )

    def _respond_ok(
        self,
        request: RecommendationRequest,
        respond: ResponseCallback,
        inference_s: float,
        batch_size: int,
        queue_s: float = 0.0,
    ) -> bool:
        """Deliver a 200 — or a 503 if the server died meanwhile.

        Returns whether the client actually saw the 200, so callers
        logging the exchange record the delivered status.
        """
        if not self.healthy:
            self._resolve_flight_fail(request, crashed=True)
            self._fail(request, respond)
            return False
        items = None
        scores = None
        model = self.model
        if self.tenants is not None:
            serving = self._tenant_serving(request)
            if serving is not None:
                model = serving.model
        if model is not None:
            if hasattr(model, "recommend_with_scores"):
                # Shard replica: score only this pod's catalog slice and
                # keep the scores — the scatter-gather merge needs them.
                items, scores = model.recommend_with_scores(
                    request.session_items
                )
            else:
                items = model.recommend(request.session_items)
        if self.cache is not None:
            self._resolve_flight_ok(
                request, items if scores is None else (items, scores)
            )
        now = self.simulator.now
        respond(
            RecommendationResponse(
                request_id=request.request_id,
                status=HTTP_OK,
                completed_at=now,
                latency_s=now - request.sent_at,
                inference_s=inference_s,
                queue_s=queue_s,
                batch_size=batch_size,
                items=items,
                scores=scores,
            )
        )
        self.completed += 1
        return True

    def _make_responder(
        self, request, respond, batch_time, take, started, arrival, batch_id
    ):
        """Responder fired once the HTTP leg is done.

        The access record is written here, at delivery time, with the
        status the client actually saw — a crash between batch completion
        and response delivery turns the whole batch into 503s, and the
        log must say so rather than claim a 200 nobody received.
        """

        def respond_and_log() -> None:
            delivered = self._respond_ok(
                request, respond, batch_time, take, queue_s=started - arrival
            )
            if self.access_log is not None:
                self.access_log.append(
                    AccessRecord(
                        request_id=request.request_id,
                        arrived_at=arrival,
                        started_at=started,
                        completed_at=self.simulator.now,
                        batch_id=batch_id,
                        batch_size=take,
                        status=HTTP_OK if delivered else HTTP_SERVICE_UNAVAILABLE,
                    )
                )

        return respond_and_log
