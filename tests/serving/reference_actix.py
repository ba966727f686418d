"""The Actix server's intake, CPU worker and GPU executor before the wait
elisions: one zero-delay wake per parked CPU worker, and every linger
through a deadline timer, a ``Signal`` and a zero-delay hop.

Kept verbatim as the reference that ``test_wait_elision_differential.py``
checks the production server against. ``ReferenceServer`` overrides only
these three methods; everything else is the production server's. It
runs on ``tests/simulation/reference_simulator.py``, whose handles
cancel themselves, as these methods expect.
"""

from repro.serving.access_log import AccessRecord
from repro.serving.actix import EtudeInferenceServer
from repro.serving.batching import assemble_unique
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationRequest,
    ResponseCallback,
)
from repro.simulation import Signal


class ReferenceServer(EtudeInferenceServer):
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
