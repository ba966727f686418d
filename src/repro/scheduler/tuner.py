"""Online hill-climbing tuner for the heterogeneous scheduler's knobs.

DeepRecSys tunes its per-model batching parameters by hill-climbing
against the measured latency distribution; this module does the same over
the simulated fleet. Every ``epoch_s`` seconds of virtual time the tuner
reads the dispatcher's per-route latency digests plus the GPU fleet's
observed mean batch size, compares the watched percentile against the
configured target band, and moves **at most one knob** per epoch:

- tail **above** the band (too slow):

  1. if GPU flushes are saturating the current batch cap, double
     ``max_batch`` (bigger flushes amortize the per-batch fixed cost);
  2. otherwise halve the linger window — requests are paying wait time
     that is not buying them batch mates;
  3. once the linger is at its floor, widen the CPU offload threshold
     (``short_session``) — but only while the CPU side's own tail looks
     no worse than the GPU side's, so a drowning CPU pool is never fed
     more work.

- tail **below** the band (headroom): grow the linger back toward its
  configured value, trading spare latency budget for bigger batches —
  DeepRecSys's throughput-maximization-under-a-latency-bound objective.

- tail **inside** the band: do nothing. Knobs stop moving the moment the
  target is met — the convergence property the tests pin down.

One knob per epoch keeps the walk observable (each ``sched_tune`` span
names the knob and both values) and avoids oscillation from coupled
moves. The tuner draws no random numbers; given the same observations it
makes the same moves, so an epoch-for-epoch replay reproduces the run.
"""

from __future__ import annotations

from typing import List, Optional

from repro.scheduler.config import SchedulerConfig
from repro.serving.batching import BatchingConfig

#: Linger is never tuned below this (the GPU still needs a nonzero window
#: to accumulate anything at all); 0.1 ms is ~the host-sync cost floor.
LINGER_FLOOR_S = 1e-4

#: ``short_session`` is never widened past this many clicks.
SHORT_SESSION_CAP = 32

#: A flush counts as "saturated" when its mean size reaches this fraction
#: of the current cap — growing the cap is then worth trying.
SATURATION_FRACTION = 0.9

#: The knobs a step can move, as it names them.
KNOBS = ("max_batch", "linger_s", "short_session")


class EpochObservation:
    """What the tuner sees about one elapsed epoch."""

    __slots__ = ("count", "p_tail_ms", "cpu_p_ms", "gpu_p_ms", "mean_batch")

    def __init__(
        self,
        count: int,
        p_tail_ms: Optional[float],
        cpu_p_ms: Optional[float] = None,
        gpu_p_ms: Optional[float] = None,
        mean_batch: Optional[float] = None,
    ):
        self.count = count
        self.p_tail_ms = p_tail_ms
        self.cpu_p_ms = cpu_p_ms
        self.gpu_p_ms = gpu_p_ms
        self.mean_batch = mean_batch


class HillClimbTuner:
    """Deterministic one-knob-per-epoch hill climber.

    ``batch_cap`` bounds ``max_batch`` growth to what the GPU's memory
    actually fits (the cluster's ``fit_batching`` result); ``None`` means
    uncapped.
    """

    def __init__(self, config: SchedulerConfig, batch_cap: Optional[int] = None):
        self.config = config
        self.batch_cap = batch_cap
        self.max_batch = config.max_batch
        if batch_cap is not None:
            self.max_batch = min(self.max_batch, batch_cap)
        self.linger_s = config.linger_s
        self.short_session = config.short_session
        self.epochs = 0
        self.moves = 0
        self._stable_epochs = 0
        self.history: List[dict] = []

    @property
    def converged(self) -> bool:
        """True once an epoch with traffic ended inside the target band."""
        return self._stable_epochs > 0

    def batching(self) -> BatchingConfig:
        """The GPU batching config for the current knob values."""
        return BatchingConfig(
            max_batch_size=self.max_batch, max_delay_s=self.linger_s
        )

    def step(self, observation: EpochObservation) -> Optional[str]:
        """Consume one epoch's observation; returns the knob moved (or None).

        A ``None`` return with ``converged`` True means the tail sat
        inside the band; ``None`` with ``converged`` False means there was
        nothing to observe or no knob left to move.
        """
        self.epochs += 1
        moved: Optional[str] = None
        p = observation.p_tail_ms
        if p is None or observation.count == 0:
            self._note(observation, moved)
            return None
        low = self.config.target_p_ms * (1.0 - self.config.tolerance)
        high = self.config.target_p_ms * (1.0 + self.config.tolerance)
        if low <= p <= high:
            self._stable_epochs += 1
            self._note(observation, moved)
            return None
        if p > high:
            moved = self._tighten(observation)
        else:
            moved = self._relax()
            if moved is None:
                # Below the band with the linger already at its configured
                # value: the fleet meets the target at maximum batching —
                # the optimum under the throughput-max-under-latency-bound
                # objective, so the tuner is at rest.
                self._stable_epochs += 1
        if moved is not None:
            self.moves += 1
            self._stable_epochs = 0
        self._note(observation, moved)
        return moved

    # -- individual moves -----------------------------------------------------

    def _tighten(self, observation: EpochObservation) -> Optional[str]:
        """Tail too slow: buy latency back, one knob at a time."""
        saturated = (
            observation.mean_batch is not None
            and observation.mean_batch >= SATURATION_FRACTION * self.max_batch
        )
        if saturated and (self.batch_cap is None or self.max_batch < self.batch_cap):
            grown = self.max_batch * 2
            if self.batch_cap is not None:
                grown = min(grown, self.batch_cap)
            self.max_batch = grown
            return "max_batch"
        if self.linger_s > LINGER_FLOOR_S:
            self.linger_s = max(LINGER_FLOOR_S, self.linger_s / 2.0)
            return "linger_s"
        cpu_healthier = observation.cpu_p_ms is not None and (
            observation.gpu_p_ms is None
            or observation.cpu_p_ms <= observation.gpu_p_ms
        )
        if cpu_healthier and self.short_session < SHORT_SESSION_CAP:
            self.short_session += 2
            return "short_session"
        return None

    def _relax(self) -> Optional[str]:
        """Tail comfortably under target: spend the headroom on batching."""
        if self.linger_s < self.config.linger_s:
            self.linger_s = min(self.config.linger_s, self.linger_s * 2.0)
            return "linger_s"
        return None

    # -- bookkeeping ----------------------------------------------------------

    def _note(self, observation: EpochObservation, moved: Optional[str]) -> None:
        self.history.append(
            {
                "epoch": self.epochs,
                "count": observation.count,
                "p_tail_ms": observation.p_tail_ms,
                "cpu_p_ms": observation.cpu_p_ms,
                "gpu_p_ms": observation.gpu_p_ms,
                "mean_batch": observation.mean_batch,
                "moved": moved,
                "max_batch": self.max_batch,
                "linger_s": self.linger_s,
                "short_session": self.short_session,
            }
        )

    def summary(self) -> dict:
        """Tuner state for ``RunResult.scheduler``."""
        return {
            "epochs": self.epochs,
            "moves": self.moves,
            "converged": self.converged,
            "max_batch": self.max_batch,
            "linger_s": self.linger_s,
            "short_session": self.short_session,
        }
