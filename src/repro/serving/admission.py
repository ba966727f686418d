"""Deadline-aware admission control for the Actix-style inference server.

The paper's serving loop deliberately has no internal timeout: under
overload, latency grows until the load generator's backpressure reacts —
the behaviour ETUDE observes. Production recommenders do the opposite:
they bound tail latency by *shedding* work that can no longer meet its
deadline ("doomed work"), so a queue never melts down. DeepRecSys-style
SLA-aware scheduling and Facebook's overload-control work (adaptive LIFO,
CoDel-on-queues) are the references for the three disciplines here.

An :class:`AdmissionPolicy` rides on
:class:`~repro.serving.profiles.ActixProfile` and is consulted by the
server at two points:

- **intake** — a request whose deadline has already passed is shed before
  it occupies a queue slot;
- **dequeue** — a worker (or the GPU batch assembler) pops entries per the
  configured discipline and sheds the ones that became doomed while
  queued, so doomed work never occupies a worker thread or a GPU batch
  slot.

Disciplines:

- ``fifo`` — today's behaviour: oldest first;
- ``lifo`` — adaptive last-in-first-out: once the queue is deeper than
  ``lifo_threshold`` the newest request is served first (fresh requests
  still have deadline budget left; the old ones are shed as they surface);
- ``codel`` — a CoDel-style sojourn-time controller: when the dequeue
  sojourn exceeds ``codel_target_s`` continuously for
  ``codel_interval_s``, entries are shed at the head with the classic
  inverse-sqrt control law until the sojourn drops below target again.

Deadlines are absolute virtual times stamped by the load generator
(``RecommendationRequest.deadline_s = sent_at + slo``); ``slack_s`` sheds
*before* the deadline so a fallback answer can still arrive in time.

Determinism: admission draws no random numbers, and a server constructed
without a policy executes exactly the pre-admission code paths, so a
disabled run stays bit-identical to the previous tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.grammar import format_options, parse_options

DISCIPLINES = ("fifo", "lifo", "codel")

#: spec key -> (field, cast) for :meth:`AdmissionPolicy.parse`.
_KEYS = {
    "slack": ("slack_s", float),
    "depth": ("lifo_threshold", int),
    "target": ("codel_target_s", float),
    "interval": ("codel_interval_s", float),
}


def _discipline(token: str) -> dict:
    if token not in DISCIPLINES:
        raise ValueError(
            f"unknown admission discipline {token!r}; known: {list(DISCIPLINES)}"
        )
    return {"discipline": token}


class CoDelState:
    """Mutable controller state, one per server (the policy is frozen)."""

    __slots__ = ("first_above_at", "shed_count")

    def __init__(self):
        #: Time at which sustained excess sojourn starts shedding (None =
        #: sojourn currently below target).
        self.first_above_at: Optional[float] = None
        #: Sheds in the current excess episode (drives the control law).
        self.shed_count: int = 0


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue discipline + deadline shedding for one server.

    ``slack_s`` is the safety margin: an entry is treated as doomed once
    ``now >= deadline - slack_s``, leaving room for the fallback tier's
    budget (and the response network leg) to still beat the deadline.
    """

    discipline: str = "fifo"
    slack_s: float = 0.0
    #: Queue depth at which adaptive LIFO flips from FIFO to LIFO.
    lifo_threshold: int = 64
    #: CoDel: acceptable standing sojourn (queue wait) target.
    codel_target_s: float = 0.005
    #: CoDel: how long sojourn must exceed target before shedding starts.
    codel_interval_s: float = 0.100

    def __post_init__(self):
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"discipline must be one of {DISCIPLINES}, got {self.discipline!r}"
            )
        if self.slack_s < 0:
            raise ValueError("slack_s must be >= 0")
        if self.lifo_threshold < 0:
            raise ValueError("lifo_threshold must be >= 0")
        if self.codel_target_s <= 0 or self.codel_interval_s <= 0:
            raise ValueError("codel target/interval must be positive")

    # -- decisions ----------------------------------------------------------

    def viable(self, deadline_s: Optional[float], now: float) -> bool:
        """Can a response still beat the request's deadline (with slack)?"""
        return deadline_s is None or now < deadline_s - self.slack_s

    def pop(self, queue: Deque[Tuple]) -> Tuple:
        """Pop the next entry per the discipline (queue must be non-empty)."""
        if self.discipline == "lifo" and len(queue) > self.lifo_threshold:
            return queue.pop()
        return queue.popleft()

    def codel_should_shed(
        self, state: CoDelState, sojourn_s: float, now: float
    ) -> bool:
        """CoDel verdict for one dequeued entry with the given queue wait.

        Sheds only after the sojourn has exceeded ``codel_target_s`` for a
        full ``codel_interval_s``; subsequent sheds tighten by the classic
        ``interval / sqrt(count)`` control law until the queue drains below
        target again.
        """
        if self.discipline != "codel":
            return False
        if sojourn_s < self.codel_target_s:
            state.first_above_at = None
            state.shed_count = 0
            return False
        if state.first_above_at is None:
            state.first_above_at = now + self.codel_interval_s
            return False
        if now < state.first_above_at:
            return False
        state.shed_count += 1
        state.first_above_at = now + self.codel_interval_s / math.sqrt(
            state.shed_count
        )
        return True

    def make_state(self) -> CoDelState:
        return CoDelState()

    # -- compact spec (CLI / spec files) ------------------------------------

    @classmethod
    def parse(cls, text: str) -> "AdmissionPolicy":
        """Build a policy from a compact CLI spec.

        Comma-separated: an optional leading bare discipline name plus
        ``key=value`` options, e.g. ``"codel,target=0.005,interval=0.1"``
        or ``"lifo,depth=128,slack=0.01"``. Empty string = FIFO defaults.
        """
        return cls(**parse_options(text, "admission", _KEYS, _discipline))

    def spec_string(self) -> str:
        """The compact form :meth:`parse` accepts (for spec files)."""
        return format_options(self, _KEYS, head="discipline", skip_defaults=True)


__all__ = ["AdmissionPolicy", "CoDelState", "DISCIPLINES"]
