"""Named, independently seeded RNG streams for simulation actors.

Each actor (load generator, every server replica, the workload generator)
pulls its own stream, so adding an actor or reordering events never
perturbs another actor's randomness — the property that keeps experiment
results stable across refactorings.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List

import numpy as np


class RandomStreams:
    """A family of ``np.random.Generator`` streams derived from one seed."""

    def __init__(self, seed: int = 1234):
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """The stream for ``name`` (created on first use, then stable)."""
        if name not in self._streams:
            # crc32 is stable across processes (unlike str.__hash__, which
            # is salted per interpreter run).
            child_seed = np.random.SeedSequence(
                entropy=self._seed,
                spawn_key=(zlib.crc32(name.encode("utf-8")),),
            )
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def fork(self, salt: int) -> "RandomStreams":
        """A derived family (e.g. per experiment repetition)."""
        return RandomStreams(self._seed * 1_000_003 + salt)


class LognormalJitter:
    """Lognormal jitter drawn in blocks from one stream.

    ``draw(sigma)`` returns exactly what ``float(rng.lognormal(0.0,
    sigma))`` would have returned as the next scalar draw: numpy computes
    ``lognormal(0, sigma)`` as ``exp(0.0 + sigma * z)`` with ``z`` its next
    standard normal, and an array fill draws the same normals as scalar
    calls do. Drawing ``BLOCK`` normals at a time saves the per-call cost
    of the numpy method on the request path.

    The jitter must be the generator's only consumer: any other draw
    from it would see the stream advanced by up to a whole block.
    """

    #: Standard normals drawn per refill.
    BLOCK = 1024

    __slots__ = ("_rng", "_block")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        #: Undrawn normals of the current block, next one last.
        self._block: List[float] = []

    def draw(self, sigma: float) -> float:
        """The next lognormal draw with ``mean=0.0`` and ``sigma``."""
        # numpy rejects a sigma whose sign bit is set, -0.0 included.
        if sigma < 0.0 or (sigma == 0.0 and math.copysign(1.0, sigma) < 0.0):
            raise ValueError("sigma < 0")
        block = self._block
        if not block:
            block = self._rng.standard_normal(self.BLOCK).tolist()
            block.reverse()
            self._block = block
        # Never np.exp: numpy's lognormal calls libm's exp, as math.exp
        # does, while np.exp differs from it by one ULP on ~5% of inputs.
        try:
            return math.exp(sigma * block.pop())
        except OverflowError:
            return math.inf  # libm's exp saturates where math.exp raises
