"""Execution-backend selection: the ``--backend`` grammar and env override.

Grammar (shared by the CLI flag, spec files and ``ETUDE_BACKEND``)::

    serial              evaluate tasks in-process, in submission order
    mp                  multiprocessing pool, one worker per host core
    mp:workers=N        multiprocessing pool with exactly N workers

Resolution order for :func:`resolve_backend`: an explicit spec (CLI flag,
constructor argument) wins, then the ``ETUDE_BACKEND`` environment
variable, then the serial default. Whatever the backend, results are
bit-identical — see ``docs/parallelism.md`` for the determinism contract.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

from repro.grammar import format_options, parse_options

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV_VAR = "ETUDE_BACKEND"

_KINDS = ("serial", "mp")
#: spec key -> (field, cast) of the options after ``mp:``.
_KEYS = {"workers": ("workers", int)}


@dataclass(frozen=True)
class BackendConfig:
    """Parsed backend selection: kind plus worker count (mp only)."""

    kind: str = "serial"
    #: Worker processes for ``mp`` (0 = one per host core).
    workers: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown backend kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per host core)")
        if self.kind == "serial" and self.workers not in (0, 1):
            raise ValueError("the serial backend runs exactly one worker")

    @property
    def parallel(self) -> bool:
        return self.kind != "serial"

    def effective_workers(self) -> int:
        """The worker-process count this config resolves to on this host."""
        if self.kind == "serial":
            return 1
        return self.workers or (os.cpu_count() or 1)

    @classmethod
    def parse(cls, text: str) -> "BackendConfig":
        """Parse the ``serial`` / ``mp[:workers=N]`` grammar."""
        spec = (text or "serial").strip().lower()
        kind, _, options = spec.partition(":")
        kind = kind.strip() or "serial"
        if kind not in _KINDS:
            raise ValueError(
                f"unknown backend {kind!r}; expected 'serial' or 'mp[:workers=N]'"
            )
        kwargs = parse_options(options, "backend", _KEYS)
        if kwargs and kind == "serial":
            raise ValueError("the serial backend takes no options")
        if kwargs.get("workers", 1) < 1:
            raise ValueError("workers must be >= 1")
        return cls(kind=kind, **kwargs)

    def spec_string(self) -> str:
        """The canonical spec string (``parse`` round-trips it)."""
        if self.kind == "serial":
            return "serial"
        options = format_options(self, _KEYS, skip_defaults=True)
        return "mp" + (":" + options if options else "")


def resolve_backend(
    spec: Optional[Union[str, BackendConfig]] = None,
) -> BackendConfig:
    """Explicit spec > ``ETUDE_BACKEND`` env var > serial default."""
    if isinstance(spec, BackendConfig):
        return spec
    if spec is not None:
        return BackendConfig.parse(spec)
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        return BackendConfig.parse(env)
    return BackendConfig()
