"""Module and Parameter container abstractions.

A :class:`Module` owns named :class:`Parameter` tensors and child modules,
mirroring ``torch.nn.Module`` at inference granularity: there is no autograd,
but there is state-dict export/import (used by the storage-bucket model
artifacts) and recursive parameter iteration (used by the memory-footprint
estimate of the deployment planner).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A learnable tensor; its bytes amortize across a batch during serving."""

    __slots__ = ()

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, is_param=True, name=name)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Module:
    """Base class for all layers and models."""

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}

    # -- registration ---------------------------------------------------------

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- iteration --------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _name, param in self.named_parameters():
            yield param

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def parameter_bytes(self) -> int:
        """Total parameter footprint in bytes (fp32)."""
        return sum(p.nbytes for p in self.parameters())

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- state dict ---------------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            loaded = np.asarray(state[name], dtype=param.data.dtype)
            if loaded.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{loaded.shape} vs {param.data.shape}"
                )
            param.data = loaded

    # -- invocation -----------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
