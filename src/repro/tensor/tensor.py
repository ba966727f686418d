"""The :class:`Tensor` wrapper around :class:`numpy.ndarray`.

Tensors are immutable-by-convention activation values flowing through a
model. All arithmetic dispatches through :func:`repro.tensor.ops.run_op`, so
every operation both computes a real result and emits cost accounting.

Two extra pieces of state ride along:

- ``is_param`` marks parameter tensors (their bytes are amortized across a
  batch by the latency model),
- ``catalog_scale`` marks tensors that stand in for a larger virtualized
  catalog (their op costs are multiplied up by the latency model).

During jit graph capture, using a tensor's *values* to steer Python control
flow (``bool(t)``, ``t.item()``, iteration) raises
:class:`~repro.tensor.jit.JitCompilationError` — this is how the
reproduction surfaces the paper's finding that LightSANs cannot be
JIT-optimized due to dynamic code paths.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import ops

Scalar = Union[int, float]


class Tensor:
    """A numpy-backed activation tensor with cost accounting."""

    __slots__ = ("data", "is_param", "catalog_scale", "name", "batch_invariant")

    def __init__(
        self,
        data,
        is_param: bool = False,
        catalog_scale: float = 1.0,
        name: Optional[str] = None,
        batch_invariant: Optional[bool] = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if array.dtype not in (np.float32, np.int64, np.int8, np.bool_):
            if np.issubdtype(array.dtype, np.floating):
                array = array.astype(np.float32)
            elif np.issubdtype(array.dtype, np.integer):
                # int8 stays int8 (quantized tables); other ints are indices.
                array = array.astype(np.int64)
            elif array.dtype == bool:
                array = array.astype(np.bool_)
            else:
                array = array.astype(np.float32)
        self.data = array
        self.is_param = is_param
        self.catalog_scale = float(catalog_scale)
        self.name = name
        # Batch-invariant tensors (parameters and anything derived solely
        # from parameters/constants) are shared by every request in a batch;
        # the latency model amortizes their cost per batch, not per item.
        if batch_invariant is None:
            batch_invariant = is_param
        self.batch_invariant = batch_invariant

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def numpy(self) -> np.ndarray:
        """The raw ndarray (no cost is charged for peeking)."""
        return self.data

    def __repr__(self) -> str:
        kind = "Parameter" if self.is_param else "Tensor"
        return f"{kind}(shape={self.shape}, dtype={self.data.dtype})"

    # -- control-flow guards (jit dynamic-code-path detection) ---------------

    def _guard_dynamic_control_flow(self, reason: str) -> None:
        if ops.is_capturing():
            from repro.tensor.jit import JitCompilationError

            raise JitCompilationError(
                f"dynamic control flow: tensor values used for {reason} "
                "during jit tracing"
            )

    def __array__(self, dtype=None):
        # Silent numpy conversion escapes the traced dataflow (the value
        # would be baked as a constant), so it counts as a dynamic path.
        self._guard_dynamic_control_flow("numpy conversion")
        return self.data if dtype is None else self.data.astype(dtype)

    def __bool__(self) -> bool:
        self._guard_dynamic_control_flow("a Python branch")
        if self.size != 1:
            raise ValueError("truth value of a multi-element tensor is ambiguous")
        return bool(self.data.reshape(-1)[0])

    def item(self) -> float:
        self._guard_dynamic_control_flow("item() extraction")
        if self.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def tolist(self) -> list:
        self._guard_dynamic_control_flow("tolist() extraction")
        return self.data.tolist()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        return ops.run_op("add", (self, other))

    def __sub__(self, other) -> "Tensor":
        return ops.run_op("sub", (self, other))

    def __rsub__(self, other) -> "Tensor":
        return ops.run_op("sub", (other, self))

    def __mul__(self, other) -> "Tensor":
        return ops.run_op("mul", (self, other))

    def __truediv__(self, other) -> "Tensor":
        return ops.run_op("div", (self, other))

    def __neg__(self) -> "Tensor":
        return ops.run_op("neg", (self,))

    def __matmul__(self, other) -> "Tensor":
        return ops.run_op("matmul", (self, other))

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.run_op("reshape", (self,), {"shape": shape})

    def transpose(self, *axes) -> "Tensor":
        attrs = {"axes": axes if axes else None}
        return ops.run_op("transpose", (self,), attrs)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def slice(self, key) -> "Tensor":
        return ops.run_op("slice", (self,), {"key": key})

    def __getitem__(self, key) -> "Tensor":
        return self.slice(key)

    # -- reductions / activations --------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return ops.run_op("reduce_sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return ops.run_op("reduce_mean", (self,), {"axis": axis, "keepdims": keepdims})

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return ops.run_op("reduce_max", (self,), {"axis": axis, "keepdims": keepdims})

    def exp(self) -> "Tensor":
        return ops.run_op("exp", (self,))

    def log(self) -> "Tensor":
        return ops.run_op("log", (self,))

    def sqrt(self) -> "Tensor":
        return ops.run_op("sqrt", (self,))

    def tanh(self) -> "Tensor":
        return ops.run_op("tanh", (self,))

    def sigmoid(self) -> "Tensor":
        return ops.run_op("sigmoid", (self,))

    def relu(self) -> "Tensor":
        return ops.run_op("relu", (self,))

    def softmax(self, axis: int = -1) -> "Tensor":
        return ops.run_op("softmax", (self,), {"axis": axis})


def as_tensor(value, name: Optional[str] = None) -> Tensor:
    """Coerce an ndarray / list / scalar / Tensor to a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, name=name)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    return ops.run_op("concat", tuple(tensors), {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    return ops.run_op("stack", tuple(tensors), {"axis": axis})
