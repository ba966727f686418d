"""Functional tensor operations shared by the SBR models."""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.tensor import ops
from repro.tensor.tensor import Tensor, as_tensor


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return ops.run_op("matmul", (a, b))


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return ops.run_op("linear", inputs)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return ops.run_op("softmax", (x,), {"axis": axis})


def relu(x: Tensor) -> Tensor:
    return ops.run_op("relu", (x,))


def tanh(x: Tensor) -> Tensor:
    return ops.run_op("tanh", (x,))


def sigmoid(x: Tensor) -> Tensor:
    return ops.run_op("sigmoid", (x,))


def gelu(x: Tensor) -> Tensor:
    return ops.run_op("gelu", (x,))


def exp(x: Tensor) -> Tensor:
    return ops.run_op("exp", (x,))


def scale(x: Tensor, factor: float) -> Tensor:
    return ops.run_op("scale", (x,), {"factor": float(factor)})


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    return ops.run_op("concat", tuple(tensors), {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    return ops.run_op("stack", tuple(tensors), {"axis": axis})


def reshape(x: Tensor, shape) -> Tensor:
    return ops.run_op("reshape", (x,), {"shape": tuple(shape)})


def transpose(x: Tensor, axes=None) -> Tensor:
    return ops.run_op("transpose", (x,), {"axes": axes})


def masked_fill(x: Tensor, mask: Union[Tensor, np.ndarray], value: float) -> Tensor:
    return ops.run_op("masked_fill", (x, as_tensor(mask)), {"value": float(value)})


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return ops.run_op("reduce_sum", (x,), {"axis": axis, "keepdims": keepdims})


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return ops.run_op("reduce_mean", (x,), {"axis": axis, "keepdims": keepdims})


def reduce_max(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return ops.run_op("reduce_max", (x,), {"axis": axis, "keepdims": keepdims})


def index_select(x: Tensor, ids, axis: int = 0) -> Tensor:
    return ops.run_op("index_select", (x, as_tensor(ids)), {"axis": axis})


def fill_constant(shape, value: float) -> Tensor:
    return ops.run_op(
        "fill_constant", (), {"shape": tuple(shape), "value": float(value)}
    )


def sequence_mask(length: Tensor, max_len: int) -> Tensor:
    """Boolean validity mask (max_len,) from a scalar length tensor."""
    return ops.run_op("sequence_mask", (length,), {"max_len": int(max_len)})


def logical_not(mask: Tensor) -> Tensor:
    return ops.run_op("logical_not", (mask,))


def gather_row(x: Tensor, index: Tensor, offset: int = 0) -> Tensor:
    """Row ``x[index + offset]`` with the index coming from the dataflow."""
    return ops.run_op("gather_row", (x, index), {"offset": int(offset)})


def mod_index(ids: Tensor, modulus: int) -> Tensor:
    return ops.run_op("mod_index", (ids,), {"modulus": int(modulus)})


def dropout(x: Tensor) -> Tensor:
    return ops.run_op("dropout", (x,))


def topk(scores: Tensor, k: int) -> Tensor:
    """Indices of the k largest entries along the last axis, sorted desc."""
    if k < 1:
        raise ValueError("k must be positive")
    return ops.run_op("topk", (scores,), {"k": int(k)})
