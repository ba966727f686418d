"""Primitive kernels with cost accounting.

Every tensor operation in :mod:`repro.tensor` funnels through :func:`_run`,
which executes a real numpy kernel and emits a :class:`CostRecord` into the
ambient :class:`CostTrace` (if one is active). The records carry everything
the roofline latency model in :mod:`repro.hardware.latency_model` needs:

- ``flops``          floating point operations performed,
- ``param_bytes``    bytes of *parameters* read (amortizable over a batch),
- ``read_bytes``     bytes of per-request activations read,
- ``write_bytes``    bytes of per-request activations written,
- ``launches``       kernel launches (the per-op dispatch overhead unit),
- ``host_op``        whether the op runs on the host interpreter even when
                     the model is deployed on an accelerator (the SR-GNN /
                     GC-SAN numpy-in-forward bug from the paper),
- ``transfer_bytes`` bytes crossing the host/device boundary for host ops,
- ``catalog_scale``  multiplier for ops whose tensors stand in for a larger
                     virtualized catalog (see
                     :class:`repro.tensor.layers.CatalogEmbedding`).

Kernels are registered by name in :data:`KERNELS` so that
:class:`repro.tensor.jit.ScriptedModule` can re-execute captured graphs.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Cost records and traces
# ---------------------------------------------------------------------------


@dataclass
class CostRecord:
    """Cost metadata for one executed kernel."""

    op: str
    launches: int = 1
    flops: float = 0.0
    param_bytes: float = 0.0
    read_bytes: float = 0.0
    write_bytes: float = 0.0
    host_op: bool = False
    transfer_bytes: float = 0.0
    catalog_scale: float = 1.0
    elementwise: bool = False
    batch_invariant: bool = False

    def scaled(self) -> "CostRecord":
        """Return a copy with the catalog scale folded into the raw costs."""
        s = self.catalog_scale
        return CostRecord(
            op=self.op,
            launches=self.launches,
            flops=self.flops * s,
            param_bytes=self.param_bytes * s,
            read_bytes=self.read_bytes * s,
            write_bytes=self.write_bytes * s,
            host_op=self.host_op,
            transfer_bytes=self.transfer_bytes * s,
            catalog_scale=1.0,
            elementwise=self.elementwise,
            batch_invariant=self.batch_invariant,
        )


@dataclass
class CostTrace:
    """An ordered stream of cost records for one model invocation."""

    records: List[CostRecord] = field(default_factory=list)

    def append(self, record: CostRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[CostRecord]:
        return iter(self.records)

    @property
    def total_flops(self) -> float:
        return sum(r.flops * r.catalog_scale for r in self.records)

    @property
    def total_launches(self) -> int:
        return sum(r.launches for r in self.records)

    @property
    def total_param_bytes(self) -> float:
        return sum(r.param_bytes * r.catalog_scale for r in self.records)

    @property
    def total_activation_bytes(self) -> float:
        return sum(
            (r.read_bytes + r.write_bytes) * r.catalog_scale for r in self.records
        )

    @property
    def total_transfer_bytes(self) -> float:
        return sum(r.transfer_bytes * r.catalog_scale for r in self.records)

    @property
    def host_op_count(self) -> int:
        return sum(1 for r in self.records if r.host_op)


_TRACE_STACK: List[CostTrace] = []


@contextlib.contextmanager
def cost_trace() -> Iterator[CostTrace]:
    """Collect the cost records of all ops executed inside the block."""
    trace = CostTrace()
    _TRACE_STACK.append(trace)
    try:
        yield trace
    finally:
        _TRACE_STACK.remove(trace)


def record_cost(record: CostRecord) -> None:
    """Append a record to every active trace (outermost first)."""
    for trace in _TRACE_STACK:
        trace.append(record)


# ---------------------------------------------------------------------------
# Graph capture hook (used by repro.tensor.jit)
# ---------------------------------------------------------------------------

_GRAPH_BUILDER = None


def set_graph_builder(builder) -> None:
    """Install (or clear, with ``None``) the active jit graph builder."""
    global _GRAPH_BUILDER
    _GRAPH_BUILDER = builder


def is_capturing() -> bool:
    return _GRAPH_BUILDER is not None


# ---------------------------------------------------------------------------
# Kernel registry and dispatch
# ---------------------------------------------------------------------------

KERNELS: Dict[str, Callable] = {}


def kernel(name: str):
    """Register a kernel: ``fn(arrays, attrs) -> (out_array, CostRecord)``."""

    def decorate(fn):
        KERNELS[name] = fn
        return fn

    return decorate


def _unwrap(value):
    """ndarray for a Tensor, passthrough for scalars/ndarrays."""
    from repro.tensor.tensor import Tensor

    if isinstance(value, Tensor):
        return value.data
    return value


def _input_scale(values: Sequence) -> float:
    from repro.tensor.tensor import Tensor

    scale = 1.0
    for value in values:
        if isinstance(value, Tensor):
            scale = max(scale, value.catalog_scale)
    return scale


def _split_input_bytes(values: Sequence) -> Tuple[float, float]:
    """(batch-amortized bytes, per-item activation read bytes) over inputs.

    Parameter tensors AND batch-invariant activations (e.g. a normalized
    copy of the catalog table) are shared across a batch, so their reads
    amortize like weight streaming.
    """
    from repro.tensor.tensor import Tensor

    param_bytes = 0.0
    read_bytes = 0.0
    for value in values:
        if isinstance(value, Tensor):
            if value.is_param or value.batch_invariant:
                param_bytes += value.data.nbytes
            else:
                read_bytes += value.data.nbytes
        elif isinstance(value, np.ndarray):
            read_bytes += value.nbytes
    return param_bytes, read_bytes


def _all_inputs_invariant(values: Sequence) -> bool:
    from repro.tensor.tensor import Tensor

    return all(
        value.is_param or value.batch_invariant
        for value in values
        if isinstance(value, Tensor)
    )


def run_op(name: str, inputs: Sequence, attrs: Optional[dict] = None):
    """Execute the registered kernel ``name`` and emit its cost record.

    ``inputs`` may mix :class:`~repro.tensor.tensor.Tensor`, ndarray and
    Python scalars. Returns a Tensor wrapping the kernel output, with the
    catalog scale propagated as the max over the inputs.
    """
    from repro.tensor.tensor import Tensor

    attrs = attrs or {}
    arrays = [_unwrap(v) for v in inputs]
    # IEEE float semantics (inf/nan propagate) without warning noise, as in
    # the frameworks this substrate stands in for.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out_array, record = KERNELS[name](arrays, attrs)
    record.catalog_scale = _input_scale(inputs)
    record.batch_invariant = _all_inputs_invariant(inputs)
    if record.param_bytes == 0.0 and record.read_bytes == 0.0:
        record.param_bytes, record.read_bytes = _split_input_bytes(inputs)
    record_cost(record)
    out = Tensor(
        out_array,
        catalog_scale=record.catalog_scale,
        batch_invariant=record.batch_invariant,
    )
    builder = _GRAPH_BUILDER
    if builder is not None:
        builder.add_op(name, inputs, attrs, out, record)
    return out


# ---------------------------------------------------------------------------
# Shape / cost helpers
# ---------------------------------------------------------------------------


def _size(array: np.ndarray) -> int:
    return int(array.size)


def _out_record(
    op: str,
    out: np.ndarray,
    flops: float,
    launches: int = 1,
    elementwise: bool = False,
    host_op: bool = False,
    transfer_bytes: float = 0.0,
) -> CostRecord:
    return CostRecord(
        op=op,
        launches=launches,
        flops=float(flops),
        write_bytes=float(out.nbytes),
        elementwise=elementwise,
        host_op=host_op,
        transfer_bytes=float(transfer_bytes),
    )


# ---------------------------------------------------------------------------
# Elementwise kernels
# ---------------------------------------------------------------------------

_ELEMENTWISE_NUMPY = {
    "add": (np.add, 1.0),
    "sub": (np.subtract, 1.0),
    "mul": (np.multiply, 1.0),
    "div": (np.divide, 1.0),
    "maximum": (np.maximum, 1.0),
    "minimum": (np.minimum, 1.0),
    "pow": (np.power, 4.0),
}


def _make_binary_kernel(name: str, fn, flop_factor: float):
    @kernel(name)
    def _kernel(arrays, attrs, _fn=fn, _name=name, _factor=flop_factor):
        out = _fn(arrays[0], arrays[1])
        out = np.asarray(out, dtype=np.float32)
        return out, _out_record(_name, out, _size(out) * _factor, elementwise=True)

    return _kernel


for _name, (_fn, _factor) in _ELEMENTWISE_NUMPY.items():
    _make_binary_kernel(_name, _fn, _factor)


_UNARY_NUMPY = {
    "neg": (np.negative, 1.0),
    "exp": (np.exp, 6.0),
    "log": (np.log, 6.0),
    "sqrt": (np.sqrt, 2.0),
    "tanh": (np.tanh, 8.0),
    "abs": (np.abs, 1.0),
}


def _make_unary_kernel(name: str, fn, flop_factor: float):
    @kernel(name)
    def _kernel(arrays, attrs, _fn=fn, _name=name, _factor=flop_factor):
        out = np.asarray(_fn(arrays[0]), dtype=np.float32)
        return out, _out_record(_name, out, _size(out) * _factor, elementwise=True)

    return _kernel


for _name, (_fn, _factor) in _UNARY_NUMPY.items():
    _make_unary_kernel(_name, _fn, _factor)


@kernel("sigmoid")
def _sigmoid_kernel(arrays, attrs):
    x = np.asarray(arrays[0], dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    out = out.astype(np.float32)
    return out, _out_record("sigmoid", out, _size(out) * 8.0, elementwise=True)


@kernel("relu")
def _relu_kernel(arrays, attrs):
    out = np.maximum(arrays[0], 0.0).astype(np.float32)
    return out, _out_record("relu", out, _size(out), elementwise=True)


@kernel("gelu")
def _gelu_kernel(arrays, attrs):
    x = arrays[0]
    c = math.sqrt(2.0 / math.pi)
    out = (0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))).astype(np.float32)
    return out, _out_record("gelu", out, _size(out) * 12.0, elementwise=True)


@kernel("scale")
def _scale_kernel(arrays, attrs):
    out = (arrays[0] * attrs["factor"]).astype(np.float32)
    return out, _out_record("scale", out, _size(out), elementwise=True)


@kernel("fill_constant")
def _fill_constant_kernel(arrays, attrs):
    out = np.full(attrs["shape"], attrs["value"], dtype=np.float32)
    return out, _out_record("fill_constant", out, 0.0, elementwise=True)


# ---------------------------------------------------------------------------
# Linear algebra kernels
# ---------------------------------------------------------------------------


@kernel("matmul")
def _matmul_kernel(arrays, attrs):
    a, b = arrays
    out = np.matmul(a, b).astype(np.float32)
    k = a.shape[-1]
    flops = 2.0 * _size(out) * k
    return out, _out_record("matmul", out, flops)


@kernel("linear")
def _linear_kernel(arrays, attrs):
    """Fused ``x @ W.T + b`` — the workhorse of every model here."""
    x, weight = arrays[0], arrays[1]
    out = np.matmul(x, weight.T)
    if len(arrays) > 2 and arrays[2] is not None:
        out = out + arrays[2]
    out = out.astype(np.float32)
    flops = 2.0 * _size(out) * x.shape[-1] + _size(out)
    return out, _out_record("linear", out, flops)


@kernel("linear_act")
def _linear_act_kernel(arrays, attrs):
    """JIT-fused linear + activation, produced by the fusion pass."""
    x, weight = arrays[0], arrays[1]
    out = np.matmul(x, weight.T)
    if len(arrays) > 2 and arrays[2] is not None:
        out = out + arrays[2]
    activation = attrs.get("activation", "relu")
    if activation == "relu":
        out = np.maximum(out, 0.0)
    elif activation == "tanh":
        out = np.tanh(out)
    elif activation == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-out))
    out = out.astype(np.float32)
    flops = 2.0 * _size(out) * x.shape[-1] + 9.0 * _size(out)
    return out, _out_record("linear_act", out, flops)


# ---------------------------------------------------------------------------
# Shape kernels (views are free in eager PyTorch; copies are not)
# ---------------------------------------------------------------------------


@kernel("reshape")
def _reshape_kernel(arrays, attrs):
    out = arrays[0].reshape(attrs["shape"])
    return out, CostRecord(op="reshape", launches=0)


@kernel("transpose")
def _transpose_kernel(arrays, attrs):
    out = np.transpose(arrays[0], attrs.get("axes"))
    return out, CostRecord(op="transpose", launches=0)


@kernel("concat")
def _concat_kernel(arrays, attrs):
    out = np.concatenate(arrays, axis=attrs.get("axis", -1)).astype(np.float32)
    return out, _out_record("concat", out, 0.0, elementwise=True)


@kernel("stack")
def _stack_kernel(arrays, attrs):
    out = np.stack(arrays, axis=attrs.get("axis", 0)).astype(np.float32)
    return out, _out_record("stack", out, 0.0, elementwise=True)


@kernel("slice")
def _slice_kernel(arrays, attrs):
    out = arrays[0][attrs["key"]]
    out = np.ascontiguousarray(out)
    return out, _out_record("slice", out, 0.0)


# ---------------------------------------------------------------------------
# Reductions, normalization, attention pieces
# ---------------------------------------------------------------------------


def _reduce_record(name: str, x: np.ndarray, out: np.ndarray) -> CostRecord:
    record = _out_record(name, out, _size(x))
    record.read_bytes = float(x.nbytes)
    return record


@kernel("reduce_sum")
def _reduce_sum_kernel(arrays, attrs):
    out = np.sum(arrays[0], axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False))
    out = np.asarray(out, dtype=np.float32)
    return out, _reduce_record("reduce_sum", arrays[0], out)


@kernel("reduce_mean")
def _reduce_mean_kernel(arrays, attrs):
    out = np.mean(arrays[0], axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False))
    out = np.asarray(out, dtype=np.float32)
    return out, _reduce_record("reduce_mean", arrays[0], out)


@kernel("reduce_max")
def _reduce_max_kernel(arrays, attrs):
    out = np.max(arrays[0], axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False))
    out = np.asarray(out, dtype=np.float32)
    return out, _reduce_record("reduce_max", arrays[0], out)


@kernel("softmax")
def _softmax_kernel(arrays, attrs):
    x = arrays[0]
    axis = attrs.get("axis", -1)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = (exp / np.sum(exp, axis=axis, keepdims=True)).astype(np.float32)
    record = _out_record("softmax", out, 8.0 * _size(x))
    record.read_bytes = float(x.nbytes) * 3.0  # max, exp, normalize passes
    return out, record


@kernel("layer_norm")
def _layer_norm_kernel(arrays, attrs):
    x, gamma, beta = arrays
    eps = attrs.get("eps", 1e-6)
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    out = ((x - mean) / np.sqrt(var + eps) * gamma + beta).astype(np.float32)
    record = _out_record("layer_norm", out, 8.0 * _size(x))
    record.read_bytes = float(x.nbytes) * 2.0
    return out, record


@kernel("masked_fill")
def _masked_fill_kernel(arrays, attrs):
    x, mask = arrays
    out = np.where(mask.astype(bool), np.float32(attrs["value"]), x).astype(np.float32)
    return out, _out_record("masked_fill", out, _size(out), elementwise=True)


# ---------------------------------------------------------------------------
# Embedding / gather / top-k kernels
# ---------------------------------------------------------------------------


@kernel("embedding_lookup")
def _embedding_lookup_kernel(arrays, attrs):
    table, ids = arrays
    idx = np.asarray(ids, dtype=np.int64)
    out = table[idx].astype(np.float32)
    record = _out_record("embedding_lookup", out, 0.0)
    record.param_bytes = float(out.nbytes)  # only touched rows are read
    return out, record


@kernel("index_select")
def _index_select_kernel(arrays, attrs):
    x, ids = arrays
    idx = np.asarray(ids, dtype=np.int64)
    out = np.take(x, idx, axis=attrs.get("axis", 0)).astype(np.float32)
    return out, _out_record("index_select", out, 0.0)


@kernel("topk")
def _topk_kernel(arrays, attrs):
    scores = arrays[0]
    k = min(attrs["k"], scores.shape[-1])
    part = np.argpartition(-scores, k - 1, axis=-1)
    top = np.take(part, np.arange(k), axis=-1)
    top_scores = np.take_along_axis(scores, top, axis=-1)
    order = np.argsort(-top_scores, axis=-1)
    idx = np.take_along_axis(top, order, axis=-1)
    record = CostRecord(
        op="topk",
        launches=1,
        flops=2.0 * _size(scores) + _size(scores) * math.log2(max(k, 2)),
        read_bytes=float(scores.nbytes),
        write_bytes=float(idx.nbytes),
    )
    return idx.astype(np.int64), record


# ---------------------------------------------------------------------------
# Session / sequence kernels
# ---------------------------------------------------------------------------


@kernel("dropout")
def _dropout_kernel(arrays, attrs):
    """Inference-mode dropout: numerically the identity, but eager PyTorch
    still dispatches a kernel for it. The jit dead-op pass removes it."""
    out = arrays[0]
    return out, _out_record("dropout", out, 0.0, elementwise=True)


@kernel("mod_index")
def _mod_index_kernel(arrays, attrs):
    out = (np.asarray(arrays[0], dtype=np.int64) % attrs["modulus"]).astype(np.int64)
    record = CostRecord(op="mod_index", launches=1, flops=float(out.size))
    record.write_bytes = float(out.nbytes)
    return out, record


@kernel("sequence_mask")
def _sequence_mask_kernel(arrays, attrs):
    """Boolean validity mask of shape (max_len,) from a scalar length."""
    length = int(np.asarray(arrays[0]).reshape(-1)[0])
    max_len = attrs["max_len"]
    out = np.arange(max_len) < length
    record = CostRecord(op="sequence_mask", launches=1, flops=float(max_len))
    record.write_bytes = float(out.nbytes)
    return out, record


@kernel("logical_not")
def _logical_not_kernel(arrays, attrs):
    out = np.logical_not(arrays[0].astype(bool))
    record = CostRecord(op="logical_not", launches=1, flops=float(out.size))
    record.write_bytes = float(out.nbytes)
    return out, record


@kernel("gather_row")
def _gather_row_kernel(arrays, attrs):
    """Pick one leading-axis row by a (traced) scalar index tensor."""
    x, index = arrays
    row = int(np.asarray(index).reshape(-1)[0]) + attrs.get("offset", 0)
    out = np.ascontiguousarray(x[row])
    return out, _out_record("gather_row", out, 0.0)


@kernel("gru_sequence")
def _gru_sequence_kernel(arrays, attrs):
    """Fused single-layer GRU over a full sequence (the cuDNN-style path).

    Inputs: x (L, in), w_ih (3d, in), w_hh (3d, d), b_ih (3d,), b_hh (3d,),
    h0 (d,). Output: all hidden states (L, d). One kernel launch, like
    ``torch.nn.GRU`` dispatching to cuDNN.
    """
    x, w_ih, w_hh, b_ih, b_hh, h0 = arrays
    seq_len = x.shape[0]
    d = w_hh.shape[1]
    h = h0.astype(np.float32)
    gi_all = x @ w_ih.T + b_ih  # (L, 3d): the input projections batch nicely
    outputs = np.empty((seq_len, d), dtype=np.float32)
    for t in range(seq_len):
        gh = h @ w_hh.T + b_hh
        gi = gi_all[t]
        reset = 1.0 / (1.0 + np.exp(-(gi[0:d] + gh[0:d])))
        update = 1.0 / (1.0 + np.exp(-(gi[d : 2 * d] + gh[d : 2 * d])))
        candidate = np.tanh(gi[2 * d : 3 * d] + reset * gh[2 * d : 3 * d])
        h = (1.0 - update) * h + update * candidate
        outputs[t] = h
    in_dim = x.shape[1]
    flops = seq_len * (6.0 * d * (in_dim + d) + 30.0 * d)
    record = CostRecord(
        op="gru_sequence",
        launches=1,
        flops=flops,
        write_bytes=float(outputs.nbytes),
    )
    return outputs, record


# ---------------------------------------------------------------------------
# Host-side escape hatch (the SR-GNN / GC-SAN numpy-in-forward pattern)
# ---------------------------------------------------------------------------


def host_numpy(
    op_name: str,
    fn: Callable[..., np.ndarray],
    *inputs,
    catalog_scale: Optional[float] = None,
):
    """Run ``fn`` on raw ndarrays *on the host*, outside the device stream.

    On a GPU deployment this forces a device→host→device round trip; the
    cost model charges PCIe transfer for all input and output bytes plus a
    synchronization stall. This deliberately reproduces the RecBole SR-GNN /
    GC-SAN inference bottleneck the paper reports.

    ``catalog_scale`` tags the output (and the op's cost) as standing in for
    a virtualized catalog — RepeatNet's dense one-hot scatter uses this.
    """
    from repro.tensor.tensor import Tensor

    arrays = [_unwrap(v) for v in inputs]
    out = np.asarray(fn(*arrays))
    in_bytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    scale = catalog_scale if catalog_scale is not None else _input_scale(inputs)
    record = CostRecord(
        op=f"host[{op_name}]",
        launches=1,
        flops=0.0,
        read_bytes=float(in_bytes),
        write_bytes=float(out.nbytes),
        host_op=True,
        transfer_bytes=float(in_bytes + out.nbytes),
        catalog_scale=scale,
    )
    record_cost(record)
    builder = _GRAPH_BUILDER
    result = Tensor(out, catalog_scale=record.catalog_scale)
    if builder is not None:
        builder.add_host_op(op_name, fn, inputs, result, record)
    return result
