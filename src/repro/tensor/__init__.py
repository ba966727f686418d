"""A small numpy-backed neural inference engine with cost accounting.

This package is the stand-in for PyTorch in the ETUDE reproduction. It
provides just enough of an inference stack to express the ten session-based
recommendation models from the paper:

- :class:`~repro.tensor.tensor.Tensor` — an ndarray wrapper whose operations
  run real numpy kernels *and* record per-op cost metadata (FLOPs, bytes
  moved, kernel launches) into an ambient :class:`~repro.tensor.ops.CostTrace`.
- :class:`~repro.tensor.module.Module` / :class:`~repro.tensor.module.Parameter`
  — the familiar container abstractions.
- Layers (:mod:`~repro.tensor.layers`), recurrent cells
  (:mod:`~repro.tensor.rnn`) and attention (:mod:`~repro.tensor.attention`).
- :mod:`~repro.tensor.jit` — trace-based capture of a module's op graph and
  an optimization pipeline (dead-op elimination, constant folding,
  elementwise fusion) mirroring ``torch.jit.optimize_for_inference``.

The cost metadata feeds :mod:`repro.hardware.latency_model`, which turns an
op stream into device latency. Numerical outputs are real: models produce
actual top-k recommendations.
"""

from repro.tensor.tensor import Tensor, as_tensor
from repro.tensor.ops import CostRecord, CostTrace, cost_trace, current_trace
from repro.tensor.module import Module, Parameter
from repro.tensor.layers import (
    CatalogEmbedding,
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
)
from repro.tensor.rnn import GRU, GRUCell
from repro.tensor.attention import MultiHeadAttention, scaled_dot_product_attention
from repro.tensor import functional
from repro.tensor.jit import (
    JitCompilationError,
    ScriptedModule,
    optimize_for_inference,
    trace,
)
from repro.tensor.serialization import load_module_state, save_module_state
from repro.tensor.quantization import QuantizedCatalogEmbedding, quantize_model

# repro.tensor.profiler depends on repro.hardware (which imports this
# package): import it directly, e.g.
# ``from repro.tensor.profiler import profile_model``.

__all__ = [
    "Tensor",
    "as_tensor",
    "CostRecord",
    "CostTrace",
    "cost_trace",
    "current_trace",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "CatalogEmbedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "ReLU",
    "GELU",
    "Tanh",
    "Sigmoid",
    "Softmax",
    "GRU",
    "GRUCell",
    "MultiHeadAttention",
    "scaled_dot_product_attention",
    "functional",
    "trace",
    "optimize_for_inference",
    "ScriptedModule",
    "JitCompilationError",
    "save_module_state",
    "load_module_state",
    "quantize_model",
    "QuantizedCatalogEmbedding",
]
