"""Standard layers: Linear, Embedding, LayerNorm, activations, Dropout.

The one non-standard citizen is :class:`CatalogEmbedding`, which virtualizes
huge item catalogs. The paper benchmarks catalogs of up to 20 million items;
materializing ``C x d`` float32 tables for those would need gigabytes that a
laptop-scale reproduction cannot spend per model. Instead we materialize
``min(C, materialized_cap)`` deterministic rows and tag the scoring view of
the table with ``catalog_scale = C / materialized``, which the latency model
multiplies back in. Ops that only *look up* session items are charged their
true (small) cost; ops that scan the whole catalog — the maximum inner
product search that dominates inference, per the paper's complexity analysis
— are charged the full virtual cost.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.tensor import ops
from repro.tensor.module import Module, Parameter, _xavier
from repro.tensor.tensor import Tensor


class Linear(Module):
    """Fully connected layer ``y = x @ W.T + b`` (single fused kernel)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _xavier(rng, in_features, out_features, (out_features, in_features)),
            name="weight",
        )
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        inputs = (x, self.weight) if self.bias is None else (x, self.weight, self.bias)
        return ops.run_op("linear", inputs)


class Embedding(Module):
    """A dense lookup table for small vocabularies (e.g. positions)."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            rng.normal(0.0, 0.1, size=(num_embeddings, embedding_dim)).astype(
                np.float32
            ),
            name="weight",
        )

    def forward(self, ids) -> Tensor:
        if isinstance(ids, Tensor):
            return ops.run_op("embedding_lookup", (self.weight, ids))
        # Raw id arrays are trace-time constants (e.g. position indices):
        # the lookup is shared by every request in a batch.
        ids = Tensor(np.asarray(ids, np.int64), batch_invariant=True)
        return ops.run_op("embedding_lookup", (self.weight, ids))


class CatalogEmbedding(Module):
    """Item-embedding table over the full product catalog, virtualized.

    Parameters
    ----------
    num_items:
        Logical catalog size ``C`` (may be tens of millions).
    embedding_dim:
        ``d``, typically ``ceil(C ** 0.25)`` per the paper's heuristic.
    materialized_cap:
        Maximum number of rows to actually allocate. Rows are generated
        deterministically from ``seed``, so two instances with the same
        configuration hold identical tables.
    """

    DEFAULT_CAP = 32768

    def __init__(
        self,
        num_items: int,
        embedding_dim: int,
        materialized_cap: int = DEFAULT_CAP,
        seed: int = 17,
    ):
        super().__init__()
        if num_items < 1:
            raise ValueError("catalog must contain at least one item")
        self.num_items = num_items
        self.embedding_dim = embedding_dim
        self.materialized = min(num_items, materialized_cap)
        rng = np.random.default_rng(seed)
        table = rng.normal(0.0, 0.1, size=(self.materialized, embedding_dim))
        self.weight = Parameter(table.astype(np.float32), name="weight")
        # Scoring view: same storage, tagged with the virtual catalog scale so
        # full-catalog scans are charged their true cost. Registered via
        # object.__setattr__ so it does not appear in the state dict twice.
        scoring = Parameter(self.weight.data, name="weight.scoring")
        scoring.catalog_scale = num_items / self.materialized
        object.__setattr__(self, "_scoring_weight", scoring)

    @property
    def catalog_scale(self) -> float:
        return self._scoring_weight.catalog_scale

    def map_item_ids(self, ids) -> np.ndarray:
        """Fold logical item ids onto materialized rows (deterministic)."""
        ids = np.asarray(ids if not isinstance(ids, Tensor) else ids.data, np.int64)
        if np.any(ids < 0) or np.any(ids >= self.num_items):
            raise ValueError("item id outside catalog")
        return ids % self.materialized

    def forward(self, ids) -> Tensor:
        """Look up session-item embeddings (charged at true, small cost).

        Accepts a Tensor of logical item ids (the traced path — id folding
        happens through the ``mod_index`` kernel so jit replay stays
        input-dependent) or a raw array/list (validated eagerly).
        """
        if not isinstance(ids, Tensor):
            ids = Tensor(self.map_item_ids(ids))
            return ops.run_op("embedding_lookup", (self.weight, ids))
        rows = ops.run_op("mod_index", (ids,), {"modulus": self.materialized})
        return ops.run_op("embedding_lookup", (self.weight, rows))

    def scoring_weight(self) -> Parameter:
        """The full-catalog view used by the top-k inner-product search.

        Stays in sync with ``weight`` even after ``load_state_dict``
        replaces the underlying storage.
        """
        if self._scoring_weight.data is not self.weight.data:
            scoring = Parameter(self.weight.data, name="weight.scoring")
            scoring.catalog_scale = self.num_items / self.materialized
            object.__setattr__(self, "_scoring_weight", scoring)
        return self._scoring_weight


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-6):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim, dtype=np.float32))
        self.beta = Parameter(np.zeros(dim, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return ops.run_op(
            "layer_norm", (x, self.gamma, self.beta), {"eps": self.eps}
        )


class Dropout(Module):
    """Inference-mode dropout: an identity that still costs a kernel launch.

    Eager PyTorch dispatches a no-op dropout kernel in eval mode; the JIT
    optimizer removes it. We model exactly that: in eager execution the op is
    recorded (one launch, one elementwise pass), and the jit dead-op pass
    eliminates it.
    """

    def __init__(self, p: float = 0.1):
        super().__init__()
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        return ops.run_op("dropout", (x,))


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.run_op("tanh", (x,))


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *children: Module):
        super().__init__()
        self._order = []
        for index, child in enumerate(children):
            name = f"layer{index}"
            setattr(self, name, child)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)
