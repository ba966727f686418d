"""The tenant-fleet grammar (``--tenants``, opt-in, default-off).

Production recommendation platforms serve a zoo of models at once —
per-surface models, A/B arms, canaries — on shared capacity. A *tenant*
is one named consumer of the fleet: a model artifact plus a traffic
entitlement and (optionally) a latency contract. The whole fleet is
described by one spec string of ``;``-separated tenant segments::

    name=model:weight[,slo=MS][,shadow][,canary=FRAC][,burst=F][,rollout=T]

- ``name=model:weight`` — the tenant's name, the model it serves
  (``gru4rec``/``narm``/...), and its relative traffic weight. Weights
  of non-shadow tenants are normalized into traffic shares: tenants with
  weights 3 and 1 split client traffic 75% / 25%.
- ``slo=MS`` — this tenant's p90 latency contract in milliseconds. It is
  stamped onto the tenant's requests as a deadline (so PR 3 admission
  disciplines shed against it) and checked per tenant by the fleet
  planner (``docs/tenancy.md``).
- ``shadow`` — a shadow tenant mirrors live traffic: its ``weight`` is
  the *mirror fraction* of total client traffic (in [0, 1]) that is
  copied to it. Shadow responses are scored but never returned to the
  client, and shadow work has zero entitlement under overload (it is
  shed first).
- ``canary=FRAC`` — a canary arm: this fraction of the tenant's own
  traffic is served by the *next* artifact version (the canary keeps its
  own cache keyspace, so stable and canary answers never mix).
- ``burst=F`` — load-model knob: the tenant *sends* F× the traffic its
  weight entitles it to (default 1.0). ``burst=4`` models a tenant storm
  for the fairness drills without touching anyone's entitlement.
- ``rollout=T`` — start a rolling artifact-version update for this
  tenant T seconds after load start (pod by pod; ``docs/tenancy.md``).

A fleet-level segment ``fair=N`` (no ``:`` — not a tenant) sets the
queue depth at which weighted-fair shedding engages (default 64).

Example::

    --tenants "home=gru4rec:3,slo=60;search=narm:1,slo=120;mirror=gru4rec:0.1,shadow"

As with every opt-in subsystem (PRs 3-8): ``--tenants`` unset means no
tenancy object exists anywhere and every code path is bit-identical to
the paper-faithful single-model harness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.grammar import format_value, parse_options

#: Queue depth below which weighted-fair shedding never engages.
DEFAULT_FAIR_DEPTH = 64

_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]*$")

#: spec key -> (field, cast) of a tenant's options after its head.
_KEYS = {
    "slo": ("slo_ms", float),
    "canary": ("canary_fraction", float),
    "burst": ("burst", float),
    "rollout": ("rollout_at_s", float),
}


def _shadow(token: str) -> dict:
    if token != "shadow":
        raise ValueError(
            f"bad tenant spec item {token!r}; expected shadow or key=value"
        )
    return {"shadow": True}


@dataclass(frozen=True)
class TenantConfig:
    """One named tenant of the fleet (see the module grammar)."""

    name: str
    model: str
    weight: float
    #: Per-tenant p90 latency contract in milliseconds (None = no SLO).
    slo_ms: Optional[float] = None
    #: Shadow tenants mirror traffic; weight = mirror fraction in [0, 1].
    shadow: bool = False
    #: Fraction of this tenant's traffic served by the canary artifact.
    canary_fraction: float = 0.0
    #: Traffic sent vs. entitled (load-model knob; 4.0 = a 4x storm).
    burst: float = 1.0
    #: Virtual seconds after load start to begin a rolling version bump.
    rollout_at_s: Optional[float] = None

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"tenant name {self.name!r} must match {_NAME_RE.pattern}"
            )
        if not self.model:
            raise ValueError(f"tenant {self.name!r} needs a model")
        if self.weight < 0:
            raise ValueError(f"tenant {self.name!r}: weight must be >= 0")
        if self.shadow and not 0.0 <= self.weight <= 1.0:
            raise ValueError(
                f"shadow tenant {self.name!r}: weight is the mirror "
                "fraction and must be within [0, 1]"
            )
        if not self.shadow and self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be > 0")
        if not 0.0 <= self.canary_fraction < 1.0:
            raise ValueError(
                f"tenant {self.name!r}: canary fraction must be in [0, 1)"
            )
        if self.shadow and self.canary_fraction > 0:
            raise ValueError(
                f"shadow tenant {self.name!r} cannot carry a canary arm"
            )
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError(f"tenant {self.name!r}: slo must be > 0 ms")
        if self.burst <= 0:
            raise ValueError(f"tenant {self.name!r}: burst must be > 0")
        if self.rollout_at_s is not None and self.rollout_at_s < 0:
            raise ValueError(f"tenant {self.name!r}: rollout must be >= 0 s")

    @classmethod
    def parse(cls, text: str) -> "TenantConfig":
        """Parse one ``name=model:weight[,option...]`` segment."""
        head, _, options = text.partition(",")
        name, eq, spec = head.partition("=")
        model, colon, weight_text = spec.partition(":")
        if not eq or not colon:
            raise ValueError(
                f"tenant segment {text!r} must start with name=model:weight"
            )
        try:
            weight = float(weight_text)
        except ValueError:
            raise ValueError(
                f"tenant {name.strip()!r}: weight {weight_text!r} is not a number"
            ) from None
        # Option keys are case-insensitive, and every value is a number.
        fields = parse_options(options.lower(), "tenant", _KEYS, _shadow)
        return cls(name.strip(), model.strip(), weight, **fields)

    def spec_string(self) -> str:
        """Canonical segment accepted back by :meth:`parse`."""
        parts = [f"{self.name}={self.model}:{format_value(self.weight)}"]
        if self.slo_ms is not None:
            parts.append(f"slo={format_value(self.slo_ms)}")
        if self.shadow:
            parts.append("shadow")
        if self.canary_fraction > 0:
            parts.append(f"canary={format_value(self.canary_fraction)}")
        if self.burst != 1.0:
            parts.append(f"burst={format_value(self.burst)}")
        if self.rollout_at_s is not None:
            parts.append(f"rollout={format_value(self.rollout_at_s)}")
        return ",".join(parts)


@dataclass(frozen=True)
class TenancyConfig:
    """A whole tenant fleet: the parsed form of ``--tenants``."""

    tenants: Tuple[TenantConfig, ...] = ()
    #: Queue depth at which weighted-fair shedding engages.
    fair_depth: int = DEFAULT_FAIR_DEPTH

    def __post_init__(self):
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        if self.tenants and not self.primaries:
            raise ValueError("a fleet needs at least one non-shadow tenant")
        if self.fair_depth < 1:
            raise ValueError("fair depth must be >= 1")

    # -- structure ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return bool(self.tenants)

    @property
    def primaries(self) -> Tuple[TenantConfig, ...]:
        """Tenants that serve client-visible traffic (non-shadow)."""
        return tuple(t for t in self.tenants if not t.shadow)

    @property
    def shadows(self) -> Tuple[TenantConfig, ...]:
        return tuple(t for t in self.tenants if t.shadow)

    def tenant(self, name: str) -> TenantConfig:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(f"no tenant named {name!r}")

    def models(self) -> Tuple[str, ...]:
        """Distinct models hosted by the fleet, in declaration order."""
        seen = []
        for tenant in self.tenants:
            if tenant.model not in seen:
                seen.append(tenant.model)
        return tuple(seen)

    # -- entitlements ------------------------------------------------------

    def entitlement(self, name: str) -> float:
        """The tenant's fair share of capacity under overload.

        Weights of non-shadow tenants normalize to shares; shadow work is
        best-effort and entitled to nothing.
        """
        tenant = self.tenant(name)
        if tenant.shadow:
            return 0.0
        total = sum(t.weight for t in self.primaries)
        return tenant.weight / total

    def traffic_weight(self, name: str) -> float:
        """The tenant's *offered* traffic weight (entitlement × burst)."""
        tenant = self.tenant(name)
        if tenant.shadow:
            return 0.0
        return tenant.weight * tenant.burst

    # -- round-tripping ----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "TenancyConfig":
        """Parse a full ``--tenants`` string ("" = disabled, no tenants)."""
        tenants = []
        fair_depth = DEFAULT_FAIR_DEPTH
        for segment in filter(None, (s.strip() for s in text.split(";"))):
            if ":" not in segment:
                key, _, value = segment.partition("=")
                if key.strip().lower() == "fair":
                    try:
                        fair_depth = int(value)
                    except ValueError:
                        raise ValueError(
                            f"fleet option {segment!r}: fair depth is not "
                            "an integer"
                        ) from None
                    continue
                raise ValueError(
                    f"fleet segment {segment!r} is neither a tenant "
                    "(name=model:weight) nor a fleet option (fair=N)"
                )
            tenants.append(TenantConfig.parse(segment))
        return cls(tenants=tuple(tenants), fair_depth=fair_depth)

    def spec_string(self) -> str:
        """Canonical string accepted back by :meth:`parse`."""
        parts = [t.spec_string() for t in self.tenants]
        if self.fair_depth != DEFAULT_FAIR_DEPTH:
            parts.append(f"fair={self.fair_depth}")
        return ";".join(parts)

    def describe(self) -> str:
        tenants = ", ".join(
            f"{t.name}({t.model}"
            + (f", shadow {t.weight:g}" if t.shadow else f", {t.weight:g}")
            + (f", slo {t.slo_ms:g}ms" if t.slo_ms is not None else "")
            + ")"
            for t in self.tenants
        )
        return f"fleet of {len(self.tenants)}: {tenants}"


__all__ = ["TenantConfig", "TenancyConfig", "DEFAULT_FAIR_DEPTH"]
