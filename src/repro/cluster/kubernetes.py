"""Cluster, nodes, pods, deployments, readiness probes.

Mirrors the paper's flow: "ETUDE will then deploy the model onto a
dedicated machine in Kubernetes. Once the model deployment is finished
(determined via Kubernetes's readiness probes), a ClusterIP service
interface is deployed ...". Deployment timing: node provisioning (Autopilot
spins up a machine), artifact download from the storage bucket, model load
+ (optional) JIT warm-up, then the readiness probe flips and the pod joins
the service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.tier import RemoteCacheTier
from repro.cluster.storage import StorageBucket
from repro.hardware.device import CPU_RESERVE_BYTES, GPU_RESERVE_BYTES
from repro.hardware.instances import InstanceType
from repro.hardware.latency_model import LatencyModel, ServiceTimeProfile
from repro.serving.actix import EtudeInferenceServer, shard_scoped_version
from repro.serving.batching import BatchingConfig
from repro.serving.profiles import ActixProfile
from repro.sharding.config import ShardingConfig
from repro.simulation import Signal, Simulator

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry
    from repro.tenancy.fleet import TenantServing


class DeploymentError(RuntimeError):
    """The deployment cannot run on the requested hardware."""


def zone_name(index: int) -> str:
    """Canonical failure-domain name for a zone index (``z0``, ``z1``, ...)."""
    return f"z{index}"


@dataclass
class Pod:
    """One serving replica on one node."""

    name: str
    instance_type: InstanceType
    server: Optional[EtudeInferenceServer] = None
    #: Every server this pod ran, the current one last: a kubelet restart
    #: adds one, and what a crashed server counted stays readable.
    servers: List[EtudeInferenceServer] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Written only through :meth:`ModelDeployment.set_ready`.
    ready: bool = False
    ready_at: float = float("inf")
    #: Catalog shard this replica serves (0 on unsharded deployments).
    shard: int = 0
    #: Failure domain (availability zone) hosting this pod's node. Empty on
    #: single-zone deployments — the pre-zone default. Kubelet restarts
    #: reuse the Pod object, so a restarted pod keeps its home zone.
    zone: str = ""


@dataclass(frozen=True)
class AuxiliaryFleet:
    """A CPU pod pool riding beside a GPU primary fleet.

    The heterogeneous scheduler's deployment shape: the same model and
    artifact, served from non-batching CPU pods with their own (CPU)
    service-time profile. The pool shares the deployment's readiness
    signal, restart path and ClusterIP service; the dispatcher decides
    which class answers which request.
    """

    instance_type: InstanceType
    replicas: int
    service_profile: ServiceTimeProfile
    resident_bytes: float

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("auxiliary replicas must be >= 1")
        if self.instance_type.device.is_accelerator:
            raise ValueError(
                "the auxiliary fleet is the CPU side of a heterogeneous "
                f"deployment; {self.instance_type.name} is an accelerator"
            )


@dataclass(frozen=True)
class PodTemplate:
    """What every pod of one deployment runs.

    Deploy, kubelet restart and scale-up all build a pod's server from
    the deployment's template, so a restarted or added pod serves what a
    deploy-time pod of its shard serves. The heterogeneous scheduler
    swaps in its tuned batching with ``dataclasses.replace``.
    """

    artifact_path: str
    service_profile: ServiceTimeProfile
    batching: BatchingConfig
    server_profile: Optional[ActixProfile] = None
    jit_warmup_s: float = 0.0
    #: Bytes loaded into (device) memory; None charges the stored blob.
    #: The virtual catalog means the stored artifact can be smaller than
    #: the logical model, so callers pass the logical footprint.
    load_bytes: Optional[float] = None
    telemetry: Optional["Telemetry"] = None
    #: The deployment's one shared remote cache tier (a memcached-style
    #: sidecar every pod reaches over a network hop), or None.
    remote_cache: Optional[RemoteCacheTier] = None
    #: Catalog sharding with S > 1; None on an unsharded deployment.
    sharding: Optional[ShardingConfig] = None
    #: ANN index construction (k-means + list assignment), charged on
    #: every pod before its readiness probe flips, restarts included:
    #: the artifact ships embeddings, not the trained index.
    index_build_s: float = 0.0
    #: A CPU pool beside an accelerator fleet (:class:`AuxiliaryFleet`).
    #: Every pod must hold the full catalog so either class can answer
    #: any request, so an experiment spec never combines it with
    #: sharding (``repro.core.spec.CONFLICTS``).
    auxiliary: Optional[AuxiliaryFleet] = None
    #: A tenant fleet co-located on every pod (``docs/tenancy.md``). The
    #: caller passes the fleet's *summed* resident footprint to
    #: ``deploy_model`` so the fit checks price the co-location. An
    #: experiment spec never combines it with sharding or an auxiliary
    #: pool (``repro.core.spec.CONFLICTS``).
    tenants: Optional[Sequence["TenantServing"]] = None
    tenant_fair_depth: int = 64


class ModelDeployment:
    """A replicated model-serving deployment."""

    def __init__(
        self,
        name: str,
        pods: List[Pod],
        ready_signal: Signal,
        template: PodTemplate,
        zones: int = 1,
    ):
        self.name = name
        #: Every pod, in deployment order; only :meth:`append_pod` grows it.
        self.pods = pods
        self.ready_signal = ready_signal
        #: What every pod runs: read again at each restart and scale-up.
        self.template = template
        #: Failure domains the fleet is spread over (1 = no zone topology).
        self.zones = zones
        #: ``ready_pods`` and each shard's ready pods, kept until a
        #: readiness write or a pod append.
        self._ready: Optional[Tuple[Pod, ...]] = None
        self._ready_in_shard: Dict[int, Tuple[Pod, ...]] = {}

    def set_ready(self, pod: Pod, ready: bool) -> None:
        """Flip ``pod``'s readiness probe. Boot, restart, crash, scale-down
        and the tenant rollout all write readiness here, and nowhere else."""
        pod.ready = ready
        self._forget_ready()

    def append_pod(self, pod: Pod) -> None:
        self.pods.append(pod)
        self._forget_ready()

    def _forget_ready(self) -> None:
        self._ready = None
        self._ready_in_shard = {}

    @property
    def sharding(self) -> Optional[ShardingConfig]:
        """Catalog-sharding config; None means unsharded."""
        return self.template.sharding

    @property
    def shards(self) -> int:
        return self.sharding.shards if self.sharding is not None else 1

    @property
    def zone_names(self) -> List[str]:
        """The distinct failure domains hosting pods, in index order."""
        return [zone_name(index) for index in range(self.zones)] if self.zones > 1 else []

    def pods_in_zone(self, zone: str) -> List[Pod]:
        return [pod for pod in self.pods if pod.zone == zone]

    @property
    def ready_pods(self) -> Tuple[Pod, ...]:
        """The ready pods, in deployment order."""
        if self._ready is None:
            self._ready = tuple(pod for pod in self.pods if pod.ready)
        return self._ready

    def ready_in_shard(self, shard: int) -> Tuple[Pod, ...]:
        """The ready pods of one catalog shard, in deployment order."""
        ready = self._ready_in_shard.get(shard)
        if ready is None:
            ready = tuple(pod for pod in self.ready_pods if pod.shard == shard)
            self._ready_in_shard[shard] = ready
        return ready

    @property
    def all_ready(self) -> bool:
        return all(pod.ready for pod in self.pods)


class Cluster:
    """The Kubernetes cluster (Autopilot-style: nodes appear on demand)."""

    #: Node provisioning time range (Autopilot cold starts), seconds.
    PROVISION_MIN_S = 25.0
    PROVISION_MAX_S = 75.0
    #: Fixed pod startup cost: image pull + container boot, seconds.
    POD_BOOT_S = 8.0
    #: Model load rate from local disk into (device) memory, bytes/second.
    MODEL_LOAD_BANDWIDTH = 400e6

    def __init__(
        self,
        simulator: Simulator,
        bucket: StorageBucket,
        rng: np.random.Generator,
    ):
        self.simulator = simulator
        self.bucket = bucket
        self.rng = rng
        self.deployments: List[ModelDeployment] = []
        self._pod_counter = 0

    # -- feasibility ------------------------------------------------------------

    @staticmethod
    def fit_batching(
        instance_type: InstanceType,
        resident_bytes: float,
        score_bytes_per_item: float,
        requested: Optional[BatchingConfig] = None,
    ) -> BatchingConfig:
        """Cap the batching buffer so batched score tensors fit device memory.

        Real GPU serving sizes the batch to the device: with a C-item
        catalog every batched request materializes a C-float score vector.
        Raises :class:`DeploymentError` when not even a single request fits.
        """
        requested = requested or BatchingConfig()
        device = instance_type.device
        if not device.is_accelerator:
            return requested
        available = device.memory_bytes - resident_bytes - GPU_RESERVE_BYTES
        if score_bytes_per_item <= 0:
            return requested
        max_fit = int(available // score_bytes_per_item)
        if max_fit < 1:
            raise DeploymentError(
                f"model ({resident_bytes / 1e9:.1f} GB resident) leaves no room "
                f"for even one batched request on {device.name} "
                f"({device.memory_bytes / 1e9:.0f} GB)"
            )
        return BatchingConfig(
            max_batch_size=min(requested.max_batch_size, max_fit),
            max_delay_s=requested.max_delay_s,
        )

    @staticmethod
    def check_fit(
        instance_type: InstanceType,
        resident_bytes: float,
        max_batch: int,
        score_bytes_per_item: float,
    ) -> None:
        """Raise :class:`DeploymentError` if the model cannot be resident.

        On GPUs: parameters + the batched score buffers + runtime reserve
        must fit device memory. On CPUs: parameters must fit RAM.
        """
        device = instance_type.device
        model = LatencyModel(device)
        if device.is_accelerator:
            if not model.fits_in_memory(resident_bytes, max_batch, score_bytes_per_item):
                raise DeploymentError(
                    f"model ({resident_bytes / 1e9:.1f} GB resident) does not fit "
                    f"{device.name} memory ({device.memory_bytes / 1e9:.0f} GB) "
                    f"with batch {max_batch}"
                )
        elif resident_bytes + CPU_RESERVE_BYTES > instance_type.ram_bytes:
            raise DeploymentError(
                f"model ({resident_bytes / 1e9:.1f} GB) does not fit "
                f"{instance_type.name} RAM ({instance_type.ram_bytes / 1e9:.0f} GB)"
            )

    # -- deployment --------------------------------------------------------------

    def deploy_model(
        self,
        name: str,
        instance_type: InstanceType,
        replicas: int,
        artifact_path: str,
        service_profile: ServiceTimeProfile,
        resident_bytes: float,
        score_bytes_per_item: float,
        batching: Optional[BatchingConfig] = None,
        server_profile: Optional[ActixProfile] = None,
        jit_warmup_s: float = 0.0,
        load_bytes: Optional[float] = None,
        telemetry: Optional["Telemetry"] = None,
        sharding: Optional[ShardingConfig] = None,
        index_build_s: float = 0.0,
        auxiliary: Optional[AuxiliaryFleet] = None,
        zones: int = 1,
        tenants: Optional[Sequence["TenantServing"]] = None,
        tenant_fair_depth: int = 64,
    ) -> ModelDeployment:
        """Create a deployment; pods become ready asynchronously.

        Wait on ``deployment.ready_signal`` (the readiness-probe equivalent)
        before routing traffic. What each pod runs is kept as the
        deployment's :class:`PodTemplate`; its fields document the
        server-side options.

        With ``sharding`` enabled, ``replicas`` is *per shard*:
        ``shards * replicas`` pods come up, grouped by shard, and the
        caller is expected to pass the per-shard ``service_profile`` /
        ``resident_bytes`` / ``score_bytes_per_item`` (each pod hosts one
        catalog slice, not the whole table).

        ``zones > 1`` spreads the fleet over that many failure domains
        with a round-robin anti-affinity policy: within each shard's
        replica group, consecutive replicas land in consecutive zones, so
        no two replicas of a shard co-locate whenever
        ``replicas <= zones`` (and the per-zone spread never differs by
        more than one replica otherwise). Kubelet restarts return a pod to
        its home zone. ``zones=1`` (the default) assigns no zone at all —
        byte-identical to a deployment that predates zone topology.
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if zones < 1:
            raise ValueError("zones must be >= 1")
        shards = sharding.shards if sharding is not None and sharding.enabled else 1
        if auxiliary is not None:
            if not instance_type.device.is_accelerator:
                raise DeploymentError(
                    "an auxiliary CPU pool requires an accelerator primary "
                    f"fleet; the primary is {instance_type.name}"
                )
            self.check_fit(
                auxiliary.instance_type, auxiliary.resident_bytes, 1,
                score_bytes_per_item,
            )
        batching = self.fit_batching(
            instance_type, resident_bytes, score_bytes_per_item, batching
        )
        self.check_fit(
            instance_type,
            resident_bytes,
            batching.max_batch_size,
            score_bytes_per_item,
        )
        if not self.bucket.exists(artifact_path):
            raise DeploymentError(f"artifact {artifact_path!r} not in bucket")

        remote_cache = None
        if (
            server_profile is not None
            and server_profile.cache is not None
            and server_profile.cache.remote_capacity > 0
        ):
            remote_cache = RemoteCacheTier(server_profile.cache)
        template = PodTemplate(
            artifact_path=artifact_path,
            service_profile=service_profile,
            batching=batching,
            server_profile=server_profile,
            jit_warmup_s=jit_warmup_s,
            load_bytes=load_bytes,
            telemetry=telemetry,
            remote_cache=remote_cache,
            sharding=sharding if shards > 1 else None,
            index_build_s=index_build_s,
            auxiliary=auxiliary,
            tenants=tenants,
            tenant_fair_depth=tenant_fair_depth,
        )

        pods: List[Pod] = []
        for pod_index in range(shards * replicas):
            self._pod_counter += 1
            pods.append(
                Pod(
                    name=f"{name}-{self._pod_counter}",
                    instance_type=instance_type,
                    shard=pod_index // replicas,
                    # Round-robin spread: replica r of shard s lands in zone
                    # (s * replicas + r) % zones, so a shard's replicas
                    # occupy distinct zones whenever replicas <= zones.
                    zone=zone_name(pod_index % zones) if zones > 1 else "",
                )
            )
        aux_replicas = auxiliary.replicas if auxiliary is not None else 0
        for aux_index in range(aux_replicas):
            self._pod_counter += 1
            pods.append(
                Pod(
                    name=f"{name}-cpu-{self._pod_counter}",
                    instance_type=auxiliary.instance_type,
                    zone=zone_name((shards * replicas + aux_index) % zones)
                    if zones > 1
                    else "",
                )
            )
        ready_signal = Signal(f"{name}-ready")
        deployment = ModelDeployment(
            name=name,
            pods=pods,
            ready_signal=ready_signal,
            template=template,
            zones=zones,
        )
        remaining = {"count": len(pods)}
        for pod in pods:
            self.simulator.spawn(
                self._start_pod(deployment, pod, template, ready_signal, remaining)
            )
        self.deployments.append(deployment)
        return deployment

    # -- failure injection -------------------------------------------------------

    def inject_pod_failure(
        self,
        deployment: ModelDeployment,
        pod_index: int,
        at_time: float,
        restart_after: Optional[float] = 20.0,
    ) -> None:
        """Crash one pod at ``at_time``; the kubelet restarts it after
        ``restart_after`` seconds (None: stays dead).

        On crash the pod drops out of the ClusterIP rotation, its queued
        requests fail with HTTP errors, and in-flight ones fail on
        completion (lost connections). Restart replays the container boot +
        model load sequence on the surviving node — no re-provisioning.
        """
        pod = deployment.pods[pod_index]

        def crash() -> None:
            deployment.set_ready(pod, False)
            if pod.server is not None:
                pod.server.crash()
            if restart_after is not None:
                self.simulator.spawn(self._restart_pod(deployment, pod, restart_after))

        self.simulator.call_at(at_time, crash)

    def add_pod(self, deployment: ModelDeployment) -> Pod:
        """Scale a deployment up by one pod (full node provisioning path).

        Used by the autoscaler; the new pod joins the ClusterIP rotation
        once its readiness probe flips.
        """
        instance_type = deployment.pods[0].instance_type
        self._pod_counter += 1
        # On a sharded deployment the new replica reinforces whichever
        # shard currently has the fewest pods (lowest index on ties).
        shard_counts = {shard: 0 for shard in range(deployment.shards)}
        for existing in deployment.pods:
            shard_counts[existing.shard] = shard_counts.get(existing.shard, 0) + 1
        shard = min(shard_counts, key=lambda s: (shard_counts[s], s))
        # Zone spread on scale-up: place the new replica in the zone where
        # its shard currently has the fewest pods (lowest index on ties),
        # preserving the anti-affinity invariant as far as capacity allows.
        zone = ""
        if deployment.zones > 1:
            zone_counts = {name_: 0 for name_ in deployment.zone_names}
            for existing in deployment.pods:
                if existing.shard == shard and existing.zone in zone_counts:
                    zone_counts[existing.zone] += 1
            zone = min(zone_counts, key=lambda z: (zone_counts[z], z))
        pod = Pod(
            name=f"{deployment.name}-{self._pod_counter}",
            instance_type=instance_type,
            shard=shard,
            zone=zone,
        )
        deployment.append_pod(pod)
        self.simulator.spawn(self._start_pod(deployment, pod, deployment.template))
        return pod

    @staticmethod
    def remove_pod(deployment: ModelDeployment) -> Optional[Pod]:
        """Scale down by one pod: take the newest ready pod out of rotation
        (it finishes its queued work, but receives no new traffic)."""
        ready = deployment.ready_pods
        if len(ready) <= 1:
            return None
        victim = ready[-1]
        deployment.set_ready(victim, False)
        return victim

    def _restart_pod(self, deployment: ModelDeployment, pod: Pod, delay: float):
        yield delay
        # Node already provisioned: boot, download and load again. The
        # template is read after each wait, so the restarted server gets
        # whatever batching the scheduler tuned meanwhile.
        yield self._boot_s(deployment.template)
        self._serve(deployment, pod, deployment.template, f"{pod.name}-restarted")

    def _start_pod(
        self,
        deployment: ModelDeployment,
        pod: Pod,
        template: PodTemplate,
        ready_signal: Optional[Signal] = None,
        remaining: Optional[dict] = None,
    ):
        """Bring up one pod; the last of a new deployment's pods fires its
        readiness signal (a scale-up pod joins a deployment already up)."""
        # 1. Autopilot provisions a node for the pod.
        yield float(self.rng.uniform(self.PROVISION_MIN_S, self.PROVISION_MAX_S))
        # 2. Container boot + artifact download + model load.
        yield self._boot_s(template)
        # 3. Server comes up; the readiness probe flips.
        self._serve(deployment, pod, template, pod.name)
        if remaining is not None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                ready_signal.fire()

    def _boot_s(self, template: PodTemplate) -> float:
        """Seconds from a provisioned node to a loaded model: container
        boot, artifact download, model load, JIT warm-up, index build."""
        _payload, transfer_s = self.bucket.download(template.artifact_path)
        load_bytes = template.load_bytes
        if load_bytes is None:
            load_bytes = self.bucket.blob_size(template.artifact_path)
        return (
            self.POD_BOOT_S
            + transfer_s
            + load_bytes / self.MODEL_LOAD_BANDWIDTH
            + template.jit_warmup_s
            + template.index_build_s
        )

    def _serve(
        self, deployment: ModelDeployment, pod: Pod, template: PodTemplate, name: str
    ) -> None:
        """Bring ``pod``'s server up from the template; the readiness
        probe flips.

        The CPU pool of a heterogeneous deployment runs the auxiliary
        fleet's (CPU-calibrated) profile, every other pod the primary one.
        A sharded pod's artifact version carries its shard, so each shard
        keys its results in its own keyspace of the shared remote cache.
        Each pod owns fresh clones of the tenant serving states: rollouts
        bump versions pod by pod, so the state cannot be shared. A rollout
        writes its version into the template first, so a pod restarted or
        added after it starts serves the rolled-out version.
        """
        service_profile = template.service_profile
        auxiliary = template.auxiliary
        if auxiliary is not None and not pod.instance_type.device.is_accelerator:
            service_profile = auxiliary.service_profile
        version = template.artifact_path
        if template.sharding is not None:
            shard = SimpleNamespace(
                shard_index=pod.shard, shards=template.sharding.shards
            )
            version = shard_scoped_version(version, shard)
        tenants = template.tenants
        pod.server = EtudeInferenceServer(
            simulator=self.simulator,
            device=pod.instance_type.device,
            service_profile=service_profile,
            rng=np.random.default_rng(self.rng.integers(2**63)),
            profile=template.server_profile,
            batching=template.batching,
            name=name,
            telemetry=template.telemetry,
            artifact_version=version,
            remote_cache=template.remote_cache,
            tenants=(
                None
                if tenants is None
                else {serving.name: serving.clone() for serving in tenants}
            ),
            tenant_fair_depth=template.tenant_fair_depth,
        )
        pod.servers.append(pod.server)
        deployment.set_ready(pod, True)
        pod.ready_at = self.simulator.now
