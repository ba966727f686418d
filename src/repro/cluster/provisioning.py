"""One-time infrastructure provisioning (the paper's ``make infra``).

"We automate the cloud infrastructure management via a make infra command,
which provisions and configures essential components such as a Kubernetes
cluster, Google Storage and the addition of service accounts ... this setup
is a one-time operation, which can be reused for multiple experiments."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.cluster.kubernetes import Cluster
from repro.cluster.storage import StorageBucket
from repro.simulation import RandomStreams, Simulator


@dataclass
class Infrastructure:
    """Everything a benchmark experiment needs, provisioned once."""

    simulator: Simulator
    streams: RandomStreams
    bucket: StorageBucket
    cluster: Cluster
    service_accounts: List[str] = field(default_factory=list)

    def reset_simulator(self) -> None:
        """Fresh virtual clock and cluster, same bucket/streams, for code
        that deploys by hand on the infrastructure.

        :meth:`~repro.core.experiment.ExperimentRunner.run` does not use
        these: each run builds its own simulator and a cluster on a
        per-run ``"cluster"`` stream (``streams.fork(spec.seed)``), so
        every run's randomness is a pure function of ``(infra seed, spec
        seed)`` (see ``docs/parallelism.md``).
        """
        self.simulator = Simulator()
        self.cluster = Cluster(
            self.simulator, self.bucket, self.streams.stream("cluster")
        )


def make_infra(seed: int = 1234, bucket_name: str = "etude-artifacts") -> Infrastructure:
    """Provision the cluster, the storage bucket and service accounts."""
    simulator = Simulator()
    streams = RandomStreams(seed)
    bucket = StorageBucket(bucket_name)
    cluster = Cluster(simulator, bucket, streams.stream("cluster"))
    return Infrastructure(
        simulator=simulator,
        streams=streams,
        bucket=bucket,
        cluster=cluster,
        service_accounts=["etude-runner@repro.iam", "etude-results@repro.iam"],
    )
