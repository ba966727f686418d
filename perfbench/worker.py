"""One benchmark process: set-up probe, untraced measurement or traced run.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py setup   --workload W --seed N
    python3 perfbench/worker.py measure --workload W --seed N --seconds S
    python3 perfbench/worker.py trace   --workload W --seed N --seconds S
"""

import argparse
import cProfile
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
#: Timed iterations a measurement always makes, whatever ``--seconds``.
MIN_ITERATIONS = 3


def load_golden(workload: str, seed: int):
    golden = json.loads(GOLDEN_PATH.read_text())
    return golden.get(workload, {}).get(str(seed))


class SpeedProbe:
    """Samples the host's interpreter speed while the program runs.

    Shared hosts change speed by 20% and more within seconds, which no
    number of iterations averages away between runs minutes apart. A
    timer signal interrupts the program every ``INTERVAL_S``; the handler
    times a fixed loop that shares no code with the program. The region's
    host seconds, minus the probes', are scaled by ``REFERENCE_S`` over
    the median probe: seconds on a host that runs the loop in
    ``REFERENCE_S``. Changes to the program move this time as they move
    host time; host speed changes cancel out.
    """

    INTERVAL_S = 0.01
    LOOP = 2000
    REFERENCE_S = 100e-6

    def __init__(self):
        self.samples = []
        self.host_s = 0.0

    def _sample(self, _signum, _frame):
        started = time.perf_counter()
        total = 0
        for i in range(self.LOOP):
            total += i * i
        self.samples.append(time.perf_counter() - started)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.host_s = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        return statistics.median(self.samples) if self.samples else self.REFERENCE_S

    @property
    def reference_s(self) -> float:
        own = self.host_s - sum(self.samples)
        return own * self.REFERENCE_S / self.probe_s

    def summary(self) -> dict:
        return {
            "host_s": self.host_s,
            "probe_us": self.probe_s * 1e6,
            "probes": len(self.samples),
            "reference_s": self.reference_s,
        }


class Checked:
    """Runs iterations, checking each against the golden fingerprint.

    Attempts are simulated requests sent. Failures are the non-2xx or
    timed-out responses, plus every request of an iteration that raised
    or whose fingerprint differs from the golden one.
    """

    def __init__(self, session, golden):
        self.session = session
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def run(self, probed: bool = False, collect: bool = True):
        """One checked iteration; None when it raised. The outcome carries
        ``host_s`` and, when ``probed``, the :class:`SpeedProbe` summary."""
        if collect:
            gc.collect()  # the previous iteration's garbage is not this one's
        probe = SpeedProbe() if probed else None
        started = time.perf_counter()
        try:
            with probe or contextlib.nullcontext():
                outcome = self.session.iterate()
        except Exception:
            sys.stderr.write(traceback.format_exc())
            expected = (self.golden or {}).get("total") or 1
            self.attempted += expected
            self.failed += expected
            self.mismatches.append(["<raised>"])
            return None
        outcome.host_s = time.perf_counter() - started
        outcome.probe = probe.summary() if probe is not None else None
        fields = outcome.fields
        attempted = max(fields["total"], 1)
        self.attempted += attempted
        bad = workloads.mismatched(fields, self.golden)
        if bad:
            self.mismatches.append(bad)
            self.failed += attempted
        else:
            self.failed += fields["errors"]
        return outcome


def header(args, traced: bool) -> dict:
    import numpy
    import repro

    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": args.input_seed,
        "traced": traced,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "repro": repro.__file__,
    }


def setup(args):
    """Set-up from before ``import repro`` (the session imports it)."""
    with SpeedProbe() as probe:
        session = workloads.Session(workloads.WORKLOADS[args.workload], args.input_seed)
    return session, probe.summary()


def cmd_setup(args) -> dict:
    return {"setup": setup(args)[1]}


def cmd_measure(args) -> dict:
    session, setup_probe = setup(args)
    checked = Checked(session, load_golden(args.workload, args.input_seed))
    deadline = time.perf_counter() + args.seconds
    iterations = []
    while True:
        outcome = checked.run(probed=True)
        if outcome is not None:
            iterations.append({"requests": outcome.fields["total"], **outcome.probe})
        if len(iterations) >= MIN_ITERATIONS or len(checked.mismatches) >= MIN_ITERATIONS:
            typical = statistics.median(i["host_s"] for i in iterations) if iterations else 0.0
            if time.perf_counter() + typical > deadline:
                break
    return {
        "header": header(args, traced=False),
        "setup": setup_probe,
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "mismatches": checked.mismatches,
    }


def import_log() -> str:
    """``-X importtime`` output of a fresh process importing the program."""
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); "
        "import workloads; workloads.import_program()"
    )
    return subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120, check=True,
    ).stderr


def cmd_trace(args) -> dict:
    imports = import_log()
    workloads.import_program()
    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    traced_started = time.perf_counter()
    session = workloads.Session(workloads.WORKLOADS[args.workload], args.input_seed)
    checked = Checked(session, load_golden(args.workload, args.input_seed))
    outcome = checked.run(collect=False)
    profiled_s = time.perf_counter() - traced_started
    profiler.disable()
    profiler.create_stats()
    # Untraced iterations of the same process give the overhead's base.
    deadline = time.perf_counter() + args.seconds / 2
    walls, candidate_maxima = [], []
    while len(walls) < 2 or time.perf_counter() < deadline:
        untraced = checked.run()
        if untraced is None:
            break
        walls.append(untraced.host_s)
        candidate_maxima.append(max(untraced.candidate_walls or [untraced.host_s]))
    import layers
    import repro

    package_dir = os.path.dirname(repro.__file__) + os.sep
    values, unattributed = layers.per_layer(
        profiler.stats,
        package_dir,
        outcome.results if outcome is not None else [],
        outcome.spans if outcome is not None else 0,
        import_log=imports,
        profiled_s=profiled_s,
        iteration_s=outcome.host_s if outcome is not None else 0.0,
        untraced_iteration_s=statistics.median(walls) if walls else 0.0,
        candidate_s_max=statistics.median(candidate_maxima) if candidate_maxima else 0.0,
    )
    return {
        "header": header(args, traced=True),
        "per_layer": values,
        "unattributed": unattributed,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "mismatches": checked.mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    args.input_seed = workloads.input_seed(args.seed, args.held_out)
    command = {"setup": cmd_setup, "measure": cmd_measure, "trace": cmd_trace}
    print(json.dumps(command[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
