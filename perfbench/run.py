"""Host-time benchmark of the ETUDE reproduction.

    python3 perfbench/run.py --workload ramp-t4 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src``. Each process below is fresh, because set-up time and
the resident-memory high-water mark are per process:

- ``--trace 0``: two set-up processes, then one measuring process that
  sets up and times iterations back to back for ``--seconds``; a user's
  ``repro run`` is one cold iteration, so none is discarded. Prints the end-to-end metrics: medians over iterations
  (set-up: over the three processes) of times at reference host speed
  (``worker.SpeedProbe``); the record keeps the raw host times.
- ``--trace 1``: one process that times the program's imports in a fresh
  ``-X importtime`` process, profiles set-up and one iteration, then runs
  untraced iterations as the overhead's base. Prints the per-layer
  metrics (``layers.py``).

Every iteration's output is checked against the golden fingerprint of
its input seed (``golden.json``); a mismatch fails all the iteration's
requests. The last stdout line is the result object; the line before it
is the full record, with a header naming commit, host and versions.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
#: Hard limit for the whole invocation, child processes included.
BUDGET_S = 170.0

END_TO_END = (
    ("sim_req_per_s", "requests/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class WorkerFailed(RuntimeError):
    pass


def source_identity() -> dict:
    """Commit (when the checkout is a git repository) and a digest of src."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def worker(mode: str, args, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ] + (["--held-out"] if args.held_out else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples, higher_is_better: bool):
    """The highest percentile with at least ten samples beyond it, when it
    lies beyond the median; None for fewer than 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples, reverse=not higher_is_better)
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[10], "count": n}


def measure(args, deadline: float):
    setups = [worker("setup", args, deadline)["setup"] for _ in range(SETUP_PROBES)]
    run = worker("measure", args, deadline)
    setups.append(run["setup"])
    iterations = run["iterations"]
    if not iterations:
        raise WorkerFailed("every iteration raised")

    def summarize(clock):
        walls = [i[clock] for i in iterations]
        rates = [i["requests"] / i[clock] for i in iterations]
        return walls, rates, {
            "sim_req_per_s": statistics.median(rates),
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s[clock] for s in setups),
        }

    walls, rates, metrics = summarize("reference_s")
    metrics["peak_rss_mb"] = run["peak_rss_mb"]
    record = {
        **run["header"],
        "iterations": len(iterations),
        "host": summarize("host_s")[2],
        "tail": {
            "wall_s": tail(walls, higher_is_better=False),
            "sim_req_per_s": tail(rates, higher_is_better=True),
        },
        "samples": {"iterations": iterations, "setup": setups},
    }
    return metrics, dict(END_TO_END), run, record


def trace(args, deadline: float):
    run = worker("trace", args, deadline)
    units = dict(layers.PER_LAYER)
    record = {
        **run["header"],
        "ratio_bases": layers.RATIO_BASES,
        "unattributed": run["unattributed"],
    }
    return run["per_layer"], units, run, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out", action="store_true",
        help="use the held-out input seed instead of the one --seed selects",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        metrics, units, run, record = (trace if args.trace else measure)(args, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = run["attempted"], run["failed"]
    record.update(source_identity())
    record["error_share"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
    record["mismatches"] = run["mismatches"]
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not run["mismatches"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
