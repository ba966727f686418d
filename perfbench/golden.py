"""Regenerate the golden output fingerprints in ``golden.json``.

    python3 perfbench/golden.py                    # every workload
    python3 perfbench/golden.py --workload smoke   # just one

Runs one iteration per (workload, input seed), for every input seed
``--seed`` can select plus the held-out one, and rewrites those entries.
A golden fingerprint is the model's answer on the virtual clock; change
it only on purpose, and say which entries changed and why.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

GOLDEN_PATH = HERE / "golden.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    seeds = list(range(workloads.SEED_FOLD)) + [workloads.HELD_OUT_SEED]
    for name in args.workload or sorted(workloads.WORKLOADS):
        entries = golden.setdefault(name, {})
        for seed in seeds:
            fields = workloads.Session(workloads.WORKLOADS[name], seed).iterate().fields
            if entries.get(str(seed)) not in (None, fields):
                print(f"{name} seed {seed}: changed", file=sys.stderr)
            entries[str(seed)] = fields
            print(f"{name} seed {seed}: {fields['total']} requests", file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
