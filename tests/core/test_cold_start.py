"""Cold start: the program's entry points must not import scipy.

scipy is most of the package's import time and memory, and only workload
fitting and validation use it, so every ``repro run`` / ``repro plan``
process would pay for it at start-up if a module imported it at the top.
"""

import os
import subprocess
import sys

import repro

ENTRY_POINTS = (
    "repro.cli",
    "repro.core.experiment",
    "repro.core.planner",
    "repro.exec.backend",
)


def test_entry_points_import_no_scipy():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in ENTRY_POINTS)
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]", result.stdout[:2000]

