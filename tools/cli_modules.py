"""The ``ocmsim`` modules each step of the CLI pipeline loads, and the
threads its process ends with.

    PYTHONPATH=src python tools/cli_modules.py

runs ``simulate`` (a 0.01 s acquisition of the schema defaults),
``reconstruct`` of its events and ``analyze`` of its image, each in a fresh
interpreter as ``python -m ocmsim.cli`` runs it, in a temporary directory
and with the ``ocmsim`` your interpreter imports (``base_report.run`` picks
a checkout).  It prints one JSON line with sorted keys: for each command,
``modules``, the sorted ``ocmsim.*`` modules loaded once it returned, and
``threads``, the ``Threads:`` of its ``/proc/self/status`` then (``null``
off Linux), which counts the BLAS pool NumPy started.  It calls only the
CLI, so it runs against older checkouts too.  Unlike start-up timings, both
repeat exactly from run to run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

# runs the CLI on its arguments as ``python -m`` does, then prints the
# ocmsim modules that run loaded and the threads of its process; the CLI ran
# as ``__main__``, so it counts as ``ocmsim.cli``
_PROBE = """\
import json, runpy, sys
try:
    runpy.run_module("ocmsim.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
threads = None
if sys.platform == "linux":
    with open("/proc/self/status") as status:
        threads, = [int(line.split()[1]) for line in status
                    if line.startswith("Threads:")]
modules = {m for m in sys.modules if m.startswith("ocmsim.")} | {"ocmsim.cli"}
print(json.dumps({"modules": sorted(modules), "threads": threads}))
"""


def probe(args: list[str]) -> dict:
    """``modules`` and ``threads`` of one fresh ``ocmsim`` run of ``args``."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        steps = {
            "simulate": ["--set", "acquisition.wall_time_s=0.01",
                         "--out", str(out / "sim"), "simulate"],
            "reconstruct": ["--out", str(out / "rec"), "reconstruct",
                            str(out / "sim" / "events.ocme")],
            "analyze": ["--out", str(out / "an"), "analyze",
                        str(out / "rec" / "centroid_image.ocmg")],
        }
        runs = {name: probe(args) for name, args in steps.items()}
    print(json.dumps(runs, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
