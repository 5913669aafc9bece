"""The ``ocmsim`` modules each step of the CLI pipeline loads.

    PYTHONPATH=src python tools/cli_modules.py

runs ``simulate`` (a 0.01 s acquisition of the schema defaults),
``reconstruct`` of its events and ``analyze`` of its image, each in a fresh
interpreter through ``ocmsim.cli.main``, in a temporary directory and with
the ``ocmsim`` your interpreter imports (``base_report.run`` picks a
checkout).  It prints one JSON line with sorted keys: for each command, the
sorted ``ocmsim.*`` modules loaded once it returned.  It calls only the CLI,
so it runs against older checkouts too.  Unlike start-up timings, the sets
repeat exactly from run to run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

# prints, after one CLI run, the ocmsim modules that run loaded
_PROBE = """\
import json, sys
from ocmsim.cli import main
code = main(sys.argv[1:])
if code:
    sys.exit(code)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("ocmsim."))))
"""


def loaded_modules(args: list[str]) -> list[str]:
    """The ``ocmsim.*`` modules of one fresh ``ocmsim`` run of ``args``."""
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
        modules = {name: loaded_modules(args) for name, args in steps.items()}
    print(json.dumps(modules, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
