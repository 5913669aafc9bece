"""A change next to its base checkout, as one Markdown report.

    python tools/base_report.py BASE

prints the ``fingerprint.py`` diff, the ``src/ocmsim`` line count, the
``SCHEMA`` size and each key of the one-line JSON of ``JSON_TOOLS`` for the
checkout BASE next to the one holding this tool (the change).  Each tool
measures the ``ocmsim`` its interpreter imports; ``run`` picks the checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
#: the tools that print one JSON line, reported key by key
JSON_TOOLS = ("cli_modules.py", "pipeline_memory.py")
_SCHEMA = ("from ocmsim.config import SCHEMA as s; print(len(s), 'keys and', "
           "sum(k.count(',') + 1 for _, k, _, _ in s if k[:7] == 'choice:'), "
           "'choice values')")


def run(checkout, *argv) -> str:
    """Stdout of one fresh interpreter run of ``argv`` whose ``PYTHONPATH``
    is the absolute ``checkout/src`` and nothing else."""
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    return subprocess.run([sys.executable, *map(str, argv)], env=env,
                          stdout=subprocess.PIPE, text=True, check=True).stdout


def diff_report(base: dict, change: dict) -> str:
    """How many entries of two fingerprints are equal, then one ``- differs:``
    line per key whose hashes differ or that only one of them holds."""
    keys = sorted(base.keys() | change.keys())
    differ = [k for k in keys if base.get(k) != change.get(k)]
    return (f"Fingerprint against the base commit: {len(keys) - len(differ)} "
            f"of {len(keys)} entries equal\n\n"
            + "".join(f"- differs: `{k}`\n" for k in differ))


def src_lines(checkout) -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in (Path(checkout) / "src" / "ocmsim").glob("*.py"))


def report(base, change) -> None:
    """Print each fact of ``base`` next to the same fact of ``change``."""
    def line(name, base_value, change_value):
        print(f"- {name}: {base_value} at the base commit, {change_value} "
              "with the change")

    print(diff_report(*(json.loads(run(c, TOOLS / "fingerprint.py"))
                        for c in (base, change))).rstrip() + "\n")
    line("src/ocmsim lines", src_lines(base), src_lines(change))
    line("SCHEMA", *(run(c, "-c", _SCHEMA).strip() for c in (base, change)))
    for tool in JSON_TOOLS:
        sides = [json.loads(run(c, TOOLS / tool)) for c in (base, change)]
        for key in sorted(sides[0].keys() | sides[1].keys()):
            line(f"{tool} {key}", *(json.dumps(s.get(key)) for s in sides))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/base_report.py BASE")
    report(sys.argv[1], TOOLS.parent)
