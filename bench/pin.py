"""Pin reference outputs for every candidate input of the workloads.

    python3 bench/pin.py [WORKLOAD ...]

Runs each candidate once with the current sources and writes the outputs
to bench/reference.json, which every pass checks against.  Pin only on a
commit whose numbers are the reference (the seed commit); a change that
moves a value must state by how much and why before it re-pins.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in names:
        for op in workloads.pin_ops(name):
            t0 = time.perf_counter()
            out = op.run()
            problems = op.invariants(out, refs)
            if problems:
                sys.stderr.write("\n".join(problems) + "\n")
                return 1
            refs.update({k: v for k, v in out.items() if not k.startswith("_")})
            print(f"{op.label}: {time.perf_counter() - t0:.2f} s", flush=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
