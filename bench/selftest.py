"""Self-test of the benchmark harness (about two minutes on two cores).

    python3 bench/selftest.py

For every workload on seed 0 it runs an untraced and a traced pass and
checks that the traced outputs are bit-identical, that every function the
workload calls emits spans, and that self times add up to each op's wall
time (run.trace_problems).  It also checks that the traced functions cover
the whole list in tracer.py, and that the correctness gate rejects a
perimeter off by 1e-11 relative and an asymmetry off by one ulp.
"""

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402


def gate_problems() -> list[str]:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    refs = json.loads((HERE / "reference.json").read_text())
    key = next(k for k in refs if k.startswith("deficit/"))
    problems = []
    for field, bad in (("Ps", refs[key]["Ps"] * (1 + 1e-11)),
                       ("A", math.nextafter(refs[key]["A"], 2.0))):
        if not workloads.compare({key: {field: bad}}, refs):
            problems.append(f"gate accepted {field} = {bad!r} against {refs[key][field]!r}")
    if workloads.compare({key: refs[key]}, refs):
        problems.append("gate rejected the pinned values themselves")
    return problems


def main() -> int:
    problems = []
    listed = {f"{m}.{f}" for m, names in tracer.FUNCTIONS.items() for f in names}
    called = {fn for fns in run.CALLS.values() for fn in fns}
    problems += [f"no workload calls {fn}" for fn in sorted(listed - called)]
    problems += gate_problems()
    for w in run.WORKLOADS:
        res = run.trace_run(w, 0, time.monotonic() + run.DEADLINE_S)
        print(f"{w}: overhead {res['metrics']['trace.overhead_s']:+.3f} s, "
              f"{len(res['problems'])} problems", flush=True)
        problems += [f"{w}: {p}" for p in res["problems"]]
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
