"""One pass of one workload, alone in this process; prints one JSON line.

    python3 bench/passrun.py WORKLOAD SEED MODE

MODE is ``setup`` (import and input generation only), ``plain`` or
``trace``.  run.py starts one such process per pass, so the peak RSS and
set-up time it reports belong to that pass alone.
"""

import json
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    start_setup = time.perf_counter()
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports fracperim, numpy and scipy

    src = Path(workloads.fp.__file__).resolve()
    if ROOT / "src" not in src.parents:
        sys.stderr.write(f"fracperim imported from {src}, not from {ROOT / 'src'}\n")
        return 2
    ops = workloads.make_ops(workload, seed)
    setup_s = time.perf_counter() - start_setup
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if mode == "trace":
        import tracer as tr
        tracer = tr.Tracer()
        tr.install(tracer)
    outputs, errors = [], []
    cpu0 = _cpu_s()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        try:
            if tracer is None:
                outputs.append(op.run())
            else:
                with tracer.op(i, op.label):
                    outputs.append(op.run())
            errors.append(None)
        except Exception:  # an op that raises counts as failed; the pass goes on
            outputs.append(None)
            errors.append(traceback.format_exc())
            sys.stderr.write(errors[-1])
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0

    refs = json.loads(REFERENCE.read_text())
    results = []
    for op, out, err in zip(ops, outputs, errors):
        problems = [err] if err else op.check(out, refs)
        results.append({"label": op.label, "outputs": out, "problems": problems})

    import numpy
    import scipy
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "ops": results,
        "spans": [asdict(s) for s in tracer.spans] if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
