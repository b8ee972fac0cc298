"""fracperim benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload deficit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # one table, every workload

With ``--trace 0`` it runs passes of the workload, each in a fresh
process, as long as the next one should end within ``--seconds`` (at
least one), tops the set-up samples up to three with set-up-only
processes, and reports the end-to-end metrics:

  wall_s       median pass wall time, first op start to last op end
  peak_rss_mb  median ru_maxrss of the pass processes
  setup_s      median time to import fracperim and build the seeded
               inputs, over the passes and set-up-only processes

With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics of tracer.py, the tracing overhead (traced minus
untraced wall_s) and the harness self-test: traced outputs bit-identical
to untraced ones, spans from every function the workload calls, and self
times that add up to each op's wall time.  The spans are written to
``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
fail rate: ops that raised or missed their correctness check.  The line
before it records the machine, versions, git sha and thread settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (stdlib only; fracperim stays out of this process)

WORKLOADS = ("deficit", "exponent", "lift", "seminorm")
SETUP_SAMPLES = 3
# every run, its children included, ends well inside 180 s
DEADLINE_S = 170.0

# functions each workload must reach (the prediction table in README.md)
CALLS = {
    "deficit": ("shapes.rasterize", "kernels.build_table",
                "perimeter.fractional_perimeter", "deficit.s_deficit",
                "deficit.fraenkel_asymmetry", "deficit.reference_ball"),
    "exponent": ("experiments.sweep_s", "shapes.rasterize",
                 "kernels.build_table", "perimeter.fractional_perimeter",
                 "deficit.s_deficit", "deficit.fraenkel_asymmetry",
                 "deficit.reference_ball"),
    "lift": ("shapes.rasterize", "extension.extension_domain",
             "extension.poisson_extend", "extension.extension_energy",
             "extension.horizontal_rearrange",
             "rearrange.symmetric_rearrangement"),
    "seminorm": ("shapes.rasterize", "kernels.build_table",
                 "perimeter.fractional_perimeter",
                 "perimeter.gagliardo_seminorm",
                 "rearrange.symmetric_rearrangement",
                 "rearrange.polya_szego_report"),
}
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    pass


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One pass in a fresh process; its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), workload, str(seed), mode],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} pass ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _count(passes: list[dict]) -> tuple[int, int, list[str]]:
    ops = [op for p in passes for op in p["ops"]]
    problems = [f"{op['label']}: {msg}" for op in ops for msg in op["problems"]]
    return len(ops), sum(1 for op in ops if op["problems"]), problems


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end metrics of one run."""
    passes = []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        passes.append(run_pass(workload, seed, "plain", deadline))
        now = time.monotonic()
        # another pass as long as this one would end past the measuring time
        if now - start + (now - begun) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    setups += [run_pass(workload, seed, "setup", deadline)["setup_s"]
               for _ in range(SETUP_SAMPLES - len(passes))]
    attempted, failed, problems = _count(passes)
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "versions": passes[0]["versions"], "passes": len(passes),
        "metrics": {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setups),
        },
    }


def trace_problems(workload: str, plain: dict, traced: dict) -> list[str]:
    """The harness self-test on one untraced and one traced pass."""
    problems = []
    if [op["outputs"] for op in plain["ops"]] != [op["outputs"] for op in traced["ops"]]:
        problems.append("traced outputs differ from untraced outputs")
    spans = [tracer.Span(**s) for s in traced["spans"]]
    seen = {s.name for s in spans}
    problems += [f"no span from {fn}" for fn in CALLS[workload] if fn not in seen]
    overhead = max(0.0, traced["wall_s"] - plain["wall_s"])
    selfs = tracer.self_times(spans)
    for root in (s for s in spans if s.name.startswith("op:")):
        members = [s for s in spans if s.op == root.op]
        total = sum(selfs[s.span_id] for s in members)
        wall = (root.end - root.start) * 1e-9
        threads = len({s.thread for s in members})
        # pool threads overlap, so their self times may add up to
        # threads x wall; on one thread they tile the op exactly
        if not wall - overhead - 1e-6 <= total <= threads * wall + overhead + 1e-6:
            problems.append(f"{root.name}: self times sum to {total} s, op wall {wall} s")
    return problems


def trace_run(workload: str, seed: int, deadline: float) -> dict:
    plain = run_pass(workload, seed, "plain", deadline)
    traced = run_pass(workload, seed, "trace", deadline)
    attempted, failed, problems = _count([plain, traced])
    self_test = trace_problems(workload, plain, traced)
    metrics = dict.fromkeys((name for name, _ in tracer.layer_names()), 0)
    spans = [tracer.Span(**s) for s in traced["spans"]]
    metrics.update(tracer.layer_metrics(spans))
    metrics["process.cpu_s"] = plain["cpu_s"]
    metrics["process.cpu_util"] = plain["cpu_s"] / plain["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    out = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    out.write_text("".join(json.dumps(s) + "\n" for s in traced["spans"]))
    return {
        "attempted": attempted, "failed": failed,
        "problems": problems + [f"self-test: {p}" for p in self_test],
        "self_test_ok": not self_test, "versions": plain["versions"],
        "metrics": metrics, "spans_file": str(out.relative_to(ROOT)),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(versions: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads_env = {k: v for k, v in os.environ.items()
                   if k.startswith(("OMP_", "OPENBLAS_", "MKL_", "BLIS_",
                                    "VECLIB_", "NUMEXPR_", "GOTO_"))}
    return {
        "machine": platform.platform(), "cpu": model,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **versions, "git_sha": git_sha(), "thread_env": threads_env,
    }


def _result(correct: bool, attempted: int, failed: int, metrics: dict,
            units: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fracperim" / "__init__.py").is_file():
        sys.stderr.write(f"no fracperim sources under {ROOT / 'src'}\n")
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        deadline = time.monotonic() + DEADLINE_S
        if args.trace:
            res = trace_run(args.workload, args.seed, deadline)
            units = dict(tracer.layer_names())
            correct = res["failed"] == 0 and res["self_test_ok"]
            print(f"spans: {res['spans_file']}")
        else:
            res = measure(args.workload, args.seed, args.seconds, deadline)
            units = dict(END_TO_END)
            correct = res["failed"] == 0
            print(f"{args.workload} seed={args.seed} passes={res['passes']}")
            for name, unit in END_TO_END:
                print(f"  {name:<12} {res['metrics'][name]:.6g} {unit}")
            print(f"  {'fail_rate':<12} {res['failed'] / res['attempted']:.6g} share"
                  f" ({res['failed']} of {res['attempted']} ops)")
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    for p in res["problems"]:
        sys.stderr.write(f"FAIL {p}\n")
    print("env " + json.dumps(environment(res["versions"])))
    print(_result(correct, res["attempted"], res["failed"], res["metrics"], units))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload once, as a table; the last line holds all metrics."""
    units, metrics = {}, {}
    attempted = failed = 0
    print(f"{'workload':<10}" + "".join(f"{n + ' [' + u + ']':>18}" for n, u in END_TO_END)
          + f"{'fail_rate [share]':>20}")
    for w in WORKLOADS:
        res = measure(w, seed, seconds, time.monotonic() + DEADLINE_S)
        for p in res["problems"]:
            sys.stderr.write(f"FAIL {p}\n")
        attempted += res["attempted"]
        failed += res["failed"]
        row = res["metrics"]
        print(f"{w:<10}" + "".join(f"{row[n]:>18.6g}" for n, _ in END_TO_END)
              + f"{res['failed'] / res['attempted']:>20.6g}", flush=True)
        for n, u in END_TO_END:
            metrics[f"{w}.{n}"], units[f"{w}.{n}"] = row[n], u
        metrics[f"{w}.fail_rate"] = res["failed"] / res["attempted"]
        units[f"{w}.fail_rate"] = "share"
    print("env " + json.dumps(environment(res["versions"])))
    print(_result(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
