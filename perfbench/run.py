"""Benchmark of the addlaws package: coverage, round-trip and windowed
workloads, with per-module timing from a separate traced run.

Usage, from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

One run: set-up, then whole workload passes until --seconds have elapsed
(at least one).  Set-up is repeated SETUP_REPEATS times in all, spread
between the passes, and its median is reported.  Human-readable
lines come first; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  With --trace 1 every span is also
written to perfbench/out/spans-<workload>.tsv.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Pinned to one BLAS thread before numpy is first imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Set-ups per run.  Each is one unit of ~0.5 s, so its time follows the
#: host's speed of the moment; spreading the repeats over the run makes
#: their median follow the run's typical speed instead.
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("coverage", "roundtrip", "windowed")


def import_package():
    """Import addlaws from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "addlaws" / "__init__.py").is_file():
        sys.exit(f"error: no addlaws package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import addlaws
    if Path(addlaws.__file__).resolve().parent != src / "addlaws":
        sys.exit(f"error: imported addlaws from {addlaws.__file__}")
    return addlaws


def machine_facts(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
            "seed": seed}


class SetUps:
    """Timed set-ups; spans of set-up get negative item ids."""

    def __init__(self, workloads, tracer):
        self.workloads, self.tracer = workloads, tracer
        self.times: list[float] = []

    def run(self):
        if self.tracer is not None:
            self.tracer.current_item = -(len(self.times) + 1)
        t0 = self.workloads.clock()
        bench = self.workloads.set_up(OUT)
        self.times.append(self.workloads.clock() - t0)
        return bench

    def catch_up(self, share: float) -> None:
        """Repeat set-up until `share` of the repeats are done."""
        while len(self.times) < min(SETUP_REPEATS,
                                    1 + share * (SETUP_REPEATS - 1)):
            self.run()


def layer_metrics(summary, tracer, passes: int, span_cost: float,
                  wall: float) -> dict:
    """Per-layer metrics: cost of one set-up plus one workload pass."""
    def per(table, name):
        return (table["setup"][name] / SETUP_REPEATS
                + table["loop"][name] / passes)

    def total(table, name):
        return table["setup"][name] + table["loop"][name]

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    calls, busy, self_time = summary.calls, summary.busy, summary.self_time
    counters = tracer.counters
    grid = "oracle.grid_solutions"
    put(f"{grid}.calls", per(calls, grid), "count")
    put(f"{grid}.busy_s", per(busy, grid), "s")
    pairs = counters[f"{grid}.pairs"]
    put(f"{grid}.pairs", pairs / passes, "count")
    put(f"{grid}.solutions", counters[f"{grid}.solutions"] / passes, "count")
    put(f"{grid}.yield", counters[f"{grid}.solutions"] / pairs if pairs else 0.0,
        "ratio")
    cov = "oracle.coverage_report"
    put(f"{cov}.busy_s", per(busy, cov), "s")
    cov_busy = total(busy, cov)
    put(f"{cov}.classify_share",
        summary.under[(cov, "classify.classify")] / cov_busy if cov_busy
        else 0.0, "ratio")
    cls = "classify.classify"
    put(f"{cls}.calls", per(calls, cls), "count")
    put(f"{cls}.busy_s", per(busy, cls), "s")
    put(f"{cls}.self_s", per(self_time, cls), "s")
    n_cls = total(calls, cls)
    put("classify.construct_per_call",
        summary.by_parent[(cls, "families.construct")] / n_cls if n_cls
        else 0.0, "ratio")
    put("classify.unclassified", counters["classify.unclassified"] / passes,
        "count")
    put("classify.rejected", counters["classify.rejected"] / passes, "count")
    fin = "dsl.evaluate_residual.finite"
    put(f"{fin}.calls", per(calls, fin), "count")
    put(f"{fin}.busy_s", per(busy, fin), "s")
    n_fin = total(calls, fin)
    put(f"{fin}.us_per_call", 1e6 * total(busy, fin) / n_fin if n_fin
        else 0.0, "us")
    win = "dsl.evaluate_residual.windowed"
    put(f"{win}.calls", per(calls, win), "count")
    put(f"{win}.busy_s", per(busy, win), "s")
    put("families.construct.calls", per(calls, "families.construct"), "count")
    for name in ("families.construct", "families.ParamMenu.sample",
                 "families.admissible_params"):
        put(f"{name}.busy_s", per(busy, name), "s")
    put("characters.enumerate_characters.calls",
        per(calls, "characters.enumerate_characters"), "count")
    for name in ("characters.enumerate_characters",
                 "characters.check_condition_I",
                 "characters.check_condition_II",
                 "characters.additive_residual",
                 "core.FiniteSemigroup.validate",
                 "core.WindowedSemigroup.validate",
                 "examples.example1", "examples.example2",
                 "core.stable_json"):
        put(f"{name}.busy_s", per(busy, name), "s")
    put("cli.main.self_s", per(self_time, "cli.main"), "s")
    put("trace.overhead_frac", len(tracer) * span_cost / wall, "ratio")
    return out


def run_one(args) -> int:
    addlaws = import_package()
    import spans
    import workloads

    facts = machine_facts(args.seed)
    tracer = spans.Tracer() if args.trace else None
    uninstall = spans.install(tracer, addlaws) if tracer is not None else None
    rng = random.Random(args.seed)
    ledger = workloads.Ledger()
    t_start = time.perf_counter()
    setups = SetUps(workloads, tracer)
    bench = setups.run()

    def mark(item: int) -> None:
        if tracer is not None:
            tracer.current_item = item

    workload = workloads.WORKLOADS[args.workload](bench, rng, ledger,
                                                  mark=mark)
    t0 = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - t0 < args.seconds:
        workload.run_pass()
        passes += 1
        setups.catch_up((time.perf_counter() - t0) / args.seconds)
    loop_s = time.perf_counter() - t0
    setups.catch_up(1.0)
    setup_s = statistics.median(setups.times)
    wall = time.perf_counter() - t_start
    if uninstall:
        uninstall()

    print(f"machine {json.dumps(facts, sort_keys=True)}")
    print(f"workload {args.workload}: {passes} pass(es) in {loop_s:.2f} s "
          f"(set-ups included), seed {args.seed}, trace {args.trace}")
    for note in ledger.notes:
        print(f"FAILED {note}")
    if tracer is not None:
        summary = spans.Summary(tracer)
        metrics = layer_metrics(summary, tracer, passes, spans.span_cost(),
                                wall)
        path = OUT / f"spans-{args.workload}.tsv"
        tracer.write(path, json.dumps({"workload": args.workload,
                                       "passes": passes, **facts},
                                      sort_keys=True))
        print(f"wrote {len(tracer)} spans to {path.relative_to(ROOT)}")
    else:
        e2e = workload.metrics()
        for line in workload.lines():
            print(line)
        ok_frac = 1.0 - ledger.failed / max(ledger.attempted, 1)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "slow_ms": {"value": e2e["slow_ms"], "unit": "ms"},
            "fast_ms": {"value": e2e["fast_ms"], "unit": "ms"},
            "per_s": {"value": e2e["per_s"], "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
            "ok_frac": {"value": ok_frac, "unit": "ratio"},
        }
        print(f"setup_s           {setup_s:.4f} s   median of "
              f"{SETUP_REPEATS}")
        print(f"failed_frac       {1.0 - ok_frac:.6f}   {ledger.failed} of "
              f"{ledger.attempted} checks")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if proc.returncode == 0:
            status = status or int(not json.loads(lines[-1])["correct"])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in BLAS_ENV:
        os.environ[name] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
