#!/usr/bin/env python3
"""jkelab benchmark: one workload per invocation, in its own process.

    python3 perfbench/run.py --workload session-large --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs every round twice, untraced then traced, and reports
the per-layer metrics and the tracing overhead. Human-readable lines come
first; the last line of standard output is the JSON result. The run
record and the spans go to ``.perfbench-out/`` in the checkout.
``--workload all`` runs every workload, each in a child process.

See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("cli-shipped", "session-large", "sweep-grid")
SETUP_SPAWNS = 15

# What a CLI call pays before doing any work: a fresh interpreter that
# imports jkelab and builds the argument parser.
_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import jkelab.cli; jkelab.cli.build_parser()")


def setup_s_once() -> float | None:
    """Wall time of a fresh interpreter that imports jkelab and builds the
    CLI parser, or None if it failed."""
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    elapsed = time.perf_counter() - start
    return elapsed if code == 0 else None


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def run_record(args, sizes: dict) -> dict:
    import numpy as np

    import jkelab
    import jkelab.kernels as kernels

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    backend = getattr(kernels, "backend", None)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": sizes, "commit": commit,
        "jkelab": getattr(jkelab, "__version__", "unknown"),
        "python": platform.python_version(), "numpy": np.__version__,
        "kernel_backend": backend() if callable(backend) else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "platform": platform.platform(),
    }


def run_one(args, spec: dict, sizes: dict) -> int:
    """Run one workload in this process and print its result."""
    from tracing import Tracer
    from workloads import run_workload

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    # Set-up is timed between rounds, one spawn at a time, so that its
    # median spans the machine's state over the whole run; the rest of
    # the spawns follow the last round. One unmeasured spawn first fills
    # the file cache (and the bytecode cache on a first run).
    spawns = 0 if args.trace else SETUP_SPAWNS
    setup_times = []

    def between():
        if len(setup_times) < spawns:
            setup_times.append(setup_s_once())

    if spawns:
        setup_s_once()
    tracer = Tracer() if args.trace else None
    try:
        result = run_workload(args.workload, args.seed, args.seconds, tracer,
                              sizes, workdir, between)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    while len(setup_times) < spawns:
        between()
    setup_s = median([t for t in setup_times if t is not None])
    tally, samples = result["tally"], result["samples"]
    attempted = tally.attempted + spawns
    failed = tally.failed + setup_times.count(None)
    record = run_record(args, result["workload"].sizes)
    medians = {key: median(values) for key, values in samples.items()}
    rounds = len(samples["round_s"])

    if args.trace:
        layers = tracer.layer_metrics()
        layers["trace.overhead_pct"] = median(result["overhead"]) * 100.0
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
        tracer.save(OUT / f"spans-{args.workload}.npz")
        extra = {f"{name} (absent)": 0 for name in sorted(tracer.absent)}
        extra["traced_rounds"] = layers["rounds"]
    else:
        measured = {"setup_s": setup_s,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        measured["round_rel"] = medians.pop("round_rel")
        metrics = {m["name"]: (measured[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        extra = dict(medians)
        extra.update((name, value) for name, (value, _) in
                     result["workload"].named(medians).items())
        # The highest percentile with at least ten samples beyond it.
        # Printed only when that is at or above the median.
        if rounds >= 20:
            pct = int(100 * (1 - 10 / rounds))
            extra[f"round_s.p{pct}"] = statistics.quantiles(
                samples["round_s"], n=100, method="inclusive")[pct - 1]
    extra["rounds"] = rounds
    extra["failed_ratio"] = failed / attempted if attempted else 0.0

    for key, value in record.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in extra.items():
        print(f"{name} = {value:.6g}" if isinstance(value, float) else f"{name} = {value}")
    for message in tally.messages:
        print(f"FAILED {message}")
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {"record": record, "metrics": {k: v for k, (v, _) in metrics.items()},
         "extra": extra, "samples": samples, "failures": tally.messages},
        indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, so peak RSS is its own."""
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        code |= subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)]).returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jkelab" / "__init__.py").is_file():
        print(f"error: no jkelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jkelab

    if Path(jkelab.__file__).resolve().parent != SRC / "jkelab":
        print(f"error: imported jkelab from {jkelab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import FULL

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run_one(args, spec, FULL[args.workload])


if __name__ == "__main__":
    sys.exit(main())
