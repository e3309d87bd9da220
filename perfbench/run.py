#!/usr/bin/env python3
"""ptqlab benchmark.

    python3 perfbench/run.py --workload <train-pair|ptq-grid|cached-rerun|all>
                             [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` a run sets up its workload ``Workload.setups`` times
(``setup_s`` is the median), runs operations back to back for ``--seconds``,
checks every operation's outputs and reports the end-to-end metrics. With
``--trace 1`` it sets up once and runs the operations untraced for half of
``--seconds`` (at least two). It then runs the same number again with spans
around ptqlab's public functions and reports the per-layer metrics per
traced operation, including the tracing overhead. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--workload all`` runs every workload untraced and traced, one child
process each, and prints every metric by name with its unit.

The benchmark works inside the checkout it belongs to: ptqlab is imported
from ``src/``, the workspace is ``.perfbench/`` and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

# (name, unit) of the end-to-end metrics; the bounds live in BENCHMARK.json
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "frac"))
# a traced run traces at least this many operations; its per-layer counts
# and times are per operation
TRACED_OPS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("default", "tiny"), default="default",
                   help="input size; 'tiny' is for the benchmark's own tests")
    return p.parse_args(argv)


def load_ptqlab():
    """Import ptqlab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ptqlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ptqlab sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import ptqlab

    if Path(ptqlab.__file__).resolve().parent != (src / "ptqlab").resolve():
        raise SystemExit(f"perfbench: ptqlab imported from {ptqlab.__file__}, not {src}")


def reference_for(args, record) -> dict | None:
    """Stored digests, when this run's seed, size and platform match them."""
    from perfbench.record import platform_key

    ref = json.loads((HERE / "reference.json").read_text())
    if (args.seed, args.size) != (ref["seed"], ref["size"]):
        return None
    if platform_key(record) != ref["platform"]:
        return None
    return ref["digests"]


def run_ops(wl, seconds, at_least=1) -> list:
    """Operations back to back, until ``seconds`` have passed and ``at_least`` are done."""
    from perfbench.workloads import Op

    ops = []
    start = time.perf_counter()
    while len(ops) < at_least or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            ops.append(wl.op())
        except Exception as exc:  # a failed operation is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            ops.append(Op(time.perf_counter() - t0, 0, [f"{type(exc).__name__}: {exc}"]))
    return ops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def seconds_summary(ops) -> str:
    secs = [op.seconds for op in ops]
    return (f"{len(secs)} ops, seconds per op min {min(secs):.4f} "
            f"median {statistics.median(secs):.4f} max {max(secs):.4f}")


def report_problems(ops) -> None:
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"op {i} failed: {problem}", file=sys.stderr)


def end_to_end(wl, seconds) -> tuple:
    setup_times = []
    for _ in range(wl.setups):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    ops = run_ops(wl, seconds)
    rates = [op.units / op.seconds for op in ops if op.ok]
    failed = sum(not op.ok for op in ops)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - failed / len(ops),
    }
    units = dict(END_TO_END)
    name, scale, unit = wl.alias
    print(f"{wl.name}: setups {setup_times} s")
    print(f"{wl.name}: {len(ops)} operations, {failed} failed, {seconds_summary(ops)}")
    print(f"{wl.name}  {name} = {metrics['ops_per_s'] * scale} {unit}")
    print(f"{wl.name}  failed_frac = {failed / len(ops)} frac")
    return ops, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def per_layer(wl, seconds) -> tuple:
    from perfbench.tracing import Tracer, per_layer_metrics

    wl.setup()
    base = run_ops(wl, seconds / 2, at_least=TRACED_OPS)
    tracer = Tracer()
    with tracer.active():
        traced = run_ops(wl, 0, at_least=len(base))
    cells = sum(op.cells for op in traced)
    extra = {
        "cache_hit_ratio": 1.0 - sum(op.built for op in traced) / cells if cells else 0.0,
        "trace_overhead_frac": (sum(op.seconds for op in traced)
                                / sum(op.seconds for op in base) - 1.0),
    }
    for mode in ("ar", "diffusion"):
        extra[f"cell_spread.{mode}"] = traced[-1].spread.get(mode, 0.0)
    values = per_layer_metrics(tracer.spans, extra, n_ops=len(traced))
    print(f"{wl.name}: untraced {seconds_summary(base)}; traced {seconds_summary(traced)}; "
          f"{len(tracer.spans)} spans")
    return base + traced, {name: {"value": value, "unit": unit}
                           for name, (value, unit) in values.items()}


def run_one(args) -> int:
    load_ptqlab()
    os.environ.pop("PTQLAB_WORKSPACE", None)  # the generated config names the workspace
    os.chdir(ROOT)
    from perfbench.record import run_record
    from perfbench.workloads import WORK, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)} or 'all'")
    record = run_record(ROOT)
    reference = reference_for(args, record)
    print("run_record " + json.dumps(record, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size} reference_checked={reference is not None}")
    wl = WORKLOADS[args.workload](args.seed, args.size, reference)
    try:
        ops, metrics = (per_layer if args.trace else end_to_end)(wl, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    report_problems(ops)
    print(f"digest {json.dumps(wl.first_digest, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']} {m['unit']}")
    failed = sum(not op.ok for op in ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    from perfbench.workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {name} trace={trace} exited {proc.returncode}")
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        load_ptqlab()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
