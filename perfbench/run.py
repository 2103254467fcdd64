"""airsep benchmark: PPO training throughput and dense-traffic advisory latency.

Run from the repository root:

    python3 perfbench/run.py --workload train-headon --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records spans
around calls into every airsep module and reports per-layer metrics instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, the environment, an output digest
and traffic descriptors. A fuller report goes to ``perfbench/results/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import os
import sys
import time

T_START = time.perf_counter()

# BLAS threads are pinned before numpy is imported: with the default two
# OpenBLAS threads on two cores, small matmuls measured up to 8x slower.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"
#: set-ups per run for setup_s: this process plus fresh subprocesses
SETUP_REPEATS = 5

WORKLOADS = ("train-headon", "train-sector", "eval-casec16")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help="set up, print setup_s, exit")
    return parser.parse_args(argv)


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to report
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "airsep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def setup_in_subprocess(args):
    """setup_s of one fresh process running this script with --setup-only."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def run(args, work_dir):
    import tracing
    import workloads

    patcher = tracing.Patcher()
    probe = tracing.CycleProbe(stop_at_loop=args.setup_only)
    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
    try:
        if tracer:
            tracer.install(patcher)
        probe.install(patcher)
        workload = workloads.make(args.workload, args.seed, work_dir)
        workload.setup()

        # Set-up ends where the first timed loop (a rollout or an episode)
        # starts, so ppo.train's own start counts as set-up, not loop time.
        ops, failures = [], []
        loop_start = time.perf_counter()
        k = 0
        while True:
            loops_before = len(probe.loop_starts)
            cycles_before, transitions_before = len(probe.active), len(probe.transitions)
            try:
                op = workload.run_op(k)
            except tracing.SetupDone:
                print(f"setup_s {probe.loop_starts[0] - T_START!r}")
                return None
            except Exception as exc:  # a failed operation is counted, not fatal
                op = workloads.OpResult(time.perf_counter(), [f"{type(exc).__name__}: {exc}"], {})
            started = probe.loop_starts[loops_before] if len(probe.loop_starts) > loops_before else op.end
            op.seconds = op.end - started
            if args.workload.startswith("train"):
                op.units = sum(probe.transitions[transitions_before:])
            else:
                op.units = sum(probe.active[cycles_before:])
            ops.append(op)
            if op.errors:
                failures.append({"op": k, "errors": op.errors})
            k += 1
            elapsed = time.perf_counter() - loop_start
            if elapsed + op.seconds / 2 >= args.seconds:
                break
    finally:
        patcher.restore()

    first = probe.loop_starts[0] if probe.loop_starts else loop_start
    setups = [first - T_START]
    if not args.trace:
        setups += [setup_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)]
    seconds = sum(op.seconds for op in ops)
    units = sum(op.units for op in ops)
    e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "agent_steps_per_s": units / seconds if seconds > 0 else 0.0,
    }
    if args.workload.startswith("train"):
        digest = {"updates": [op.digest for op in ops]}
    else:
        digest = {"aggregate": workloads.eval_aggregate([op.digest for op in ops if op.digest])}
        digest["episodes"] = [op.digest for op in ops]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "setup_samples_s": setups,
        "agent_steps": units,
        "loop_seconds": seconds,
        "op_seconds": [op.seconds for op in ops],
        "end_to_end": e2e,
        "decision_cycles": probe.cycle_stats(),
        "digest": digest,
        "traffic": probe.descriptors(),
    }
    if tracer:
        report["per_layer"] = traced_metrics(args, tracer, probe, report)
    return report


def traced_metrics(args, tracer, probe, report):
    """Per-layer numbers plus the traced run's end-to-end figures and tracing overhead."""
    import tracing

    metrics = tracer.layer_metrics(probe)
    metrics["trace.spans"] = len(tracer.spans)
    cycles = report["decision_cycles"]
    traced = dict(report["end_to_end"], decision_ms_p50=cycles["p50_ms"], decision_ms_p99=cycles["p99_ms"])
    for name, value in traced.items():
        metrics[f"trace.{name}"] = value
    metrics["trace.decision_samples"] = cycles["samples"]
    metrics["trace.overhead_pct_est"] = (
        100.0 * tracing.span_cost_s() * len(tracer.spans) / report["loop_seconds"]
    )
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(spans_path)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    untraced = RESULTS / f"{args.workload}-seed{args.seed}-trace0.json"
    base = json.loads(untraced.read_text()) if untraced.is_file() else {}
    # compare only with an untraced run of the same sources and report layout
    if base.get("environment", {}).get("src_sha256") == report["environment"]["src_sha256"] and (
        "decision_cycles" in base
    ):
        untraced_e2e = dict(
            base["end_to_end"],
            decision_ms_p50=base["decision_cycles"]["p50_ms"],
            decision_ms_p99=base["decision_cycles"]["p99_ms"],
        )
        report["untraced_end_to_end"] = untraced_e2e
        report["tracing_overhead_pct"] = {
            name: 100.0 * (traced[name] / untraced_e2e[name] - 1.0)
            for name in ("agent_steps_per_s", "decision_ms_p50", "decision_ms_p99")
            if untraced_e2e.get(name)
        }
    return metrics


def emit(report, spec):
    """Every metric BENCHMARK.json declares, by name with its unit, then the JSON result."""
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    section, values = ("per_layer", report["per_layer"]) if report["trace"] else ("end_to_end", report["end_to_end"])
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec[section]}
    unmeasured = [name for name, (value, _) in metrics.items() if value is None]
    if unmeasured:
        raise RuntimeError(f"{report['workload']} did not measure {', '.join(unmeasured)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    # the rate under its training or evaluation name, then figures BENCHMARK.json does not bound
    cycles = report["decision_cycles"]
    rate_name = "train_transitions_per_s" if report["workload"].startswith("train") else "eval_agent_steps_per_s"
    print(f"  {rate_name:<40} {report['end_to_end']['agent_steps_per_s']:>14.6g} 1/s")
    print(f"  {'decision_ms_p50':<40} {cycles['p50_ms']:>14.6g} ms")
    print(f"  {'decision_ms_p99':<40} {cycles['p99_ms']:>14.6g} ms   ({cycles['samples']} cycles)")
    print(f"  {'error_rate':<40} {report['failed'] / report['attempted']:>14.6g}      "
          f"({report['failed']}/{report['attempted']} operations)")
    if report["trace"]:
        # layers or densities only some workloads reach, traffic counts and tracing figures
        print("per-layer metrics outside the result line:")
        for name, value in sorted(values.items()):
            if name not in metrics and value is not None:
                print(f"  {name:<40} {value:>14.6g}")
    if report.get("tracing_overhead_pct"):
        print("tracing overhead % " + json.dumps(report["tracing_overhead_pct"], sort_keys=True))
    for failure in report["failures"]:
        print(f"FAILED op {failure['op']}: {'; '.join(failure['errors'])}")
    print("digest " + json.dumps(report["digest"], sort_keys=True))
    print("traffic " + json.dumps(report["traffic"], sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if not (SRC / "airsep" / "__init__.py").is_file():
        print(f"error: airsep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in ("configs/smoke_headon.yaml", "configs/paper_scale.yaml"):
        if not (ROOT / name).is_file():
            print(f"error: {name} not found under {ROOT}", file=sys.stderr)
            return 2
    work_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        report = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if report is None:
        return 0
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True))
    emit(report, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
