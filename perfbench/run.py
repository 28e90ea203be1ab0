"""Closed-loop benchmark of layeredsfm experiments, end to end and per layer.

One process, one thread: run one op (harness reports, produced as the CLI
produces them), wait for it, start the next, until ``--seconds`` have
passed.  The last line of standard output is the JSON result.

    python3 perfbench/run.py --workload adaptive_n1024 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced run of the same op, reports the per-layer metrics of
the traced ops, and prints the tracing overhead.  ``--workload all`` runs
every workload in its own process and prints one table.  Results,
provenance and spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import PER_LAYER_METRICS, Instrumentation, SpanRecorder, format_table, per_layer_metrics
from speed import REFERENCE_S, at_reference_speed, reference_job
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 9

SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import layeredsfm
configs = [layeredsfm.ExperimentConfig.from_json(spec) for spec in json.loads(sys.argv[2])]
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_ref_s": "1/s", "op_ref_s_p50": "s", "peak_rss_mb": "MB",
    "ops_per_s": "1/s", "op_s_p50": "s", "setup_wall_s": "s", "op_fail_ratio": "ratio",
}
# Plain wall times are printed, not gated: on a shared host they drift with
# the CPU's speed (see speed.py).  op_fail_ratio reads 0, which a gated
# metric may not; the result carries it as failed / attempted.
GATED = ("setup_s", "ops_per_ref_s", "op_ref_s_p50", "peak_rss_mb")


def measure_setup(specs: list[dict]) -> tuple[list[float], list[float]]:
    """Import of layeredsfm plus building the configs, each in a fresh
    interpreter: wall times, and the same at the reference speed."""
    samples = []
    reference = [reference_job()]
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), json.dumps(specs)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
        reference.append(reference_job())
    return samples, at_reference_speed(samples, reference)


def import_package():
    sys.path.insert(0, str(SRC))
    import layeredsfm
    from layeredsfm import harness

    if Path(layeredsfm.__file__).resolve().parent != SRC / "layeredsfm":
        raise SystemExit(f"imported layeredsfm from {layeredsfm.__file__}, not from {SRC}")
    return layeredsfm, harness


class OpChecker:
    """An op fails when it raises, when a report does not pass or does not
    echo the requested config, or when a report's text differs from the
    first report of the same config."""

    def __init__(self) -> None:
        self.first_text: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, harness, op) -> float | None:
        """Wall time of one op (each report run and rendered as the CLI
        does), or None if the op failed."""
        self.attempted += 1
        try:
            t0 = perf_counter()
            reports = [(spec, harness.run_experiment(config)) for spec, config in op]
            texts = [(spec, report.passed, report.to_json_text()) for spec, report in reports]
            seconds = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        ok = True
        for spec, passed, text in texts:
            parsed = json.loads(text)
            ok &= passed and parsed["passed"] is True
            ok &= all(parsed["config"][field] == value for field, value in spec.items())
            ok &= self.first_text.setdefault(json.dumps(spec, sort_keys=True), text) == text
        self.failed += not ok
        return seconds if ok else None

    def digest(self) -> str:
        """One digest over every distinct report seen, in first-seen order."""
        h = hashlib.sha256()
        for text in self.first_text.values():
            h.update(text.encode())
        return h.hexdigest()


def timed_loop(args, harness, ops, checker: OpChecker) -> dict:
    """Untraced ops for ``args.seconds``, with a reference job around each."""
    times: list[float] = []
    ref_times: list[float] = []
    reference = [reference_job()]
    start = perf_counter()
    while len(reference) == 1 or perf_counter() - start < args.seconds:
        seconds = checker.run(harness, ops[(len(reference) - 1) % len(ops)])
        reference.append(reference_job())
        if seconds is not None:
            times.append(seconds)
            ref_times.extend(at_reference_speed([seconds], reference[-2:]))
    return {"op_seconds": times, "op_ref_seconds": ref_times, "reference_seconds": reference}


def traced_loop(args, harness, ops, checker: OpChecker, recorder: SpanRecorder) -> dict:
    """Pairs of the same op, untraced then traced, for ``args.seconds``."""
    instrumentation = Instrumentation(recorder)
    untraced: list[float] = []
    traced: list[float] = []
    pairs = 0
    start = perf_counter()
    while pairs == 0 or perf_counter() - start < args.seconds:
        op = ops[pairs % len(ops)]
        pairs += 1
        seconds = checker.run(harness, op)
        recorder.op_id = pairs
        instrumentation.install()
        try:
            traced_seconds = checker.run(harness, op)
        finally:
            instrumentation.uninstall()
        if seconds is not None and traced_seconds is not None:
            untraced.append(seconds)
            traced.append(traced_seconds)
    return {"op_seconds": untraced, "traced_op_seconds": traced}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    op_specs = workload.op_specs(args.seed)
    if not args.trace:
        setup, ref_setup = measure_setup([spec for op in op_specs for spec in op])
    layeredsfm, harness = import_package()
    ops = [[(spec, layeredsfm.ExperimentConfig.from_json(spec)) for spec in op] for op in op_specs]
    checker = OpChecker()

    # One untimed op first: the first op in a process also pays for growing
    # the heap (40% extra on a duel at n = 1024); peak_rss_mb reports that
    # memory.
    first_op_s = checker.run(harness, ops[-1])
    if args.trace:
        recorder = SpanRecorder()
        timings = traced_loop(args, harness, ops, checker, recorder)
    else:
        timings = timed_loop(args, harness, ops, checker)
    attempted = checker.attempted

    print(f"workload {workload.name}: {workload.why}")
    print(f"ops {attempted}, failed {checker.failed}, untimed first op {first_op_s} s, "
          f"report digest {checker.digest()[:16]}")
    end_to_end = None
    if args.trace:
        traced, untraced = timings["traced_op_seconds"], timings["op_seconds"]
        metrics = {}
        if traced:
            values = per_layer_metrics(recorder, traced, untraced)
            print(format_table(values, traced, untraced))
            recorder.write(OUT / f"spans-{workload.name}.bin")
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
    else:
        times, ref_times = timings["op_seconds"], timings["op_ref_seconds"]
        values = {
            "setup_s": statistics.median(ref_setup),
            "ops_per_ref_s": len(ref_times) / sum(ref_times) if ref_times else 0.0,
            "op_ref_s_p50": statistics.median(ref_times) if ref_times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_per_s": len(times) / sum(times) if times else 0.0,
            "op_s_p50": statistics.median(times) if times else 0.0,
            "setup_wall_s": statistics.median(setup),
            "op_fail_ratio": checker.failed / attempted,
        }
        for name, value in values.items():
            print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
        print(f"op times: {len(times)} ops; setup: median of {SETUP_SAMPLES} interpreters; "
              f"reference job: median {statistics.median(timings['reference_seconds']):.4f} s, "
              f"{REFERENCE_S} s at the reference speed")
        end_to_end = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        metrics = {name: end_to_end[name] for name in GATED}
        timings.update(setup_seconds=setup, setup_ref_seconds=ref_setup)

    result = {"correct": checker.failed == 0, "attempted": attempted,
              "failed": checker.failed, "metrics": metrics}
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_seeds": workload.op_seeds(args.seed),
        "ops": attempted,
        "failed_ops": checker.failed,
        "report_sha256": checker.digest(),
        "layeredsfm_version": layeredsfm.__version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    OUT.mkdir(exist_ok=True)
    record = {"result": result, "provenance": provenance, "end_to_end": end_to_end,
              "timings": timings}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload), one table."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        if not args.trace:
            record = json.loads((OUT / f"result-{name}-seed{args.seed}-trace0.json").read_text())
            rows.extend((name, metric, m["value"], m["unit"])
                        for metric, m in record["end_to_end"].items())
    print()
    for name, metric, value, unit in rows:
        print(f"{name:18} {metric:14} {value:14.6g} {unit}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "layeredsfm" / "__init__.py").is_file():
        print(f"error: no layeredsfm sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
