"""Benchmark of the finsplice command-line front end.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1

Each op is one in-process `finsplice.cli.main([...])` call on a generated
space file, with stdout captured, in a closed loop with one client on one
thread.  The run replays one seeded pass of ops until `--seconds` of wall
time have passed, finishing the pass in progress, and checks every report
against `oracle.py` between ops, outside the timed region.  The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1`).  The line before it holds the run's details:
sample counts, the latency percentile used, failures by input and exception
type, and the SHA-256 digest of the first pass's report bytes.

`--all` runs every workload untraced and traced, each in a fresh process,
prints every metric by name and unit, and writes the per-layer metrics to
perfbench/out/.  Metric definitions are in perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import calibrate
import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("cli", "io", "spaces", "orders", "complexes", "matrices", "homology", "pipeline", "splice")
SETUP_REPEATS = 7


class ProgramMissing(Exception):
    pass


def import_program() -> SimpleNamespace:
    """Import finsplice from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "finsplice" / "cli.py").is_file():
        raise ProgramMissing(f"no finsplice sources under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"finsplice.{name}") for name in MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing("finsplice was imported from outside this checkout")
    return SimpleNamespace(**modules)


def measure_setup(clock: calibrate.Clock) -> tuple[float, list[float]]:
    """Median calibrated wall time of a fresh interpreter importing finsplice.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", "import finsplice.cli"]
    intervals = []
    for _ in range(SETUP_REPEATS + 1):
        clock.refresh(force=True)
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        intervals.append(clock.record(time.perf_counter() - start))
    clock.refresh(force=True)
    samples = [raw * factor for raw, factor in intervals[1:]]  # the first start writes bytecode caches
    return statistics.median(samples), samples


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def call_cli(main, argv) -> tuple[bytes, str | None, float]:
    """One op: report bytes, failure kind (None on exit 0) and seconds."""
    out = io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code, failure = exc.code, "SystemExit"
        except Exception as exc:  # an escaped exception is a counted failure, not fatal
            code, failure = 1, type(exc).__name__
        elapsed = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit {code}"
    return out.getvalue().encode(), failure, elapsed


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """0.9, or the highest quantile with at least ten samples beyond it."""
    return max(min(0.9, 1 - 10 / n), 0.5) if n else 0.5


class Run:
    """One workload in this process: inputs, oracle expectations, outcomes."""

    def __init__(self, fs, workload: str, seed: int, tmp: Path):
        self.fs = fs
        self.ops = workloads.WORKLOADS[workload](seed)
        self.argvs = []
        for i, op in enumerate(self.ops):
            path = tmp / f"{i:04d}.json"
            path.write_text(json.dumps(op.document), encoding="utf-8")
            self.argvs.append(op.argv(str(path)))
        expected = {}
        for op in self.ops:
            if op.space.name not in expected:
                expected[op.space.name] = oracle.expect(op.space)
        self.expected = expected
        self.first_digests: dict[int, bytes] = {}
        self.checked: dict[int, str | None] = {}
        self.failures: Counter = Counter()
        self.wrong = 0
        self.canary = self._canary(tmp)

    def _canary(self, tmp: Path) -> bool:
        points, relation = workloads.BASES["PSEUDO_S1_DUP"]
        space = workloads.make_space("canary", points, relation)
        path = tmp / "canary.json"
        doc = workloads.document(space, "min_opens", random.Random(0))
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [oracle.CANARY_ARGS[0], "--input", str(path), *oracle.CANARY_ARGS[1:]]
        report, failure, _ = call_cli(self.fs.cli.main, argv)
        return failure is None and oracle.check_canary(report)

    def verdict(self, i: int, report: bytes, failure: str | None) -> bool:
        """Record and return whether op i completed with a correct report."""
        op = self.ops[i]
        digest = hashlib.sha256(report).digest()
        first = self.first_digests.setdefault(i, digest)
        if failure is None:
            if digest != first:
                failure = "nondeterministic report"
            else:
                if i not in self.checked:
                    self.checked[i] = oracle.check(op.args, report, self.expected[op.space.name])
                if self.checked[i] is not None:
                    failure = f"check: {self.checked[i]}"
            if failure is not None:
                self.wrong += 1
        if failure is not None:
            self.failures[(op.input_id, failure)] += 1
        return failure is None

    def warm_up(self, count: int) -> None:
        for argv in self.argvs[:count]:
            call_cli(self.fs.cli.main, argv)


def untraced(run: Run, seconds: float, clock: calibrate.Clock) -> dict:
    """Times are calibrated op times (see calibrate.py); raw figures go to the details."""
    main = run.fs.cli.main
    latencies: list[float] = []
    raw_latencies: list[float] = []
    pass_rates: list[float] = []
    raw_pass_rates: list[float] = []
    attempted = ok = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    while not pass_rates or time.perf_counter() - start < seconds:
        timed = []
        for i, argv in enumerate(run.argvs):
            clock.refresh()
            report, failure, elapsed = call_cli(main, argv)
            interval = clock.record(elapsed)
            attempted += 1
            good = run.verdict(i, report, failure)
            ok += good
            timed.append((good, interval))
            if not pass_rates:
                digest.update(f"{run.ops[i].input_id} {failure}\n".encode() + report)
        clock.refresh(force=True)
        pass_ok = sum(good for good, _ in timed)
        pass_rates.append(pass_ok / sum(raw * factor for _, (raw, factor) in timed))
        raw_pass_rates.append(pass_ok / sum(raw for _, (raw, _) in timed))
        latencies.extend(raw * factor for good, (raw, factor) in timed if good)
        raw_latencies.extend(raw for good, (raw, _) in timed if good)
    latencies.sort()
    raw_latencies.sort()
    q = tail_quantile(len(latencies))
    metrics = {
        "ops_per_s": statistics.median(pass_rates),
        "op_p50_ms": 1000 * quantile(latencies, 0.5) if latencies else 0.0,
        "op_p90_ms": 1000 * quantile(latencies, q) if latencies else 0.0,
        "ok_frac": ok / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "passes": len(pass_rates),
        "ops_per_pass": len(run.ops),
        "latency_samples": len(latencies),
        "op_p90_ms_quantile": q,
        "pass_ops_per_s": pass_rates,
        "raw_ops_per_s": statistics.median(raw_pass_rates),
        "raw_op_p50_ms": 1000 * quantile(raw_latencies, 0.5) if raw_latencies else 0.0,
        "raw_op_p90_ms": 1000 * quantile(raw_latencies, q) if raw_latencies else 0.0,
        "calibration_factor_median": statistics.median(clock.factors),
        "digest_sha256": digest.hexdigest(),
    }
    return {"attempted": attempted, "failed": attempted - ok, "metrics": metrics, "details": details}


def traced(run: Run, seconds: float) -> dict:
    """Each op runs untraced, then again instrumented; metrics are per completed op."""
    fs = run.fs
    instrumentation = tracing.Instrumentation(fs)
    totals: Counter = Counter()
    untraced_s = traced_s = 0.0
    attempted = ok = passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for i, argv in enumerate(run.argvs):
            attempted += 1
            report, failure, plain = call_cli(fs.cli.main, argv)
            good = run.verdict(i, report, failure)
            tracer = instrumentation.tracer = tracing.Tracer()
            with instrumentation.instrumented():
                traced_report, traced_failure, elapsed = call_cli(fs.cli.main, argv)
            if not good:
                continue
            if traced_failure is not None or traced_report != report:
                run.failures[(run.ops[i].input_id, "traced report differs")] += 1
                run.wrong += 1
                continue
            ok += 1
            totals.update(tracer.metrics())
            untraced_s += plain
            traced_s += elapsed
        passes += 1
    metrics = {name: value / max(ok, 1) for name, value in totals.items() if name != "homology.snf_repeats"}
    metrics["homology.snf_repeat_frac"] = totals["homology.snf_repeats"] / max(totals["homology.snf_calls"], 1)
    metrics["trace.overhead_s"] = (traced_s - untraced_s) / max(ok, 1)
    details = {"passes": passes, "traced_ops": ok, "unbound_layer_calls": instrumentation.missing}
    return {"attempted": attempted, "failed": attempted - ok, "metrics": metrics, "details": details}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        fs = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    clock = calibrate.Clock()
    setup = None if trace else measure_setup(clock)
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        run = Run(fs, workload, seed, Path(tmp))
        rss_before_ops = peak_rss_mb()
        run.warm_up(100 if workload == "corpus" else 1)
        gc.collect()
        gc.freeze()
        result = traced(run, seconds) if trace else untraced(run, seconds, clock)
    with contextlib.suppress(OSError):
        work.rmdir()
    if result["failed"] == result["attempted"]:
        print(f"perfbench: every op of {workload} failed: {sorted(run.failures)[:5]}", file=sys.stderr)
        return 3
    metrics = result["metrics"]
    result["details"]["rss_before_ops_mb"] = rss_before_ops
    result["details"]["ops_rss_mb"] = peak_rss_mb() - rss_before_ops
    if setup is not None:
        metrics["setup_s"] = setup[0]
        result["details"]["setup_s_samples"] = setup[1]
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "canary_ok": run.canary,
        "wrong_reports": run.wrong,
        "failures": [
            {"input": input_id, "type": kind, "count": count}
            for (input_id, kind), count in sorted(run.failures.items())
        ],
        **result["details"],
        "all_metrics": metrics,
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": run.canary and run.wrong == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    status = 0
    for workload in workloads.WORKLOADS:
        record = {}
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            record["traced" if trace else "untraced"] = {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}
            result = record["traced" if trace else "untraced"]["result"]
            print(f"{workload} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if not trace:
                for name, m in result["metrics"].items():
                    print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
        path = out_dir / f"{workload}-seed{seed}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"  per-layer metrics written to {path.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    seconds = benchmark_spec()["run_seconds"] if args.seconds is None else args.seconds
    if args.all:
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
