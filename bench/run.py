"""driftspace benchmark: seeded corpora, timed CLI commands, checked outputs.

    python3 bench/run.py --workload analyze --seed 1 --seconds 52 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 52   # every workload

Run it from anywhere; it works on the checkout that holds it.  Every
command is a fresh ``python -m driftspace`` process, as a CLI user runs it,
so each latency includes interpreter start and ``import driftspace``.

``--trace 0`` prints the end-to-end metrics: medians of the timed commands,
set-up time and peak RSS.  ``--trace 1`` replays one cycle of the workload
in-process (build, combine and six analysis commands through
``driftspace.cli.main``), alternating untraced and traced cycles, and prints
the per-layer self times and counts; see ``tracing.py``.  Every output is
checked against the generator's ground truth (``checks.py``); a non-zero
exit or a failed check counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files go to
``.bench_work/<workload>/`` in the checkout; the run's samples, context and
failures are written to ``result.json`` there, and traced spans to
``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = (3, 5)  # at least 3 set-ups, up to 5 while they take < SETUP_BUDGET_S
SETUP_BUDGET_S = 8
MIN_SAMPLES = 3  # the timed loop runs on until every command has this many
LOOP_OPS = 500  # commands written to the loop's job; it wraps around after them
IMPORT_SAMPLES = 5
TRACE_SHARE = 0.6
RUN_LIMIT_S = 165  # the timed loop is killed past this point of the run

E2E_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "combine_s": "s",
    "neighbors_ms": "ms",
    "predict_ms": "ms",
    "trajectory_ms": "ms",
    "equiv_ms": "ms",
    "bias_ms": "ms",
    "drift_ms": "ms",
    "peak_rss_mb": "MB",
}
PERCENTILES = (99, 95, 90, 75)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def digest_files(paths) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def high_percentile(samples) -> tuple | None:
    """Highest tabulated percentile with at least ten samples above it."""
    n = len(samples)
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DRIFTSPACE_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, deadline: float, log_path: Path):
    """Run ``argv`` to completion or until ``deadline``; return its exit
    code and peak RSS in MB.  wait4 gives this child's own rusage, which
    covers the pool workers it waited for and nothing of the parent's."""
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, env=child_env(), stdout=log, stderr=log, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, usage.ru_maxrss / 1024


def run_in_process(op) -> None:
    from driftspace import cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        gc.collect()
        start = time.perf_counter()
        op.exit_code = cli.main(op.argv)
        op.seconds = time.perf_counter() - start
    note_exit(op)


def note_exit(op) -> None:
    if op.exit_code != 0:
        op.failures.append(f"{op.argv[0]} exited with {op.exit_code}")


def check_outputs(checker, plan, ops) -> None:
    """Attach every failed check to the operations whose output it covers."""
    builds = [op for op in ops if op.metric == "build_s"]
    reference = {}
    for op in builds:
        ref = reference.setdefault(op.params["workers"], op.digests)
        if op.digests != ref:
            op.failures.append("build output differs from the run's first build")
    epoch_failures = []
    for path, label in zip(plan.epoch_paths, plan.corpus.labels):
        epoch_failures += guarded(checker.epoch_space, path, label)
    for op in builds:
        op.failures += epoch_failures
    total_failures = guarded(checker.total_space, plan.total_path, plan.epoch_paths)
    for op in ops:
        if op.metric == "combine_s":
            op.failures += total_failures
        elif op.report is not None and op.exit_code == 0:
            op.failures += guarded(checker.report, op, plan)


def guarded(check, *args) -> list:
    """Run one check; a check that cannot even read its input fails."""
    try:
        return check(*args)
    except Exception as exc:  # any crash of a check is a failed check
        return [f"{check.__name__} could not run: {type(exc).__name__}: {exc}"]


def setup(wdef, seed: int, work: Path):
    import synth
    from workloads import Plan

    corpus = synth.generate(wdef.spec, seed)
    corpus_digest = corpus.write(work / "corpus")
    return corpus, corpus_digest, Plan(wdef, corpus, work, seed)


def timed_loop(wdef, plan, seconds: float, work: Path, deadline: float):
    """Run the closed loop in a process of its own; return its operations
    and that process's peak RSS."""
    from workloads import Op

    sequence = plan.timed_metrics()
    ops = [plan.op(next(sequence)) for _ in range(LOOP_OPS)]
    job = {
        "src": str(SRC),
        "seconds": seconds,
        "min_samples": MIN_SAMPLES,
        "metrics": sorted(wdef.weights),
        "ops": [{"metric": op.metric, "argv": op.argv,
                 "digest": [str(p) for p in plan.epoch_paths] if op.metric == "build_s" else []}
                for op in ops],
    }
    job_path, result_path = work / "loop-job.json", work / "loop-result.json"
    job_path.write_text(json.dumps(job))
    code, peak = run_child([sys.executable, str(BENCH / "loop.py"), str(job_path), str(result_path)],
                           deadline, work / "loop.log")
    if code != 0 or not result_path.exists():
        failed = Op("loop", ["loop"], exit_code=code, failures=["timed loop did not finish"])
        return [failed], peak
    done = []
    for r in json.loads(result_path.read_text()):
        op = dataclasses.replace(ops[r["index"]], seconds=r["seconds"], exit_code=r["exit_code"],
                                 digests=r["digests"], failures=[])
        note_exit(op)
        done.append(op)
    return done, peak


def measure(wdef, seed: int, seconds: float, work: Path, deadline: float):
    """Untraced run: repeated set-up, then the timed closed loop."""
    samples = {name: [] for name in E2E_UNITS}
    setup_ops = []
    corpus_digests = set()
    setup_start = time.perf_counter()
    measure_end = time.monotonic() + seconds
    while len(samples["setup_s"]) < SETUP_REPEATS[0] or (
            len(samples["setup_s"]) < SETUP_REPEATS[1]
            and time.perf_counter() - setup_start < SETUP_BUDGET_S):
        start = time.perf_counter()
        corpus, corpus_digest, plan = setup(wdef, seed, work)
        corpus_digests.add(corpus_digest)
        hashing = 0.0
        if wdef.prebuild:
            for metric in ("build_s", "combine_s"):
                op = plan.op(metric)
                run_in_process(op)
                setup_ops.append(op)
                if metric == "build_s":
                    mark = time.perf_counter()
                    op.digests = digest_files(plan.epoch_paths)
                    hashing += time.perf_counter() - mark
        samples["setup_s"].append(time.perf_counter() - start - hashing)
    if len(corpus_digests) != 1:
        raise RuntimeError("the corpus generator is not deterministic for this seed")

    # Set-up and loop share the run's time; the loop gets at least half.
    loop_seconds = max(seconds / 2, measure_end - time.monotonic())
    ops, peak = timed_loop(wdef, plan, loop_seconds, work, deadline)
    for op in ops:
        if op.metric in samples:
            samples[op.metric].append(op.seconds)
    samples["peak_rss_mb"] = [peak]
    return corpus, plan, setup_ops + ops, samples


def trace(wdef, seed: int, seconds: float, work: Path):
    """Traced run: alternate untraced and traced in-process cycles."""
    import tracing
    from workloads import CLI_METRICS, Op

    measure_end = time.monotonic() + seconds
    corpus, _, plan = setup(wdef, seed, work)
    walls = {False: [], True: []}
    per_cycle, recorders, ops = [], [], []
    # Cycles take the first TRACE_SHARE of the run; import and speed-up
    # timings take the rest.
    cycles_end = measure_end - (1 - TRACE_SHARE) * seconds
    while time.monotonic() < cycles_end or not walls[True]:
        for traced in (False, True):
            cycle_ops = [plan.op(metric, workers=1) for metric in CLI_METRICS]
            recorder = tracing.Recorder()
            hooks = tracing.hooks_installed(recorder) if traced else contextlib.nullcontext()
            start = time.perf_counter()
            with hooks:
                for op in cycle_ops:
                    run_in_process(op)
            walls[traced].append(time.perf_counter() - start)
            for op in cycle_ops:
                if op.metric == "build_s":
                    op.digests = digest_files(plan.epoch_paths)
            ops += cycle_ops
            if traced:
                recorders.append(recorder)
                per_cycle.append(tracing.layer_metrics(recorder, corpus.total_tokens))

    samples = {name: [c[name] for c in per_cycle] for name in per_cycle[0]}
    # Each traced cycle against the untraced cycle just before it, so that
    # both ran under the same machine load.
    samples["trace.overhead"] = [t / u - 1 for u, t in zip(walls[False], walls[True])]
    samples["cli.import_s"] = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", "import time; t = time.perf_counter(); import driftspace; "
                                   "print(time.perf_counter() - t)"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        samples["cli.import_s"].append(float(out.stdout))

    # Built into a directory of their own so the checked spaces stay as traced.
    builds = {1: [], 2: []}
    while time.monotonic() < measure_end or not builds[2]:
        for workers, times in builds.items():
            op = Op("speedup_build", ["build", "--corpus", str(plan.corpus_dir),
                                      "--out", str(work / "speedup"), "--workers", str(workers)])
            run_in_process(op)
            times.append(op.seconds)
            ops.append(op)
    samples["cli.parallel_speedup"] = [statistics.median(builds[1]) / statistics.median(builds[2])]
    samples["untraced_cycle_s"] = walls[False]
    samples["traced_cycle_s"] = walls[True]

    with open(work / "spans.jsonl", "w") as fh:
        for i, recorder in enumerate(recorders):
            recorder.write(fh, i)
    return corpus, plan, ops, samples, tracing.absent_hooks()


def run_context(wdef, corpus, plan) -> dict:
    import numpy

    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    llc = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError, ValueError):
            level = int((index / "level").read_text())
            if level >= llc.get("level", 0):
                llc = {"level": level, "size": (index / "size").read_text().strip()}
    retained = corpus.retained()
    files = [*plan.epoch_paths, plan.total_path]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": wdef.name,
        "why": wdef.why,
        "corpus": {
            "epochs": wdef.spec.epochs,
            "files_per_epoch": wdef.spec.files_per_epoch,
            "tokens": corpus.total_tokens,
            "types": len(corpus.total_counts),
            "retained_types": len(retained),
            "retained_tokens": sum(c for t, c in corpus.total_counts.items() if t in retained),
        },
        "space_file_bytes": {p.name: p.stat().st_size for p in files if p.exists()},
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import tracing
    from checks import Checker
    from workloads import WORKLOADS

    wdef = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    if traced:
        corpus, plan, ops, samples, absent = trace(wdef, seed, seconds, work)
        metrics = {m: {"value": float(statistics.median(samples[m])), "unit": spec[0]}
                   for m, spec in tracing.LAYER_METRICS.items()}
        absent_metrics = sorted(m for m, spec in tracing.LAYER_METRICS.items()
                                if spec[2] in absent)
    else:
        corpus, plan, ops, samples = measure(wdef, seed, seconds, work, deadline)
        absent_metrics = []
        metrics = {}
        for m, unit in E2E_UNITS.items():
            # No samples only when the loop failed, and then the run is not correct.
            value = statistics.median(samples[m]) if samples[m] else 0.0
            metrics[m] = {"value": value * 1000 if unit == "ms" else value, "unit": unit}
    check_outputs(Checker(corpus, seed), plan, [op for op in ops if op.metric != "speedup_build"])
    failed = sum(op.failed for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    percentiles = {}
    for m, values in samples.items():
        found = high_percentile(values) if m in E2E_UNITS else None
        if found:
            scale = 1000 if E2E_UNITS[m] == "ms" else 1
            percentiles[f"{m}.p{found[0]}"] = found[1] * scale
    report = {
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "context": run_context(wdef, corpus, plan),
        "samples": samples,
        "percentiles": percentiles,
        "absent": absent_metrics,
        "failures": [f for op in ops for f in op.failures][:50],
        "layer_effects": {m: spec[3] for m, spec in tracing.LAYER_METRICS.items()} if traced else None,
        "result": result,
    }
    (work / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_summary(name: str, report: dict) -> None:
    result = report["result"]
    print(f"== {name}  seed={report['seed']}  seconds={report['seconds']}  "
          f"trace={int(report['trace'])}")
    for metric, entry in result["metrics"].items():
        n = len(report["samples"].get(metric, ()))
        print(f"  {metric:28s} {entry['value']:14.6f} {entry['unit']:6s} (n={n})")
    for metric, value in report["percentiles"].items():
        print(f"  {metric:28s} {value:14.6f}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':28s} {rate:14.6f}        "
          f"({result['failed']} of {result['attempted']} operations)")
    if report["absent"]:
        print(f"  absent (hook target missing): {', '.join(report['absent'])}")
    for failure in report["failures"][:10]:
        print(f"  FAILED: {failure}")
    print("  context: " + json.dumps(report["context"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("analyze", "slices", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=52)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "driftspace" / "__init__.py").is_file():
        return fail(f"no driftspace sources under {SRC}")
    sys.path.insert(0, str(SRC))

    names = ("analyze", "slices") if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(name, report)
        results[name] = report["result"]
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
