"""Self-test: the benchmark's checks must catch wrong outputs.

    python3 bench/selftest.py

Builds a small seeded corpus, confirms the checks pass on the real output,
then damages copies of it under a temporary directory and confirms that
each damage is reported: one perturbed vector, one wrong count, two swapped
rows of a neighbors report.  It also confirms that one seed always gives a
byte-identical corpus, that ``BENCHMARK.json`` declares exactly the metrics
and workloads the runner has, and that a trace hook whose target is missing
is reported absent instead of failing.  Exits 0 when every case holds.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SPEC_ARGS = dict(epochs=2, files_per_epoch=2, tokens_per_epoch=20_000, planted_per_epoch=6)


def cli(*argv) -> int:
    from driftspace import cli as program

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        return program.main([str(a) for a in argv])


def main() -> int:
    if not (SRC / "driftspace" / "__init__.py").is_file():
        print(f"selftest: no driftspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import synth
    import tracing
    from checks import Checker
    from driftspace.persistence import load_space, save_space
    from workloads import WORKLOADS, Plan

    results = []

    def expect(name, ok):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    try:
        spec = synth.CorpusSpec(**SPEC_ARGS)
        corpus = synth.generate(spec, 5)
        first = corpus.write(tmp / "corpus")
        again = synth.generate(spec, 5).write(tmp / "corpus-again")
        other = synth.generate(spec, 6).write(tmp / "corpus-other")
        expect("one seed gives a byte-identical corpus", first == again)
        expect("another seed gives another corpus", first != other)

        wdef = WORKLOADS["analyze"]
        plan = Plan(wdef, corpus, tmp, 5)
        cli("build", "--corpus", plan.corpus_dir, "--out", plan.spaces_dir, "--workers", 1)
        cli("combine", *plan.epoch_paths, "--out", plan.total_path)
        label, path = corpus.labels[0], plan.epoch_paths[0]
        expect("checks pass on the real build", not Checker(corpus, 5).epoch_space(path, label)
               and not Checker(corpus, 5).total_space(plan.total_path, plan.epoch_paths))

        term = corpus.planted.drifters[0]
        damaged = tmp / "damaged"
        damaged.mkdir()
        copy = damaged / path.name
        shutil.copyfile(path, copy)
        space = load_space(copy)
        # Vector storage is internal to the program; this line follows it.
        space.entries[term].context[0] += 1e-6
        save_space(space, copy)
        failures = Checker(corpus, 5).epoch_space(copy, label)
        expect("a perturbed vector is reported",
               any("context vector" in f and repr(term) in f for f in failures)
               and not any("count" in f for f in failures))

        space = load_space(path)
        space.ingest_sentence([term])
        save_space(space, copy)
        failures = Checker(corpus, 5).epoch_space(copy, label)
        expect("a wrong count is reported", any("wrong counts" in f for f in failures))

        op = plan.op("neighbors_ms")
        cli(*op.argv)
        checker = Checker(corpus, 5)
        expect("a real neighbors report passes", not checker.report(op, plan))
        data = json.loads(op.report.read_text())
        data["rows"][0][1], data["rows"][1][1] = data["rows"][1][1], data["rows"][0][1]
        op.report.write_text(json.dumps(data))
        expect("swapped neighbors are reported", bool(checker.report(op, plan)))

        import run

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        expect("BENCHMARK.json names the metrics the runner prints, with their units",
               {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
               and {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
               == {m: spec[:2] for m, spec in tracing.LAYER_METRICS.items()}
               and {w["name"]: w["why"] for w in declared["workloads"]}
               == {name: w.why for name, w in WORKLOADS.items()})

        missing = ("space.missing", "driftspace.space", "NoSuchClass.method", None)
        hooks = tracing.HOOKS + (missing,)
        recorder = tracing.Recorder()
        with tracing.hooks_installed(recorder, hooks):
            cli("neighbors", term, "--space", plan.total_path, "--out", tmp / "traced")
        expect("a missing hook target is reported absent",
               tracing.absent_hooks(hooks) == ["space.missing"]
               and any(span[0] == "cli.main" for span in recorder.spans))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} self-test cases hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
