"""Workload definitions and the CLI operations they issue.

Every operation is one ``driftspace`` command.  Its wall time is the
end-to-end metric it belongs to (``build_s``, ``neighbors_ms``, ...), and
its report, if any, goes to a directory of its own so that the checks can
read it after the timed phase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from synth import Corpus, CorpusSpec

ANALYSES = ("neighbors", "predict", "trajectory", "equiv", "bias", "drift")
ANALYSIS_METRICS = tuple(f"{a}_ms" for a in ANALYSES)
CLI_METRICS = ("build_s", "combine_s") + ANALYSIS_METRICS

# The CLI defaults the checks rebuild vectors from.
DIM, WINDOW, ORDER_SPAN, GLOBAL_SEED, PERM_SEED = 300, 11, 2, 1, 2
TOP_K, MIN_COUNT = 100, 5

LARGE_SPEC = CorpusSpec(epochs=3, files_per_epoch=4, tokens_per_epoch=40_000,
                        planted_per_epoch=16)
SLICES_SPEC = CorpusSpec(epochs=12, files_per_epoch=3, tokens_per_epoch=8_000,
                         planted_per_epoch=6)


@dataclass(frozen=True)
class WorkloadDef:
    """``weights`` sets each command's share of the timed closed loop.
    ``prebuild`` makes set-up build and combine the spaces, so the loop can
    start with any command."""

    name: str
    spec: CorpusSpec
    workers: int
    prebuild: bool
    weights: dict
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        WorkloadDef(
            "analyze", LARGE_SPEC, 1, True,
            {"build_s": 1, "combine_s": 1, **dict.fromkeys(ANALYSIS_METRICS, 3)},
            "3 epochs of 40k tokens, prebuilt; 18 of 20 commands are seeded analyses (load, "
            "index, query, analyses, reports); 1 in 20 is a sequential rebuild of the corpus"),
        WorkloadDef(
            "slices", SLICES_SPEC, 2, False,
            {"build_s": 1, "combine_s": 1, **dict.fromkeys(ANALYSIS_METRICS, 2)},
            "12 small epochs built by a 2-worker pool, combined, then analysed across 12 "
            "spaces: per-epoch fixed costs, pickled partials and many small files dominate"),
    )
}


@dataclass
class Op:
    metric: str
    argv: list
    params: dict = field(default_factory=dict)
    report: Path | None = None
    seconds: float = 0.0
    exit_code: int | None = None
    digests: dict | None = None
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.failures)


class Plan:
    """Paths and argument choices for one workload run in ``work``."""

    def __init__(self, wdef: WorkloadDef, corpus: Corpus, work: Path, seed: int):
        self.wdef = wdef
        self.corpus = corpus
        self.corpus_dir = work / "corpus"
        self.spaces_dir = work / "spaces"
        self.reports_dir = work / "reports"
        self.epoch_paths = [self.spaces_dir / f"{label}.space" for label in corpus.labels]
        self.total_path = self.spaces_dir / "total.space"
        self.rng = random.Random(seed * 7919 + 1)
        planted = corpus.planted
        first, last = corpus.labels[0], corpus.labels[-1]
        self.drift_min_total = min(corpus.epoch_counts[first][d] + corpus.epoch_counts[last][d]
                                   for d in planted.drifters)
        retained = corpus.retained(TOP_K, MIN_COUNT)
        frequent = sorted(t for t in retained if corpus.total_counts[t] >= 40)
        self.query_terms = sorted(planted.terms()) + self.rng.sample(frequent, min(20, len(frequent)))
        terms_dir = work / "terms"
        terms_dir.mkdir(parents=True, exist_ok=True)
        self.terms_files = {}
        for name, terms in (("qualifiers", planted.male_qualifiers + planted.female_qualifiers),
                            ("man", planted.male_anchors), ("woman", planted.female_anchors)):
            path = terms_dir / f"{name}.txt"
            path.write_text("\n".join(terms) + "\n", encoding="ascii")
            self.terms_files[name] = str(path)
        self._count = 0

    def timed_metrics(self):
        """Endless seeded sequence of timed commands, each at its weight's
        share and spread evenly (smooth weighted round robin), so that every
        command is sampled across the whole loop."""
        weights = self.wdef.weights
        order = sorted(weights)
        self.rng.shuffle(order)
        if not self.wdef.prebuild:
            yield from ("build_s", "combine_s")
        credit = dict.fromkeys(order, 0)
        total = sum(weights.values())
        while True:
            for m in order:
                credit[m] += weights[m]
            pick = max(order, key=credit.__getitem__)
            credit[pick] -= total
            yield pick

    def op(self, metric: str, workers: int | None = None) -> Op:
        epochs = [str(p) for p in self.epoch_paths]
        total = str(self.total_path)
        planted = self.corpus.planted
        if metric == "build_s":
            workers = workers or self.wdef.workers
            return Op(metric, ["build", "--corpus", str(self.corpus_dir),
                               "--out", str(self.spaces_dir), "--workers", str(workers)],
                      {"workers": workers})
        if metric == "combine_s":
            return Op(metric, ["combine", *epochs, "--out", total])
        self._count += 1
        report = self.reports_dir / f"{self._count:04d}-{metric[:-3]}"
        if metric == "neighbors_ms":
            term = self.rng.choice(self.query_terms)
            argv, params = ["neighbors", term, "--space", total], {"term": term}
        elif metric == "predict_ms":
            lead, tail = self.rng.choice(planted.successors)
            argv, params = ["predict", lead, "1", "--space", total], {"term": lead, "tail": tail}
        elif metric == "trajectory_ms":
            term = self.rng.choice(planted.drifters)
            argv = ["trajectory", term, "--total", total, "--spaces", *epochs]
            params = {"term": term}
        elif metric == "equiv_ms":
            term = self.rng.choice(planted.drifters)
            argv = ["equiv", term, "--anchor-epoch", self.corpus.labels[0], "--spaces", *epochs]
            params = {"term": term}
        elif metric == "bias_ms":
            argv, params = ["bias", "--spaces", *epochs,
                            "--qualifiers", self.terms_files["qualifiers"],
                            "--man-terms", self.terms_files["man"],
                            "--woman-terms", self.terms_files["woman"]], {}
        elif metric == "drift_ms":
            argv = ["drift", "--space0", epochs[0], "--space1", epochs[-1],
                    "--min-total-count", str(self.drift_min_total)]
            params = {"min_total": self.drift_min_total}
        else:
            raise ValueError(f"unknown metric {metric}")
        argv += ["--out", str(report), "--format", "json"]
        return Op(metric, argv, params, report / "report.json")
