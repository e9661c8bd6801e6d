"""Spans around the program's public functions, recorded from outside it.

Each hook replaces a function at the module or class attribute its caller
looks up (``driftspace.space.seed_vector`` rather than
``driftspace.vectors.seed_vector``, because ``SemanticSpace.seed`` resolves
the name in its own module) and restores it afterwards.  A hook whose
target no longer exists is reported absent instead of failing, so internal
renames do not break the benchmark; the metrics it fed read 0 and are named
in the run's ``absent`` list.

A span records name, start, end, parent span and the request id of the
``cli.main`` call it belongs to.  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

MB = 1024 * 1024


def _tokens(args, kwargs, result):
    return sum(map(len, result))


def _retained(args, kwargs, result):
    return sum(len(s) - s.count(None) for s in result)


def _window_pairs(args, kwargs, result):
    space, tokens = args[0], args[1]
    half = space.config.half_window
    kept = [i for i, t in enumerate(tokens) if t is not None]
    return sum(sum(1 for j in kept if j != i and abs(j - i) <= half) for i in kept)


def _first_arg(args, kwargs, result):
    return args[0]


def _size_of(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _loaded_bytes(args, kwargs, result):
    return _size_of(args[0])


def _returned_file_bytes(args, kwargs, result):
    return _size_of(result)


# span name, module, attribute path, counter (or None)
HOOKS = (
    ("corpus.tokenize", "driftspace.corpus", "tokenize", _tokens),
    ("corpus.count_vocabulary", "driftspace.corpus", "count_vocabulary", None),
    ("corpus.build_filter", "driftspace.corpus", "build_filter", None),
    ("corpus.filtered_stream", "driftspace.corpus", "filtered_stream", _retained),
    ("vectors.seed_vector", "driftspace.space", "seed_vector", _first_arg),
    ("vectors.permutation_set", "driftspace.vectors", "PermutationSet.__init__", None),
    ("space.ingest_sentence", "driftspace.space", "SemanticSpace.ingest_sentence", _window_pairs),
    ("space.combine", "driftspace.cli", "combine", None),
    ("space.index_build", "driftspace.space", "NeighborIndex.__init__", None),
    ("space.query", "driftspace.space", "NeighborIndex.query", None),
    ("persistence.save_space", "driftspace.persistence", "save_space", _returned_file_bytes),
    ("persistence.load_space", "driftspace.persistence", "load_space", _loaded_bytes),
    ("diachronic.drift", "driftspace.diachronic", "drift", None),
    ("diachronic.time_trajectory", "driftspace.diachronic", "time_trajectory", None),
    ("diachronic.equivalents", "driftspace.diachronic", "equivalents", None),
    ("diachronic.qualifier_gender", "driftspace.diachronic", "qualifier_gender", None),
    ("diachronic.predict_position", "driftspace.diachronic", "predict_position", None),
    ("reports.render", "driftspace.reports", "render", None),
    ("reports.write_report", "driftspace.reports", "write_report", _returned_file_bytes),
    ("cli.main", "driftspace.cli", "main", None),
)
ROOT_SPAN = "cli.main"

# Per-layer metric -> (unit, better, span it is read from, what it should move).
# Metrics read from no span are measured by the runner itself.
_BUILD = "build_s on analyze and slices; no analysis command"
_INDEX = "neighbors_ms, drift_ms, trajectory_ms and equiv_ms on analyze and slices"
LAYER_METRICS = {
    "corpus.tokenize_s": ("s", "lower", "corpus.tokenize", _BUILD),
    "corpus.tokenize_passes": ("ratio", "lower", "corpus.tokenize", _BUILD),
    "corpus.count_vocabulary_s": ("s", "lower", "corpus.count_vocabulary", _BUILD),
    "corpus.build_filter_s": ("s", "lower", "corpus.build_filter", _BUILD),
    "corpus.filtered_stream_s": ("s", "lower", "corpus.filtered_stream", _BUILD),
    "corpus.retained_tokens": ("count", "lower", "corpus.filtered_stream", _BUILD),
    "vectors.seed_vector_s": ("s", "lower", "vectors.seed_vector",
                              "build_s on slices (seeds per epoch and worker) and analyze; predict_ms"),
    "vectors.seed_vector_calls": ("count", "lower", "vectors.seed_vector",
                                  "build_s on slices and analyze; predict_ms"),
    "vectors.seed_reuse": ("ratio", "higher", "vectors.seed_vector",
                           "build_s on slices and analyze; predict_ms"),
    "vectors.permutation_set_s": ("s", "lower", "vectors.permutation_set", "build_s on slices"),
    "space.ingest_s": ("s", "lower", "space.ingest_sentence", _BUILD),
    "space.ingest_sentences": ("count", "lower", "space.ingest_sentence", _BUILD),
    "space.window_pairs": ("count", "lower", "space.ingest_sentence", _BUILD),
    "space.ingest_ns_per_pair": ("ns", "lower", "space.ingest_sentence", _BUILD),
    "space.combine_s": ("s", "lower", "space.combine",
                        "combine_s on both; build_s on slices (pool partials), not on analyze"),
    "space.index_build_s": ("s", "lower", "space.index_build", _INDEX),
    "space.index_builds": ("count", "lower", "space.index_build", _INDEX),
    "space.query_s": ("s", "lower", "space.query", _INDEX),
    "space.queries": ("count", "lower", "space.query", _INDEX),
    "persistence.save_s": ("s", "lower", "persistence.save_space", "build_s, combine_s, peak_rss_mb"),
    "persistence.save_mb": ("MB", "lower", "persistence.save_space", "build_s, combine_s, peak_rss_mb"),
    "persistence.load_s": ("s", "lower", "persistence.load_space",
                           "every analysis command and combine_s; peak_rss_mb"),
    "persistence.load_mb": ("MB", "lower", "persistence.load_space",
                            "every analysis command and combine_s; peak_rss_mb"),
    "persistence.loads": ("count", "lower", "persistence.load_space",
                          "every analysis command and combine_s"),
    "persistence.load_mb_per_s": ("MB/s", "higher", "persistence.load_space",
                                  "every analysis command and combine_s"),
    "diachronic.drift_s": ("s", "lower", "diachronic.drift", "drift_ms"),
    "diachronic.trajectory_s": ("s", "lower", "diachronic.time_trajectory", "trajectory_ms"),
    "diachronic.equivalents_s": ("s", "lower", "diachronic.equivalents", "equiv_ms"),
    "diachronic.bias_s": ("s", "lower", "diachronic.qualifier_gender", "bias_ms"),
    "diachronic.predict_s": ("s", "lower", "diachronic.predict_position", "predict_ms"),
    "reports.render_s": ("s", "lower", "reports.render", "drift_ms mainly"),
    "reports.write_s": ("s", "lower", "reports.write_report", "drift_ms mainly"),
    "reports.bytes": ("count", "lower", "reports.write_report", "drift_ms mainly"),
    "cli.self_s": ("s", "lower", "cli.main", "build_s on slices (argparse, orchestration, pool, pickling)"),
    "cli.import_s": ("s", "lower", None,
                     "none of the loop's metrics, which call cli.main in a warm process; "
                     "every CLI process pays it"),
    "cli.parallel_speedup": ("ratio", "higher", None, "build_s on slices"),
    "trace.overhead": ("ratio", "lower", None, "none: the cost of tracing itself"),
}


class Recorder:
    """In-memory span store for one traced cycle."""

    def __init__(self):
        # [name, start, end, parent index, request id, counter value]
        self.spans: list = []
        self._stack: list = []
        self._request = 0

    def wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == ROOT_SPAN:
                self._request += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, *_) in enumerate(self.spans)]

    def write(self, fh, cycle: int) -> None:
        for name, start, end, parent, request, value in self.spans:
            fh.write(json.dumps({"cycle": cycle, "name": name, "start": start, "end": end,
                                 "parent": parent, "request": request,
                                 "count": value if isinstance(value, (int, float)) else None})
                     + "\n")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def absent_hooks(hooks=HOOKS) -> list:
    """Span names whose target cannot be found in the program."""
    absent = []
    for name, module, path, _ in hooks:
        try:
            _resolve(module, path)
        except (ImportError, AttributeError):
            absent.append(name)
    return absent


@contextlib.contextmanager
def hooks_installed(recorder: Recorder, hooks=HOOKS):
    restore = []
    try:
        for name, module, path, counter in hooks:
            try:
                owner, attr, original = _resolve(module, path)
            except (ImportError, AttributeError):
                continue
            own = attr in vars(owner)
            setattr(owner, attr, recorder.wrap(name, original, counter))
            restore.append((owner, attr, original, own))
        yield
    finally:
        for owner, attr, original, own in reversed(restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def layer_metrics(recorder: Recorder, corpus_tokens: int) -> dict:
    """Per-layer values of one traced cycle, keyed like LAYER_METRICS."""
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    counted: dict = defaultdict(float)
    seeds: set = set()
    for (name, *_, value), own in zip(recorder.spans, recorder.self_times()):
        self_s[name] += own
        calls[name] += 1
        if name == "vectors.seed_vector":
            seeds.add(value)
        elif value is not None:
            counted[name] += value

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "corpus.tokenize_s": self_s["corpus.tokenize"],
        "corpus.tokenize_passes": ratio(counted["corpus.tokenize"], corpus_tokens),
        "corpus.count_vocabulary_s": self_s["corpus.count_vocabulary"],
        "corpus.build_filter_s": self_s["corpus.build_filter"],
        "corpus.filtered_stream_s": self_s["corpus.filtered_stream"],
        "corpus.retained_tokens": counted["corpus.filtered_stream"],
        "vectors.seed_vector_s": self_s["vectors.seed_vector"],
        "vectors.seed_vector_calls": calls["vectors.seed_vector"],
        "vectors.seed_reuse": ratio(len(seeds), calls["vectors.seed_vector"]),
        "vectors.permutation_set_s": self_s["vectors.permutation_set"],
        "space.ingest_s": self_s["space.ingest_sentence"],
        "space.ingest_sentences": calls["space.ingest_sentence"],
        "space.window_pairs": counted["space.ingest_sentence"],
        "space.ingest_ns_per_pair": ratio(self_s["space.ingest_sentence"] * 1e9,
                                          counted["space.ingest_sentence"]),
        "space.combine_s": self_s["space.combine"],
        "space.index_build_s": self_s["space.index_build"],
        "space.index_builds": calls["space.index_build"],
        "space.query_s": self_s["space.query"],
        "space.queries": calls["space.query"],
        "persistence.save_s": self_s["persistence.save_space"],
        "persistence.save_mb": counted["persistence.save_space"] / MB,
        "persistence.load_s": self_s["persistence.load_space"],
        "persistence.load_mb": counted["persistence.load_space"] / MB,
        "persistence.loads": calls["persistence.load_space"],
        "persistence.load_mb_per_s": ratio(counted["persistence.load_space"] / MB,
                                           self_s["persistence.load_space"]),
        "diachronic.drift_s": self_s["diachronic.drift"],
        "diachronic.trajectory_s": self_s["diachronic.time_trajectory"],
        "diachronic.equivalents_s": self_s["diachronic.equivalents"],
        "diachronic.bias_s": self_s["diachronic.qualifier_gender"],
        "diachronic.predict_s": self_s["diachronic.predict_position"],
        "reports.render_s": self_s["reports.render"],
        "reports.write_s": self_s["reports.write_report"],
        "reports.bytes": counted["reports.write_report"],
        "cli.self_s": self_s["cli.main"],
    }
