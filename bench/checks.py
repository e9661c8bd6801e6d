"""Output checks against the generated corpus's ground truth.

Spaces are read only through ``load_space``, ``count``, ``len`` and
``term_vector``; the expected term lists come from the generator, never from
the space itself.  Rankings are recomputed term by term and sorted by
(-score, term); two rankings agree when every position holds the same term
or two terms whose reference scores tie within ``TIE``.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

from driftspace.errors import UndefinedSimilarityError
from driftspace.persistence import load_space
from driftspace.vectors import PermutationSet, seed_vector

import workloads as wl

RTOL = 1e-9  # relative error of a brute-force vector, in norm
TIE = 1e-12  # reference scores this close may swap places in a ranking
SCORE_ATOL = 1e-9
DRIFT_THRESHOLDS = (0.70, 0.35, 0.15)
# Below this many occurrences per compared epoch, sampling noise in
# background terms overlaps the planted change, so only the exact checks of
# a drift report apply.
DRIFT_SIGNAL_MIN = 16
VECTOR_SAMPLE = 12


def _ranked(scores: dict, exclude=()) -> list:
    return sorted((t for t in scores if t not in exclude), key=lambda t: (-scores[t], t))


def _compare(what: str, got: list, scores: dict, want: list) -> list:
    """``got`` is [(term, score)] from a report; ``want`` the reference order."""
    if len(got) != len(want):
        return [f"{what}: {len(got)} entries, expected {len(want)}"]
    for rank, ((term, score), ref) in enumerate(zip(got, want), 1):
        if term not in scores:
            return [f"{what}: rank {rank} {term!r} is not a candidate"]
        if term != ref and abs(scores[term] - scores[ref]) > TIE:
            return [f"{what}: rank {rank} is {term!r}, expected {ref!r}"]
        if abs(score - scores[term]) > SCORE_ATOL:
            return [f"{what}: {term!r} scored {score!r}, expected {scores[term]!r}"]
    return []


class Checker:
    def __init__(self, corpus, seed: int):
        self.corpus = corpus
        self.retained = corpus.retained(wl.TOP_K, wl.MIN_COUNT)
        self.rng = random.Random(seed * 104729 + 3)
        self.perms = PermutationSet(wl.DIM, wl.PERM_SEED, wl.ORDER_SPAN)
        self._seeds: dict = {}
        self._spaces: dict = {}

    def seed(self, term: str) -> np.ndarray:
        vec = self._seeds.get(term)
        if vec is None:
            vec = self._seeds[term] = seed_vector(term, wl.DIM, wl.GLOBAL_SEED)
        return vec

    def expected_terms(self, labels) -> list:
        return sorted({t for label in labels for t in self.corpus.epoch_counts[label]
                       if t in self.retained})

    def space(self, path, labels):
        """Loaded space plus the unit context vector of each expected term."""
        key = str(path)
        if key not in self._spaces:
            space = load_space(path)
            units = {}
            for term in self.expected_terms(labels):
                try:
                    units[term] = space.term_vector(term, normalized=True)
                except UndefinedSimilarityError:
                    pass
            self._spaces[key] = (space, units)
        return self._spaces[key]

    # --- build and combine outputs ------------------------------------------

    def epoch_space(self, path, label) -> list:
        """Counts and ingested tokens against the ground truth, then context
        and order vectors of a seeded term sample against a per-window sum."""
        space, _ = self.space(path, [label])
        expected = self.corpus.retained_counts(label, self.retained)
        failures = []
        if space.ingested_tokens != sum(expected.values()):
            failures.append(f"{label}: ingested_tokens {space.ingested_tokens}, "
                            f"expected {sum(expected.values())}")
        if len(space) != len(expected):
            failures.append(f"{label}: {len(space)} terms, expected {len(expected)}")
        wrong = [t for t, c in expected.items() if space.count(t) != c]
        if wrong:
            failures.append(f"{label}: {len(wrong)} wrong counts, e.g. {wrong[0]!r}")
        return failures + self._vectors(space, label, sorted(expected))

    def _vectors(self, space, label, terms) -> list:
        sample = set(self.rng.sample(terms, min(VECTOR_SAMPLE, len(terms))))
        sample.update(t for t in self.corpus.planted.drifters if t in terms)
        half = (wl.WINDOW - 1) // 2
        context = {t: np.zeros(wl.DIM) for t in sample}
        order = {t: np.zeros(wl.DIM) for t in sample}
        permuted = {}
        for sentence in self.corpus.filtered(label, self.retained):
            n = len(sentence)
            for i, term in enumerate(sentence):
                if term not in sample:
                    continue
                for j in range(max(0, i - half), min(n, i + half + 1)):
                    if j != i:
                        context[term] += self.seed(sentence[j])
                for delta in range(-wl.ORDER_SPAN, wl.ORDER_SPAN + 1):
                    if 0 <= i + delta < n:
                        key = (sentence[i + delta], delta)
                        vec = permuted.get(key)
                        if vec is None:
                            vec = np.empty(wl.DIM)
                            vec[self.perms.offset_map(delta)] = self.seed(key[0])
                            permuted[key] = vec
                        order[term] += vec
        failures = []
        for term in sorted(sample):
            for kind, want in (("context", context[term]), ("order", order[term])):
                got = space.term_vector(term, kind=kind)
                err = np.linalg.norm(got - want)
                if not err <= RTOL * np.linalg.norm(want):
                    failures.append(f"{label}: {kind} vector of {term!r} off by {err:.3g}")
        return failures

    def total_space(self, total_path, epoch_paths) -> list:
        labels = self.corpus.labels
        total, _ = self.space(total_path, labels)
        epochs = [self.space(p, [label])[0] for p, label in zip(epoch_paths, labels)]
        terms = self.expected_terms(labels)
        failures = []
        if len(total) != len(terms):
            failures.append(f"total: {len(total)} terms, expected {len(terms)}")
        wrong = [t for t in terms if total.count(t) != sum(e.count(t) for e in epochs)]
        if wrong:
            failures.append(f"total: count of {wrong[0]!r} is not the sum of the epochs "
                            f"({len(wrong)} terms)")
        if total.ingested_tokens != sum(e.ingested_tokens for e in epochs):
            failures.append("total: ingested_tokens is not the sum of the epochs")
        return failures

    # --- analysis reports ---------------------------------------------------

    def report(self, op, plan) -> list:
        try:
            data = json.loads(op.report.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"{op.metric}: unreadable report: {exc}"]
        check = getattr(self, "_" + op.metric[:-3])
        try:
            return check(data, op.params, plan)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"{op.metric}: malformed report: {type(exc).__name__}: {exc}"]

    def _neighbor_scores(self, units, query) -> dict:
        return {t: float(np.dot(v, query)) for t, v in units.items()}

    def _neighbors(self, data, params, plan) -> list:
        _, units = self.space(plan.total_path, self.corpus.labels)
        term = params["term"]
        scores = self._neighbor_scores(units, units[term])
        want = _ranked(scores, exclude={term})[:20]
        got = [(row[1], row[2]) for row in data["rows"]]
        return _compare(f"neighbors {term}", got, scores, want)

    def _predict(self, data, params, plan) -> list:
        space, _ = self.space(plan.total_path, self.corpus.labels)
        term, tail = params["term"], params["tail"]
        order = space.term_vector(term, kind="order")
        # score(w) = <order, P^1 seed(w)>, and (P^1 v)[map[i]] = v[i].
        probe = order[self.perms.offset_map(1)]
        scores = {t: float(np.dot(probe, self.seed(t)))
                  for t in self.expected_terms(self.corpus.labels)}
        got = [(row[1], row[2]) for row in data["rows"]]
        failures = _compare(f"predict {term}", got, scores, _ranked(scores)[:5])
        if not got or got[0][0] != tail:
            failures.append(f"predict {term}: top-1 is not the planted tail {tail!r}")
        return failures

    def _trajectory(self, data, params, plan) -> list:
        labels = self.corpus.labels
        _, total_units = self.space(plan.total_path, labels)
        term = params["term"]
        anchor = total_units[term]
        scores = self._neighbor_scores(total_units, anchor)
        want = _ranked(scores, exclude={term})[:200]
        reps = data["representative_set"]
        failures = _compare(f"trajectory {term} representatives",
                            [(t, scores.get(t, math.nan)) for t in reps], scores, want)
        for path, label in zip(plan.epoch_paths, labels):
            space, units = self.space(path, [label])
            epoch_scores = {t: float(np.dot(units[t], anchor)) for t in reps if t in units}
            entry = data["epochs"][label]
            got = [(n["term"], n["similarity"]) for n in entry["neighbors"]]
            failures += _compare(f"trajectory {term} in {label}", got, epoch_scores,
                                 _ranked(epoch_scores)[:5])
            if entry["count"] != space.count(term):
                failures.append(f"trajectory {term}: wrong count in {label}")
        return failures

    def _equiv(self, data, params, plan) -> list:
        labels = self.corpus.labels
        term = params["term"]
        _, anchor_units = self.space(plan.epoch_paths[0], [labels[0]])
        anchor = anchor_units[term]
        failures = []
        for path, label in zip(plan.epoch_paths, labels):
            _, units = self.space(path, [label])
            scores = self._neighbor_scores(units, anchor)
            got = [(h["term"], h["similarity"]) for h in data["epochs"][label] or []]
            failures += _compare(f"equiv {term} in {label}", got, scores, _ranked(scores)[:2])
        return failures

    def _bias(self, data, params, plan) -> list:
        planted = self.corpus.planted
        failures = []
        for side, want in (("male", planted.male_qualifiers), ("female", planted.female_qualifiers)):
            if sorted(data[side]) != sorted(want):
                failures.append(f"bias: {side} qualifiers {sorted(data[side])}, "
                                f"expected {sorted(want)}")
        return failures

    def _drift(self, data, params, plan) -> list:
        labels = self.corpus.labels
        first, last = labels[0], labels[-1]
        space0, units0 = self.space(plan.epoch_paths[0], [first])
        space1, units1 = self.space(plan.epoch_paths[-1], [last])
        min_total = params["min_total"]
        sigma = {t: float(np.dot(units0[t], units1[t])) for t in units0
                 if t in units1 and space0.count(t) + space1.count(t) >= min_total}
        want = sorted(sigma, key=lambda t: (sigma[t], t))
        records = data["records"]
        got = [(r["term"], r["sigma01"]) for r in records]
        failures = _compare("drift", got, sigma, want)
        for record in records:
            s = record["sigma01"]
            category = next((name for name, bound in zip(("stable", "moderate", "fast"),
                                                         DRIFT_THRESHOLDS) if s >= bound),
                            "unstable")
            if record["category"] != category:
                failures.append(f"drift: {record['term']!r} category {record['category']}")
                break
        for record in self.rng.sample(records, min(3, len(records))):
            term = record["term"]
            for key, units, vec in (("neighbors0", units0, units0[term]),
                                    ("neighbors1", units1, units1[term])):
                scores = self._neighbor_scores(units, vec)
                got = [(n["term"], n["similarity"]) for n in record[key]]
                failures += _compare(f"drift {term} {key}", got, scores,
                                     _ranked(scores, exclude={term})[:15])
        drifters = self.corpus.planted.drifters
        signal = min(self.corpus.epoch_counts[label][d] for d in drifters for label in (first, last))
        if signal >= DRIFT_SIGNAL_MIN:
            top = sorted(r["term"] for r in records[:len(drifters)])
            if top != sorted(drifters):
                failures.append(f"drift: most changed {top}, planted {sorted(drifters)}")
        return failures
