"""Acceptance checks for the whole deliverable, one test per criterion.

Every test prints exactly one PASS/FAIL line with the measured values
(visible under ``pytest -s`` or in captured output on failure) and then
asserts.  The final criterion exercises a large newswire corpus and only
runs when DRIFTSPACE_NYT_DIR points at one; everything else is synthetic
and self-contained.
"""

import os
import random
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kendalltau, spearmanr

from driftspace import (
    SemanticSpace,
    SpaceConfig,
    cli,
    combine,
    drift,
    equivalents,
    load_space,
    norm_frequency_series,
    predict_position,
    qualifier_gender,
    save_space,
    seed_vector,
    time_trajectory,
)
from driftspace.vectors import apply_permutation

from helpers import (
    FRUIT,
    MAN_TERMS,
    TECH,
    WOMAN_TERMS,
    build_space,
    drift_gradient_periods,
    gendered_years,
    succession_epochs,
    successor_corpus,
    two_phase_epochs,
    write_epoch_dir,
)

NYT_ENV = "DRIFTSPACE_NYT_DIR"

DEFAULT = SpaceConfig()  # dim=300, window=11, order_span=2


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_01_quasi_orthogonality():
    started = time.perf_counter()
    n_pairs = 10_000
    left = np.vstack([seed_vector(f"pair{i:05d}a", 300, 1) for i in range(n_pairs)])
    right = np.vstack([seed_vector(f"pair{i:05d}b", 300, 1) for i in range(n_pairs)])
    cosines = np.abs(np.einsum("ij,ij->i", left, right))
    elapsed = time.perf_counter() - started
    mean, worst = float(cosines.mean()), float(cosines.max())
    ok = 0.03 <= mean <= 0.07 and worst < 0.30 and elapsed < 5.0
    _report(
        "criterion 01 quasi-orthogonality",
        ok,
        f"mean|cos|={mean:.4f} in [0.03,0.07], max={worst:.3f} < 0.30, "
        f"{elapsed:.2f}s < 5s over {n_pairs} pairs at dim=300",
    )


def test_criterion_02_shard_additivity():
    started = time.perf_counter()
    rng = random.Random(202)
    vocab = [f"w{i:03d}" for i in range(500)]
    sentences = []
    total_tokens = 0
    while total_tokens < 100_000:
        sentence = [rng.choice(vocab) for _ in range(rng.randint(5, 12))]
        sentences.append(sentence)
        total_tokens += len(sentence)
    mono = build_space(DEFAULT, "all", sentences)
    shards = [build_space(DEFAULT, f"s{k}", sentences[k::4]) for k in range(4)]
    merged = combine(shards)
    elapsed = time.perf_counter() - started

    same_terms = merged.terms.tolist() == mono.terms.tolist()
    counts_exact = (merged.ingested_tokens == mono.ingested_tokens and same_terms
                    and np.array_equal(merged.counts, mono.counts))
    worst = np.inf  # fraction of the 1e-6-relative (1e-9 absolute floor) budget
    if same_terms:
        worst = max(
            float(np.max(np.abs(theirs - mine) / (1e-6 * np.abs(mine) + 1e-9)))
            for mine, theirs in ((mono.context, merged.context), (mono.order, merged.order))
        )
    ok = counts_exact and same_terms and worst <= 1.0 and elapsed < 30.0
    _report(
        "criterion 02 shard additivity",
        ok,
        f"{total_tokens} tokens in 4 shards: counts exact={counts_exact}, "
        f"worst component error at {worst:.2e} of the 1e-6 relative budget, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_03_sentence_order_invariance():
    rng = random.Random(203)
    vocab = [f"w{i:03d}" for i in range(250)]
    sentences = [
        [rng.choice(vocab) for _ in range(rng.randint(4, 11))] for _ in range(3000)
    ]
    shuffled = sentences[:]
    random.Random(204).shuffle(shuffled)
    a = build_space(DEFAULT, "e", sentences)
    b = build_space(DEFAULT, "e", shuffled)

    assert a.terms.tolist() == b.terms.tolist()
    worst = 0.0
    for mine, theirs in ((a.context, b.context), (a.order, b.order)):
        budget = 1e-6 * np.abs(mine) + 1e-9
        worst = max(worst, float(np.max(np.abs(theirs - mine) / budget)))

    frequent = sorted(a.terms.tolist(), key=lambda t: (-a.count(t), t))[:10]
    rankings_equal = True
    for term in frequent:
        qa = a.term_vector(term, normalized=True)
        qb = b.term_vector(term, normalized=True)
        if [t for t, _ in a.nearest_neighbors(qa, 10)] != [
            t for t, _ in b.nearest_neighbors(qb, 10)
        ]:
            rankings_equal = False
    ok = worst <= 1.0 and rankings_equal
    _report(
        "criterion 03 sentence-order invariance",
        ok,
        f"worst vector change at {worst:.2e} of the 1e-6 relative budget, "
        f"top-10 rankings identical for 10 query terms={rankings_equal}",
    )


def test_criterion_04_norm_tracks_frequency():
    rng = random.Random(205)
    fillers = [f"pad{i:04d}" for i in range(2000)]
    counts = [10, 20, 40, 80]
    spaces = []
    for k, target in enumerate(counts):
        sentences = [["probe"] + rng.sample(fillers, 6) for _ in range(target)]
        sentences += [rng.sample(fillers, 5) for _ in range(30)]
        spaces.append(build_space(DEFAULT, f"e{k}", sentences))
    series = norm_frequency_series(spaces, "probe")
    observed_counts = [count for _, count, _ in series]
    squared_norms = [squared for _, _, squared in series]
    rho = float(spearmanr(observed_counts, squared_norms).statistic)
    ok = observed_counts == counts and rho == 1.0
    _report(
        "criterion 04 norm tracks frequency",
        ok,
        f"counts={observed_counts}, squared norms="
        f"{[round(s, 1) for s in squared_norms]}, Spearman rho={rho}",
    )


def test_criterion_05_trajectory_sense_switch():
    epochs = two_phase_epochs()
    spaces = [build_space(DEFAULT, label, sents) for label, sents in epochs.items()]
    total = combine(spaces)
    report = time_trajectory(total, spaces, "gizmo", r_size=200, top_n=1)
    top1 = {label: ranked[0][0] for label, ranked in report.per_epoch.items()}
    correct = sum(
        1
        for k in range(1, 7)
        if top1[f"e{k}"] in (FRUIT if k <= 3 else TECH)
    )
    ok = correct == 6
    _report(
        "criterion 05 trajectory sense switch",
        ok,
        f"top-1 per epoch={top1}, fruit epochs 1-3 and tech epochs 4-6, "
        f"{correct}/6 correct",
    )


def test_criterion_06_drift_separation():
    sents0, sents1, subjects = drift_gradient_periods()
    p0 = build_space(DEFAULT, "p0", sents0)
    p1 = build_space(DEFAULT, "p1", sents1)
    report = drift(p0, p1, min_total_count=200, terms=subjects)
    sigma = {r.term: r.sigma01 for r in report.records}
    stable = sigma[subjects[-1]]
    shifted = sigma[subjects[0]]
    tau = float(
        kendalltau(range(len(subjects)), [sigma[s] for s in subjects]).statistic
    )
    ok = stable >= 0.9 and shifted <= 0.3 and tau >= 0.8
    _report(
        "criterion 06 drift separation",
        ok,
        f"stable term sigma01={stable:.3f} >= 0.9, shifted={shifted:.3f} <= 0.3, "
        f"Kendall tau over 20 planted terms={tau:.3f} >= 0.8",
    )


def test_criterion_07_gender_attribution():
    years, male_quals, female_quals = gendered_years()
    spaces = [build_space(DEFAULT, label, sents) for label, sents in years.items()]
    quals = male_quals + female_quals
    report = qualifier_gender(spaces, quals, MAN_TERMS, WOMAN_TERMS)

    wrong = 0
    for year in years:
        for qual in male_quals:
            if report.per_year_votes.get((qual, year)) != "male":
                wrong += 1
        for qual in female_quals:
            if report.per_year_votes.get((qual, year)) != "female":
                wrong += 1
    lists_ok = sorted(report.male_qualifiers) == sorted(male_quals) and sorted(
        report.female_qualifiers
    ) == sorted(female_quals)

    swapped = qualifier_gender(spaces, quals, WOMAN_TERMS, MAN_TERMS)
    flip = {"male": "female", "female": "male"}
    swap_exact = (
        swapped.male_qualifiers == report.female_qualifiers
        and swapped.female_qualifiers == report.male_qualifiers
        and swapped.per_year_votes
        == {key: flip[vote] for key, vote in report.per_year_votes.items()}
    )
    ok = wrong == 0 and lists_ok and swap_exact
    _report(
        "criterion 07 gender attribution",
        ok,
        f"{len(quals)} qualifiers x {len(years)} years: {wrong} wrong votes, "
        f"period lists correct={lists_ok}, list swap swaps outputs exactly={swap_exact}",
    )


def test_criterion_08_equivalence_instantiations():
    epochs, names = succession_epochs()
    spaces = [build_space(DEFAULT, label, sents) for label, sents in epochs.items()]
    report = equivalents(spaces, names[-1], "e10", top_k=2)
    hits = sum(
        1
        for k, name in enumerate(names, start=1)
        if report.per_epoch[f"e{k:02d}"][0][0] == name
    )
    rate = hits / len(names)
    ok = rate >= 0.9
    _report(
        "criterion 08 per-epoch equivalents",
        ok,
        f"top-1 matches the planted name in {hits}/{len(names)} epochs "
        f"({rate:.0%} >= 90%)",
    )


def test_criterion_09_order_decoding():
    sentences, leads, tails, fillers = successor_corpus()
    space = build_space(DEFAULT, "e", sentences)
    rng = random.Random(209)

    top1_correct = 0
    percentile_clear = 0
    for lead, tail in zip(leads, tails):
        ranked = predict_position(space, lead, 1, top_n=len(space))
        scores = dict(ranked)
        if ranked[0][0] == tail:
            top1_correct += 1
        sample = [scores[tok] for tok in rng.sample(fillers, 1000)]
        if scores[tail] > float(np.percentile(sample, 99)):
            percentile_clear += 1

    perms = space.perms
    identity = np.arange(space.config.dim)
    probe = np.arange(space.config.dim, dtype=np.float64) + 1.0
    laws_exact = (
        np.array_equal(perms.inverse[perms.base], identity)
        and np.array_equal(perms.offset_map(2), perms.base[perms.offset_map(1)])
        and np.array_equal(perms.offset_map(-2), perms.inverse[perms.offset_map(-1)])
        and np.array_equal(
            apply_permutation(perms.inverse, apply_permutation(perms.base, probe)),
            probe,
        )
        and not np.any(perms.base == identity)
    )
    ok = top1_correct == 50 and percentile_clear == 50 and laws_exact
    _report(
        "criterion 09 order decoding",
        ok,
        f"successor top-1 {top1_correct}/50, true successor above the 99th "
        f"percentile of 1000 random tokens {percentile_clear}/50, "
        f"permutation group laws exact={laws_exact}",
    )


def test_criterion_10_persistence_round_trip(tmp_path):
    epochs = two_phase_epochs(n_epochs=3, switch_after=2, probe_sents=20,
                              anchor_sents=10, filler_sents=20)
    spaces = [build_space(DEFAULT, label, sents) for label, sents in epochs.items()]

    byte_identical = True
    for space in spaces:
        first = save_space(space, tmp_path / f"{space.epoch_label}.space").read_bytes()
        reloaded = load_space(tmp_path / f"{space.epoch_label}.space")
        second = save_space(reloaded, tmp_path / "resave.space").read_bytes()
        if first != second or reloaded != space:
            byte_identical = False

    save_space(combine(spaces), tmp_path / "whole.space")
    reloaded = [
        load_space(save_space(s, tmp_path / f"rt-{s.epoch_label}.space")) for s in spaces
    ]
    save_space(combine(reloaded), tmp_path / "parts.space")
    commutes = (tmp_path / "whole.space").read_bytes() == (
        tmp_path / "parts.space"
    ).read_bytes() and load_space(tmp_path / "parts.space") == combine(spaces)

    ok = byte_identical and commutes
    _report(
        "criterion 10 persistence round trip",
        ok,
        f"save-load-save byte-identical for {len(spaces)} spaces={byte_identical}, "
        f"combine commutes with save/load exactly in 64-bit mode={commutes}",
    )


def test_criterion_11_build_determinism(tmp_path):
    root = tmp_path / "corpus"
    epochs = two_phase_epochs(n_epochs=2, switch_after=1, probe_sents=10,
                              anchor_sents=5, filler_sents=10)
    for label, sentences in epochs.items():
        write_epoch_dir(root, label, sentences, n_files=3)

    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = cli.main(
            ["build", "--corpus", str(root), "--out", str(out),
             "--top-k", "0", "--min-count", "1"]
        )
        assert code == cli.EXIT_OK
        outputs.append(out)

    compared = ["e1.space", "e2.space", "vocabulary.tsv"]
    identical = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in compared
    )
    _report(
        "criterion 11 sequential build determinism",
        identical,
        f"two sequential runs produced byte-identical {', '.join(compared)}",
    )


@pytest.mark.skipif(
    NYT_ENV not in os.environ,
    reason=f"dataset-gated: set {NYT_ENV} to a per-year newswire corpus root",
)
def test_criterion_12_newswire_reproduction(tmp_path):
    from driftspace.corpus import build_filter, count_vocabulary, epoch_labels, iter_documents

    root = Path(os.environ[NYT_ENV])
    labels = epoch_labels(root)
    out = tmp_path / "build"
    code = cli.main(["build", "--corpus", str(root), "--out", str(out)])
    assert code == cli.EXIT_OK

    def documents():
        for label in labels:
            yield from iter_documents(root, label)

    stats = count_vocabulary(documents())
    retained = len(build_filter(stats, top_k=100, min_count=5).retained)

    spaces = {label: load_space(out / f"{label}.space") for label in labels}
    ordered = [spaces[label] for label in labels]
    total = combine(ordered)

    trajectory = time_trajectory(total, ordered, "amazon", r_size=200, top_n=2)
    bezos_years = [
        label
        for label, ranked in trajectory.per_epoch.items()
        if "bezos" in [t for t, _ in ranked]
    ]
    bezos_ok = any(label in ("1996", "1997", "1998") for label in bezos_years)

    midpoint = len(labels) // 2
    period0 = combine(ordered[:midpoint])
    period1 = combine(ordered[midpoint:])
    report = drift(period0, period1, min_total_count=1500, terms=["inches", "device"])
    sigma = {r.term: r.sigma01 for r in report.records}
    drift_ok = sigma.get("inches", 0.0) >= 0.7 and sigma.get("device", 1.0) <= 0.3

    valid = hits = 0
    for space in ordered:
        if "supreme" not in space:
            continue
        valid += 1
        if predict_position(space, "supreme", 1, top_n=1)[0][0] == "court":
            hits += 1
    predict_ok = valid > 0 and hits / valid >= 24 / 26

    ok = retained == 142_439 and bezos_ok and drift_ok and predict_ok
    _report(
        "criterion 12 newswire reproduction",
        ok,
        f"retained vocabulary={retained} (expect 142439), bezos in top-2 during "
        f"{bezos_years} (expect 1997 +-1), sigma01={sigma}, supreme->court in "
        f"{hits}/{valid} years (expect >= 24/26)",
    )
