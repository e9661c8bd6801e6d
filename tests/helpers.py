"""Shared corpus builders and comparison helpers for the test suite.

Everything here is seeded explicitly so that tests are reproducible; the
builders synthesize corpora with planted structure (co-occurrence clusters,
phase switches, fixed successor pairs) that the analyses are expected to
recover.
"""

import random

import numpy as np

from driftspace import SemanticSpace, SpaceConfig

# Tolerances for "numerically equal up to summation order" comparisons.
RTOL = 1e-6
ATOL = 1e-9


def build_space(config, label, sentences, weights=None):
    """One space from token sentences, through the accumulation kernel
    ``driftspace build`` runs once per epoch."""
    space = SemanticSpace(config, label, term_weights=weights)
    space.ingest_sentences(sentences)
    return space


def assert_spaces_close(a, b, rtol=RTOL, atol=ATOL):
    """Counts must match exactly; vectors up to summation reordering."""
    assert a.config == b.config
    assert a.terms.tolist() == b.terms.tolist()
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_allclose(a.context, b.context, rtol=rtol, atol=atol)
    np.testing.assert_allclose(a.order, b.order, rtol=rtol, atol=atol)


def cut_to_terms(space, terms):
    """A copy of ``space`` holding only the rows of those of ``terms`` it
    holds, with its label, config and token total."""
    keep = np.isin(space.terms, np.array(list(terms), dtype=str))
    cut = SemanticSpace.empty(space.config, space.epoch_label, float_dtype=space.float_dtype)
    cut.ingested_tokens = space.ingested_tokens
    cut.set_rows(space.terms[keep], space.counts[keep], space.context[keep], space.order[keep])
    return cut


def assert_spaces_identical(a, b):
    """Equal spaces whose arrays also have equal dtypes and bytes."""
    assert a == b
    for name in ("terms", "counts", "context", "order"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def random_sentences(rng, vocab, n_sentences, min_len=2, max_len=9):
    return [
        [rng.choice(vocab) for _ in range(rng.randint(min_len, max_len))]
        for _ in range(n_sentences)
    ]


def sentences_to_text(sentences):
    """Render token sentences as a plain-text document the tokenizer inverts."""
    return ". ".join(" ".join(sentence) for sentence in sentences) + "."


def write_epoch_dir(root, label, sentences, n_files=1):
    """Write sentences into <root>/<label>/part*.txt, round-robin by sentence."""
    epoch_dir = root / label
    epoch_dir.mkdir(parents=True, exist_ok=True)
    for i in range(n_files):
        shard = sentences[i::n_files]
        (epoch_dir / f"part{i:02d}.txt").write_text(sentences_to_text(shard), encoding="utf-8")
    return epoch_dir


# ---------------------------------------------------------------------------
# Planted-structure corpus builders
# ---------------------------------------------------------------------------

FRUIT = ["mango", "papaya", "guava", "lychee", "quince"]
TECH = ["router", "modem", "server", "kernel", "pixel"]


def two_phase_epochs(seed=11, n_epochs=6, switch_after=3, probe="gizmo",
                     probe_sents=50, anchor_sents=20, filler_sents=40):
    """Probe co-occurs with the whole fruit group early, the tech group late.

    Returns {label: sentences}.  Each probe sentence contains the probe plus
    every member of the active group, so the active words also co-occur with
    each other and their slice vectors line up with the probe's combined-space
    direction.  Off-phase group words stay in the vocabulary through dedicated
    companion pairs ([term, near-term]) whose contexts point elsewhere, and
    fillers only ever co-occur with fillers, so neither can outrank the
    active group.
    """
    rng = random.Random(seed)
    fillers = [f"fill{i:03d}" for i in range(120)]
    companions = {term: f"near-{term}" for term in FRUIT + TECH}
    epochs = {}
    for k in range(1, n_epochs + 1):
        group = FRUIT if k <= switch_after else TECH
        sentences = []
        for _ in range(probe_sents):
            sentences.append([probe] + rng.sample(group, len(group)))
        for term in FRUIT + TECH:
            for _ in range(anchor_sents):
                sentences.append([term, companions[term]])
        for _ in range(filler_sents):
            sentences.append(rng.sample(fillers, rng.randint(3, 5)))
        rng.shuffle(sentences)
        epochs[f"e{k}"] = sentences
    return epochs


def drift_gradient_periods(seed=13, n_subjects=20, sents_per_subject=120):
    """Two periods; subject j keeps an alpha = j/(n-1) fraction of its context.

    subj00 swaps its context pool entirely (fast drift), the last subject
    keeps it entirely (stable).  Returns (sentences0, sentences1, subjects).
    """
    rng = random.Random(seed)
    pool_a = [f"ctxa{i:02d}" for i in range(20)]
    pool_b = [f"ctxb{i:02d}" for i in range(20)]
    subjects = [f"subj{j:02d}" for j in range(n_subjects)]
    sents0, sents1 = [], []
    for j, subject in enumerate(subjects):
        alpha = j / (n_subjects - 1)
        for _ in range(sents_per_subject):
            sents0.append([subject] + rng.sample(pool_a, 3))
            picks = [rng.choice(pool_a if rng.random() < alpha else pool_b) for _ in range(3)]
            sents1.append([subject] + picks)
    rng.shuffle(sents0)
    rng.shuffle(sents1)
    return sents0, sents1, subjects


MAN_TERMS = ["he", "him", "his", "man", "father"]
WOMAN_TERMS = ["she", "her", "hers", "woman", "mother"]


def gendered_years(seed=17, n_years=4, male_quals=None, female_quals=None,
                   sents_per_qual=25, filler_sents=30):
    """Per year, each qualifier co-occurs only with its side's anchor terms."""
    rng = random.Random(seed)
    if male_quals is None:
        male_quals = [f"mqual{i:02d}" for i in range(10)]
    if female_quals is None:
        female_quals = [f"fqual{i:02d}" for i in range(10)]
    fillers = [f"pad{i:03d}" for i in range(80)]
    years = {}
    for y in range(n_years):
        sentences = []
        for qual in male_quals:
            for _ in range(sents_per_qual):
                sentences.append([qual] + rng.sample(MAN_TERMS, 3))
        for qual in female_quals:
            for _ in range(sents_per_qual):
                sentences.append([qual] + rng.sample(WOMAN_TERMS, 3))
        for _ in range(filler_sents):
            sentences.append(rng.sample(fillers, rng.randint(3, 5)))
        rng.shuffle(sentences)
        years[f"{1900 + y}"] = sentences
    return years, male_quals, female_quals


def succession_epochs(seed=19, n_epochs=10, name_sents=40, filler_sents=25):
    """One name per epoch occupies a fixed concept slot (ship vocabulary).

    Name sentences rotate the full concept ring deterministically, so every
    epoch's name accumulates the same uniform concept mixture and lands on
    the same direction, while each concept stays pinned to its ring
    neighbors.
    """
    rng = random.Random(seed)
    concepts = ["hull", "mast", "rudder", "anchorage", "ballast", "keel", "bowsprit", "galley"]
    fillers = [f"noise{i:03d}" for i in range(60)]
    names = [f"name{k:02d}" for k in range(1, n_epochs + 1)]
    epochs = {}
    for k, name in enumerate(names, start=1):
        sentences = []
        for i in range(name_sents):
            r = i % len(concepts)
            sentences.append([name] + concepts[r:] + concepts[:r])
        for _ in range(filler_sents):
            sentences.append(rng.sample(fillers, rng.randint(3, 6)))
        rng.shuffle(sentences)
        epochs[f"e{k:02d}"] = sentences
    return epochs, names


def successor_corpus(seed=23, n_pairs=50, sents_per_pair=30, filler_pool=1200):
    """lead_j is always followed immediately by tail_j, wrapped in fillers."""
    rng = random.Random(seed)
    fillers = [f"fx{i:04d}" for i in range(filler_pool)]
    leads = [f"lead{j:02d}" for j in range(n_pairs)]
    tails = [f"tail{j:02d}" for j in range(n_pairs)]
    sentences = []
    for lead, tail in zip(leads, tails):
        for _ in range(sents_per_pair):
            sentences.append([rng.choice(fillers), lead, tail, rng.choice(fillers)])
    for _ in range(2):
        shuffled = fillers[:]
        rng.shuffle(shuffled)
        for i in range(0, len(shuffled), 5):
            sentences.append(shuffled[i:i + 5])
    rng.shuffle(sentences)
    return sentences, leads, tails, fillers
