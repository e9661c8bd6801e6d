"""Seeded synthetic corpus with planted structure, plus its ground truth.

The background is a topical Zipf language over ``BACKGROUND_TYPES`` word
types: word rank r has weight 1/(r+1), belongs to topic r mod TOPICS, and
each sentence draws most of its tokens from one topic and the rest from the
whole vocabulary.  Topics give frequent background terms a context that is
stable from epoch to epoch, which is what real text does and what the drift
check needs in order to tell planted change from sampling noise.

Planted on top of it, at counts kept well below the 100th most frequent
background term so that no planted term lands in the default stop set:

* drifter pairs: each drifter co-occurs with words of its own context pool
  in the first epoch and with its partner's pool in the last epoch; epochs
  in between mix the two in proportion to their position;
* successor pairs: a lead term is always followed directly by its tail;
* gendered qualifiers: each sentence holds one anchor term of a side (a
  he/she-style term) beside qualifiers of the same side.

Every token is a run of lowercase ASCII letters and each sentence ends with
a period, so the program's tokenizer reproduces the generated sentences
exactly.  The ground truth (term counts, filter, retained counts) is computed
here from the generated token lists, independently of ``driftspace.corpus``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BACKGROUND_TYPES = 20_000
TOPICS = 200
TOPIC_SHARE = 0.85  # share of a background sentence drawn from its topic
SENTENCE_LENGTHS = range(8, 17)  # mean 12 tokens
POOL_SIZE = 6
POOL_WORDS_PER_SENTENCE = 4
QUALIFIERS_PER_SENTENCE = 2

_ONSETS = "b c d f g h j k l m n p r s t v w x z".split() + ["br", "ch", "dr", "gl", "pl", "st", "tr"]
_VOWELS = "a e i o u".split() + ["ai", "ea", "ou"]


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one generated corpus.

    ``planted_per_epoch`` is how many sentences of each epoch carry a given
    planted term; the drifter, successor and gender groups all use it.
    """

    epochs: int
    files_per_epoch: int
    tokens_per_epoch: int
    drifter_pairs: int = 2
    successor_pairs: int = 3
    qualifiers_per_side: int = 4
    anchors_per_side: int = 2
    planted_per_epoch: int = 12


@dataclass
class Planted:
    drifters: list
    pools: dict  # drifter -> its first-epoch context pool
    successors: list  # (lead, tail)
    male_anchors: list
    female_anchors: list
    male_qualifiers: list
    female_qualifiers: list

    def terms(self) -> set:
        out = set(self.drifters)
        for pool in self.pools.values():
            out.update(pool)
        for lead, tail in self.successors:
            out.update((lead, tail))
        for group in (self.male_anchors, self.female_anchors,
                      self.male_qualifiers, self.female_qualifiers):
            out.update(group)
        return out


@dataclass
class Corpus:
    """Generated epochs plus everything the checks compare against."""

    spec: CorpusSpec
    labels: list
    sentences: dict  # label -> list of token lists
    planted: Planted
    epoch_counts: dict = field(default_factory=dict)  # label -> Counter
    total_counts: Counter = field(default_factory=Counter)

    def __post_init__(self):
        for label in self.labels:
            counts = Counter()
            for sentence in self.sentences[label]:
                counts.update(sentence)
            self.epoch_counts[label] = counts
            self.total_counts.update(counts)

    @property
    def total_tokens(self) -> int:
        return sum(self.total_counts.values())

    def retained(self, top_k: int = 100, min_count: int = 5) -> frozenset:
        """Terms the build keeps: the top-k stop set (ties broken by term)
        is removed, then every term below ``min_count`` occurrences."""
        ranked = sorted(self.total_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        stop = {term for term, _ in ranked[:top_k]}
        return frozenset(t for t, c in self.total_counts.items()
                         if t not in stop and c >= min_count)

    def filtered(self, label: str, retained: frozenset) -> list:
        """Epoch sentences with dropped tokens removed (compaction on)."""
        out = []
        for sentence in self.sentences[label]:
            kept = [t for t in sentence if t in retained]
            if kept:
                out.append(kept)
        return out

    def retained_counts(self, label: str, retained: frozenset) -> Counter:
        return Counter({t: c for t, c in self.epoch_counts[label].items() if t in retained})

    def write(self, root) -> str:
        """Write ``root/<label>/part<i>.txt``; return a digest of all bytes."""
        root = Path(root)
        digest = hashlib.sha256()
        n_files = self.spec.files_per_epoch
        for label in self.labels:
            epoch_dir = root / label
            epoch_dir.mkdir(parents=True, exist_ok=True)
            sentences = self.sentences[label]
            for i in range(n_files):
                lo = len(sentences) * i // n_files
                hi = len(sentences) * (i + 1) // n_files
                text = "".join(" ".join(s) + ".\n" for s in sentences[lo:hi])
                data = text.encode("ascii")
                (epoch_dir / f"part{i:02d}.txt").write_bytes(data)
                digest.update(f"{label}/{i}:".encode() + data)
        return digest.hexdigest()


def _words(rng: random.Random, n: int, taken: set, prefix: str = "") -> list:
    out = []
    while len(out) < n:
        word = prefix + "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                                for _ in range(rng.randint(2, 4)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _plant(rng: random.Random, spec: CorpusSpec, taken: set) -> Planted:
    # Planted words start with "q", a letter no background onset uses.
    def fresh(n):
        return _words(rng, n, taken, prefix="q")

    drifters = fresh(2 * spec.drifter_pairs)
    pools = {d: fresh(POOL_SIZE) for d in drifters}
    leads, tails = fresh(spec.successor_pairs), fresh(spec.successor_pairs)
    return Planted(
        drifters=drifters,
        pools=pools,
        successors=list(zip(leads, tails)),
        male_anchors=fresh(spec.anchors_per_side),
        female_anchors=fresh(spec.anchors_per_side),
        male_qualifiers=fresh(spec.qualifiers_per_side),
        female_qualifiers=fresh(spec.qualifiers_per_side),
    )


def generate(spec: CorpusSpec, seed: int) -> Corpus:
    """Build the corpus for ``seed``; the same seed gives the same corpus."""
    rng = random.Random(seed)
    taken: set = set()
    vocab = _words(rng, BACKGROUND_TYPES, taken)
    weights = [1.0 / (r + 1) for r in range(BACKGROUND_TYPES)]
    global_cum = list(itertools.accumulate(weights))
    topic_words = [vocab[t::TOPICS] for t in range(TOPICS)]
    topic_cum = [list(itertools.accumulate(weights[t::TOPICS])) for t in range(TOPICS)]
    planted = _plant(rng, spec, taken)

    def filler(n):
        topic = rng.randrange(TOPICS)
        n_topic = sum(rng.random() < TOPIC_SHARE for _ in range(n))
        return (rng.choices(topic_words[topic], cum_weights=topic_cum[topic], k=n_topic)
                + rng.choices(vocab, cum_weights=global_cum, k=n - n_topic))

    def with_filler(planted_tokens):
        tokens = filler(max(0, rng.choice(SENTENCE_LENGTHS) - len(planted_tokens)))
        tokens += planted_tokens
        rng.shuffle(tokens)
        return tokens

    labels = [f"e{e:02d}" for e in range(spec.epochs)]
    sentences = {}
    k = spec.planted_per_epoch
    for e, label in enumerate(labels):
        swap = e / (spec.epochs - 1) if spec.epochs > 1 else 0.0
        epoch = []
        for a, b in zip(planted.drifters[::2], planted.drifters[1::2]):
            for drifter, partner in ((a, b), (b, a)):
                for _ in range(k):
                    pool = planted.pools[partner if rng.random() < swap else drifter]
                    epoch.append(with_filler([drifter] + rng.sample(pool, POOL_WORDS_PER_SENTENCE)))
        for lead, tail in planted.successors:
            for _ in range(k):
                tokens = filler(rng.choice(SENTENCE_LENGTHS) - 2)
                at = rng.randint(0, len(tokens))
                epoch.append(tokens[:at] + [lead, tail] + tokens[at:])
        for anchors, qualifiers in ((planted.male_anchors, planted.male_qualifiers),
                                    (planted.female_anchors, planted.female_qualifiers)):
            for _ in range(k * len(anchors)):
                epoch.append(with_filler([rng.choice(anchors)]
                                         + rng.sample(qualifiers, QUALIFIERS_PER_SENTENCE)))
        n_tokens = sum(len(s) for s in epoch)
        while n_tokens < spec.tokens_per_epoch:
            sentence = filler(rng.choice(SENTENCE_LENGTHS))
            epoch.append(sentence)
            n_tokens += len(sentence)
        rng.shuffle(epoch)
        sentences[label] = epoch
    return Corpus(spec, labels, sentences, planted)
