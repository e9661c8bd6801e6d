"""Corpus handling: tokenization, per-epoch document streams, vocabulary
counting and frequency filtering.

Corpus layout on disk: a root directory with one subdirectory per epoch
(the directory name is the epoch label).  Each epoch directory holds UTF-8
plain-text files, either one document per file or, with docs_per_line, one
document per line.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, MissingDataError

_TOKEN = re.compile(r"[\w'-]+")
_SENTENCE_END = re.compile(r"[.!?]")


def tokenize(raw_text: str) -> list[list[str]]:
    """Lowercase ``raw_text`` and split it into sentences of tokens.

    A sentence ends at every '.', '!' or '?'.  That chops abbreviations
    into short single-token sentences ("U.S. economy grew" becomes
    [["u"], ["s"], ["economy", "grew"]]), a documented artifact of the
    period rule.  Tokens keep letters, digits and internal hyphens or
    apostrophes; any other character separates tokens, and leading or
    trailing hyphens/apostrophes are stripped.  Empty sentences are
    dropped.
    """
    sentences = []
    # \w covers letters and digits but also underscore; blank underscores
    # out first so they act as separators like other punctuation.
    for chunk in _SENTENCE_END.split(raw_text.lower().replace("_", " ")):
        tokens = [t for t in (m.strip("'-") for m in _TOKEN.findall(chunk)) if t]
        if tokens:
            sentences.append(tokens)
    return sentences


@dataclass
class Document:
    epoch_label: str
    sentences: list[list[str]]


@dataclass(frozen=True)
class VocabularyStats:
    """Term frequencies over a corpus slice or the whole corpus."""

    counts: Counter

    @property
    def total_tokens(self) -> int:
        return sum(self.counts.values())

    @property
    def distinct_terms(self) -> int:
        return len(self.counts)

    def __add__(self, other: "VocabularyStats") -> "VocabularyStats":
        return VocabularyStats(self.counts + other.counts)


def count_vocabulary(docs: Iterable[Document]) -> VocabularyStats:
    counts: Counter = Counter()
    for doc in docs:
        for sentence in doc.sentences:
            counts.update(sentence)
    return VocabularyStats(counts)


@dataclass(frozen=True)
class VocabularyFilter:
    """Stop-set plus minimum-count retention predicate.

    ``stop_set`` holds the ``top_k`` most frequent terms (ties at the
    boundary broken lexicographically ascending); a term is retained iff
    it is not a stop word and occurred at least ``min_count`` times.
    """

    stop_set: frozenset
    min_count: int
    top_k: int
    retained: frozenset

    def keeps(self, term: str) -> bool:
        return term in self.retained


def build_filter(stats: VocabularyStats, top_k: int = 100, min_count: int = 5) -> VocabularyFilter:
    if top_k < 0:
        raise ConfigError(f"top_k must be >= 0, got {top_k}")
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    ranked = sorted(stats.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    stop_set = frozenset(term for term, _ in ranked[:top_k])
    retained = frozenset(
        term
        for term, count in stats.counts.items()
        if term not in stop_set and count >= min_count
    )
    return VocabularyFilter(stop_set, min_count, top_k, retained)


def filtered_stream(doc: Document, filt: VocabularyFilter, compact: bool = True):
    """Sentences of ``doc`` with non-retained tokens removed.

    With ``compact`` (the default) dropped tokens are deleted so the
    survivors become adjacent.  With ``compact=False`` every dropped token
    leaves a ``None`` hole, so surviving tokens keep their original window
    offsets.  Sentences with no surviving token are omitted entirely.
    """
    out = []
    for sentence in doc.sentences:
        if compact:
            kept = [t for t in sentence if filt.keeps(t)]
            if kept:
                out.append(kept)
        else:
            kept = [t if filt.keeps(t) else None for t in sentence]
            if any(t is not None for t in kept):
                out.append(kept)
    return out


def merge_vocabularies(files) -> tuple[list, list]:
    """One vocabulary for many ``TokenIds``: its terms in first-seen order,
    and each file's ids rewritten onto it."""
    index: dict = {}
    merged = []
    for f in files:
        lookup = np.array([index.setdefault(t, len(index)) for t in f.terms], dtype=np.int32)
        merged.append(lookup[f.ids])
    return list(index), merged


def count_ids(terms, ids_per_file) -> VocabularyStats:
    """Term frequencies of id streams over ``terms``."""
    counts = np.zeros(len(terms), dtype=np.int64)
    for ids in ids_per_file:
        # Without minlength, so each file costs its tokens, not the vocabulary.
        file_counts = np.bincount(ids)
        counts[:len(file_counts)] += file_counts
    return VocabularyStats(Counter(dict(zip(terms, counts.tolist()))))


def retained_ids(terms, filt: VocabularyFilter) -> tuple[list, np.ndarray]:
    """The retained terms in sorted order, and for each of ``terms`` its
    position among them, or -1 if the filter drops it."""
    retained = sorted(filt.retained)
    position = {term: k for k, term in enumerate(retained)}
    index = np.array([position.get(term, -1) for term in terms], dtype=np.int64)
    return retained, index


def filtered_ids(ids, lengths, retained_index, compact: bool = True):
    """``filtered_stream`` over id streams: (ids, sentence_ids).

    ``retained_index`` maps a vocabulary id to its id among the retained
    terms, or -1 for a dropped term.  With ``compact`` dropped tokens are
    deleted; otherwise each leaves a -1 hole.  ``sentence_ids`` numbers
    each token's sentence, so windows can stop at sentence ends.
    """
    mapped = retained_index[ids]
    sentence_ids = np.repeat(np.arange(len(lengths)), lengths)
    if compact:
        keep = mapped >= 0
        return mapped[keep], sentence_ids[keep]
    return mapped, sentence_ids


def epoch_labels(corpus_root) -> list[str]:
    """Sorted epoch labels (subdirectory names) under the corpus root."""
    root = Path(corpus_root)
    if not root.is_dir():
        raise MissingDataError(f"corpus root is not a directory: {root}")
    labels = sorted(p.name for p in root.iterdir() if p.is_dir())
    if not labels:
        raise MissingDataError(f"corpus root has no epoch subdirectories: {root}")
    return labels


def list_epoch_files(corpus_root, epoch: str) -> list[Path]:
    epoch_dir = Path(corpus_root) / epoch
    if not epoch_dir.is_dir():
        raise MissingDataError(f"missing epoch directory: {epoch_dir}")
    return sorted(p for p in epoch_dir.iterdir() if p.is_file())


def read_utf8(path) -> str:
    """The text of an input file (corpus, terms or config file); a file
    that is not UTF-8 is unreadable data, named with the offending byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MissingDataError(f"not valid UTF-8: {path} (byte {exc.start})") from None


def _file_sentences(path, docs_per_line: bool) -> Iterator[list[list[str]]]:
    text = read_utf8(path)
    if docs_per_line:
        for line in text.splitlines():
            if line.strip():
                yield tokenize(line)
    else:
        yield tokenize(text)


def read_documents(epoch: str, files: Iterable[Path], docs_per_line: bool = False) -> Iterator[Document]:
    """Yield tokenized Documents from the given files, in the given order."""
    for path in files:
        for sentences in _file_sentences(path, docs_per_line):
            yield Document(epoch, sentences)


@dataclass
class TokenIds:
    """One tokenized file: token k is ``terms[ids[k]]``, and the file's
    sentences hold ``lengths[0]``, ``lengths[1]``, ... tokens in turn."""

    terms: list
    ids: np.ndarray
    lengths: np.ndarray


def read_token_ids(path, docs_per_line: bool = False) -> TokenIds:
    """Tokenize one file, once, into ids over the file's own vocabulary."""
    index: dict = {}
    ids = []
    lengths = []
    for sentences in _file_sentences(path, docs_per_line):
        for sentence in sentences:
            ids.extend(index.setdefault(tok, len(index)) for tok in sentence)
            lengths.append(len(sentence))
    return TokenIds(list(index), np.array(ids, dtype=np.int32),
                    np.array(lengths, dtype=np.int32))


def iter_documents(corpus_root, epoch: str, docs_per_line: bool = False) -> Iterator[Document]:
    yield from read_documents(epoch, list_epoch_files(corpus_root, epoch), docs_per_line)


def write_stats_tsv(stats: VocabularyStats, path) -> None:
    """Write term<TAB>count rows, most frequent first (ties by term)."""
    lines = ["term\tcount"]
    for term, count in sorted(stats.counts.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"{term}\t{count}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
