"""Corpus handling, all over integer token ids: each file is tokenized
once (``read_token_ids``), the files' vocabularies merge into one, terms
are counted with ``bincount``, and the frequency filter maps each
vocabulary id to its row among the retained terms, or -1.

Corpus layout on disk: a root directory with one subdirectory per epoch
(the directory name is the epoch label).  Each epoch directory holds UTF-8
plain-text files, either one document per file or, with docs_per_line, one
document per line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

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


def merge_vocabularies(files) -> tuple[np.ndarray, list]:
    """One vocabulary for many ``TokenIds``: its terms in first-seen order,
    and each file's ids rewritten onto it."""
    index: dict = {}
    merged = []
    for f in files:
        lookup = np.array([index.setdefault(t, len(index)) for t in f.terms], dtype=np.int32)
        merged.append(lookup[f.ids])
    return np.array(list(index), dtype=str), merged


def count_ids(terms, ids_per_file) -> np.ndarray:
    """How often each of ``terms`` occurs in the id streams, as int64."""
    counts = np.zeros(len(terms), dtype=np.int64)
    for ids in ids_per_file:
        # Without minlength, so each file costs its tokens, not the vocabulary.
        file_counts = np.bincount(ids)
        counts[:len(file_counts)] += file_counts
    return counts


def frequency_order(terms, counts) -> np.ndarray:
    """Positions of ``terms`` by count descending, ties by term ascending."""
    return np.lexsort((terms, -np.asarray(counts)))


def build_filter(terms, counts, top_k: int = 100, min_count: int = 5):
    """The retained terms, sorted, and for each of ``terms`` its row among
    them, or -1 where the filter drops it.

    The stop set is the ``top_k`` most frequent terms (ties at the boundary
    broken lexicographically ascending); a term is retained iff it is not
    a stop word and occurred at least ``min_count`` times.
    """
    if top_k < 0:
        raise ConfigError(f"top_k must be >= 0, got {top_k}")
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    terms = np.asarray(terms, dtype=str)
    counts = np.asarray(counts)
    keep = counts >= min_count
    keep[frequency_order(terms, counts)[:top_k]] = False
    kept = np.flatnonzero(keep)
    kept = kept[np.argsort(terms[kept])]
    index = np.full(len(terms), -1, dtype=np.int64)
    index[kept] = np.arange(len(kept))
    return terms[kept], index


def filtered_ids(ids, lengths, retained_index, compact: bool = True):
    """The filtered token stream of id streams: (ids, sentence_ids).

    ``retained_index`` maps a vocabulary id to its id among the retained
    terms, or -1 for a dropped term.  With ``compact`` dropped tokens are
    deleted, so the survivors become adjacent; otherwise each leaves a -1
    hole and the survivors keep their window offsets.  ``sentence_ids``
    numbers each token's sentence, so windows can stop at sentence ends.
    """
    mapped = retained_index[ids]
    sentence_ids = np.repeat(np.arange(len(lengths)), lengths)
    if compact:
        keep = mapped >= 0
        return mapped[keep], sentence_ids[keep]
    return mapped, sentence_ids


# Names that bench/tracing.py hooks and its self-test needs to resolve.
count_vocabulary = count_ids
filtered_stream = filtered_ids


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


@dataclass
class TokenIds:
    """One tokenized file: token k is ``terms[ids[k]]``, and the file's
    sentences hold ``lengths[0]``, ``lengths[1]``, ... tokens in turn."""

    terms: list
    ids: np.ndarray
    lengths: np.ndarray


def read_token_ids(path, docs_per_line: bool = False) -> TokenIds:
    """Tokenize one file, once, into ids over the file's own vocabulary.
    With ``docs_per_line`` each nonblank line is a document, so no sentence
    runs on past the end of its line."""
    text = read_utf8(path)
    docs = [line for line in text.splitlines() if line.strip()] if docs_per_line else [text]
    index: dict = {}
    ids = []
    lengths = []
    for doc in docs:
        for sentence in tokenize(doc):
            ids.extend(index.setdefault(tok, len(index)) for tok in sentence)
            lengths.append(len(sentence))
    return TokenIds(list(index), np.array(ids, dtype=np.int32),
                    np.array(lengths, dtype=np.int32))


def write_stats_tsv(terms, counts, path) -> None:
    """Write term<TAB>count rows, most frequent first (ties by term)."""
    order = frequency_order(terms, counts)
    rows = zip(np.asarray(terms)[order].tolist(), np.asarray(counts)[order].tolist())
    lines = ["term\tcount"] + [f"{term}\t{count}" for term, count in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
