"""Tokenization, vocabulary counting, and frequency filtering."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftspace import ConfigError, MissingDataError
from driftspace.corpus import (
    TokenIds,
    build_filter,
    count_ids,
    epoch_labels,
    filtered_ids,
    list_epoch_files,
    merge_vocabularies,
    read_token_ids,
    tokenize,
    write_stats_tsv,
)

from helpers import (
    count_vocabulary,
    filtered_stream,
    ranked_terms,
    read_documents,
    retained_terms,
    stop_set,
)

words = st.text(alphabet="abcdefg", min_size=1, max_size=6)
sentences = st.lists(st.lists(words, min_size=1, max_size=8), min_size=0, max_size=10)
# Terms whose code point order differs from their byte and locale orders.
unicode_counts = st.dictionaries(st.text(alphabet="aeéßsz中ö", min_size=1, max_size=3),
                                 st.integers(1, 4), min_size=1, max_size=24)


def _token_ids(sentences):
    """``TokenIds`` of token sentences, as ``read_token_ids`` makes of a file."""
    index = {}
    ids = [index.setdefault(tok, len(index)) for sentence in sentences for tok in sentence]
    return TokenIds(list(index), np.array(ids, dtype=np.int32),
                    np.array([len(sentence) for sentence in sentences], dtype=np.int32))


def _counts(*files):
    """``{term: count}`` from ``count_ids`` over files of token sentences."""
    terms, ids = merge_vocabularies([_token_ids(f) for f in files])
    counts = count_ids(terms, ids)
    assert counts.dtype == np.int64
    return dict(zip(terms.tolist(), counts.tolist()))


def _filter(counts: dict, top_k: int, min_count: int):
    """``build_filter`` over the terms and counts of a dict: (terms,
    retained, index)."""
    terms = np.array(list(counts), dtype=str)
    retained, index = build_filter(terms, np.array(list(counts.values()), dtype=np.int64),
                                   top_k, min_count)
    return terms, retained, index


def _spelled(token_ids):
    """The token sentences of a ``TokenIds``."""
    tokens = [token_ids.terms[i] for i in token_ids.ids.tolist()]
    ends = np.cumsum(token_ids.lengths).tolist()
    return [tokens[start:end] for start, end in zip([0] + ends, ends)]


class TestTokenize:
    def test_lowercase_and_sentence_split(self):
        assert tokenize("The cat sat. The DOG ran!") == [
            ["the", "cat", "sat"],
            ["the", "dog", "ran"],
        ]

    def test_every_terminator_ends_a_sentence(self):
        assert tokenize("U.S. economy grew") == [["u"], ["s"], ["economy", "grew"]]

    def test_internal_hyphen_and_edge_strip(self):
        assert tokenize("Sun-dried tomatoes. Great!") == [
            ["sun-dried", "tomatoes"],
            ["great"],
        ]

    def test_apostrophes(self):
        assert tokenize("it's o'clock, 'quoted'") == [["it's", "o'clock", "quoted"]]

    def test_underscore_separates(self):
        assert tokenize("snake_case") == [["snake", "case"]]

    def test_digits_kept(self):
        assert tokenize("route 66 closed") == [["route", "66", "closed"]]

    def test_punctuation_only_dropped(self):
        assert tokenize("... --- !!!") == []
        assert tokenize("") == []

    def test_question_and_exclamation(self):
        assert tokenize("why? because! so.") == [["why"], ["because"], ["so"]]

    @given(st.text(max_size=60))
    @settings(max_examples=100)
    def test_tokens_are_clean(self, text):
        for sentence in tokenize(text):
            assert sentence
            for tok in sentence:
                assert tok == tok.lower()
                assert tok == tok.strip("'-")
                assert tok


class TestVocabularyStats:
    """``count_ids`` over merged id streams, against the string reference."""

    def test_counting(self):
        docs = [[["a", "b", "a"], ["c"]], [["b"]]]
        counts = _counts(*docs)
        assert counts == {"a": 2, "b": 2, "c": 1} == count_vocabulary(docs)
        assert sum(counts.values()) == 5
        assert len(counts) == 3

    def test_addition(self):
        one, two = [["a", "a"]], [["a", "b", "b", "b", "b"]]
        assert _counts(one, two) == {"a": 3, "b": 4}
        assert Counter(_counts(one)) + Counter(_counts(two)) == Counter(_counts(one, two))

    @given(sentences)
    def test_order_independent(self, sents):
        assert _counts(sents) == _counts(list(reversed(sents))) == count_vocabulary([sents])

    @given(sentences, sentences)
    def test_shard_additivity(self, a, b):
        whole = _counts(a + b)
        assert whole == _counts(a, b)
        assert Counter(whole) == Counter(_counts(a)) + Counter(_counts(b))


class TestBuildFilter:
    def test_stop_set_and_retention(self):
        counts = {"the": 50, "of": 30, "cat": 10, "rare": 2}
        terms, retained, index = _filter(counts, top_k=2, min_count=5)
        assert retained.tolist() == ["cat"]
        assert index.tolist() == [-1, -1, 0, -1]
        assert "unseen" not in retained
        # Without the count floor, the stop set is what is left out.
        assert _filter(counts, top_k=2, min_count=1)[1].tolist() == ["cat", "rare"]
        assert stop_set(counts, 2) == {"the", "of"}

    def test_boundary_ties_break_lexicographically(self):
        counts = {"zeta": 10, "beta": 5, "alpha": 5, "last": 1}
        _, retained, _ = _filter(counts, top_k=2, min_count=1)
        # The stop set is {"zeta", "alpha"}.
        assert retained.tolist() == ["beta", "last"]

    def test_min_count_boundary_is_inclusive(self):
        _, retained, index = _filter({"edge": 5, "below": 4}, top_k=0, min_count=5)
        assert retained.tolist() == ["edge"]
        assert index.tolist() == [0, -1]

    def test_top_k_zero_keeps_everything_frequent(self):
        _, retained, index = _filter({"b": 9, "a": 9}, top_k=0, min_count=1)
        assert retained.tolist() == ["a", "b"]
        assert index.tolist() == [1, 0]

    def test_top_k_larger_than_vocabulary(self):
        _, retained, index = _filter({"a": 9, "b": 9}, top_k=10, min_count=1)
        assert retained.tolist() == []
        assert index.tolist() == [-1, -1]

    def test_validation(self):
        with pytest.raises(ConfigError):
            _filter({"a": 1}, top_k=-1, min_count=1)
        with pytest.raises(ConfigError):
            _filter({"a": 1}, top_k=0, min_count=0)

    def test_non_ascii_ties_at_the_boundary_match_python_sort(self):
        # Code point order: "e" < "s" < "z" < "ß" < "é" < "ö" < "中"; the
        # stop set of top_k=3 cuts the five-way tie at count 3 after "ß".
        counts = {"中": 3, "é": 3, "z": 3, "ß": 3, "e": 3, "s": 2, "ö": 2, "a": 1}
        for top_k in range(len(counts) + 1):
            for min_count in (1, 2, 3):
                terms, retained, index = _filter(counts, top_k, min_count)
                want = sorted(retained_terms(counts, top_k, min_count))
                assert retained.tolist() == want, (top_k, min_count)
                assert [want.index(t) if t in want else -1 for t in terms.tolist()] \
                    == index.tolist()
        assert _filter(counts, 3, 1)[1].tolist() == ["a", "s", "é", "ö", "中"]

    @given(unicode_counts, st.integers(0, 26), st.integers(1, 5))
    @settings(max_examples=200)
    def test_filter_equals_python_sorted_reference(self, counts, top_k, min_count):
        terms, retained, index = _filter(counts, top_k, min_count)
        want = sorted(retained_terms(counts, top_k, min_count))
        assert retained.tolist() == want
        assert [retained[i] for i in index.tolist() if i >= 0] \
            == [t for t in terms.tolist() if t in want]


class TestFilteredStream:
    """``filtered_ids`` against the string reference's filtered stream."""

    COUNTS = {"the": 50, "cat": 10, "sat": 10, "mat": 10}

    def _filtered(self, doc, compact=True):
        """The filtered sentences of ``doc``; the id path must give the
        reference's, once sentences of holes only are left out."""
        terms, retained, index = _filter(self.COUNTS, top_k=1, min_count=5)
        position = {term: k for k, term in enumerate(terms.tolist())}
        ids = np.array([position[t] for sentence in doc for t in sentence], dtype=np.int32)
        got, sentence_ids = filtered_ids(ids, [len(s) for s in doc], index, compact)
        rebuilt = {}
        for i, sid in zip(got.tolist(), sentence_ids.tolist()):
            rebuilt.setdefault(sid, []).append(None if i < 0 else str(retained[i]))
        want = filtered_stream(doc, set(retained.tolist()), compact)
        assert [s for s in rebuilt.values() if any(t is not None for t in s)] == want
        return want

    def test_compact_removes_positions(self):
        doc = [["the", "cat", "sat"], ["the", "the"]]
        assert self._filtered(doc) == [["cat", "sat"]]

    def test_holes_preserve_positions(self):
        doc = [["the", "cat", "the", "sat"]]
        assert self._filtered(doc, compact=False) == [[None, "cat", None, "sat"]]

    def test_fully_dropped_sentences_vanish_in_both_modes(self):
        doc = [["the"], ["cat"]]
        assert self._filtered(doc, compact=False) == [["cat"]]
        assert self._filtered(doc, compact=True) == [["cat"]]


class TestCorpusLayout:
    def _make(self, tmp_path):
        (tmp_path / "1990").mkdir()
        (tmp_path / "1991").mkdir()
        (tmp_path / "1990" / "b.txt").write_text("beta gamma. delta!", encoding="utf-8")
        (tmp_path / "1990" / "a.txt").write_text("alpha one", encoding="utf-8")
        (tmp_path / "1991" / "c.txt").write_text("line one two\nline three\n\n", encoding="utf-8")
        return tmp_path

    def test_epoch_labels_sorted(self, tmp_path):
        assert epoch_labels(self._make(tmp_path)) == ["1990", "1991"]

    def test_files_sorted_and_one_doc_per_file(self, tmp_path):
        root = self._make(tmp_path)
        files = list_epoch_files(root, "1990")
        assert [p.name for p in files] == ["a.txt", "b.txt"]
        assert all(p.parent.name == "1990" for p in files)
        want = [
            [["alpha", "one"]],
            [["beta", "gamma"], ["delta"]],
        ]
        assert read_documents(files) == want
        assert [_spelled(read_token_ids(p)) for p in files] == want

    def test_docs_per_line(self, tmp_path):
        root = self._make(tmp_path)
        files = list_epoch_files(root, "1991")
        assert read_documents(files, docs_per_line=True) == [
            [["line", "one", "two"]],
            [["line", "three"]],
        ]
        assert _spelled(read_token_ids(files[0], docs_per_line=True)) == [
            ["line", "one", "two"],
            ["line", "three"],
        ]

    def test_missing_root_and_epoch(self, tmp_path):
        with pytest.raises(MissingDataError):
            epoch_labels(tmp_path / "nowhere")
        with pytest.raises(MissingDataError):
            list_epoch_files(self._make(tmp_path), "2050")

    def test_empty_root(self, tmp_path):
        with pytest.raises(MissingDataError):
            epoch_labels(tmp_path)


class TestTokenIds:
    """The id path of the build against the string reference."""

    TEXTS = {
        "a.txt": "The cat sat on the mat. The cat ran!\nA dog, the dog; sat.",
        "b.txt": "Mat and cat.\n\nThe end of the mat",
        "c.txt": "",
    }

    def _files(self, tmp_path):
        paths = []
        for name, text in self.TEXTS.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
            paths.append(tmp_path / name)
        return paths

    @pytest.mark.parametrize("docs_per_line", [False, True])
    def test_ids_spell_the_documents(self, tmp_path, docs_per_line):
        for path in self._files(tmp_path):
            got = read_token_ids(path, docs_per_line)
            want = [s for d in read_documents([path], docs_per_line) for s in d]
            assert [len(s) for s in want] == got.lengths.tolist()
            assert [t for s in want for t in s] == [got.terms[i] for i in got.ids]

    def test_merged_counts_equal_count_vocabulary(self, tmp_path):
        paths = self._files(tmp_path)
        terms, ids = merge_vocabularies([read_token_ids(p) for p in paths])
        assert len(set(terms.tolist())) == len(terms)
        counts = count_ids(terms, ids)
        assert dict(zip(terms.tolist(), counts.tolist())) == count_vocabulary(read_documents(paths))

    @pytest.mark.parametrize("compact", [True, False])
    def test_filtered_ids_equal_filtered_stream(self, tmp_path, compact):
        paths = self._files(tmp_path)
        files = [read_token_ids(p) for p in paths]
        terms, ids = merge_vocabularies(files)
        retained, index = build_filter(terms, count_ids(terms, ids), top_k=1, min_count=2)
        want_retained = retained_terms(count_vocabulary(read_documents(paths)), 1, 2)
        assert retained.tolist() == sorted(want_retained)
        assert [retained[i] for i in index if i >= 0] == \
            [t for t in terms.tolist() if t in want_retained]
        got, sentence_ids = filtered_ids(np.concatenate(ids),
                                         np.concatenate([f.lengths for f in files]),
                                         index, compact)
        want = [s for d in read_documents(paths)
                for s in filtered_stream(d, want_retained, compact)]
        # Sentences with no retained token vanish from the stream; what
        # remains, grouped by sentence, must match it exactly.
        rebuilt = {}
        for i, sid in zip(got.tolist(), sentence_ids.tolist()):
            rebuilt.setdefault(sid, []).append(None if i < 0 else retained[i])
        assert [s for s in rebuilt.values() if any(t is not None for t in s)] == want

    def test_invalid_utf8_is_missing_data_naming_the_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"fine words \xff\xfe then more")
        with pytest.raises(MissingDataError, match="bad.txt"):
            read_token_ids(bad)
        with pytest.raises(MissingDataError, match="bad.txt"):
            read_documents([bad])


class TestStatsTsv:
    def test_rows_ranked_by_count_then_term(self, tmp_path):
        out = tmp_path / "vocab.tsv"
        write_stats_tsv(np.array(["b", "a", "z"]), np.array([3, 3, 9]), out)
        assert out.read_text(encoding="utf-8") == "term\tcount\nz\t9\na\t3\nb\t3\n"

    @pytest.mark.parametrize("counts", [
        {"中": 2, "é": 2, "ß": 2, "e": 2, "z": 2, "ss": 1, "a": 5},
        {"ö": 1, "o": 1, "中文": 3, "中": 3, "ß": 3, "sz": 3},
    ])
    def test_non_ascii_ties_match_python_sort(self, tmp_path, counts):
        out = tmp_path / "vocab.tsv"
        write_stats_tsv(np.array(list(counts), dtype=str),
                        np.array(list(counts.values()), dtype=np.int64), out)
        rows = [f"{term}\t{counts[term]}" for term in ranked_terms(counts)]
        assert out.read_text(encoding="utf-8") == "\n".join(["term\tcount"] + rows) + "\n"
