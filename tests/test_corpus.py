"""Tokenization, vocabulary counting, and frequency filtering."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftspace import ConfigError, MissingDataError
from driftspace.corpus import (
    Document,
    VocabularyStats,
    build_filter,
    count_ids,
    count_vocabulary,
    epoch_labels,
    filtered_ids,
    filtered_stream,
    iter_documents,
    list_epoch_files,
    merge_vocabularies,
    read_documents,
    read_token_ids,
    retained_ids,
    tokenize,
    write_stats_tsv,
)

words = st.text(alphabet="abcdefg", min_size=1, max_size=6)
sentences = st.lists(st.lists(words, min_size=1, max_size=8), min_size=0, max_size=10)


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
    def test_counting(self):
        docs = [
            Document("e1", [["a", "b", "a"], ["c"]]),
            Document("e1", [["b"]]),
        ]
        stats = count_vocabulary(docs)
        assert stats.counts == Counter({"a": 2, "b": 2, "c": 1})
        assert stats.total_tokens == 5
        assert stats.distinct_terms == 3

    def test_addition(self):
        s1 = VocabularyStats(Counter({"a": 2}))
        s2 = VocabularyStats(Counter({"a": 1, "b": 4}))
        assert (s1 + s2).counts == Counter({"a": 3, "b": 4})

    @given(sentences)
    def test_order_independent(self, sents):
        doc = Document("e", sents)
        flipped = Document("e", list(reversed(sents)))
        assert count_vocabulary([doc]).counts == count_vocabulary([flipped]).counts

    @given(sentences, sentences)
    def test_shard_additivity(self, a, b):
        whole = count_vocabulary([Document("e", a + b)])
        parts = count_vocabulary([Document("e", a)]) + count_vocabulary([Document("e", b)])
        assert whole.counts == parts.counts


class TestBuildFilter:
    def test_stop_set_and_retention(self):
        stats = VocabularyStats(Counter({"the": 50, "of": 30, "cat": 10, "rare": 2}))
        filt = build_filter(stats, top_k=2, min_count=5)
        assert filt.stop_set == {"the", "of"}
        assert filt.keeps("cat")
        assert not filt.keeps("the")
        assert not filt.keeps("rare")
        assert not filt.keeps("unseen")

    def test_boundary_ties_break_lexicographically(self):
        stats = VocabularyStats(Counter({"zeta": 10, "beta": 5, "alpha": 5, "last": 1}))
        filt = build_filter(stats, top_k=2, min_count=1)
        assert filt.stop_set == {"zeta", "alpha"}
        assert filt.keeps("beta")

    def test_min_count_boundary_is_inclusive(self):
        stats = VocabularyStats(Counter({"edge": 5, "below": 4}))
        filt = build_filter(stats, top_k=0, min_count=5)
        assert filt.keeps("edge")
        assert not filt.keeps("below")

    def test_top_k_zero_keeps_everything_frequent(self):
        stats = VocabularyStats(Counter({"a": 9, "b": 9}))
        filt = build_filter(stats, top_k=0, min_count=1)
        assert filt.stop_set == frozenset()
        assert filt.retained == {"a", "b"}

    def test_top_k_larger_than_vocabulary(self):
        stats = VocabularyStats(Counter({"a": 9, "b": 9}))
        filt = build_filter(stats, top_k=10, min_count=1)
        assert filt.retained == frozenset()

    def test_validation(self):
        stats = VocabularyStats(Counter({"a": 1}))
        with pytest.raises(ConfigError):
            build_filter(stats, top_k=-1)
        with pytest.raises(ConfigError):
            build_filter(stats, min_count=0)


class TestFilteredStream:
    def _filter(self):
        stats = VocabularyStats(Counter({"the": 50, "cat": 10, "sat": 10, "mat": 10}))
        return build_filter(stats, top_k=1, min_count=5)

    def test_compact_removes_positions(self):
        doc = Document("e", [["the", "cat", "sat"], ["the", "the"]])
        assert filtered_stream(doc, self._filter()) == [["cat", "sat"]]

    def test_holes_preserve_positions(self):
        doc = Document("e", [["the", "cat", "the", "sat"]])
        assert filtered_stream(doc, self._filter(), compact=False) == [
            [None, "cat", None, "sat"]
        ]

    def test_fully_dropped_sentences_vanish_in_both_modes(self):
        doc = Document("e", [["the"], ["cat"]])
        assert filtered_stream(doc, self._filter(), compact=False) == [["cat"]]
        assert filtered_stream(doc, self._filter(), compact=True) == [["cat"]]


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
        docs = list(read_documents("1990", files))
        assert [d.sentences for d in docs] == [
            [["alpha", "one"]],
            [["beta", "gamma"], ["delta"]],
        ]
        assert all(d.epoch_label == "1990" for d in docs)

    def test_docs_per_line(self, tmp_path):
        root = self._make(tmp_path)
        docs = list(iter_documents(root, "1991", docs_per_line=True))
        assert [d.sentences for d in docs] == [
            [["line", "one", "two"]],
            [["line", "three"]],
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
    """The id path of the build against the Document path it replaces."""

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
            want = [s for d in read_documents("e", [path], docs_per_line) for s in d.sentences]
            assert [len(s) for s in want] == got.lengths.tolist()
            assert [t for s in want for t in s] == [got.terms[i] for i in got.ids]

    def test_merged_counts_equal_count_vocabulary(self, tmp_path):
        paths = self._files(tmp_path)
        terms, ids = merge_vocabularies([read_token_ids(p) for p in paths])
        assert len(set(terms)) == len(terms)
        assert count_ids(terms, ids).counts == count_vocabulary(read_documents("e", paths)).counts

    @pytest.mark.parametrize("compact", [True, False])
    def test_filtered_ids_equal_filtered_stream(self, tmp_path, compact):
        paths = self._files(tmp_path)
        files = [read_token_ids(p) for p in paths]
        terms, ids = merge_vocabularies(files)
        filt = build_filter(count_ids(terms, ids), top_k=1, min_count=2)
        retained, index = retained_ids(terms, filt)
        assert retained == sorted(filt.retained)
        assert [retained[i] for i in index if i >= 0] == [t for t in terms if filt.keeps(t)]
        got, sentence_ids = filtered_ids(np.concatenate(ids),
                                         np.concatenate([f.lengths for f in files]),
                                         index, compact)
        want = [s for d in read_documents("e", paths)
                for s in filtered_stream(d, filt, compact)]
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
            list(read_documents("e", [bad]))


class TestStatsTsv:
    def test_rows_ranked_by_count_then_term(self, tmp_path):
        stats = VocabularyStats(Counter({"b": 3, "a": 3, "z": 9}))
        out = tmp_path / "vocab.tsv"
        write_stats_tsv(stats, out)
        assert out.read_text(encoding="utf-8") == "term\tcount\nz\t9\na\t3\nb\t3\n"
