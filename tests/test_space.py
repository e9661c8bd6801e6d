"""Space accumulation, combination, and neighbor queries."""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftspace import (
    CombineMismatchError,
    ConfigError,
    NeighborIndex,
    SemanticSpace,
    SpaceConfig,
    TermNotFoundError,
    UndefinedSimilarityError,
    combine,
    norm_frequency_series,
)
from driftspace import space as space_module
from driftspace.space import RowScores, inverse_log_weights, top_ranked
from driftspace.vectors import PermutationSet, apply_permutation, seed_vector

from helpers import assert_spaces_close, build_space, ingest_sentences, random_sentences

SMALL = SpaceConfig(dim=64, window=5, order_span=2, global_seed=3, perm_seed=4)


def reference_ingest(config, sentences, weights=None):
    """Slow independent accumulator: explicit per-pair offset loops.

    Used as an oracle against the vectorized prefix-sum path.
    """
    perms = PermutationSet(config.dim, config.perm_seed, config.order_span)
    half = config.half_window

    def seed(tok):
        return seed_vector(tok, config.dim, config.global_seed)

    def weight(tok):
        return 1.0 if weights is None else weights[tok]

    entries = {}
    total = 0
    for sentence in sentences:
        n = len(sentence)
        for i, tok in enumerate(sentence):
            if tok is None:
                continue
            ctx = np.zeros(config.dim)
            for delta in range(-half, half + 1):
                j = i + delta
                if delta == 0 or j < 0 or j >= n or sentence[j] is None:
                    continue
                ctx += weight(sentence[j]) * seed(sentence[j])
            orv = np.zeros(config.dim)
            for delta in range(-config.order_span, config.order_span + 1):
                j = i + delta
                if j < 0 or j >= n or sentence[j] is None:
                    continue
                orv += apply_permutation(
                    perms.offset_map(delta), weight(sentence[j]) * seed(sentence[j])
                )
            acc = entries.setdefault(tok, [np.zeros(config.dim), np.zeros(config.dim), 0])
            acc[0] += ctx
            acc[1] += orv
            acc[2] += 1
            total += 1
    return entries, total


def assert_matches_reference(config, sentences, weights=None):
    space = build_space(config, "ref", sentences, weights=weights)
    expected, total = reference_ingest(config, sentences, weights)
    assert space.ingested_tokens == total
    assert space.terms.tolist() == sorted(expected)
    for term, (ctx, orv, count) in expected.items():
        k = space.row(term)
        assert space.counts[k] == count
        np.testing.assert_allclose(space.context[k], ctx, rtol=1e-9, atol=1e-12, err_msg=term)
        np.testing.assert_allclose(space.order[k], orv, rtol=1e-9, atol=1e-12, err_msg=term)


class TestSpaceConfig:
    def test_defaults(self):
        config = SpaceConfig()
        assert (config.dim, config.window, config.order_span) == (300, 11, 2)
        assert config.half_window == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim=1),
            dict(window=4),
            dict(window=1),
            dict(window=5, order_span=3),
            dict(order_span=0),
            dict(global_seed=-1),
            dict(perm_seed=2**64),
            dict(weighting="tfidf"),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SpaceConfig(**kwargs)

    def test_non_uniform_weighting_needs_weights(self):
        # The weights are the corpus's: a space holds none, so a sentence of
        # strings cannot be weighted, even one that ingests nothing.
        space = SemanticSpace(SpaceConfig(weighting="inverse_log_frequency"), "e")
        for sentence in (["a", "b"], []):
            with pytest.raises(ConfigError, match="ingest_ids"):
                space.ingest_sentence(sentence)
        assert len(space) == 0 and space.ingested_tokens == 0


class TestIngestion:
    def test_singleton_sentence(self):
        space = build_space(SMALL, "e", [["solo"]])
        assert space.count("solo") == 1
        assert not space.term_vector("solo").any()
        assert np.array_equal(space.term_vector("solo", kind="order"), space.seed("solo"))
        assert space.ingested_tokens == 1

    def test_adjacent_pair(self):
        config = SpaceConfig(dim=64, window=3, order_span=1, global_seed=3, perm_seed=4)
        space = build_space(config, "e", [["left", "right"]])
        s_left, s_right = space.seed("left"), space.seed("right")
        perms = space.perms
        np.testing.assert_allclose(space.term_vector("left"), s_right, atol=1e-12)
        np.testing.assert_allclose(space.term_vector("right"), s_left, atol=1e-12)
        np.testing.assert_allclose(
            space.term_vector("left", kind="order"),
            s_left + apply_permutation(perms.offset_map(1), s_right),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            space.term_vector("right", kind="order"),
            s_right + apply_permutation(perms.offset_map(-1), s_left),
            atol=1e-12,
        )

    def test_matches_reference_on_random_corpora(self):
        rng = random.Random(101)
        vocab = [f"v{i:02d}" for i in range(20)]
        sentences = random_sentences(rng, vocab, 40, min_len=1, max_len=9)
        assert_matches_reference(SMALL, sentences)

    def test_matches_reference_with_weights(self):
        rng = random.Random(102)
        vocab = [f"v{i:02d}" for i in range(15)]
        sentences = random_sentences(rng, vocab, 30, min_len=1, max_len=8)
        weights = {tok: 0.25 + 0.05 * i for i, tok in enumerate(vocab)}
        config = SpaceConfig(dim=32, window=7, order_span=2, global_seed=3, perm_seed=4)
        assert_matches_reference(config, sentences, weights)

    def test_matches_reference_with_holes(self):
        rng = random.Random(103)
        vocab = [f"v{i:02d}" for i in range(12)]
        sentences = []
        for sentence in random_sentences(rng, vocab, 30, min_len=2, max_len=9):
            sentences.append([None if rng.random() < 0.3 else tok for tok in sentence])
        assert_matches_reference(SMALL, sentences)

    def test_hole_only_sentences_are_inert(self):
        space = build_space(SMALL, "e", [[None, None]])
        assert len(space) == 0
        assert space.ingested_tokens == 0

    def test_holes_keep_offsets(self):
        space = build_space(SMALL, "e", [["a", None, "b"]])
        hole_free = build_space(SMALL, "x", [["a", "b"]])
        # Still within the window of 5, so contexts agree; orders differ
        # because the offset changed from 1 to 2.
        np.testing.assert_allclose(
            space.term_vector("a"), hole_free.term_vector("a"), atol=1e-12
        )
        assert not np.allclose(space.term_vector("a", kind="order"),
                               hole_free.term_vector("a", kind="order"))

    def test_window_truncates_at_boundaries(self):
        config = SpaceConfig(dim=64, window=3, order_span=1, global_seed=3, perm_seed=4)
        space = build_space(config, "e", [["a", "b", "c", "d"]])
        np.testing.assert_allclose(
            space.term_vector("b"),
            space.seed("a") + space.seed("c"),
            atol=1e-12,
        )
        np.testing.assert_allclose(space.term_vector("a"), space.seed("b"), atol=1e-12)

    def test_empty_token_is_a_bug(self):
        space = SemanticSpace(SMALL, "e")
        with pytest.raises(ValueError):
            space.ingest_sentence(["ok", ""])

    def test_empty_sentence_is_a_no_op(self):
        space = SemanticSpace(SMALL, "e")
        space.ingest_sentence([])
        assert len(space) == 0

    def test_sentence_at_a_time_matches_one_batch(self):
        rng = random.Random(108)
        vocab = [f"v{i:02d}" for i in range(15)]
        sentences = [
            [None if rng.random() < 0.2 else tok for tok in sentence]
            for sentence in random_sentences(rng, vocab, 60, min_len=1, max_len=9)
        ]
        weights = {tok: 0.5 + 0.1 * i for i, tok in enumerate(vocab)}
        for scale in (None, weights):
            batch = build_space(SMALL, "e", sentences, weights=scale)
            single = SemanticSpace(SMALL, "e")
            for sentence in sentences:
                if scale is None:
                    single.ingest_sentence(sentence)
                else:
                    ingest_sentences(single, [sentence], scale)
            assert single.ingested_tokens == batch.ingested_tokens
            assert_spaces_close(single, batch, rtol=1e-12, atol=1e-12)

    def test_blocked_pair_counts_match_one_block(self, monkeypatch):
        rng = random.Random(110)
        vocab = [f"v{i:02d}" for i in range(15)]
        sentences = [
            [None if rng.random() < 0.2 else tok for tok in sentence]
            for sentence in random_sentences(rng, vocab, 60, min_len=1, max_len=9)
        ]
        whole = build_space(SMALL, "e", sentences)
        # Blocks of a few tokens, cut only at sentence starts.
        monkeypatch.setattr(space_module, "_BLOCK_TOKENS", 7)
        blocked = build_space(SMALL, "e", sentences)
        assert blocked == whole

    def test_counts_conserve_tokens(self):
        rng = random.Random(104)
        sentences = random_sentences(rng, ["a", "b", "c"], 25, min_len=1, max_len=6)
        space = build_space(SMALL, "e", sentences)
        assert space.ingested_tokens == sum(len(s) for s in sentences)
        assert space.counts.sum() == space.ingested_tokens

    def test_sentence_order_invariance(self):
        rng = random.Random(105)
        vocab = [f"v{i:02d}" for i in range(25)]
        sentences = random_sentences(rng, vocab, 120, min_len=2, max_len=9)
        shuffled = sentences[:]
        rng.shuffle(shuffled)
        a = build_space(SMALL, "e", sentences)
        b = build_space(SMALL, "e", shuffled)
        assert_spaces_close(a, b)
        # Pair counts are integers, so within one batch order is exact.
        assert a == b
        for term in vocab[:5]:
            qa = a.term_vector(term, normalized=True)
            qb = b.term_vector(term, normalized=True)
            ranked_a = [t for t, _ in a.nearest_neighbors(qa, 10)]
            ranked_b = [t for t, _ in b.nearest_neighbors(qb, 10)]
            assert ranked_a == ranked_b

    def test_doubled_weights_double_vectors_bitwise(self):
        rng = random.Random(106)
        vocab = [f"v{i:02d}" for i in range(10)]
        sentences = random_sentences(rng, vocab, 30, min_len=2, max_len=8)
        ones = {tok: 1.0 for tok in vocab}
        twos = {tok: 2.0 for tok in vocab}
        base = build_space(SMALL, "e", sentences, weights=ones)
        doubled = build_space(SMALL, "e", sentences, weights=twos)
        assert doubled.terms.tolist() == base.terms.tolist() == sorted(vocab)
        assert np.array_equal(doubled.context, 2.0 * base.context)
        assert np.array_equal(doubled.order, 2.0 * base.order)
        assert np.array_equal(doubled.counts, base.counts)

    def test_uniform_weights_equal_no_weights(self):
        rng = random.Random(107)
        vocab = ["a", "b", "c", "d"]
        sentences = random_sentences(rng, vocab, 20)
        plain = build_space(SMALL, "e", sentences)
        weighted = build_space(SMALL, "e", sentences, weights={t: 1.0 for t in vocab})
        assert plain == weighted

    def test_inverse_log_weights_formula(self):
        weights = inverse_log_weights(np.array([1, 99]))
        assert weights[0] == pytest.approx(1.0 / np.log(2.0))
        assert weights[1] == pytest.approx(1.0 / np.log(100.0))
        # Bit for bit 1 / math.log1p: for counts 2, 13, 47 and 73, 1 / np.log1p
        # differs in the last bit (numpy 2.4, x86-64), as for 13,326 of the
        # counts 1..2,000,000, and so would the bytes of inverse-log spaces.
        for counts in ([1, 2, 13, 47, 73, 1_000_000], range(1, 100_001)):
            want = [1.0 / math.log1p(count) for count in counts]
            assert inverse_log_weights(np.array(counts, dtype=np.int64)).tolist() == want


class TestTermVector:
    def _space(self):
        return build_space(SMALL, "e", [["a", "b"], ["solo"]])

    def test_copies_are_returned(self):
        space = self._space()
        vec = space.term_vector("a")
        vec[:] = 0.0
        assert space.context[space.row("a")].any()

    def test_normalized(self):
        space = self._space()
        vec = space.term_vector("a", normalized=True)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_order_kind(self):
        space = self._space()
        assert np.array_equal(space.term_vector("a", kind="order"), space.order[space.row("a")])

    def test_unknown_term(self):
        with pytest.raises(TermNotFoundError):
            self._space().term_vector("ghost")

    def test_zero_vector_cannot_normalize(self):
        with pytest.raises(UndefinedSimilarityError):
            self._space().term_vector("solo", normalized=True)

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            self._space().term_vector("a", kind="sideways")

    def test_similarity_of_identical_contexts(self):
        space = build_space(SMALL, "e", [["p", "ctx"], ["q", "ctx"]])
        assert space.similarity("p", "q") == pytest.approx(1.0, abs=1e-12)

    def test_membership_and_count(self):
        space = self._space()
        assert "a" in space and "ghost" not in space
        assert space.count("a") == 1
        assert space.count("ghost") == 0


class TestNeighbors:
    def test_planted_cluster_found(self):
        rng = random.Random(108)
        pool = [f"c{i}" for i in range(6)]
        sentences = []
        for probe in ("p1", "p2", "p3"):
            for _ in range(20):
                sentences.append([probe] + rng.sample(pool, 3))
        for _ in range(30):
            sentences.append(rng.sample([f"f{i}" for i in range(30)], 4))
        space = build_space(SMALL, "e", sentences)
        query = space.term_vector("p1", normalized=True)
        hits = [t for t, _ in space.nearest_neighbors(query, 8, exclude={"p1"})]
        assert set(hits) <= {"p2", "p3"} | set(pool)
        assert {"p2", "p3"} <= set(hits)

    def test_self_is_top_hit_without_exclusion(self):
        space = build_space(SMALL, "e", [["a", "b", "c"], ["b", "c", "d"]])
        query = space.term_vector("a", normalized=True)
        top, sim = space.nearest_neighbors(query, 1)[0]
        assert top == "a"
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_exact_ties_rank_lexicographically(self):
        space = build_space(SMALL, "e", [["pair2", "ctx"], ["pair1", "ctx"]])
        query = space.seed("ctx")
        hits = space.nearest_neighbors(query, 2, exclude={"ctx"})
        assert [t for t, _ in hits] == ["pair1", "pair2"]
        assert hits[0][1] == hits[1][1]

    def test_min_count_excludes(self):
        space = build_space(SMALL, "e", [["rare", "ctx"], ["common", "ctx"], ["common", "ctx"]])
        index = NeighborIndex(space, min_count=2)
        hits = [t for t, _ in index.query(space.seed("ctx"), 5)]
        assert "rare" not in hits
        assert "common" in hits

    def test_zero_vectors_skipped(self):
        space = build_space(SMALL, "e", [["solo"], ["a", "b"]])
        index = NeighborIndex(space)
        assert "solo" not in set(index.terms)

    def test_empty_index(self):
        space = build_space(SMALL, "e", [["solo"]])
        assert NeighborIndex(space).query(np.ones(64), 3) == []

    def test_top_n_validation(self):
        space = build_space(SMALL, "e", [["a", "b"]])
        with pytest.raises(ConfigError):
            NeighborIndex(space).query(space.seed("a"), 0)



def _units(index):
    """The row of each of ``index.terms`` divided by its norm in 64-bit:
    the unit rows that similarities are defined on."""
    kept = np.arange(len(index.rows)) if index.kept is None else index.kept
    return np.divide(index.rows[kept], index.norms[kept, None], dtype=np.float64)


def _full_sort_query(index, vec, top_n, exclude):
    """NeighborIndex.query by a full lexsort of every row: the reference."""
    sims = _units(index) @ np.asarray(vec, dtype=np.float64)
    out = []
    for i in np.lexsort((index.terms, -sims)):
        if str(index.terms[i]) not in exclude:
            out.append((str(index.terms[i]), float(sims[i])))
    return out[:top_n]


def _per_pair_full_sort(index, q, top_n, exclude):
    """A query's hits by a full lexsort of one dot product per row."""
    sims = np.vecdot(_units(index), np.asarray(q, dtype=np.float64))
    out = [(str(index.terms[i]), float(sims[i])) for i in np.lexsort((index.terms, -sims))
           if str(index.terms[i]) not in exclude]
    return out[:top_n]


def _bits(hits) -> bytes:
    return np.array([s for _, s in hits], dtype=np.float64).tobytes()


@st.composite
def _query_cases(draw):
    """A NeighborIndex of a 64- or 32-bit space whose rows include exact
    duplicates (ties) and copies one ulp apart (near-ties), with unit,
    non-unit, zero and NaN queries, and a query block size."""
    dim = draw(st.sampled_from([2, 3, 17, 40, 300]))
    n_rows = draw(st.integers(0, 24))
    width = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((n_rows, dim)).astype(width)
    for _ in range(draw(st.integers(0, 12)) if n_rows > 1 else 0):
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_rows - 1))
        rows[i] = rows[j]
        for k in draw(st.lists(st.integers(0, dim - 1), max_size=3)):
            rows[i, k] = np.nextafter(rows[i, k], width(draw(st.sampled_from([np.inf, -np.inf]))))
    space = SemanticSpace(SpaceConfig(dim=dim, window=3, order_span=1), "e", float_dtype=width)
    terms = np.array([f"t{i:02d}" for i in range(n_rows)], dtype=str)
    space.set_rows(terms, np.ones(n_rows, dtype=np.int64), rows, rows.copy())
    index = NeighborIndex(space)
    queries = []
    for kind in draw(st.lists(st.sampled_from(["row", "raw", "scaled", "zero", "nan"]),
                              min_size=1, max_size=8)):
        if kind in ("row", "raw") and len(index.terms):
            k = draw(st.integers(0, len(index.terms) - 1))
            q = _units(index)[k] if kind == "row" else rows[k].astype(np.float64)
        elif kind == "zero":
            q = np.zeros(dim)
        elif kind == "nan":
            q = rng.standard_normal(dim)
            q[draw(st.integers(0, dim - 1))] = np.nan
        else:
            q = rng.standard_normal(dim) * draw(st.sampled_from([1e-3, 1.0, 7.0]))
        queries.append(q)
    top_n = draw(st.integers(1, n_rows + 3))
    names = [f"t{i:02d}" for i in range(n_rows + 2)]
    excludes = [draw(st.sets(st.sampled_from(names), max_size=4)) for _ in queries]
    block = draw(st.sampled_from([1, 2, 3, 64]))
    return index, np.array(queries), top_n, excludes, block, space


class TestNeighborIndex:
    @pytest.mark.parametrize("width", [np.float64, np.float32])
    def test_matrix_has_the_bits_of_per_row_normalization(self, width):
        rng = random.Random(111)
        vocab = [f"v{i:02d}" for i in range(60)]
        config = SpaceConfig(dim=300, window=7, order_span=2, global_seed=3, perm_seed=4)
        space = build_space(config, "e", random_sentences(rng, vocab, 400) + [["solo"]])
        space.set_rows(space.terms, space.counts, space.context.astype(width),
                       space.order.astype(width))
        for min_count in (1, 8):
            index = NeighborIndex(space, min_count=min_count)
            terms, rows = [], []
            for term, count, vec in zip(space.terms.tolist(), space.counts, space.context):
                norm = np.linalg.norm(vec)
                if count >= min_count and norm != 0.0:
                    terms.append(term)
                    rows.append(np.divide(vec, norm, dtype=np.float64))
            assert index.terms.tolist() == terms
            units = index.unit_rows(np.arange(len(index.terms)))
            assert units.tobytes() == np.vstack(rows).tobytes()

    def test_a_query_sees_every_change_to_the_rows(self):
        space = build_space(SMALL, "e", [["a", "b", "c"], ["b", "d"], ["a", "c", "d"]])
        q = space.term_vector("a", normalized=True)
        before = space.nearest_neighbors(q, 4)
        space.ingest_sentence(["d", "a"])  # known terms: only the rows change
        assert space.nearest_neighbors(q, 4) != before
        assert space.nearest_neighbors(q, 4) == NeighborIndex(space).query(q, 4)
        space.ingest_sentence(["e", "a"])
        assert "e" in {term for term, _ in space.nearest_neighbors(q, 5)}
        # In-place edits of the rows, each against a fresh index.
        space.context[space.row("b")] *= 100  # every cosine of b is kept
        hits = space.nearest_neighbors(q, 4)
        assert hits == NeighborIndex(space).query(q, 4)
        assert all(abs(sim) <= 1.0 + 1e-9 for _, sim in hits)  # cosines, not stale norms
        space.context[space.row("c")] = 0.0  # a zero vector never ranks
        hits = space.nearest_neighbors(q, 5)
        assert hits == NeighborIndex(space).query(q, 5)
        assert "c" not in {term for term, _ in hits}
        space.entries["d"].context[:] = space.context[space.row("a")]
        hits = space.nearest_neighbors(q, 2)
        assert hits == NeighborIndex(space).query(q, 2)
        assert {term for term, _ in hits} == {"a", "d"}

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=25),
        vec=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
        top_n=st.integers(1, 30),
        excluded=st.sets(st.integers(0, 30), max_size=6),
    )
    def test_query_equals_a_full_sort(self, rows, vec, top_n, excluded):
        # Integer rows and query make every similarity exact, so duplicate
        # rows plant exact ties, broken by term.
        index = NeighborIndex.__new__(NeighborIndex)
        index.terms = np.array([f"t{i:02d}" for i in range(len(rows))][::-1])
        index.rows = np.array(rows, dtype=np.float64)
        index.norms = np.ones(len(rows))
        index.kept = None
        exclude = {f"t{i:02d}" for i in excluded}
        assert index.query(vec, top_n, exclude) == _full_sort_query(index, vec, top_n, exclude)

    @pytest.mark.parametrize("width", [np.float64, np.float32])
    def test_index_holds_no_normalized_copy(self, width):
        space = build_space(SMALL, "e", [["a", "b", "c"], ["b", "d"], ["solo"]])
        space.set_rows(space.terms, space.counts, space.context.astype(width),
                       space.order.astype(width))
        index = NeighborIndex(space)
        assert "solo" not in set(index.terms)
        assert index.rows.dtype == np.float64 and index.norms.dtype == width
        # A 64-bit space's matrix is shared, even with a row left out.
        assert np.shares_memory(index.rows, space.context) == (width == np.float64)

    def test_query_keeps_a_tie_whose_preselect_scores_differ_most(self):
        # Two rows with one unit vector, so one rescored similarity, found
        # by a search for the widest gap between their preselect scores
        # (3.2 * gamma * |q| under OpenBLAS on x86-64).  The tie goes to
        # t00 by term, although t00 has the lower preselect score.
        rows = np.array([[0.08646054491484068, 2.124102849308746],
                         [0.1321747990982927, 3.247179018453115]])
        q = np.array([0.05051174587784293, 1.2409376259236262])
        space = SemanticSpace(SpaceConfig(dim=2, window=3, order_span=1), "e")
        space.set_rows(np.array(["t00", "t01"]), np.ones(2, dtype=np.int64), rows, rows.copy())
        index = NeighborIndex(space)
        want = _per_pair_full_sort(index, q, 1, ())
        assert want[0][0] == "t00"
        assert index.query(q, 1) == want

    @settings(max_examples=300, deadline=None)
    @given(case=_query_cases())
    def test_query_many_equals_a_full_sort_of_per_pair_dots(self, case):
        index, queries, top_n, excludes, block, _ = case
        saved = space_module._QUERY_BLOCK
        space_module._QUERY_BLOCK = block
        try:
            got = index.query_many(queries, top_n, excludes)
        finally:
            space_module._QUERY_BLOCK = saved
        assert len(got) == len(queries)
        for hits, q, exclude in zip(got, queries, excludes):
            want = _per_pair_full_sort(index, q, top_n, exclude)
            assert [t for t, _ in hits] == [t for t, _ in want]
            assert _bits(hits) == _bits(want)
            single = index.query(q, top_n, exclude)
            assert [t for t, _ in single] == [t for t, _ in want]
            assert _bits(single) == _bits(want)

    @settings(max_examples=300, deadline=None)
    @given(case=_query_cases(), min_count=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           chunk=st.sampled_from([1, 2, 5, 1024]))
    def test_row_scores_rank_as_a_neighbor_query(self, case, min_count, seed, chunk):
        _, queries, top_n, excludes, _, space = case
        space.counts = np.random.default_rng(seed).integers(1, 4, len(space))
        index = NeighborIndex(space, min_count)
        for q, exclude in zip(queries, excludes):
            scores = RowScores(q, len(space))
            # Chunks of rows, last first, as pool threads may deliver them.
            for first in reversed(range(0, len(space), chunk)):
                scores(first, space.context[first:first + chunk])
            hits = scores.ranked(space.terms, space.counts, top_n, min_count, exclude)
            want = index.query(q, top_n, exclude)
            assert [t for t, _ in hits] == [t for t, _ in want]
            assert _bits(hits) == _bits(want)
            whole = RowScores(q, len(space)).score_all(space.context)
            again = whole.ranked(space.terms, space.counts, top_n, min_count, exclude)
            assert [t for t, _ in again] == [t for t, _ in hits]
            assert _bits(again) == _bits(hits)

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, np.nan]), max_size=30),
        n=st.integers(-3, 35),
    )
    def test_top_ranked_equals_a_full_sort(self, scores, n):
        scores = np.array(scores, dtype=np.float64)
        terms = np.array([f"t{i:02d}" for i in range(len(scores))], dtype=str)[::-1]
        full = [(str(terms[i]), float(scores[i])) for i in np.lexsort((terms, -scores))[:n]]
        ranked = top_ranked(scores, terms, n)
        assert [t for t, _ in ranked] == [t for t, _ in full]
        np.testing.assert_array_equal([s for _, s in ranked], [s for _, s in full])


_LETTERS = st.sampled_from(["a", "b", "é", "ß", "语", "😀"])


class TestArrays:
    def test_entries_are_views_of_the_rows(self):
        space = build_space(SMALL, "e", [["a", "b"], ["b", "c"]])
        entries = space.entries
        assert list(entries) == space.terms.tolist()
        assert entries["b"].count == space.count("b") == 2
        entries["b"].context[0] += 1.0
        entries["b"].order[1] = 7.0
        k = space.row("b")
        assert space.context[k, 0] == entries["b"].context[0]
        assert space.order[k, 1] == 7.0

    @settings(max_examples=300, deadline=None)
    @given(
        # A small alphabet with non-ASCII letters makes prefix pairs such as
        # a/ab common, and queries longer than every held term.
        terms=st.sets(st.text(_LETTERS, min_size=1, max_size=4), max_size=12),
        queries=st.lists(st.text(_LETTERS, max_size=6), max_size=12),
    )
    def test_rows_of_agrees_with_a_term_dict(self, terms, queries):
        terms = sorted(terms)
        space = SemanticSpace(SMALL, "e")
        rows = np.zeros((len(terms), SMALL.dim))
        space.set_rows(np.array(terms, dtype=str), np.arange(1, len(terms) + 1), rows, rows.copy())
        index = {term: k for k, term in enumerate(terms)}
        queries = queries + terms
        assert space.rows_of(queries).tolist() == [index.get(q, -1) for q in queries]
        for q in queries:
            assert space.row(q) == index.get(q)
            assert space.count(q) == index.get(q, -1) + 1
            assert (q in space) == (q in index)

    def test_ingest_ids_needs_sorted_terms(self):
        space = SemanticSpace(SMALL, "e")
        seeds = np.vstack([space.seed("b"), space.seed("a")])
        with pytest.raises(ValueError, match="sorted"):
            space.ingest_ids(["b", "a"], np.array([0, 1]), np.array([0, 0]), seeds)

    def test_ingest_into_a_loaded_vocabulary_grows_it_in_order(self):
        space = build_space(SMALL, "e", [["m", "c"]])
        ingest_sentences(space, [["a", "m"], ["z", "c"]])
        assert space.terms.tolist() == ["a", "c", "m", "z"]
        assert_spaces_close(space, build_space(SMALL, "e", [["m", "c"], ["a", "m"], ["z", "c"]]))


class TestCombine:
    def _shards(self, n_shards=3, seed=109):
        rng = random.Random(seed)
        vocab = [f"v{i:02d}" for i in range(18)]
        sentences = random_sentences(rng, vocab, 90, min_len=2, max_len=9)
        mono = build_space(SMALL, "all", sentences)
        shards = [
            build_space(SMALL, f"s{k}", sentences[k::n_shards]) for k in range(n_shards)
        ]
        return mono, shards

    def test_partition_sums_to_whole(self):
        mono, shards = self._shards()
        merged = combine(shards)
        assert merged.epoch_label == "s0+s1+s2"
        assert merged.ingested_tokens == mono.ingested_tokens
        assert merged.terms.tolist() == mono.terms.tolist()
        assert np.array_equal(merged.counts, mono.counts)
        merged.epoch_label = mono.epoch_label
        assert_spaces_close(merged, mono)

    def test_single_space_is_identity(self):
        mono, _ = self._shards()
        assert combine([mono]) == mono

    def test_argument_order_fixes_bits(self):
        _, shards = self._shards()
        once = combine(shards)
        again = combine(shards)
        assert once == again

    def test_disjoint_vocabularies(self):
        a = build_space(SMALL, "a", [["x1", "x2"]])
        b = build_space(SMALL, "b", [["y1", "y2"]])
        merged = combine([a, b])
        assert merged.terms.tolist() == ["x1", "x2", "y1", "y2"]
        assert np.array_equal(merged.term_vector("x1"), a.term_vector("x1"))

    def test_config_mismatch_rejected(self):
        a = build_space(SMALL, "a", [["x", "y"]])
        other = SpaceConfig(dim=64, window=7, order_span=2, global_seed=3, perm_seed=4)
        b = build_space(other, "b", [["x", "y"]])
        with pytest.raises(CombineMismatchError, match="labels 'a' vs 'b'"):
            combine([a, b])

    def test_empty_combine_rejected(self):
        with pytest.raises(ConfigError):
            combine([])
        with pytest.raises(ConfigError):
            combine(iter([]))


class TestNormFrequency:
    def test_series_tracks_counts(self):
        sentences_by_epoch = {
            "e1": [["probe", "ctxw"]] * 2,
            "e2": [["probe", "ctxw"]] * 4,
        }
        spaces = [build_space(SMALL, lab, s) for lab, s in sentences_by_epoch.items()]
        series = norm_frequency_series(spaces, "probe")
        assert [(lab, count) for lab, count, _ in series] == [("e1", 2), ("e2", 4)]
        # One fixed neighbor means the context is count * seed, so the
        # squared norm is exactly count**2.
        for _, count, sq in series:
            assert sq == pytest.approx(count**2, rel=1e-9)

    def test_absent_epochs_are_zero(self):
        spaces = [
            build_space(SMALL, "e1", [["probe", "ctxw"]]),
            build_space(SMALL, "e2", [["other", "ctxw"]]),
        ]
        series = norm_frequency_series(spaces, "probe")
        assert series[1] == ("e2", 0, 0.0)

    def test_duplicate_epoch_labels_rejected(self):
        space = build_space(SMALL, "e1", [["probe", "ctxw"]])
        with pytest.raises(ConfigError, match="duplicate epoch label 'e1'"):
            norm_frequency_series([space, space], "probe")


class TestPickling:
    def test_round_trip_preserves_equality(self):
        space = build_space(SMALL, "e", [["a", "b", "c"], ["b", "d"]])
        clone = pickle.loads(pickle.dumps(space))
        assert clone == space
