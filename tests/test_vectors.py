"""Seed vectors, permutations, and similarity primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftspace import ConfigError, UndefinedSimilarityError, cli
from driftspace.vectors import (
    HASH_ALGORITHM_ID,
    PermutationSet,
    apply_permutation,
    cosine,
    pcg64_words,
    seed_matrix,
    seed_vector,
    token_hash,
    token_hashes,
)

from helpers import successor_corpus, write_epoch_dir

tokens = st.text(min_size=1, max_size=12)


def fnv1a_reference(data: bytes) -> int:
    """Independent FNV-1a, written from the published constants."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class TestTokenHash:
    def test_matches_independent_fnv1a_oracle(self):
        for token in ["amazon", "a", "quince", "übermut", "x" * 40]:
            expected = fnv1a_reference(token.encode("utf-8"))
            assert token_hash(token, 0) == expected

    def test_seed_is_xor_folded(self):
        base = token_hash("amazon", 0)
        assert token_hash("amazon", 0xFF) == base ^ 0xFF

    def test_frozen_pin(self):
        assert token_hash("amazon", 1) == 0x8D81292B6F45586C

    def test_distinct_tokens_differ(self):
        assert token_hash("apple", 7) != token_hash("apples", 7)

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            token_hash("", 1)

    @given(token=tokens, seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_hash_is_a_pure_function(self, token, seed):
        assert token_hash(token, seed) == token_hash(token, seed)
        assert 0 <= token_hash(token, seed) < 2**64


class TestSeedVector:
    def test_unit_norm_and_symmetric_entries(self):
        v = seed_vector("amazon", 300, 1)
        assert v.dtype == np.float64
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
        assert set(np.round(np.abs(v) * math.sqrt(300), 12)) == {1.0}

    def test_frozen_sign_pin(self):
        v = seed_vector("amazon", 300, 1)
        signs = "".join("+" if x > 0 else "-" for x in v[:32])
        assert signs == "--+-----++---++-+--++++--+---+--"

    def test_deterministic_and_seed_sensitive(self):
        a = seed_vector("quince", 128, 9)
        assert np.array_equal(a, seed_vector("quince", 128, 9))
        assert not np.array_equal(a, seed_vector("quince", 128, 10))
        assert not np.array_equal(a, seed_vector("quinces", 128, 9))

    def test_odd_dimension_supported(self):
        v = seed_vector("odd", 301, 1)
        assert v.shape == (301,)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_dimension_floor(self):
        with pytest.raises(ConfigError):
            seed_vector("x", 1, 1)

    def test_quasi_orthogonal_sample(self):
        vecs = np.vstack([seed_vector(f"tok{i}", 300, 3) for i in range(200)])
        sims = vecs @ vecs.T
        off = np.abs(sims[np.triu_indices(200, k=1)])
        assert 0.03 < off.mean() < 0.07
        assert off.max() < 0.30

    @given(token=tokens, dim=st.integers(min_value=2, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_norm_one_everywhere(self, token, dim):
        assert abs(np.linalg.norm(seed_vector(token, dim, 5)) - 1.0) < 1e-9

    def test_hash_algorithm_identifier_is_pinned(self):
        assert HASH_ALGORITHM_ID == 1


def oracle_words(h: int, count: int, start: int = 0) -> np.ndarray:
    """The raw stream as numpy's own bit generator produces it."""
    return np.random.PCG64(np.random.SeedSequence(h)).random_raw(start + count)[start:]


def oracle_seed(token: str, dim: int, global_seed: int) -> np.ndarray:
    words = oracle_words(token_hash(token, global_seed), (dim + 63) // 64)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")[:dim]
    return np.where(bits == 1, 1.0, -1.0) / math.sqrt(dim)


# Seeds that sit on SeedSequence's word boundaries: below 2**32 it reads
# one 32-bit entropy word, from 2**32 on two.
EDGE_HASHES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

# Either side of 64 UTF-8 bytes, non-ASCII included.
long_or_short_tokens = st.text(min_size=1, max_size=12) | st.text(min_size=40, max_size=90)


class TestSeedKernel:
    @given(terms=st.lists(long_or_short_tokens, min_size=1, max_size=40),
           dim=st.integers(min_value=2, max_value=200),
           seed=st.sampled_from([0, 1, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_numpy_generator(self, terms, dim, seed):
        # Up to 40 terms, so both the integer and the array lanes run.
        matrix = seed_matrix(terms, dim, seed)
        assert matrix.shape == (len(terms), dim)
        for row, term in zip(matrix, terms):
            assert np.array_equal(row, oracle_seed(term, dim, seed))

    def test_long_and_non_ascii_tokens_against_numpy(self):
        terms = ["übermut", "日本語", "a" * 65, "ß" * 40, "x"] * 4
        assert max(len(t.encode("utf-8")) for t in terms) > 64
        for dim in (63, 64, 65, 301):
            for seed in (0, 2**64 - 1):
                for row, term in zip(seed_matrix(terms, dim, seed), terms):
                    assert np.array_equal(row, oracle_seed(term, dim, seed))

    def test_raw_words_at_entropy_boundaries(self):
        # All at once on array lanes, then one at a time on integer lanes.
        words = pcg64_words(np.array(EDGE_HASHES * 4, dtype=np.uint64), 7, start=3)
        for h, row in zip(EDGE_HASHES * 4, words):
            assert np.array_equal(row, oracle_words(h, 7, start=3)), hex(h)
        for h in EDGE_HASHES:
            assert np.array_equal(pcg64_words([h], 2)[0], oracle_words(h, 2)), hex(h)

    def test_golden_words_of_amazon(self):
        words = pcg64_words([token_hash("amazon", 1)], 5)[0]
        assert [hex(w) for w in words.tolist()] == [
            "0x591a755d22796304", "0xd160ea0448120588", "0x36624f8d9c1bc476",
            "0xb87667c39dd67f38", "0x6b41724a9fd46373",
        ]

    def test_empty_and_duplicate_terms(self):
        assert seed_matrix([], 300, 1).shape == (0, 300)
        rows = seed_matrix(["amazon", "amazon"] * 10, 300, 1)
        assert np.array_equal(rows[0], rows[-1])
        assert np.array_equal(rows[0], seed_vector("amazon", 300, 1))

    def test_batched_hashes_equal_one_at_a_time(self):
        terms = [f"tok{i}" for i in range(40)] + ["ünï"]
        expected = [token_hash(t, 2**64 - 1) for t in terms]
        assert token_hashes(terms, 2**64 - 1).tolist() == expected
        with pytest.raises(ValueError):
            token_hashes(terms + [""], 1)

    def test_build_and_predict_use_no_numpy_generator(self, tmp_path, monkeypatch):
        root = tmp_path / "corpus"
        sentences = successor_corpus(n_pairs=5, filler_pool=60)[0]
        for k in range(2):
            write_epoch_dir(root, f"e{k}", sentences[k::2], n_files=2)

        def run(tag):
            out = tmp_path / tag
            assert cli.main(["build", "--corpus", str(root), "--out", str(out / "spaces"),
                             "--min-count", "1", "--top-k", "0"]) == cli.EXIT_OK
            assert cli.main(["predict", "lead00", "1", "--space", str(out / "spaces" / "e0.space"),
                             "--out", str(out / "run"), "--format", "tsv"]) == cli.EXIT_OK
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                    if p.is_file() and p.name != "config.txt"}

        expected = run("free")

        def refuse(*args, **kwargs):
            raise AssertionError("numpy's generator was used")

        monkeypatch.setattr(np.random, "PCG64", refuse)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert run("patched") == expected


class TestPermutations:
    def test_base_is_a_derangement(self):
        for dim in (8, 33, 300):
            base = PermutationSet(dim, 5, span=2).base
            assert sorted(base) == list(range(dim))
            assert not np.any(base == np.arange(dim))

    def test_frozen_base_pin(self):
        assert PermutationSet(8, 5, span=2).base.tolist() == [1, 5, 6, 2, 7, 0, 4, 3]

    def test_offset_zero_is_identity(self):
        perms = PermutationSet(64, 5, span=2)
        assert np.array_equal(perms.offset_map(0), np.arange(64))

    def test_group_laws_exact(self):
        perms = PermutationSet(300, 7, span=2)
        base, inv = perms.base, perms.inverse
        assert np.array_equal(inv[base], np.arange(300))
        assert np.array_equal(perms.offset_map(2), base[perms.offset_map(1)])
        assert np.array_equal(perms.offset_map(-2), inv[perms.offset_map(-1)])
        rng = np.random.default_rng(0)
        v = rng.normal(size=300)
        round_trip = apply_permutation(inv, apply_permutation(base, v))
        assert np.array_equal(round_trip, v)

    def test_offset_outside_span_rejected(self):
        perms = PermutationSet(16, 5, span=2)
        for bad in (3, -3):
            with pytest.raises(ConfigError):
                perms.offset_map(bad)

    def test_wider_span_extends_the_same_base(self):
        narrow = PermutationSet(64, 5, span=1)
        wide = PermutationSet(64, 5, span=3)
        assert np.array_equal(narrow.base, wide.base)
        assert np.array_equal(wide.offset_map(3), wide.base[wide.base[wide.base]])

    def test_seed_sensitivity(self):
        assert not np.array_equal(
            PermutationSet(300, 5, span=2).base,
            PermutationSet(300, 6, span=2).base,
        )

    def test_permutation_set_validates(self):
        with pytest.raises(ConfigError):
            PermutationSet(1, 5, span=2)
        with pytest.raises(ConfigError):
            PermutationSet(16, 5, span=0)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError):
                PermutationSet(16, seed, span=2)


class TestApplyPermutation:
    def test_components_preserved_bitwise(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=300)
        out = apply_permutation(PermutationSet(300, 5).base, v)
        assert np.array_equal(np.sort(out), np.sort(v))
        assert out is not v

    def test_scatter_semantics(self):
        perm = np.array([2, 0, 1])
        v = np.array([10.0, 20.0, 30.0])
        assert apply_permutation(perm, v).tolist() == [20.0, 30.0, 10.0]

    def test_batched_rows(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(5, 64))
        perm = PermutationSet(64, 5).base
        out = apply_permutation(perm, rows)
        for i in range(5):
            assert np.array_equal(out[i], apply_permutation(perm, rows[i]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            apply_permutation(np.array([1, 0]), np.zeros(3))

    def test_permuted_seed_decorrelates(self):
        perms = PermutationSet(300, 5)
        worst = max(
            abs(cosine(v, apply_permutation(perms.base, v)))
            for v in (seed_vector(f"t{i}", 300, 1) for i in range(200))
        )
        assert worst < 0.2


class TestCosine:
    def test_aligned_and_opposed(self):
        v = seed_vector("anchorage", 300, 1)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)
        assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_axes(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == 0.0

    def test_scale_invariance(self):
        u = seed_vector("hull", 50, 1)
        w = seed_vector("mast", 50, 1)
        assert cosine(u, w) == pytest.approx(cosine(4.0 * u, 0.25 * w), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(UndefinedSimilarityError):
            cosine(np.zeros(8), np.ones(8))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            cosine(np.ones(4), np.ones(5))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
           st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
    @settings(max_examples=80)
    def test_symmetric_and_bounded(self, xs, ys):
        u, w = np.array(xs), np.array(ys)
        if np.linalg.norm(u) < 1e-6 or np.linalg.norm(w) < 1e-6:
            return
        s = cosine(u, w)
        assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9
        assert s == pytest.approx(cosine(w, u), abs=1e-12)
