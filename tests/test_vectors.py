"""Seed vectors, permutations, and similarity primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftspace import ConfigError, UndefinedSimilarityError
from driftspace.vectors import (
    HASH_ALGORITHM_ID,
    PermutationSet,
    apply_permutation,
    cosine,
    seed_vector,
    token_hash,
)

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
