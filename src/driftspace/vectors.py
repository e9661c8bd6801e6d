"""Deterministic random-indexing primitives.

Every token owns a fixed quasi-orthogonal seed vector derived purely from
(token, dim, global_seed), and window offsets are tagged by powers of one
random derangement.  Both constructions are pinned to fixed algorithms
(FNV-1a hashing, the raw PCG64 output stream) because only the seeds are
persisted in space files: two machines, or two numpy versions, must
regenerate bit-identical vectors for their spaces to stay combinable.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, UndefinedSimilarityError

# Recorded in the space-file header so a reader can refuse files produced
# by a different seed-derivation scheme.
HASH_ALGORITHM_ID = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def token_hash(token: str, global_seed: int) -> int:
    """64-bit FNV-1a over the UTF-8 bytes of ``token``, XOR-folded with
    ``global_seed``.

    Raises ValueError for an empty token: nothing upstream should ever ask
    for the hash of an empty string, so this is treated as a caller bug.
    """
    if not token:
        raise ValueError("token must be a non-empty string")
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h ^ (global_seed & _U64)


def _raw_stream(seed: int) -> np.random.PCG64:
    return np.random.PCG64(np.random.SeedSequence(seed))


def seed_vector(token: str, dim: int, global_seed: int) -> np.ndarray:
    """Unit seed vector for ``token``: each entry is +-1/sqrt(dim).

    Sign i is bit i (little-endian within each 64-bit word) of the raw
    PCG64 output stream keyed by ``token_hash``.  The raw stream is fixed
    by the PCG64 algorithm itself, so the same inputs give the same vector
    on any platform or numpy version.
    """
    if dim < 2:
        raise ConfigError(f"dimension must be >= 2, got {dim}")
    words = _raw_stream(token_hash(token, global_seed)).random_raw((dim + 63) // 64)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")[:dim]
    signs = np.where(bits == 1, 1.0, -1.0)
    return signs / math.sqrt(dim)


def _deranged_permutation(dim: int, bit_gen) -> np.ndarray:
    # Fisher-Yates over the raw 64-bit stream; the bounded draw is
    # word mod (i+1), whose bias is < 2**-50 for any realistic dim.
    # Resamples (continuing the same stream) until no index is fixed.
    identity = np.arange(dim, dtype=np.int64)
    while True:
        perm = identity.copy()
        words = bit_gen.random_raw(dim - 1)
        for i in range(dim - 1, 0, -1):
            j = int(words[dim - 1 - i]) % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        if not np.any(perm == identity):
            return perm


class PermutationSet:
    """A random derangement of {0..dim-1} plus its integer powers.

    ``offset_map(delta)`` returns the index map for window offset delta in
    [-span, +span]; offset 0 is the identity, negative offsets are powers
    of the inverse.  The base map is a derangement so that a vector and its
    offset-tagged copy stay quasi-orthogonal.
    """

    def __init__(self, dim: int, perm_seed: int, span: int = 2):
        if dim < 2:
            raise ConfigError(f"dimension must be >= 2, got {dim}")
        if span < 1:
            raise ConfigError(f"permutation span must be >= 1, got {span}")
        self.dim = dim
        self.perm_seed = perm_seed
        self.span = span
        base = _deranged_permutation(dim, _raw_stream(perm_seed))
        inverse = np.empty(dim, dtype=np.int64)
        inverse[base] = np.arange(dim, dtype=np.int64)
        maps = {0: np.arange(dim, dtype=np.int64), 1: base, -1: inverse}
        for k in range(2, span + 1):
            maps[k] = base[maps[k - 1]]
            maps[-k] = inverse[maps[-(k - 1)]]
        self._maps = maps

    @property
    def base(self) -> np.ndarray:
        return self._maps[1]

    @property
    def inverse(self) -> np.ndarray:
        return self._maps[-1]

    def offset_map(self, delta: int) -> np.ndarray:
        try:
            return self._maps[delta]
        except KeyError:
            raise ConfigError(
                f"offset {delta} outside permutation span +-{self.span}"
            ) from None


def apply_permutation(perm_map: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Relabel vector indices: out[perm_map[i]] = v[i].

    Accepts a single vector or a batch of row vectors; the multiset of
    components is untouched, so every order-insensitive quantity (norm,
    component histogram) is preserved exactly.
    """
    v = np.asarray(v)
    if v.shape[-1] != len(perm_map):
        raise ConfigError(
            f"vector of dimension {v.shape[-1]} does not match permutation "
            f"of dimension {len(perm_map)}"
        )
    out = np.empty_like(v)
    out[..., perm_map] = v
    return out


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; raises UndefinedSimilarityError on a zero vector."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ConfigError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise UndefinedSimilarityError("cosine with a zero vector is undefined")
    return float(np.dot(u, v) / (nu * nv))
