"""Deterministic random-indexing primitives.

Every token owns a fixed quasi-orthogonal seed vector derived purely from
(token, dim, global_seed), and window offsets are tagged by powers of one
random derangement.  Only the seeds are persisted in space files, so two
machines must regenerate bit-identical vectors for their spaces to stay
combinable.  This module therefore implements every step itself: 64-bit
FNV-1a over the UTF-8 bytes of each token, then the entropy mixing of
numpy's ``SeedSequence`` (pool of four 32-bit words,
``generate_state(4, uint64)``), then PCG64 seeding and its XSL-RR output,
with the 128-bit generator state held as two 64-bit limbs.  The words
equal the ``random_raw`` output of numpy's PCG64 bit generator seeded with
``SeedSequence(h)``, the scheme space files were first written with, but
no numpy version can change them.

Each step is written once, on "lanes" that are either Python integers (one
seed) or uint64 arrays (one element per seed), with every result masked to
its width so that both wrap alike.  Many seeds run as arrays in a few
passes; a handful run on integers, where numpy's cost per call would
dominate.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import ConfigError, UndefinedSimilarityError

# Recorded in the space-file header so a reader can refuse files produced
# by a different seed-derivation scheme.
HASH_ALGORITHM_ID = 1

_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF
_U128 = (1 << 128) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Where integer lanes beat array lanes.  Hashing costs about 2 us a token
# on integers, against 25 us a call plus 2.5 us a byte position on arrays.
# Generating costs about 2.5 us a word on integers, with a seed's mixing
# worth 10 words, against 250 us a call on arrays.
_FEW_TOKENS = 16
_FEW_WORDS = 100


def _fnv_step(h, byte):
    return (h ^ byte) * _FNV_PRIME & _U64


def _fnv1a(tokens) -> np.ndarray:
    """64-bit FNV-1a of each token's UTF-8 bytes, as a uint64 array.

    With many tokens, they are ranked longest first and their bytes laid
    out position by position (byte 0 of every token, then byte 1 of every
    token that has one, ...), so the tokens still being hashed at byte j
    are a prefix of the ranking and their bytes one contiguous run.
    """
    encoded = [token.encode("utf-8") for token in tokens]
    sizes = [len(data) for data in encoded]
    if 0 in sizes:
        raise ValueError("token must be a non-empty string")
    if len(encoded) < _FEW_TOKENS:
        return np.array([functools.reduce(_fnv_step, data, _FNV_OFFSET) for data in encoded],
                        dtype=np.uint64)
    lengths = np.array(sizes, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    flat = np.frombuffer(b"".join([encoded[k] for k in order.tolist()]), dtype=np.uint8)
    rank = np.repeat(np.arange(len(sizes)), lengths)
    position = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    active = np.bincount(position)
    runs = np.empty(len(flat), dtype=np.uint64)
    runs[(np.cumsum(active) - active)[position] + rank] = flat
    h = np.full(len(sizes), _FNV_OFFSET, dtype=np.uint64)
    start = 0
    for n in active.tolist():
        h[:n] = _fnv_step(h[:n], runs[start:start + n])
        start += n
    out = np.empty_like(h)
    out[order] = h
    return out


def token_hashes(tokens, global_seed: int) -> np.ndarray:
    """``token_hash`` of every token, as a uint64 array."""
    return _fnv1a(tokens) ^ np.uint64(global_seed & _U64)


def token_hash(token: str, global_seed: int) -> int:
    """64-bit FNV-1a over the UTF-8 bytes of ``token``, XOR-folded with
    ``global_seed``.

    Raises ValueError for an empty token: nothing upstream should ever ask
    for the hash of an empty string, so this is treated as a caller bug.
    """
    return int(token_hashes([token], global_seed)[0])


def _hash_constants(init: int, mult: int, steps: int) -> list:
    """(xor, multiply) constants of ``steps`` successive SeedSequence hash
    steps: they evolve alike whatever is hashed."""
    pairs = []
    for _ in range(steps):
        pairs.append((init, init * mult & _U32))
        init = pairs[-1][1]
    return pairs


# Mixing hashes each pool word once, then once per ordered pair of words;
# generate_state(4, uint64) hashes the pool cyclically into 8 words.
_MIX_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715


def _hashmix(value, xor: int, mult: int):
    value = (value ^ xor) * mult & _U32
    return value ^ value >> 16


def _seed_state(seed) -> list:
    """``SeedSequence(seed).generate_state(4, uint64)``: initstate (high,
    low) and initseq (high, low) of PCG64.

    SeedSequence reads an integer as its little-endian 32-bit words (one
    word below 2**32) and pads them with zeros to the pool size, so a
    missing high word and a zero high word mix alike.
    """
    hashes = iter(_MIX_HASHES)
    pool = [_hashmix(word, *next(hashes)) for word in (seed & _U32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                mixed = (pool[dst] * _MIX_L - _hashmix(pool[src], *next(hashes)) * _MIX_R) & _U32
                pool[dst] = mixed ^ mixed >> 16
    words = [_hashmix(pool[k % 4], *pair) for k, pair in enumerate(_STATE_HASHES)]
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


def _pcg_start(seed) -> tuple:
    """Limbs (x_hi, x_lo, inc_hi, inc_lo) of PCG64 seeded from ``seed``:
    inc = 2·initseq + 1 and x = initstate + inc."""
    st_hi, st_lo, seq_hi, seq_lo = _seed_state(seed)
    inc_hi = (seq_hi << 1 | seq_lo >> 63) & _U64
    inc_lo = (seq_lo << 1 | 1) & _U64
    x_lo = (st_lo + inc_lo) & _U64
    return (st_hi + inc_hi + (x_lo < st_lo)) & _U64, x_lo, inc_hi, inc_lo


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    """(high, low) limbs of a·b mod 2**128; the high limb of a_lo·b_lo
    comes from its 32-bit partial products."""
    a0, a1 = a_lo & _U32, a_lo >> 32
    b0, b1 = b_lo & _U32, b_lo >> 32
    t = a0 * b0
    u = a1 * b0 + (t >> 32)
    v = a0 * b1 + (u & _U32)
    hi = a1 * b1 + (u >> 32) + (v >> 32) + a_lo * b_hi + a_hi * b_lo
    return hi & _U64, a_lo * b_lo & _U64


def _pcg_word(x_hi, x_lo, inc_hi, inc_lo, pow_hi, pow_lo, sum_hi, sum_lo):
    """One output word, from the state x·pow + inc·sum (see ``_jump_table``)."""
    p_hi, p_lo = _mul128(x_hi, x_lo, pow_hi, pow_lo)
    q_hi, q_lo = _mul128(inc_hi, inc_lo, sum_hi, sum_lo)
    lo = (p_lo + q_lo) & _U64
    hi = (p_hi + q_hi + (lo < p_lo)) & _U64
    # XSL-RR: the xor of the halves, rotated right by the top six bits.
    xored, rot = hi ^ lo, hi >> 58
    return (xored >> rot | xored << (-rot & 63)) & _U64


@functools.lru_cache(maxsize=8)
def _jump_table(stop: int) -> np.ndarray:
    """Rows (pow_hi, pow_lo, sum_hi, sum_lo): limbs of M**(j+2) and of
    1 + M + ... + M**(j+1) mod 2**128 for the output words j < ``stop`` of
    a PCG64 stream with multiplier M.

    Seeding leaves the state at x·M + inc, and each output first steps
    the state, so word j is read from M**(j+2)·x + (1 + ... + M**(j+1))·inc.
    """
    rows = []
    power, total = _PCG_MULT * _PCG_MULT & _U128, 1 + _PCG_MULT
    for _ in range(stop):
        rows.append((power >> 64, power & _U64, total >> 64, total & _U64))
        total = (total + power) & _U128
        power = power * _PCG_MULT & _U128
    table = np.array(rows, dtype=np.uint64).reshape(stop, 4).T
    table.flags.writeable = False
    return table


def pcg64_words(seeds, count: int, start: int = 0) -> np.ndarray:
    """Raw output words ``start`` .. ``start + count - 1`` of
    ``PCG64(SeedSequence(seed))`` for every seed in ``seeds`` (unsigned
    64-bit integers), as a ``(len(seeds), count)`` uint64 array."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    table = _jump_table(start + count)[:, start:]
    if len(seeds) * (count + 10) < _FEW_WORDS:
        steps = list(zip(*table.tolist()))
        rows = [[_pcg_word(*lanes, *step) for step in steps]
                for lanes in map(_pcg_start, seeds.tolist())]
        return np.array(rows, dtype=np.uint64).reshape(len(seeds), count)
    lanes = [lane[:, None] for lane in _pcg_start(seeds)]
    return _pcg_word(*lanes, *table)


def seed_matrix(tokens, dim: int, global_seed: int) -> np.ndarray:
    """Row k is the unit seed vector of ``tokens[k]``: each entry is
    +-1/sqrt(dim).

    Sign i is bit i (little-endian within each 64-bit word) of the raw
    PCG64 stream keyed by ``token_hash``; a set bit is +.
    """
    if dim < 2:
        raise ConfigError(f"dimension must be >= 2, got {dim}")
    words = pcg64_words(token_hashes(tokens, global_seed), (dim + 63) // 64)
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         axis=1, count=dim, bitorder="little")
    # Signs go straight into the output, so the only V x dim temporary is
    # the bytes of ``bits``: 2s·bit - s is exactly +-s.
    scale = 1.0 / math.sqrt(dim)
    out = np.multiply(bits, 2.0 * scale, dtype=np.float64)
    out -= scale
    return out


def seed_vector(token: str, dim: int, global_seed: int) -> np.ndarray:
    """Unit seed vector for ``token``: row 0 of ``seed_matrix([token], ...)``."""
    return seed_matrix([token], dim, global_seed)[0]


def _deranged_permutation(dim: int, perm_seed: int) -> np.ndarray:
    # Fisher-Yates over the raw 64-bit stream; the bounded draw is
    # word mod (i+1), whose bias is < 2**-50 for any realistic dim.
    # Resamples until no index is fixed, continuing the same stream:
    # attempt k reads words k·(dim-1) .. (k+1)·(dim-1) - 1.
    bounds = np.arange(dim, 1, -1, dtype=np.uint64)
    for attempt in itertools.count():
        draws = pcg64_words([perm_seed], dim - 1, attempt * (dim - 1))[0] % bounds
        perm = list(range(dim))
        for i, j in zip(range(dim - 1, 0, -1), draws.tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        perm = np.array(perm, dtype=np.int64)
        if not np.any(perm == np.arange(dim)):
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
        if not 0 <= perm_seed <= _U64:
            raise ConfigError("perm_seed must be an unsigned 64-bit integer")
        self.dim = dim
        self.perm_seed = perm_seed
        self.span = span
        base = _deranged_permutation(dim, perm_seed)
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
