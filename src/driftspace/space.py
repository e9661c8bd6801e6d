"""Semantic-space accumulation and queries.

A SemanticSpace holds, for each retained term, three things accumulated
over every sliding window centered on that term: an unnormalized context
vector (sum of neighbor seed vectors), an unnormalized order vector (sum of
offset-permuted seed vectors, including the center's own seed at offset 0),
and a center count, as rows of term-indexed matrices.  Accumulation is
linear, so spaces built on parts of a corpus under the same config combine
by plain summation into the space of the whole corpus, up to float
summation order.  ``combine``, ``persistence.combine_files`` and an ingest
into a space that holds rows are one such sum, ``_summed``.

Tokens arrive as ids into sorted terms (``ingest_ids``) with the seed
matrix W·S, which alone carries the term weights (``inverse_log_weights``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CombineMismatchError,
    ConfigError,
    TermNotFoundError,
    UndefinedSimilarityError,
)
from . import vectors
from .vectors import PermutationSet, cosine, seed_vector

WEIGHTINGS = ("uniform", "inverse_log_frequency")

_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class SpaceConfig:
    """Everything that fixes the seed universe and window geometry.

    Spaces are combinable only when their configs are identical; the whole
    config is persisted in the space-file header.
    """

    dim: int = 300
    window: int = 11
    order_span: int = 2
    global_seed: int = 1
    perm_seed: int = 2
    weighting: str = "uniform"
    compaction: bool = True

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.window < 3 or self.window % 2 == 0:
            raise ConfigError(f"window must be odd and >= 3, got {self.window}")
        half = (self.window - 1) // 2
        if not 1 <= self.order_span <= half:
            raise ConfigError(
                f"order_span must lie in [1, (window-1)/2] = [1, {half}], "
                f"got {self.order_span}"
            )
        for name in ("global_seed", "perm_seed"):
            seed = getattr(self, name)
            if not 0 <= seed <= _U64_MAX:
                raise ConfigError(f"{name} must be an unsigned 64-bit integer")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(
                f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}"
            )

    @property
    def half_window(self) -> int:
        return (self.window - 1) // 2


class TermEntry(NamedTuple):
    """One term's row of a space (see ``SemanticSpace.entries``)."""

    context: np.ndarray
    order: np.ndarray
    count: int


def inverse_log_weights(counts) -> np.ndarray:
    """The coefficient 1/ln(1 + count) of each of ``counts`` (all >= 1):
    frequent terms shrink slowly.  ``math.log1p`` fixes the bits, which
    ``np.log1p`` would change in the last place for some counts."""
    return np.array([1.0 / math.log1p(count) for count in np.asarray(counts).tolist()])


def seed_matrix(terms, config: SpaceConfig, weights=None) -> np.ndarray:
    """Row k is the seed vector of ``terms[k]``, scaled by ``weights[k]``
    when a weight array is given: the matrix W·S a build multiplies counts
    by."""
    seeds = vectors.seed_matrix(terms, config.dim, config.global_seed)
    if weights is not None:
        seeds *= np.asarray(weights, dtype=np.float64)[:, None]
    return seeds


# Center rows of the pair matrix handled per sparse product; bounds the
# product's temporary to _ROW_CHUNK * (2 + 2 * span) * dim floats.
_ROW_CHUNK = 256

# Tokens whose pairs are counted at once.  Counting a block holds a few
# index arrays with 2 * (half + span) entries per token, so a long epoch
# is counted block by block; the blocks' integer counts add exactly.
_BLOCK_TOKENS = 1 << 19


def _sentence_blocks(sentence_ids, size: int):
    """(start, stop) positions of consecutive runs of whole sentences,
    each at least ``size`` tokens long unless it is the last."""
    n = len(sentence_ids)
    starts = np.flatnonzero(sentence_ids[1:] != sentence_ids[:-1]) + 1
    start = 0
    while start < n:
        k = np.searchsorted(starts, start + size)
        stop = int(starts[k]) if k < len(starts) else n
        yield start, stop
        start = stop


def _block_pairs(ids, sentence_ids, shape, half: int, span: int):
    """Pair counts of one run of whole sentences (see ``_pair_matrix``)."""
    from scipy import sparse

    n_blocks = 2 + 2 * span
    valid = ids >= 0
    rows, cols = [], []
    for d in range(1, half + 1):
        keep = valid[:-d] & valid[d:] & (sentence_ids[:-d] == sentence_ids[d:])
        left, right = ids[:-d][keep], ids[d:][keep]
        rows += [left * n_blocks, right * n_blocks]
        cols += [right, left]
        if d <= span:
            rows += [left * n_blocks + (1 + span + d), right * n_blocks + (2 + span - d)]
            cols += [right, left]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    data = np.ones(len(rows), dtype=np.int32)
    return sparse.csr_matrix((data, (rows, cols)), shape=shape)


def _pair_matrix(ids, sentence_ids, counts, half: int, span: int):
    """Integer pair counts as CSR with 2 + 2*span rows per center term:
    row 0 counts its neighbors within ``half`` (the context), row 1 holds
    its own count, and rows 2.. count its neighbors at offsets -span..-1,
    then 1..span (the order terms)."""
    from scipy import sparse  # costs ~0.2 s; only building needs it

    n_blocks = 2 + 2 * span
    shape = (len(counts) * n_blocks, len(counts))
    present = np.flatnonzero(counts)
    pairs = sparse.csr_matrix(
        (counts[present].astype(np.int64), (present * n_blocks + 1, present)), shape=shape
    )
    index = np.int32 if shape[0] < 2**31 else np.int64
    ids = ids.astype(index, copy=False)
    for start, stop in _sentence_blocks(sentence_ids, _BLOCK_TOKENS):
        pairs = pairs + _block_pairs(ids[start:stop], sentence_ids[start:stop],
                                     shape, half, span)
    return pairs


def accumulate_windows(ids, sentence_ids, seeds, perms: PermutationSet,
                       half: int, span: int):
    """Counts, context and order vectors of a token stream of term ids.

    ``ids`` index the rows of ``seeds`` (the weighted seed matrix W·S);
    -1 is a hole, and a pair touching a hole is dropped.  Two positions
    pair only inside one sentence, that is under equal ``sentence_ids``.
    With C_d the integer matrix counting (center, neighbor) pairs at
    offset d, the result is

        context = (sum over 0<|d|<=half of C_d) @ W·S
        order   = diag(count) @ W·S + sum over 0<|d|<=span of scatter_d(C_d @ W·S)

    where scatter_d relabels columns as ``apply_permutation`` does.  All
    of these counts sit in one sparse matrix (see ``_pair_matrix``), so
    one product gives every vector.  It is canonical CSR with exact
    integer entries, so the result depends on the multiset of pairs only,
    not on their order.
    """
    ids = np.asarray(ids)
    n_terms, dim = seeds.shape
    counts = np.bincount(ids[ids >= 0], minlength=n_terms)
    pairs = _pair_matrix(ids, np.asarray(sentence_ids), counts, half, span)
    n_blocks = 2 + 2 * span
    offsets = [d for d in range(-span, span + 1) if d != 0]
    context = np.empty((n_terms, dim))
    order = np.empty((n_terms, dim))
    for first in range(0, n_terms, _ROW_CHUNK):
        last = min(first + _ROW_CHUNK, n_terms)
        chunk = pairs if last - first == n_terms else pairs[first * n_blocks:last * n_blocks]
        product = (chunk @ seeds).reshape(last - first, n_blocks, dim)
        context[first:last] = product[:, 0]
        # scatter_d(M) == M[:, offset_map(-d)]
        acc = order[first:last]
        acc[:] = product[:, 1]
        for k, d in enumerate(offsets):
            acc += product[:, 2 + k][:, perms.offset_map(-d)]
    return counts, context, order


class SemanticSpace:
    """Mutable accumulator for one epoch (or a combination of epochs).

    The space is term-indexed: ``terms`` is a sorted array of unique terms,
    and row k of ``counts`` (int64), ``context`` and ``order`` (V x dim,
    in the space's float width) belongs to ``terms[k]``.

    A space keeps no term weights: they are in the seeds ``ingest_ids`` takes.
    """

    def __init__(self, config: SpaceConfig, epoch_label: str, float_dtype=np.float64):
        self.config = config
        self.epoch_label = epoch_label
        self.ingested_tokens = 0
        self._perms = None
        rows = np.zeros((0, config.dim), dtype=float_dtype)
        self.set_rows(np.array([], dtype=str), np.zeros(0, dtype=np.int64), rows, rows.copy())

    def set_rows(self, terms, counts, context, order) -> None:
        """Replace every row.  ``terms`` must be sorted and unique; the
        arrays are kept as given, and their float width becomes the
        space's."""
        self.terms = terms
        self.counts = counts
        self.context = context
        self.order = order
        self._rows = None
        self._indexes = {}

    _ROWS = ("terms", "counts", "context", "order")

    @property
    def float_dtype(self) -> np.dtype:
        return self.context.dtype

    @property
    def entries(self) -> dict:
        """``{term: TermEntry}`` built on each access, whose vectors are
        writable views of the rows.  Access drops the cached neighbor
        indexes, which edits made through the views would leave stale."""
        self._indexes = {}
        return {
            term: TermEntry(self.context[k], self.order[k], count)
            for k, (term, count) in enumerate(zip(self.terms.tolist(), self.counts.tolist()))
        }

    @property
    def perms(self) -> PermutationSet:
        if self._perms is None:
            self._perms = PermutationSet(
                self.config.dim, self.config.perm_seed, self.config.order_span
            )
        return self._perms

    def seed(self, token: str) -> np.ndarray:
        return seed_vector(token, self.config.dim, self.config.global_seed)

    def row(self, term: str):
        """Index of ``term`` in ``terms`` (its row in ``counts``, ``context``
        and ``order``), or None if the space does not hold it."""
        if self._rows is None:
            self._rows = {t: k for k, t in enumerate(self.terms.tolist())}
        return self._rows.get(term)

    def __contains__(self, term: str) -> bool:
        return self.row(term) is not None

    def __len__(self) -> int:
        return len(self.terms)

    def count(self, term: str) -> int:
        k = self.row(term)
        return 0 if k is None else int(self.counts[k])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemanticSpace):
            return NotImplemented
        return (
            (self.config, self.epoch_label, self.ingested_tokens)
            == (other.config, other.epoch_label, other.ingested_tokens)
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in self._ROWS)
        )

    __hash__ = None

    def ingest_sentence(self, tokens) -> None:
        """``ingest_ids`` for one sentence of token strings, ``None`` marking
        a hole (a dropped token that keeps its position), under uniform
        weighting.  Other weights come from corpus counts, which a sentence
        does not know: ConfigError."""
        if self.config.weighting != "uniform":
            raise ConfigError(
                f"weighting {self.config.weighting!r} needs weighted seeds: use ingest_ids"
            )
        if "" in tokens:
            raise ValueError("empty token reached ingestion")
        terms = sorted({tok for tok in tokens if tok is not None})
        if not terms:
            return
        index = {term: k for k, term in enumerate(terms)}
        ids = np.array([-1 if tok is None else index[tok] for tok in tokens], dtype=np.int64)
        self.ingest_ids(terms, ids, np.zeros(len(ids), dtype=np.int64),
                        seed_matrix(terms, self.config))

    def ingest_ids(self, terms, ids, sentence_ids, seeds) -> None:
        """Accumulate a token stream given as indices into ``terms``, which
        must be sorted and unique.

        ``ids[i] == -1`` is a hole; a window never spans two positions
        with different ``sentence_ids``.  ``seeds[k]`` is the seed of
        ``terms[k]`` already scaled by its weight.  Vectors are summed in
        64-bit, rounded once to the space's width.
        """
        terms = np.array(terms, dtype=str)
        if np.any(terms[1:] <= terms[:-1]):
            raise ValueError("ingest_ids needs sorted, unique terms")
        counts, context, order = accumulate_windows(
            ids, sentence_ids, seeds, self.perms,
            self.config.half_window, self.config.order_span,
        )
        present = np.flatnonzero(counts)
        if len(present) < len(terms):
            terms, counts, context, order = (
                terms[present], counts[present], context[present], order[present])
        if len(self) == 0:
            # A fresh space takes the kernel's matrices rather than a sum into zeros.
            dtype = self.float_dtype
            self.set_rows(terms, counts, context.astype(dtype, copy=False),
                          order.astype(dtype, copy=False))
        else:
            part = SemanticSpace(self.config, self.epoch_label)
            part.set_rows(terms, counts, context, order)
            summed = _summed([self, part], [self.terms, terms], _add_rows([self, part]),
                             dtype=self.float_dtype)
            self.set_rows(summed.terms, summed.counts, summed.context, summed.order)
        self.ingested_tokens += int(counts.sum())

    def term_vector(self, term: str, normalized: bool = False, kind: str = "context") -> np.ndarray:
        """Copy of a term's context or order vector, optionally unit length."""
        if kind not in ("context", "order"):
            raise ConfigError(f"kind must be 'context' or 'order', got {kind!r}")
        k = self.row(term)
        if k is None:
            raise TermNotFoundError(term)
        out = np.array((self.context if kind == "context" else self.order)[k], copy=True)
        if normalized:
            norm = np.linalg.norm(out)
            if norm == 0.0:
                raise UndefinedSimilarityError(
                    f"term {term!r} has a zero {kind} vector"
                )
            out = out / norm
        return out

    def similarity(self, term_a: str, term_b: str) -> float:
        return cosine(self.term_vector(term_a), self.term_vector(term_b))

    def neighbor_index(self, min_count: int = 1) -> "NeighborIndex":
        """The space's NeighborIndex for ``min_count``, built on first use
        and kept until the space next changes."""
        if min_count not in self._indexes:
            self._indexes[min_count] = NeighborIndex(self, min_count)
        return self._indexes[min_count]

    def nearest_neighbors(self, query: np.ndarray, top_n: int, min_count: int = 1,
                          exclude=()) -> list:
        """Top terms by cosine against a unit-length query vector.

        Ranks by similarity descending, ties broken lexicographically
        ascending.  Entries below min_count or with zero vectors are
        skipped; terms in ``exclude`` are never returned.
        """
        return self.neighbor_index(min_count).query(query, top_n, exclude)


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, in the rows' float width.  ``vecdot``
    takes one BLAS dot per row, so each norm has the bits of
    ``np.linalg.norm(row)``, unlike ``norm(axis=1)`` or ``einsum``."""
    return np.sqrt(np.vecdot(vectors, vectors))


def top_ranked(scores: np.ndarray, terms: np.ndarray, n: int) -> list:
    """``[(term, score)]`` of the first ``n`` rows by score descending,
    ties by term ascending, as a full lexsort orders them.  Only the rows
    that can reach the first ``n`` are sorted: those scoring at least the
    n-th best score, every tie with it included."""
    negated = -scores
    candidates = np.arange(len(scores))
    if 0 < n < len(scores):
        kth = np.partition(negated, n - 1)[n - 1]
        # NaN compares false, so NaN rows stay candidates and sort last,
        # as in the full sort.
        candidates = np.flatnonzero(~(negated > kth))
    ranked = candidates[np.lexsort((terms[candidates], negated[candidates]))]
    return [(str(terms[i]), float(scores[i])) for i in ranked[:n]]


# Queries scored per BLAS product in ``NeighborIndex.query_many``; bounds
# the block's score matrix to _QUERY_BLOCK * V floats.
_QUERY_BLOCK = 64


class NeighborIndex:
    """A space's context rows and their norms, for neighbor queries over
    the terms with at least ``min_count`` occurrences and a nonzero
    vector.  ``SemanticSpace.neighbor_index`` keeps one per space for
    repeated queries (drift neighbor lists) until the space changes: the
    index may share the space's matrix.  It holds no normalized copy: a
    query scales its scores by the inverse norms, and divides only the
    rows that can rank."""

    def __init__(self, space: SemanticSpace, min_count: int = 1):
        norms = row_norms(space.context)
        kept = np.flatnonzero((space.counts >= min_count) & (norms != 0.0))
        self.terms = space.terms[kept]
        # Every row, as it is or widened to 64-bit once: a query scores the
        # rows not kept too and drops their scores, which costs less than a
        # copy of the kept rows would.
        self.rows = space.context.astype(np.float64, copy=False)
        # In the space's width, the width they were computed in.
        self.norms = norms
        # The row of each of ``terms``; None when every row is kept.
        self.kept = None if len(kept) == len(norms) else kept

    def unit_rows(self, which) -> np.ndarray:
        """The rows of ``terms[which]`` at unit length in 64-bit, each
        divided by its norm: the rows that queries rescore against."""
        if self.kept is not None:
            which = self.kept[which]
        units = self.rows.take(which, axis=0)
        return np.divide(units, self.norms.take(which)[:, None], out=units)

    def query(self, vec: np.ndarray, top_n: int, exclude=()) -> list:
        """``query_many`` for one query vector."""
        return self.query_many(np.asarray(vec, dtype=np.float64)[None], top_n, [exclude])[0]

    def query_many(self, queries: np.ndarray, top_n: int, excludes) -> list:
        """For each row q of ``queries`` (Q x dim), the ``top_n`` terms by
        similarity descending, ties by term ascending, leaving out the terms
        in its entry of ``excludes`` (one collection of terms per query).

        A similarity is ``np.dot(unit, q)`` for the term's unit row
        (``unit_rows``): one dot product of the pair, whatever the batch,
        the index's other rows or the BLAS thread count.  The BLAS product
        over the whole index only preselects the rows that can rank.
        """
        if top_n < 1:
            raise ConfigError(f"top_n must be >= 1, got {top_n}")
        queries = np.asarray(queries, dtype=np.float64)
        excludes = [set(exclude) for exclude in excludes]
        if len(excludes) != len(queries):
            raise ValueError("query_many needs one exclude collection per query")
        results = []
        for first in range(0, len(queries), _QUERY_BLOCK):
            block = slice(first, first + _QUERY_BLOCK)
            results += self._query_block(queries[block], top_n, excludes[block])
        return results

    def _query_block(self, queries, top_n: int, excludes) -> list:
        n_rows, dim = len(self.terms), self.rows.shape[1]
        if n_rows == 0:
            return [[] for _ in excludes]
        # Preselect.  For a row r with stored norm n and a query q, let
        # D = r.q exactly and A = sum |r_i q_i| <= |r| |q|, and let u be the
        # unit roundoff of 64-bit floats.  A BLAS dot product is some sum
        # of the dim products, in any order, with or without FMA, so it
        # lies within gamma * A of D, gamma = dim*u / (1 - dim*u).
        # - The preselect score is that product times fl(1 / n), rounded:
        #   two more roundings, so it lies within (gamma + 2u) * A / n of
        #   D / n, up to terms in u * gamma.
        # - The rescore is one dot product of q with the unit row, whose
        #   every component r_i / n is rounded once: it lies within
        #   (gamma + u) * A / n of D / n.
        # So the two differ by at most (2 * gamma + 3u) * |q| * R, where R
        # bounds |r| / n (below), and as dim >= 2 makes gamma >= 2u, by at
        # most d = 4 * gamma * |q| * R.  Let T be the k-th best rescored
        # value.  The k-th best preselect score is at most T + d, and every
        # row rescored at T or above (the top k, ties included) has a
        # preselect score of at least T - d.  So keeping every row within
        # 2d = 8 * gamma * |q| * R of the k-th best preselect score keeps
        # all of them.  The bounds hold while no product underflows or
        # overflows, as for any space built from counts.  A NaN or infinite
        # query makes the margin or the threshold NaN, and every row stays.
        u = 2.0**-53
        gamma = dim * u / (1.0 - dim * u)
        margins = 8.0 * gamma * _row_norm_bound(dim, self.norms.dtype) * row_norms(queries)
        # At most len(exclude) of the first top_n + len(exclude) are dropped.
        ks = np.minimum([top_n + len(exclude) for exclude in excludes], n_rows)
        # One GEMM (numpy makes it a gemv for a single query), the kept
        # rows' columns, then one scaling in place.
        scores = queries @ self.rows.T
        norms = self.norms
        if self.kept is not None:
            scores = scores.take(self.kept, axis=1)
            norms = norms.take(self.kept)
        scores *= np.divide(1.0, norms, dtype=np.float64)
        # The k-th best score sits at ascending position n_rows - k.
        positions = n_rows - ks
        kth = np.partition(scores, np.unique(positions), axis=1)[
            np.arange(len(queries)), positions]
        keep = ~(scores < (kth - margins)[:, None])
        results = []
        for q, candidates, exclude in zip(queries, keep, excludes):
            rows = np.flatnonzero(candidates)
            # Rescore: one dot product per (row, query) pair.
            exact = np.vecdot(self.unit_rows(rows), q)
            # Rank: score descending, then term; NaN sorts last.
            terms = self.terms[rows]
            ranked = np.lexsort((terms, -exact))
            hits = []
            for term, sim in zip(terms[ranked].tolist(), exact[ranked].tolist()):
                if term not in exclude:
                    hits.append((term, sim))
                    if len(hits) == top_n:
                        break
            results.append(hits)
        return results


def _row_norm_bound(dim: int, width) -> float:
    """A bound R on |r| / n for a row r and its norm n as ``row_norms``
    computes it in ``width``: a sum of dim squares, then a square root,
    puts n within (dim/2 + 1) * u_w of |r| relatively (to first order), u_w
    the width's unit roundoff, and dim * eps = 2 * dim * u_w bounds that.
    The 2**-20 also covers the roundings in computing |q| and the margin
    itself."""
    return 1.0 + 2.0**-20 + dim * float(np.finfo(width).eps)


def by_epoch_label(spaces) -> dict:
    """``{epoch_label: space}`` in the given order; a label given twice is
    a ConfigError, since the analyses report one row per epoch."""
    labeled = {}
    for space in spaces:
        if space.epoch_label in labeled:
            raise ConfigError(f"duplicate epoch label {space.epoch_label!r}")
        labeled[space.epoch_label] = space
    return labeled


def ensure_same_config(spaces) -> SpaceConfig:
    spaces = list(spaces)
    config = spaces[0].config
    for space in spaces[1:]:
        if space.config != config:
            raise CombineMismatchError(
                "spaces use different configurations: "
                f"{config} vs {space.config} "
                f"(labels {spaces[0].epoch_label!r} vs {space.epoch_label!r})"
            )
    return config


def _summed(heads, tables, add, dtype=None) -> SemanticSpace:
    """The sum of inputs whose config, label, float width and token total
    are those of the space ``heads[k]`` and whose sorted terms are
    ``tables[k]``.  The union of the tables is allocated once, zeroed; then,
    in argument order, each input's config is checked against the first's
    (CombineMismatchError) and ``add(k, out, rows)`` adds its rows into
    ``out``'s ``rows``.  Labels join with ``+`` and token totals add.  The
    sum is in the inputs' float width, or in 64-bit with a warning if widths
    mix; an explicit ``dtype`` sets the width without a warning."""
    if not heads:
        raise ConfigError("combine needs at least one space")
    first = heads[0]
    if dtype is None:
        dtype = first.float_dtype
        if any(head.float_dtype != dtype for head in heads):
            warnings.warn("combining spaces of mixed float widths; result upcast to 64-bit",
                          stacklevel=3)
            dtype = np.dtype(np.float64)
    terms = np.unique(np.concatenate(tables))
    out = SemanticSpace(first.config, "+".join(head.epoch_label for head in heads),
                              float_dtype=dtype)
    shape = (len(terms), first.config.dim)
    out.set_rows(terms, np.zeros(len(terms), dtype=np.int64),
                 np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype))
    for k, (head, table) in enumerate(zip(heads, tables)):
        ensure_same_config([first, head])
        add(k, out, np.searchsorted(terms, table))
    out.ingested_tokens = sum(head.ingested_tokens for head in heads)
    return out


def _add_rows(spaces):
    """A ``_summed`` adder of in-memory ``spaces``."""
    def add(k, out, rows):
        out.counts[rows] += spaces[k].counts
        out.context[rows] += spaces[k].context
        out.order[rows] += spaces[k].order
    return add


def combine(spaces) -> SemanticSpace:
    """Componentwise sum of spaces sharing one config, over the union of
    their vocabularies.  Counts and token totals add exactly; each row adds
    its inputs in argument order, so the bits are fixed by that order.  Mixed
    32- and 64-bit inputs are all summed in 64-bit, with a warning.  Every
    input is held at once; ``persistence.combine_files`` is the streaming
    path, into the same bytes."""
    spaces = list(spaces)
    return _summed(spaces, [space.terms for space in spaces], _add_rows(spaces))


def norm_frequency_series(epoch_spaces, term: str) -> list:
    """Per-epoch (label, center count, squared context norm) for one term.

    Epochs where the term is absent contribute (label, 0, 0.0).  Under
    near-i.i.d. contexts the squared norm grows linearly with the count,
    which is what makes the norm a frequency proxy.  Two spaces with one
    label are a ConfigError.
    """
    series = []
    for space in by_epoch_label(epoch_spaces).values():
        k = space.row(term)
        if k is None:
            series.append((space.epoch_label, 0, 0.0))
        else:
            context = np.asarray(space.context[k], dtype=np.float64)
            series.append(
                (space.epoch_label, int(space.counts[k]), float(np.dot(context, context)))
            )
    return series
