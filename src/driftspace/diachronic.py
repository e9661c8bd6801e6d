"""Cross-epoch analyses over built spaces.

All five analyses lean on the same two facts: spaces over different time
slices share one seed universe, so a vector from the combined space can be
compared directly against vectors from any slice; and context vectors are
unnormalized sums, so normalizing at query time gives scale-free cosines
while order vectors keep their magnitude for score decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean

import numpy as np

from .errors import ConfigError, MissingDataError, TermNotFoundError, UndefinedSimilarityError
from .space import (NeighborIndex, SemanticSpace, by_epoch_label, ensure_same_config, row_norms,
                    seed_matrix, top_ranked)
from .vectors import apply_permutation

# Category boundaries on the inter-period similarity, highest first:
# stable >= 0.70 > moderate >= 0.35 > fast >= 0.15 > unstable.
DRIFT_THRESHOLDS = (0.70, 0.35, 0.15)

DRIFT_CATEGORIES = ("stable", "moderate", "fast", "unstable")


@dataclass
class TrajectoryReport:
    term: str
    representative_set: list
    per_epoch: dict
    per_epoch_count: dict


@dataclass
class DriftRecord:
    term: str
    sigma01: float
    neighbors0: list
    neighbors1: list
    category: str


@dataclass
class DriftReport:
    period0_label: str
    period1_label: str
    records: list
    excluded: dict = field(default_factory=dict)


@dataclass
class GenderReport:
    period_label: str
    male_qualifiers: list
    female_qualifiers: list
    per_year_votes: dict


@dataclass
class EquivalenceReport:
    anchor_term: str
    anchor_epoch: str
    per_epoch: dict


def _labeled_spaces(epoch_spaces) -> dict:
    spaces = by_epoch_label(epoch_spaces)
    if not spaces:
        raise ConfigError("at least one epoch space is required")
    ensure_same_config(list(spaces.values()))
    return spaces


def representatives(total: SemanticSpace, term: str, r_size: int = 200, min_count: int = 1,
                    extra_terms=()) -> list:
    """The terms ``time_trajectory`` tracks for ``term``: its top ``r_size``
    neighbors in ``total`` with at least ``min_count`` occurrences, self
    excluded, then those of ``extra_terms`` not already among them."""
    if r_size < 1:
        raise ConfigError(f"r_size must be >= 1, got {r_size}")
    anchor = total.term_vector(term, normalized=True)
    ranked = total.nearest_neighbors(anchor, r_size, min_count=min_count, exclude={term})
    chosen = [t for t, _ in ranked]
    return list(dict.fromkeys(chosen + [t for t in extra_terms if t != term]))


def time_trajectory(total: SemanticSpace, epoch_spaces, term: str, r_size: int = 200,
                    top_n: int = 5, min_count: int = 1, extra_terms=(),
                    chosen=None) -> TrajectoryReport:
    """Track which representative neighbors a term is closest to per epoch.

    The anchor vector is the term's normalized context vector in ``total``
    (the combination of all epochs); the representative set is the term's
    top ``r_size`` neighbors there, self excluded, optionally extended with
    caller-supplied terms (``representatives``).  Each epoch then ranks the
    representatives that are present with nonzero vectors by cosine
    against the anchor, keeping ``top_n``.  Comparing slice vectors against
    a combined-space vector is sound because the spaces add linearly.  The
    epoch spaces need hold only the rows of the term and its
    representatives.  A caller that has already picked the set with
    ``representatives`` passes it as ``chosen``, which replaces ``r_size``,
    ``min_count`` and ``extra_terms``: giving any of them other than its
    default alongside ``chosen`` raises ConfigError.
    """
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")
    if chosen is None:
        chosen = representatives(total, term, r_size, min_count, extra_terms)
    elif (r_size, min_count, tuple(extra_terms)) != (200, 1, ()):
        raise ConfigError("chosen replaces r_size, min_count and extra_terms; give one or the others")
    spaces = _labeled_spaces(epoch_spaces)
    ensure_same_config([total, *spaces.values()])
    anchor = total.term_vector(term, normalized=True).astype(np.float64, copy=False)

    per_epoch = {}
    per_epoch_count = {}
    for label in sorted(spaces):
        space = spaces[label]
        present, units = _unit_rows(space, chosen)
        # One dot product per pair, as NeighborIndex.query scores it.
        sims = np.vecdot(units, anchor)
        per_epoch[label] = top_ranked(sims, np.array(present, dtype=str), top_n)
        per_epoch_count[label] = space.count(term)
    return TrajectoryReport(term, chosen, per_epoch, per_epoch_count)


def _drift_category(sigma01: float, thresholds) -> str:
    stable, moderate, fast = thresholds
    if sigma01 >= stable:
        return "stable"
    if sigma01 >= moderate:
        return "moderate"
    if sigma01 >= fast:
        return "fast"
    return "unstable"


def drift(space0: SemanticSpace, space1: SemanticSpace, min_total_count: int = 1500,
          top_n: int = 15, thresholds=DRIFT_THRESHOLDS, exclude=(), terms=None,
          neighbor_min_count: int = 1) -> DriftReport:
    """Rank terms by how much their context changed between two periods.

    A term is eligible when present in both spaces with nonzero vectors and
    a combined count of at least ``min_total_count``.  Each record carries
    the inter-period cosine (records sort ascending: fastest change first),
    a coarse category, and the term's top neighbors within each period.
    Ineligible candidates land in ``excluded`` with a reason code.
    """
    ensure_same_config([space0, space1])
    if not (1.0 >= thresholds[0] > thresholds[1] > thresholds[2] > -1.0):
        raise ConfigError(f"thresholds must descend within (-1, 1]: {thresholds}")
    if terms is not None:
        candidates = np.array(sorted(set(terms)), dtype=str)
    else:
        candidates = np.union1d(space0.terms, space1.terms)
    index0 = space0.neighbor_index(min_count=neighbor_min_count)
    index1 = space1.neighbor_index(min_count=neighbor_min_count)

    rows0, rows1 = _rows_of(space0, candidates), _rows_of(space1, candidates)
    both = (rows0 >= 0) & (rows1 >= 0)
    total_counts = np.zeros(len(candidates), dtype=np.int64)
    total_counts[both] = space0.counts[rows0[both]] + space1.counts[rows1[both]]
    # The first reason that applies, in this order, is the one recorded.
    reasons = np.select(
        [np.isin(candidates, np.array(list(exclude), dtype=str)), rows0 < 0, rows1 < 0,
         total_counts < min_total_count],
        ["excluded", "absent-period0", "absent-period1", "below-min-count"], "")
    eligible = reasons == ""
    excluded = dict(zip(candidates[~eligible].tolist(), reasons[~eligible].tolist()))
    context0, context1 = space0.context[rows0[eligible]], space1.context[rows1[eligible]]
    norms0, norms1 = row_norms(context0), row_norms(context1)
    nonzero = (norms0 != 0.0) & (norms1 != 0.0)
    excluded.update(dict.fromkeys(candidates[eligible][~nonzero].tolist(), "zero-vector"))
    kept = candidates[eligible][nonzero].tolist()
    units0 = np.divide(context0[nonzero], norms0[nonzero, None], dtype=np.float64)
    units1 = np.divide(context1[nonzero], norms1[nonzero, None], dtype=np.float64)
    excludes = [{term} for term in kept]
    neighbors0 = index0.query_many(units0, top_n, excludes)
    neighbors1 = index1.query_many(units1, top_n, excludes)
    # vecdot takes one BLAS dot per row: the bits of np.dot(v0, v1).
    sigmas = np.vecdot(units0, units1).tolist()
    records = [
        DriftRecord(term, sigma01, hits0, hits1, _drift_category(sigma01, thresholds))
        for term, sigma01, hits0, hits1 in zip(kept, sigmas, neighbors0, neighbors1)
    ]
    records.sort(key=lambda record: (record.sigma01, record.term))
    return DriftReport(space0.epoch_label, space1.epoch_label, records, excluded)


def _rows_of(space: SemanticSpace, terms: np.ndarray) -> np.ndarray:
    """Row of each of ``terms`` in ``space``, or -1 where it holds none."""
    rows = np.searchsorted(space.terms, terms)
    found = rows < len(space)
    found[found] = space.terms[rows[found]] == terms[found]
    return np.where(found, rows, -1)


def _unit_rows(space: SemanticSpace, terms):
    """Those of ``terms`` the space holds with a nonzero context vector,
    and those vectors at unit length in 64-bit."""
    present = [t for t in terms if t in space]
    vectors = space.context[[space.row(t) for t in present]]
    norms = row_norms(vectors)
    keep = np.flatnonzero(norms)
    units = np.divide(vectors[keep], norms[keep, None], dtype=np.float64)
    return [present[i] for i in keep.tolist()], units


def qualifier_gender(epoch_spaces, qualifiers, man_terms, woman_terms,
                     period=None) -> GenderReport:
    """Attribute qualifiers to a gender per year, then rank over the period.

    For each year, a qualifier's male score is its best cosine against any
    man term present that year (female score likewise); the year votes
    female only on strict inequality, so exact ties go male.  A year where
    either term list is entirely absent casts no vote.  Period lists rank
    by years voted for that gender, then mean absolute margin, then term;
    a qualifier with equally many female and male years is listed male,
    mirroring the tie direction of the yearly rule.
    """
    if not qualifiers or not man_terms or not woman_terms:
        raise ConfigError("qualifiers, man_terms and woman_terms must be non-empty")
    qualifiers = list(dict.fromkeys(qualifiers))
    spaces = _labeled_spaces(epoch_spaces)
    if period is None:
        labels = sorted(spaces)
    else:
        labels = sorted(dict.fromkeys(period))
        missing = [label for label in labels if label not in spaces]
        if missing:
            raise MissingDataError(f"period years without a space: {missing}")

    votes = {}
    margins: dict = {q: [] for q in qualifiers}
    for label in labels:
        space = spaces[label]
        man_matrix = _unit_rows(space, man_terms)[1]
        woman_matrix = _unit_rows(space, woman_terms)[1]
        if not len(man_matrix) or not len(woman_matrix):
            continue
        for qualifier, vec in zip(*_unit_rows(space, qualifiers)):
            sigma_m = float(np.max(man_matrix @ vec))
            sigma_w = float(np.max(woman_matrix @ vec))
            votes[(qualifier, label)] = "female" if sigma_w > sigma_m else "male"
            margins[qualifier].append(abs(sigma_w - sigma_m))

    male_ranked = []
    female_ranked = []
    for qualifier in qualifiers:
        cast = [votes[(qualifier, label)] for label in labels if (qualifier, label) in votes]
        if not cast:
            continue
        female_years = cast.count("female")
        male_years = len(cast) - female_years
        mean_margin = fmean(margins[qualifier])
        if female_years > male_years:
            female_ranked.append((qualifier, female_years, mean_margin))
        else:
            male_ranked.append((qualifier, male_years, mean_margin))
    key = lambda row: (-row[1], -row[2], row[0])
    male_ranked.sort(key=key)
    female_ranked.sort(key=key)

    period_label = labels[0] if len(labels) == 1 else f"{labels[0]}-{labels[-1]}"
    return GenderReport(
        period_label,
        [q for q, _, _ in male_ranked],
        [q for q, _, _ in female_ranked],
        votes,
    )


def equivalents(epoch_spaces, term: str, anchor_epoch: str, top_k: int = 2,
                min_count: int = 1, exclude_self: bool = False) -> EquivalenceReport:
    """Find what plays the anchor term's role in every epoch.

    The anchor vector comes from the term's entry in the ``anchor_epoch``
    space; every epoch then reports its ``top_k`` nearest terms with at
    least ``min_count`` occurrences.  Epochs with no eligible candidate at
    all are marked absent (None), not zero-filled.  With ``exclude_self``
    left off, the anchor epoch's own top hit is the term itself.
    """
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    spaces = _labeled_spaces(epoch_spaces)
    if anchor_epoch not in spaces:
        raise MissingDataError(f"no epoch labeled {anchor_epoch!r} among the spaces")
    anchor = spaces[anchor_epoch].term_vector(term, normalized=True)

    per_epoch = {}
    for label in sorted(spaces):
        # One query per epoch: an index kept on each space would only hold memory.
        index = NeighborIndex(spaces[label], min_count=min_count)
        hits = index.query(anchor, top_k, exclude={term} if exclude_self else ())
        per_epoch[label] = hits if hits else None
    return EquivalenceReport(term, anchor_epoch, per_epoch)


def predict_position(space: SemanticSpace, term: str, offset: int, top_n: int = 5,
                     min_count: int = 1) -> list:
    """Score vocabulary terms as the ``offset``-position neighbor of ``term``.

    score(w) = <order(term), P^offset seed(w)> with the order vector left
    unnormalized, so a planted neighbor scores near its summed accumulation
    weight while unrelated terms score near zero (noise scale about
    |order| / sqrt(dim)).  Index relabelings preserve dot products, so this
    is computed as <P^-offset order(term), seed(w)> with one permutation.
    Offset 0 is rejected: decoding the center position would only recover
    the term itself.
    """
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")
    span = space.config.order_span
    if offset == 0 or abs(offset) > span:
        raise ConfigError(
            f"offset must be a nonzero integer within +-{span}, got {offset}"
        )
    k = space.row(term)
    if k is None:
        raise TermNotFoundError(term)
    order = np.asarray(space.order[k], dtype=np.float64)
    if np.linalg.norm(order) == 0.0:
        raise UndefinedSimilarityError(f"term {term!r} has a zero order vector")
    probe = apply_permutation(space.perms.offset_map(-offset), order)

    eligible = space.terms[space.counts >= min_count]
    if not len(eligible):
        return []
    return top_ranked(seed_matrix(eligible.tolist(), space.config) @ probe, eligible, top_n)
