"""Cross-epoch analyses: trajectories, drift, gender attribution,
equivalents, and positional prediction."""

import random

import numpy as np
import pytest
from scipy.stats import kendalltau

from driftspace import (
    CombineMismatchError,
    ConfigError,
    MissingDataError,
    NeighborIndex,
    SemanticSpace,
    SpaceConfig,
    TermNotFoundError,
    UndefinedSimilarityError,
    combine,
    drift,
    equivalents,
    predict_position,
    qualifier_gender,
    time_trajectory,
)
from driftspace import space as space_module
from driftspace.diachronic import DRIFT_CATEGORIES, DRIFT_THRESHOLDS, representatives
from driftspace.vectors import apply_permutation

from helpers import (
    FRUIT,
    MAN_TERMS,
    TECH,
    WOMAN_TERMS,
    build_space,
    cut_to_terms,
    drift_gradient_periods,
    gendered_years,
    random_sentences,
    succession_epochs,
    two_phase_epochs,
)

CFG = SpaceConfig(dim=128, window=5, order_span=2, global_seed=3, perm_seed=4)


def spaces_from(epochs, config=CFG, weights=None):
    return [build_space(config, label, sents, weights=weights) for label, sents in epochs.items()]


@pytest.fixture(scope="module")
def phase_spaces():
    epochs = two_phase_epochs(n_epochs=4, switch_after=2, probe_sents=30,
                              anchor_sents=10, filler_sents=20)
    spaces = spaces_from(epochs)
    return combine(spaces), spaces


class TestTrajectory:
    def test_top_neighbor_follows_the_phase_switch(self, phase_spaces):
        total, spaces = phase_spaces
        report = time_trajectory(total, spaces, "gizmo", r_size=20, top_n=1)
        for label in ("e1", "e2"):
            assert report.per_epoch[label][0][0] in FRUIT
        for label in ("e3", "e4"):
            assert report.per_epoch[label][0][0] in TECH

    def test_counts_match_epoch_spaces(self, phase_spaces):
        total, spaces = phase_spaces
        report = time_trajectory(total, spaces, "gizmo", r_size=20, top_n=1)
        for space in spaces:
            assert report.per_epoch_count[space.epoch_label] == space.count("gizmo")

    def test_representatives_exclude_anchor_term(self, phase_spaces):
        total, spaces = phase_spaces
        report = time_trajectory(total, spaces, "gizmo", r_size=20)
        assert "gizmo" not in report.representative_set
        assert len(report.representative_set) <= 20

    def test_extra_terms_appended_once(self, phase_spaces):
        total, spaces = phase_spaces
        report = time_trajectory(
            total, spaces, "gizmo", r_size=5, extra_terms=["fill000", "fill000", "gizmo"]
        )
        assert report.representative_set.count("fill000") == 1
        assert "gizmo" not in report.representative_set

    def test_single_epoch_ranking_matches_total(self):
        rng = random.Random(31)
        sentences = random_sentences(rng, [f"w{i:02d}" for i in range(15)], 60)
        space = build_space(CFG, "only", sentences)
        total = combine([space])
        report = time_trajectory(total, [space], "w00", r_size=10, top_n=10)
        assert [t for t, _ in report.per_epoch["only"]] == report.representative_set

    def test_unknown_anchor_term(self, phase_spaces):
        total, spaces = phase_spaces
        with pytest.raises(TermNotFoundError):
            time_trajectory(total, spaces, "nonesuch")

    def test_duplicate_epoch_labels_rejected(self, phase_spaces):
        total, spaces = phase_spaces
        with pytest.raises(ConfigError):
            time_trajectory(total, [spaces[0], spaces[0]], "gizmo")

    @pytest.mark.parametrize("top_n", [0, -3])
    def test_top_n_below_one_rejected(self, phase_spaces, top_n):
        total, spaces = phase_spaces
        with pytest.raises(ConfigError):
            time_trajectory(total, spaces, "gizmo", top_n=top_n)

    @pytest.mark.parametrize("r_size", [0, -2])
    def test_r_size_below_one_rejected(self, phase_spaces, r_size):
        total, spaces = phase_spaces
        with pytest.raises(ConfigError, match=f"r_size must be >= 1, got {r_size}"):
            time_trajectory(total, spaces, "gizmo", r_size=r_size)

    def test_representatives_are_the_reported_set(self, phase_spaces):
        total, spaces = phase_spaces
        extra = ["fill000", "gizmo", "absent", "fill000"]
        chosen = representatives(total, "gizmo", 5, 2, extra)
        report = time_trajectory(total, spaces, "gizmo", r_size=5, min_count=2, extra_terms=extra)
        assert chosen == report.representative_set
        assert chosen[-1] == "absent" and chosen.count("fill000") == 1 and "gizmo" not in chosen

    def test_epochs_cut_to_the_term_and_representatives_give_the_same_report(self,
                                                                             phase_spaces):
        total, spaces = phase_spaces
        chosen = representatives(total, "gizmo", 8, extra_terms=["fill001"])
        cut = [cut_to_terms(space, ["gizmo", *chosen]) for space in spaces]
        assert all(len(c) < len(s) for c, s in zip(cut, spaces))
        kwargs = dict(r_size=8, top_n=4, extra_terms=["fill001"])
        assert time_trajectory(total, cut, "gizmo", **kwargs) == \
            time_trajectory(total, spaces, "gizmo", **kwargs)

    def test_a_chosen_set_is_ranked_without_a_second_query(self, phase_spaces, monkeypatch):
        total, spaces = phase_spaces
        kwargs = dict(r_size=6, min_count=2, extra_terms=["fill001", "absent"])
        expected = time_trajectory(total, spaces, "gizmo", top_n=3, **kwargs)
        chosen = representatives(total, "gizmo", **kwargs)

        def no_query(*args, **kwargs):
            raise AssertionError("the representatives were queried again")

        monkeypatch.setattr(SemanticSpace, "nearest_neighbors", no_query)
        assert time_trajectory(total, spaces, "gizmo", top_n=3, chosen=chosen) == expected

    @pytest.mark.parametrize("given", [dict(r_size=6), dict(min_count=2),
                                       dict(extra_terms=["fill001"])])
    def test_a_chosen_set_refuses_the_settings_it_replaces(self, phase_spaces, given):
        total, spaces = phase_spaces
        chosen = representatives(total, "gizmo", r_size=6)
        with pytest.raises(ConfigError, match="chosen replaces"):
            time_trajectory(total, spaces, "gizmo", chosen=chosen, **given)

    @pytest.mark.parametrize("r_size", [0, -2])
    def test_representatives_check_r_size_before_the_query(self, phase_spaces, r_size):
        total, _ = phase_spaces
        with pytest.raises(ConfigError, match=f"r_size must be >= 1, got {r_size}"):
            representatives(total, "nonesuch", r_size)

    @pytest.mark.parametrize("width", [np.float64, np.float32])
    def test_similarity_equals_the_epoch_index_score_bitwise(self, phase_spaces, width):
        total, spaces = phase_spaces
        total, spaces = _narrowed(total, width), [_narrowed(s, width) for s in spaces]
        report = time_trajectory(total, spaces, "gizmo", r_size=30, top_n=30)
        anchor = total.term_vector("gizmo", normalized=True)
        for space in spaces:
            index = NeighborIndex(space)
            scores = dict(index.query(anchor, len(index.terms)))
            hits = report.per_epoch[space.epoch_label]
            assert hits
            for term, similarity in hits:
                assert similarity.hex() == scores[term].hex(), (space.epoch_label, term)


def _narrowed(space, width):
    out = SemanticSpace(space.config, space.epoch_label, float_dtype=width)
    out.set_rows(space.terms, space.counts, space.context.astype(width),
                 space.order.astype(width))
    return out


def _drift_bits(records) -> list:
    """Records with every float as its hex form, so == compares bits."""
    return [(r.term, r.sigma01.hex(), r.category,
             [(t, s.hex()) for t, s in r.neighbors0],
             [(t, s.hex()) for t, s in r.neighbors1]) for r in records]


@pytest.fixture(scope="module")
def gradient():
    sents0, sents1, subjects = drift_gradient_periods(n_subjects=6)
    p0 = build_space(CFG, "p0", sents0)
    p1 = build_space(CFG, "p1", sents1)
    return p0, p1, subjects


class TestDrift:
    def test_identical_periods_are_stable(self):
        rng = random.Random(41)
        sentences = random_sentences(rng, ["a", "b", "c", "d"], 40)
        p0 = build_space(CFG, "p0", sentences)
        p1 = build_space(CFG, "p1", sentences)
        report = drift(p0, p1, min_total_count=1)
        assert report.period0_label == "p0"
        assert report.period1_label == "p1"
        for record in report.records:
            assert record.sigma01 == pytest.approx(1.0, abs=1e-12)
            assert record.category == "stable"

    def test_gradient_orders_by_change(self, gradient):
        p0, p1, subjects = gradient
        report = drift(p0, p1, min_total_count=1, terms=subjects)
        assert [r.term for r in report.records][0] == subjects[0]
        sigma_by_term = {r.term: r.sigma01 for r in report.records}
        alphas = list(range(len(subjects)))
        sigmas = [sigma_by_term[s] for s in subjects]
        tau = kendalltau(alphas, sigmas).statistic
        assert tau >= 0.8
        assert sigma_by_term[subjects[-1]] >= 0.9
        assert sigma_by_term[subjects[0]] <= 0.3

    def test_records_sorted_ascending(self, gradient):
        p0, p1, subjects = gradient
        report = drift(p0, p1, min_total_count=1, terms=subjects)
        sigmas = [r.sigma01 for r in report.records]
        assert sigmas == sorted(sigmas)

    def test_categories_span_the_gradient(self, gradient):
        p0, p1, subjects = gradient
        report = drift(p0, p1, min_total_count=1, terms=subjects)
        by_term = {r.term: r.category for r in report.records}
        assert by_term[subjects[0]] == "unstable"
        assert by_term[subjects[-1]] == "stable"
        assert set(by_term.values()) <= set(DRIFT_CATEGORIES)

    def test_neighbor_lists_exclude_the_term(self, gradient):
        p0, p1, subjects = gradient
        report = drift(p0, p1, min_total_count=1, terms=subjects, top_n=3)
        for record in report.records:
            assert len(record.neighbors0) == 3
            assert record.term not in [t for t, _ in record.neighbors0]
            assert record.term not in [t for t, _ in record.neighbors1]

    def test_exclusion_reasons(self):
        p0 = build_space(CFG, "p0", [["only0", "x", "y"], ["both", "x"], ["loner"]])
        p1 = build_space(CFG, "p1", [["only1", "x", "y"], ["both", "x"], ["loner"]])
        report = drift(
            p0, p1, min_total_count=2, exclude={"x"},
            terms=["only0", "only1", "both", "x", "loner", "ghost"],
        )
        assert report.excluded["x"] == "excluded"
        assert report.excluded["only0"] == "absent-period1"
        assert report.excluded["only1"] == "absent-period0"
        assert report.excluded["ghost"] == "absent-period0"
        assert report.excluded["loner"] == "zero-vector"
        assert [r.term for r in report.records] == ["both"]

    def test_below_min_count_reason(self):
        p0 = build_space(CFG, "p0", [["rare", "x"]])
        p1 = build_space(CFG, "p1", [["rare", "x"]])
        report = drift(p0, p1, min_total_count=3, terms=["rare"])
        assert report.excluded["rare"] == "below-min-count"

    def test_threshold_validation(self):
        p0 = build_space(CFG, "p0", [["a", "b"]])
        with pytest.raises(ConfigError):
            drift(p0, p0, thresholds=(0.5, 0.6, 0.1))
        with pytest.raises(ConfigError):
            drift(p0, p0, thresholds=(1.1, 0.5, 0.1))

    def test_default_thresholds_pinned(self):
        assert DRIFT_THRESHOLDS == (0.70, 0.35, 0.15)

    def test_config_mismatch_rejected(self):
        p0 = build_space(CFG, "p0", [["a", "b"]])
        other = SpaceConfig(dim=64, window=5, order_span=2, global_seed=3, perm_seed=4)
        p1 = build_space(other, "p1", [["a", "b"]])
        with pytest.raises(CombineMismatchError):
            drift(p0, p1)

    @pytest.mark.parametrize("block", [1, 3])
    def test_query_blocks_do_not_change_the_report(self, gradient, monkeypatch, block):
        p0, p1, _ = gradient
        default = drift(p0, p1, min_total_count=1, top_n=7)
        assert len(default.records) > 2 * 3
        monkeypatch.setattr(space_module, "_QUERY_BLOCK", block)
        blocked = drift(p0, p1, min_total_count=1, top_n=7)
        assert _drift_bits(blocked.records) == _drift_bits(default.records)
        assert blocked.excluded == default.excluded

    def test_a_term_subset_gives_the_full_run_records(self, gradient):
        p0, p1, subjects = gradient
        full = {r.term: r for r in drift(p0, p1, min_total_count=1).records}
        subset = subjects[::3] + ["ctxa03", "ghost"]
        report = drift(p0, p1, min_total_count=1, terms=subset)
        assert _drift_bits(report.records) == _drift_bits(
            sorted((full[t] for t in subset if t in full), key=lambda r: (r.sigma01, r.term)))
        assert report.excluded == {"ghost": "absent-period0"}

    def test_sigma_is_scale_invariant_bitwise(self):
        rng = random.Random(42)
        vocab = [f"v{i}" for i in range(8)]
        sentences0 = random_sentences(rng, vocab, 30)
        sentences1 = random_sentences(rng, vocab, 30)
        ones = {t: 1.0 for t in vocab}
        twos = {t: 2.0 for t in vocab}
        base = drift(
            build_space(CFG, "p0", sentences0, weights=ones),
            build_space(CFG, "p1", sentences1, weights=ones),
            min_total_count=1,
        )
        scaled = drift(
            build_space(CFG, "p0", sentences0, weights=twos),
            build_space(CFG, "p1", sentences1, weights=twos),
            min_total_count=1,
        )
        assert [(r.term, r.sigma01) for r in base.records] == [
            (r.term, r.sigma01) for r in scaled.records
        ]


@pytest.fixture(scope="module")
def planted():
    years, male_quals, female_quals = gendered_years(
        n_years=3,
        male_quals=[f"mq{i}" for i in range(3)],
        female_quals=[f"fq{i}" for i in range(3)],
        sents_per_qual=15,
        filler_sents=10,
    )
    return spaces_from(years), male_quals, female_quals


class TestQualifierGender:
    def test_planted_attribution(self, planted):
        spaces, male_quals, female_quals = planted
        report = qualifier_gender(spaces, male_quals + female_quals, MAN_TERMS, WOMAN_TERMS)
        assert sorted(report.male_qualifiers) == sorted(male_quals)
        assert sorted(report.female_qualifiers) == sorted(female_quals)
        for year in ("1900", "1901", "1902"):
            for qual in male_quals:
                assert report.per_year_votes[(qual, year)] == "male"
            for qual in female_quals:
                assert report.per_year_votes[(qual, year)] == "female"

    def test_swapping_lists_swaps_outputs_exactly(self, planted):
        spaces, male_quals, female_quals = planted
        quals = male_quals + female_quals
        forward = qualifier_gender(spaces, quals, MAN_TERMS, WOMAN_TERMS)
        swapped = qualifier_gender(spaces, quals, WOMAN_TERMS, MAN_TERMS)
        assert swapped.male_qualifiers == forward.female_qualifiers
        assert swapped.female_qualifiers == forward.male_qualifiers
        flip = {"male": "female", "female": "male"}
        assert swapped.per_year_votes == {
            key: flip[vote] for key, vote in forward.per_year_votes.items()
        }

    def test_identical_lists_tie_to_male(self, planted):
        spaces, male_quals, female_quals = planted
        quals = male_quals + female_quals
        report = qualifier_gender(spaces, quals, MAN_TERMS, MAN_TERMS)
        assert report.female_qualifiers == []
        assert sorted(report.male_qualifiers) == sorted(quals)

    def test_an_empty_period_is_a_config_error(self, planted):
        spaces, male_quals, _ = planted
        with pytest.raises(ConfigError, match="period"):
            qualifier_gender(spaces, male_quals, MAN_TERMS, WOMAN_TERMS, period=[])

    def test_year_without_one_side_casts_no_vote(self):
        years, male_quals, _ = gendered_years(
            n_years=1, male_quals=["mq0"], female_quals=["fq0"],
            sents_per_qual=10, filler_sents=5,
        )
        spaces = spaces_from(years)
        # A second year where no anchor terms of either side occur at all.
        spaces.append(build_space(CFG, "1999", [["mq0", "pad000", "pad001"]] * 5))
        report = qualifier_gender(spaces, ["mq0", "fq0"], MAN_TERMS, WOMAN_TERMS)
        assert ("mq0", "1999") not in report.per_year_votes
        assert ("mq0", "1900") in report.per_year_votes
        assert report.period_label == "1900-1999"

    def test_period_selection(self, planted):
        spaces, male_quals, female_quals = planted
        quals = male_quals + female_quals
        report = qualifier_gender(
            spaces, quals, MAN_TERMS, WOMAN_TERMS, period=["1901"]
        )
        assert report.period_label == "1901"
        assert all(year == "1901" for _, year in report.per_year_votes)
        with pytest.raises(MissingDataError):
            qualifier_gender(spaces, quals, MAN_TERMS, WOMAN_TERMS, period=["1890"])

    def test_empty_inputs_rejected(self, planted):
        spaces, male_quals, _ = planted
        with pytest.raises(ConfigError):
            qualifier_gender(spaces, [], MAN_TERMS, WOMAN_TERMS)
        with pytest.raises(ConfigError):
            qualifier_gender(spaces, male_quals, [], WOMAN_TERMS)

    def test_duplicate_qualifiers_deduped(self, planted):
        spaces, male_quals, female_quals = planted
        report = qualifier_gender(
            spaces, male_quals * 2, MAN_TERMS, WOMAN_TERMS
        )
        assert sorted(report.male_qualifiers) == sorted(male_quals)


@pytest.fixture(scope="module")
def succession():
    epochs, names = succession_epochs(n_epochs=4, name_sents=25, filler_sents=15)
    return spaces_from(epochs), names


class TestEquivalents:
    def test_each_epoch_finds_its_own_name(self, succession):
        spaces, names = succession
        report = equivalents(spaces, names[-1], "e04", top_k=1)
        for k, name in enumerate(names, start=1):
            label = f"e{k:02d}"
            assert report.per_epoch[label][0][0] == name

    def test_anchor_epoch_self_hit(self, succession):
        spaces, names = succession
        report = equivalents(spaces, names[-1], "e04", top_k=1)
        term, sim = report.per_epoch["e04"][0]
        assert term == names[-1]
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_exclude_self(self, succession):
        spaces, names = succession
        report = equivalents(spaces, names[-1], "e04", top_k=1, exclude_self=True)
        assert report.per_epoch["e04"][0][0] != names[-1]

    def test_top_k_respected(self, succession):
        spaces, names = succession
        report = equivalents(spaces, names[-1], "e04", top_k=3)
        assert all(len(hits) == 3 for hits in report.per_epoch.values())

    def test_epoch_with_no_eligible_terms_is_absent(self, succession):
        spaces, names = succession
        sparse = build_space(CFG, "e99", [["once", "met"]])
        report = equivalents(spaces + [sparse], names[-1], "e04", top_k=1, min_count=2)
        assert report.per_epoch["e99"] is None

    @pytest.mark.parametrize("top_k", [0, -2])
    def test_top_k_below_one_rejected(self, succession, top_k):
        spaces, names = succession
        with pytest.raises(ConfigError, match=f"top_k must be >= 1, got {top_k}"):
            equivalents(spaces, names[-1], "e04", top_k=top_k)

    def test_missing_anchor_epoch(self, succession):
        spaces, names = succession
        with pytest.raises(MissingDataError):
            equivalents(spaces, names[-1], "e77")

    def test_missing_term_in_anchor_epoch(self, succession):
        spaces, _ = succession
        with pytest.raises(TermNotFoundError):
            equivalents(spaces, "name04", "e01")


@pytest.fixture(scope="module")
def bigram_space():
    rng = random.Random(51)
    fillers = [f"f{i:02d}" for i in range(10)]
    sentences = []
    for _ in range(30):
        sentences.append([rng.choice(fillers), "alpha", "beta", rng.choice(fillers)])
    for _ in range(3):
        sentences.append(rng.sample(fillers, 5))
    return build_space(CFG, "e", sentences)


class TestPredictPosition:
    def test_successor_decoded(self, bigram_space):
        hits = predict_position(bigram_space, "alpha", 1, top_n=2)
        assert hits[0][0] == "beta"
        assert hits[0][1] == pytest.approx(30.0, rel=0.25)
        assert hits[1][1] < 0.5 * hits[0][1]

    def test_predecessor_decoded(self, bigram_space):
        hits = predict_position(bigram_space, "beta", -1, top_n=1)
        assert hits[0][0] == "alpha"

    def test_scores_match_direct_inner_products(self, bigram_space):
        space = bigram_space
        order = space.term_vector("alpha", kind="order")
        hits = predict_position(space, "alpha", 1, top_n=4)
        for term, score in hits:
            tagged = apply_permutation(space.perms.offset_map(1), space.seed(term))
            assert score == pytest.approx(float(np.dot(order, tagged)), abs=1e-9)

    def test_noise_floor_scale(self, bigram_space):
        space = bigram_space
        order = space.term_vector("alpha", kind="order")
        expected_noise = np.linalg.norm(order) / np.sqrt(space.config.dim)
        scores = [s for t, s in predict_position(space, "alpha", 1, top_n=len(space))
                  if t not in ("beta",)]
        observed = float(np.std(scores))
        assert 0.2 <= observed / expected_noise <= 3.0

    def test_offset_validation(self, bigram_space):
        for bad in (0, 3, -3):
            with pytest.raises(ConfigError):
                predict_position(bigram_space, "alpha", bad)

    def test_unknown_term(self, bigram_space):
        with pytest.raises(TermNotFoundError):
            predict_position(bigram_space, "nonesuch", 1)

    def test_zero_order_vector_rejected(self):
        space = build_space(CFG, "e", [["a", "b"]])
        space.order[space.row("a")] = 0.0
        with pytest.raises(UndefinedSimilarityError):
            predict_position(space, "a", 1)

    def test_min_count_filters_candidates(self, bigram_space):
        hits = predict_position(bigram_space, "alpha", 1, top_n=50, min_count=20)
        terms = [t for t, _ in hits]
        assert set(terms) <= {"alpha", "beta"}

    @pytest.mark.parametrize("top_n", [0, -3])
    def test_top_n_below_one_rejected(self, bigram_space, top_n):
        with pytest.raises(ConfigError):
            predict_position(bigram_space, "alpha", 1, top_n=top_n)

    def test_top_n_clipped_to_vocabulary(self):
        space = build_space(CFG, "e", [["a", "b", "c"]])
        assert len(predict_position(space, "a", 1, top_n=99)) == 3
