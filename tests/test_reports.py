"""Rendering of analysis results as TSV, JSON, and aligned text."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftspace import (
    ConfigError,
    DriftRecord,
    DriftReport,
    EquivalenceReport,
    GenderReport,
    TrajectoryReport,
)
from driftspace.reports import (
    ABSENT,
    MAX_CELL,
    Neighbors,
    TableReport,
    render,
    to_json,
    write_report,
)


@pytest.fixture
def trajectory():
    return TrajectoryReport(
        term="gizmo",
        representative_set=["apple", "pear", "modem"],
        per_epoch={
            "e1": [("apple", 0.91), ("pear", 0.52)],
            "e2": [("modem", 0.77)],
        },
        per_epoch_count={"e1": 3, "e2": 7},
    )


@pytest.fixture
def drift_report():
    return DriftReport(
        period0_label="p0",
        period1_label="p1",
        records=[
            DriftRecord("inch", 0.12, [("foot", 0.9)], [], "unstable"),
            DriftRecord("rock", 0.88, [("stone", 0.8)], [("metal", 0.7)], "stable"),
        ],
        excluded={"the": "excluded"},
    )


@pytest.fixture
def gender_report():
    return GenderReport(
        period_label="1900-1901",
        male_qualifiers=["stern"],
        female_qualifiers=["gentle"],
        per_year_votes={
            ("stern", "1900"): "male",
            ("stern", "1901"): "male",
            ("gentle", "1900"): "female",
            ("gentle", "1901"): "male",
        },
    )


@pytest.fixture
def equivalence():
    return EquivalenceReport(
        anchor_term="name04",
        anchor_epoch="e04",
        per_epoch={
            "e01": [("name01", 0.93), ("hull", 0.71)],
            "e02": None,
        },
    )


class TestTrajectoryRendering:
    def test_tsv_long_form(self, trajectory):
        lines = render(trajectory, "tsv").splitlines()
        assert lines[0] == "epoch\trank\tterm\tsimilarity\tanchor_count"
        assert lines[1] == "e1\t1\tapple\t0.910000\t3"
        assert lines[2] == "e1\t2\tpear\t0.520000\t3"
        assert lines[3] == "e2\t1\tmodem\t0.770000\t7"

    def test_json_structure(self, trajectory):
        data = json.loads(render(trajectory, "json"))
        assert data["type"] == "trajectory"
        assert data["term"] == "gizmo"
        assert data["epochs"]["e1"]["count"] == 3
        assert data["epochs"]["e2"]["neighbors"][0]["term"] == "modem"
        assert data["representative_set"] == ["apple", "pear", "modem"]

    def test_pretty_rank_grid(self, trajectory):
        text = render(trajectory, "pretty")
        lines = text.splitlines()
        assert "gizmo" in lines[0]
        grid = {line.split()[0]: line.split()[1:] for line in lines[2:]}
        assert grid["apple"] == ["1", ABSENT]
        assert grid["modem"] == [ABSENT, "1"]
        assert grid["(occurrences)"] == ["3", "7"]


class TestDriftRendering:
    def test_tsv_has_absent_neighbor_rows(self, drift_report):
        lines = render(drift_report, "tsv").splitlines()
        assert lines[0] == "term\tsigma01\tcategory\tperiod\trank\tneighbor\tsimilarity"
        assert lines[1] == "inch\t0.120000\tunstable\tp0\t1\tfoot\t0.900000"
        assert lines[2] == "inch\t0.120000\tunstable\tp1\t\t\t"
        assert lines[3].startswith("rock\t0.880000\tstable\tp0")

    def test_json_keeps_record_order_and_excluded(self, drift_report):
        data = json.loads(render(drift_report, "json"))
        assert [r["term"] for r in data["records"]] == ["inch", "rock"]
        assert data["excluded"] == {"the": "excluded"}
        assert data["period0"] == "p0"

    def test_pretty_mentions_categories(self, drift_report):
        text = render(drift_report, "pretty")
        assert "sigma01=0.1200" in text
        assert "[unstable]" in text
        assert ABSENT in text  # the empty p1 neighbor list


class TestGenderRendering:
    def test_tsv_vote_tallies(self, gender_report):
        lines = render(gender_report, "tsv").splitlines()
        assert lines[0] == "gender\trank\tqualifier\tyears_for\tyears_against"
        assert lines[1] == "male\t1\tstern\t2\t0"
        assert lines[2] == "female\t1\tgentle\t1\t1"

    def test_json_votes_nested_by_year(self, gender_report):
        data = json.loads(render(gender_report, "json"))
        assert data["votes"]["1900"] == {"gentle": "female", "stern": "male"}
        assert data["votes"]["1901"] == {"gentle": "male", "stern": "male"}
        assert data["period"] == "1900-1901"

    def test_pretty_lists_both_sides(self, gender_report):
        text = render(gender_report, "pretty")
        assert "male:   stern" in text
        assert "female: gentle" in text


class TestEquivalenceRendering:
    def test_tsv_marks_absent_epochs(self, equivalence):
        lines = render(equivalence, "tsv").splitlines()
        assert lines[0] == "epoch\trank\tterm\tsimilarity"
        assert lines[1] == "e01\t1\tname01\t0.930000"
        assert lines[3] == f"e02\t\t{ABSENT}\t"

    def test_json_absent_is_null(self, equivalence):
        data = json.loads(render(equivalence, "json"))
        assert data["epochs"]["e02"] is None
        assert data["epochs"]["e01"][1] == {"term": "hull", "similarity": 0.71}

    def test_pretty_grid(self, equivalence):
        text = render(equivalence, "pretty")
        lines = text.splitlines()
        assert lines[1].split() == ["epoch", "top1", "top2"]
        assert "name01 0.930" in text
        assert ABSENT in text


class TestTableRendering:
    def test_all_formats(self):
        table = TableReport("demo", ["rank", "term", "score"], [[1, "beta", 29.5]])
        tsv = render(table, "tsv")
        assert tsv == "rank\tterm\tscore\n1\tbeta\t29.500000\n"
        data = json.loads(render(table, "json"))
        assert data == {
            "type": "table",
            "title": "demo",
            "columns": ["rank", "term", "score"],
            "rows": [[1, "beta", 29.5]],
        }
        pretty = render(table, "pretty").splitlines()
        assert pretty[0] == "demo"
        assert pretty[1].split() == ["rank", "term", "score"]
        assert pretty[3].split() == ["1", "beta", "29.5000"]

    def test_long_cells_truncated(self):
        table = TableReport("t", ["term"], [["x" * 40]])
        pretty = render(table, "pretty")
        cell = pretty.splitlines()[3]
        assert len(cell) == MAX_CELL
        assert cell.endswith("…")

    def test_unknown_format_rejected(self):
        table = TableReport("t", ["a"], [])
        with pytest.raises(ConfigError):
            render(table, "xml")

    def test_unknown_report_type_rejected(self):
        with pytest.raises(ConfigError):
            render(object(), "tsv")


class TestWriteReport:
    def test_extension_per_format(self, tmp_path, trajectory):
        for fmt, ext in (("tsv", "tsv"), ("json", "json"), ("pretty", "txt")):
            path = write_report(render(trajectory, fmt), tmp_path / fmt, fmt)
            assert path == tmp_path / fmt / f"report.{ext}"
            assert path.read_text(encoding="utf-8") == render(trajectory, fmt)


# --- the JSON writer against json.dumps ---------------------------------------

def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


_TRICKY_CHARS = '"\\/\x00\x08\x0c\x1f\x7f\x80é€\u2028\ud800\udfff\U0001f600 aZ'
texts = st.text() | st.text(alphabet=st.sampled_from(_TRICKY_CHARS)) | st.text(
    alphabet=st.characters(categories=["Cs"]), min_size=1, max_size=3
)
floats = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | floats
    | floats.map(np.float64)
    | texts
)
json_values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(texts, children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.dictionaries(floats, children, max_size=3)
        | st.dictionaries(st.booleans(), children, max_size=2)
        | st.dictionaries(st.none() | st.integers() | texts, children, max_size=3)
    ),
    max_leaves=25,
)
pair_lists = st.lists(st.tuples(texts, floats | floats.map(np.float64)), max_size=4)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        """The text of ``json.dumps``, or the exception it raises."""
        try:
            expected = dumps(value)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                to_json(value)
        else:
            assert to_json(value) == expected

    @settings(max_examples=200, deadline=None)
    @given(pair_lists, st.integers(min_value=0, max_value=3))
    def test_neighbors_render_as_similarity_term_objects(self, pairs, depth):
        value, expected = Neighbors(pairs), [{"term": t, "similarity": s} for t, s in pairs]
        for level in range(depth):
            value, expected = {f"k{level}": [value]}, {f"k{level}": [expected]}
        assert to_json(value) == dumps(expected)

    @pytest.mark.parametrize("value", [
        -0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf, np.float64(0.1), 2**100, -(2**70),
        True, False, None, [], {}, (), [[]], {"a": {}}, "\ud800", "caf\u00e9 \"q\" \\ \x01",
        {1: "int key", 2.5: "float key"}, {True: "t", False: "f"}, {None: "null key"},
    ])
    def test_edge_values(self, value):
        assert to_json(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        object(), {1, 2}, b"bytes", np.int64(3), np.float32(1.5), np.array([1.0]),
        {"k": [1, object()]}, {(1, 2): "tuple key"}, {1: "a", "b": "mixed keys"},
    ])
    def test_unsupported_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            dumps(value)
        with pytest.raises(TypeError):
            to_json(value)


# The dict forms the JSON renderers built before ranked lists travelled as
# ``Neighbors``: render must still give their json.dumps bytes.

def _pairs(pairs):
    return [{"term": t, "similarity": s} for t, s in pairs]


def old_trajectory_json(report):
    return {
        "type": "trajectory",
        "term": report.term,
        "representative_set": list(report.representative_set),
        "epochs": {
            label: {
                "count": report.per_epoch_count.get(label, 0),
                "neighbors": _pairs(report.per_epoch[label]),
            }
            for label in sorted(report.per_epoch)
        },
    }


def old_drift_json(report):
    return {
        "type": "drift",
        "period0": report.period0_label,
        "period1": report.period1_label,
        "records": [
            {
                "term": record.term,
                "sigma01": record.sigma01,
                "category": record.category,
                "neighbors0": _pairs(record.neighbors0),
                "neighbors1": _pairs(record.neighbors1),
            }
            for record in report.records
        ],
        "excluded": dict(sorted(report.excluded.items())),
    }


def old_gender_json(report):
    votes = {}
    for (qualifier, year), vote in report.per_year_votes.items():
        votes.setdefault(year, {})[qualifier] = vote
    return {
        "type": "gender",
        "period": report.period_label,
        "male": list(report.male_qualifiers),
        "female": list(report.female_qualifiers),
        "votes": {year: dict(sorted(votes[year].items())) for year in sorted(votes)},
    }


def old_equivalence_json(report):
    return {
        "type": "equivalence",
        "term": report.anchor_term,
        "anchor_epoch": report.anchor_epoch,
        "epochs": {
            label: None if hits is None else _pairs(hits)
            for label, hits in sorted(report.per_epoch.items())
        },
    }


def old_table_json(report):
    return {
        "type": "table",
        "title": report.title,
        "columns": list(report.columns),
        "rows": [list(row) for row in report.rows],
    }


def assert_json_bytes(report, old_form):
    assert render(report, "json") == dumps(old_form(report)) + "\n"


class TestReportJsonBytes:
    def test_trajectory(self, trajectory):
        assert_json_bytes(trajectory, old_trajectory_json)
        trajectory.per_epoch["e3"] = []
        trajectory.per_epoch["é4"] = [("naïve", math.nan), ("x\"y", -0.0)]
        assert_json_bytes(trajectory, old_trajectory_json)

    def test_drift(self, drift_report):
        assert_json_bytes(drift_report, old_drift_json)
        drift_report.records.append(
            DriftRecord("café", math.inf, [("\u2028", 1e-7)], [("b", 5e-324)], "stable")
        )
        drift_report.excluded = {"zeta": "below-min-count", "alpha": "absent-period0"}
        assert_json_bytes(drift_report, old_drift_json)

    def test_gender(self, gender_report):
        assert_json_bytes(gender_report, old_gender_json)

    def test_equivalence(self, equivalence):
        assert_json_bytes(equivalence, old_equivalence_json)
        equivalence.per_epoch["e03"] = []
        assert_json_bytes(equivalence, old_equivalence_json)

    def test_table(self):
        table = TableReport("t ü", ["rank", "term", "score"],
                            [[1, "beta", 29.5], [2, "γ", math.nan], (3, "d", -1e16)])
        assert_json_bytes(table, old_table_json)
