"""Report rendering: TSV rows, JSON objects, and aligned text tables.

Every analysis result renders in three formats.  TSV is long-form (one
fact per row) for machine use; JSON mirrors the report structure; pretty
prints epoch-by-column tables with absent cells shown as an em dash and
cell contents capped at a fixed width.

JSON is written by ``to_json``: the bytes of ``json.dumps(value, indent=2,
sort_keys=True)`` without the cost of the standard library's pure-Python
indenting encoder, which ``json.dumps`` runs whenever ``indent`` is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .diachronic import (
    DriftReport,
    EquivalenceReport,
    GenderReport,
    TrajectoryReport,
)
from .errors import ConfigError

FORMATS = ("tsv", "json", "pretty")

ABSENT = "—"  # em dash marks absent epochs / unranked cells
MAX_CELL = 18


@dataclass
class TableReport:
    """Generic single-table result (neighbors, predictions, norm series)."""

    title: str
    columns: list
    rows: list


class Neighbors(list):
    """Ranked ``(term, similarity)`` pairs; ``to_json`` writes each pair as
    the object ``{"similarity": similarity, "term": term}``."""

    __slots__ = ()


_INFINITY = float("inf")


def _float(value) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _quote(int.__repr__(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _write(value, out: list, newline: str) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a line
    break plus the indentation of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, Neighbors) and value:
        inner = newline + "  "
        field = inner + "  "
        head = "{" + field + '"similarity": '
        middle = "," + field + '"term": '
        tail = inner + "}"
        pairs = [
            head + _float(sigma) + middle + _quote(term) + tail
            for term, sigma in value
        ]
        out.append("[" + inner + ("," + inner).join(pairs) + newline + "]")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        separator = inner
        for item in value:
            out.append(separator)
            _write(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        separator = inner
        for key, item in sorted(value.items()):
            out.append(separator + _key(key) + ": ")
            _write(item, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def to_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, with
    ``Neighbors`` lists written as lists of similarity/term objects."""
    out: list = []
    _write(value, out, "\n")
    return "".join(out)


def _cell(value, width: int = MAX_CELL) -> str:
    if isinstance(value, float):
        text = f"{value:.4f}"
    else:
        text = str(value)
    if len(text) > width:
        text = text[: width - 1] + "…"
    return text


def _align(columns, rows) -> str:
    table = [[_cell(v) for v in row] for row in rows]
    headers = [_cell(c) for c in columns]
    widths = [len(h) for h in headers]
    for row in table:
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(widths))).rstrip(),
    ]
    for row in table:
        lines.append("  ".join(t.ljust(widths[i]) for i, t in enumerate(row)).rstrip())
    return "\n".join(lines)


def _tsv(columns, rows) -> str:
    lines = ["\t".join(str(c) for c in columns)]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:.6f}")
            else:
                cells.append(str(value))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


# --- trajectory -----------------------------------------------------------

def _trajectory_tsv(report: TrajectoryReport) -> str:
    rows = []
    for label in sorted(report.per_epoch):
        ranked = report.per_epoch[label]
        count = report.per_epoch_count.get(label, 0)
        if not ranked:
            rows.append([label, "", "", "", count])
        for rank, (term, sigma) in enumerate(ranked, start=1):
            rows.append([label, rank, term, sigma, count])
    return _tsv(["epoch", "rank", "term", "similarity", "anchor_count"], rows)


def _trajectory_json(report: TrajectoryReport) -> dict:
    return {
        "type": "trajectory",
        "term": report.term,
        "representative_set": list(report.representative_set),
        "epochs": {
            label: {
                "count": report.per_epoch_count.get(label, 0),
                "neighbors": Neighbors(report.per_epoch[label]),
            }
            for label in sorted(report.per_epoch)
        },
    }


def _trajectory_pretty(report: TrajectoryReport) -> str:
    labels = sorted(report.per_epoch)
    ranks = {
        label: {term: rank for rank, (term, _) in enumerate(report.per_epoch[label], 1)}
        for label in labels
    }
    row_terms = []
    for label in labels:
        for term, _ in report.per_epoch[label]:
            if term not in row_terms:
                row_terms.append(term)
    rows = []
    for term in row_terms:
        rows.append(
            [term] + [ranks[label].get(term, ABSENT) for label in labels]
        )
    rows.append(
        ["(occurrences)"] + [report.per_epoch_count.get(label, 0) for label in labels]
    )
    header = f"trajectory of {report.term!r} (cells are per-epoch ranks)"
    return header + "\n" + _align(["term"] + labels, rows)


# --- drift ----------------------------------------------------------------

def _drift_tsv(report: DriftReport) -> str:
    rows = []
    for record in report.records:
        for period, neighbors in (
            (report.period0_label, record.neighbors0),
            (report.period1_label, record.neighbors1),
        ):
            for rank, (neighbor, sigma) in enumerate(neighbors, start=1):
                rows.append(
                    [record.term, record.sigma01, record.category,
                     period, rank, neighbor, sigma]
                )
            if not neighbors:
                rows.append(
                    [record.term, record.sigma01, record.category, period, "", "", ""]
                )
    return _tsv(
        ["term", "sigma01", "category", "period", "rank", "neighbor", "similarity"],
        rows,
    )


def _drift_json(report: DriftReport) -> dict:
    return {
        "type": "drift",
        "period0": report.period0_label,
        "period1": report.period1_label,
        "records": [
            {
                "term": record.term,
                "sigma01": record.sigma01,
                "category": record.category,
                "neighbors0": Neighbors(record.neighbors0),
                "neighbors1": Neighbors(record.neighbors1),
            }
            for record in report.records
        ],
        "excluded": dict(sorted(report.excluded.items())),
    }


def _drift_pretty(report: DriftReport) -> str:
    lines = [
        f"drift {report.period0_label} -> {report.period1_label} "
        f"({len(report.records)} terms, most changed first)"
    ]
    for record in report.records:
        lines.append(f"{record.term}  sigma01={record.sigma01:.4f}  [{record.category}]")
        for period, neighbors in (
            (report.period0_label, record.neighbors0),
            (report.period1_label, record.neighbors1),
        ):
            joined = ", ".join(f"{t} {s:.3f}" for t, s in neighbors) or ABSENT
            lines.append(f"  {period}: {joined}")
    return "\n".join(lines)


# --- gender ---------------------------------------------------------------

def _gender_years(report: GenderReport, qualifier: str, vote: str) -> int:
    return sum(
        1
        for (q, _), v in report.per_year_votes.items()
        if q == qualifier and v == vote
    )


def _gender_tsv(report: GenderReport) -> str:
    rows = []
    for gender, ranked in (
        ("male", report.male_qualifiers),
        ("female", report.female_qualifiers),
    ):
        for rank, qualifier in enumerate(ranked, start=1):
            rows.append(
                [gender, rank, qualifier,
                 _gender_years(report, qualifier, gender),
                 _gender_years(report, qualifier, "female" if gender == "male" else "male")]
            )
    return _tsv(["gender", "rank", "qualifier", "years_for", "years_against"], rows)


def _gender_json(report: GenderReport) -> dict:
    votes: dict = {}
    for (qualifier, year), vote in report.per_year_votes.items():
        votes.setdefault(year, {})[qualifier] = vote
    return {
        "type": "gender",
        "period": report.period_label,
        "male": list(report.male_qualifiers),
        "female": list(report.female_qualifiers),
        "votes": {year: dict(sorted(votes[year].items())) for year in sorted(votes)},
    }


def _gender_pretty(report: GenderReport) -> str:
    male = ", ".join(report.male_qualifiers) or ABSENT
    female = ", ".join(report.female_qualifiers) or ABSENT
    return "\n".join(
        [
            f"gendered qualifiers, period {report.period_label}",
            f"male:   {male}",
            f"female: {female}",
        ]
    )


# --- equivalence ------------------------------------------------------------

def _equivalence_tsv(report: EquivalenceReport) -> str:
    rows = []
    for label in sorted(report.per_epoch):
        hits = report.per_epoch[label]
        if hits is None:
            rows.append([label, "", ABSENT, ""])
            continue
        for rank, (term, sigma) in enumerate(hits, start=1):
            rows.append([label, rank, term, sigma])
    return _tsv(["epoch", "rank", "term", "similarity"], rows)


def _equivalence_json(report: EquivalenceReport) -> dict:
    return {
        "type": "equivalence",
        "term": report.anchor_term,
        "anchor_epoch": report.anchor_epoch,
        "epochs": {
            label: None if hits is None else Neighbors(hits)
            for label, hits in sorted(report.per_epoch.items())
        },
    }


def _equivalence_pretty(report: EquivalenceReport) -> str:
    top_k = max((len(h) for h in report.per_epoch.values() if h), default=0)
    columns = ["epoch"] + [f"top{r}" for r in range(1, top_k + 1)]
    rows = []
    for label in sorted(report.per_epoch):
        hits = report.per_epoch[label]
        row = [label]
        for r in range(top_k):
            if hits is not None and r < len(hits):
                term, sigma = hits[r]
                row.append(f"{term} {sigma:.3f}")
            else:
                row.append(ABSENT)
        rows.append(row)
    header = (
        f"equivalents of {report.anchor_term!r} "
        f"(anchor epoch {report.anchor_epoch})"
    )
    return header + "\n" + _align(columns, rows)


# --- generic table ----------------------------------------------------------

def _table_tsv(report: TableReport) -> str:
    return _tsv(report.columns, report.rows)


def _table_json(report: TableReport) -> dict:
    return {
        "type": "table",
        "title": report.title,
        "columns": list(report.columns),
        "rows": [list(row) for row in report.rows],
    }


def _table_pretty(report: TableReport) -> str:
    return report.title + "\n" + _align(report.columns, report.rows)


_RENDERERS = {
    TrajectoryReport: (_trajectory_tsv, _trajectory_json, _trajectory_pretty),
    DriftReport: (_drift_tsv, _drift_json, _drift_pretty),
    GenderReport: (_gender_tsv, _gender_json, _gender_pretty),
    EquivalenceReport: (_equivalence_tsv, _equivalence_json, _equivalence_pretty),
    TableReport: (_table_tsv, _table_json, _table_pretty),
}


def render(report, fmt: str) -> str:
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    try:
        to_tsv, to_value, to_pretty = _RENDERERS[type(report)]
    except KeyError:
        raise ConfigError(f"no renderer for {type(report).__name__}") from None
    if fmt == "tsv":
        return to_tsv(report)
    if fmt == "json":
        return to_json(to_value(report)) + "\n"
    return to_pretty(report) + "\n"


def write_report(text: str, out_dir, fmt: str) -> Path:
    """Write a report rendered in ``fmt`` to ``out_dir/report.<ext>`` and
    return the path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = {"tsv": "tsv", "json": "json", "pretty": "txt"}[fmt]
    path = out_dir / f"report.{ext}"
    path.write_text(text, encoding="utf-8")
    return path
