"""Command-line front end.

``driftspace build`` turns a corpus tree (one subdirectory per epoch) into
per-epoch space files: it tokenizes every file once into integer ids,
counts the vocabulary to fix the filter, then accumulates each epoch from
its pair counts and writes it; with --workers a process pool shares out
files, then whole epochs.  The analysis commands load space files, run one
analysis, print the rendered report to stdout and write it under --out.

The parser is the one record of a command's settings (``SpaceConfig``
gives the space flags their defaults).  Every run writes the values it
used to ``config.txt`` in its output directory, in the ``key=value`` form
that ``--config`` reads back.  Every command is a pure function of its
inputs: rerunning with identical flags and files produces identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import corpus, diachronic, persistence, reports
from .errors import (
    ConfigError,
    DriftspaceError,
    MissingDataError,
    SpaceFormatError,
    TermNotFoundError,
)
from .space import (
    WEIGHTINGS,
    SemanticSpace,
    SpaceConfig,
    combine,  # noqa: F401 - unused here; bench/tracing.py hooks cli.combine
    inverse_log_weights,
    norm_frequency_series,
    seed_matrix,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NOT_FOUND = 4

WORKERS_ENV = "DRIFTSPACE_WORKERS"


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


# config.txt writes the values of a flag of many values comma-separated: a
# comma in a value as ``\,``, and a run of backslashes just before a comma,
# in a value or ending one that another follows, doubled.  Anything else is
# written as it is, and every value is read back as it was.

def _join_values(values) -> str:
    values = [re.sub(r"(\\*),", r"\1\1\\,", str(value)) for value in values]
    return ",".join([re.sub(r"\\+\Z", r"\g<0>\g<0>", v) for v in values[:-1]] + values[-1:])


def _split_values(text: str, sep: str = ",") -> list:
    """``text`` split at each ``sep`` not escaped by a backslash (``\\,``
    for a comma), read as ``_join_values`` writes it."""
    pieces = re.split(r"(\\*)" + re.escape(sep), text)  # text, a backslash run, text, ...
    values = [pieces[0]]
    for run, piece in zip(pieces[1::2], pieces[2::2]):
        values[-1] += run[:len(run) // 2]  # an odd run ends in an escaped separator
        if len(run) % 2:
            values[-1] += sep + piece
        else:
            values.append(piece)
    return values


def _config_value(action, text: str, where: str):
    """``text`` as the flag ``action`` takes it: a boolean for a store_true
    or store_false flag, else converted by the flag's type (item by item of
    a comma-separated list, as config.txt writes it, for a flag of many
    values) and checked against its choices."""
    convert = action.type or str
    try:
        if action.nargs == 0:
            return _BOOLEANS[text.lower()]
        if action.nargs == "+":
            value = [convert(piece.strip()) for piece in _split_values(text)
                     if piece.strip()] or None
        else:
            value = convert(text)
        if value is not None and (action.choices is None or value in action.choices):
            return value
    except (KeyError, ValueError):
        pass
    raise ConfigError(f"{where}invalid value for {action.dest}: {text!r}")


def _apply_config_file(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Set ``ns`` from the --config file's ``key = value`` lines.

    A key is any command's flag dest.  This command's flag converts the
    value; a key it has no flag for converts as another command's flag of
    that name, so one file can serve several commands.  A ``command`` line,
    as config.txt starts with, must name this command."""
    if not ns.config:
        return
    path = Path(ns.config)
    if not path.is_file():
        raise MissingDataError(f"config file not found: {path}")
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    flags = {action.dest: action for sub in commands.values() for action in sub._actions}
    flags.update((action.dest, action) for action in commands[ns.command]._actions)
    del flags["help"], flags["config"]
    for lineno, line in enumerate(corpus.read_utf8(path).splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{path}:{lineno}: "
        if "=" not in stripped:
            raise ConfigError(f"{where}expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key == "command":
            if raw != ns.command:
                raise ConfigError(f"{where}this file is for command {raw!r}, not {ns.command!r}")
            continue
        if key not in flags:
            raise ConfigError(f"{where}unknown config key {key!r}")
        setattr(ns, key, _config_value(flags[key], raw, where))


def _write_run_config(out_dir: Path, ns: argparse.Namespace) -> None:
    """config.txt: the command, then every set value but the run directory,
    in the form --config reads back."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"command={ns.command}"]
    for key, value in sorted(vars(ns).items()):
        if key in ("func", "command", "config", "out") or value is None:
            continue
        if isinstance(value, (list, tuple)):
            value = _join_values(value)
        lines.append(f"{key}={value}")
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv(text: str, flag: str) -> list:
    """The distinct items of the comma-separated value of ``flag``; ``\\,``
    is a comma inside an item, as config.txt writes it."""
    items = [piece.strip() for piece in _split_values(text)]
    items = list(dict.fromkeys(item for item in items if item))
    if not items:
        raise ConfigError(f"{flag} lists no values, got {text!r}")
    return items


def _parse_thresholds(text: str):
    parts = [piece for piece in str(text).split(",") if piece.strip()]
    if len(parts) != 3:
        raise ConfigError(f"thresholds needs three comma-separated values, got {text!r}")
    try:
        return tuple(float(piece) for piece in parts)
    except ValueError:
        raise ConfigError(f"thresholds must be numbers, got {text!r}") from None


def _read_terms_file(path) -> list:
    path = Path(path)
    if not path.is_file():
        raise MissingDataError(f"terms file not found: {path}")
    terms = []
    for lineno, line in enumerate(corpus.read_utf8(path).splitlines(), 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            terms.append(_normalize_term(stripped, where=f"{path}:{lineno}: "))
    if not terms:
        raise ConfigError(f"terms file is empty: {path}")
    return list(dict.fromkeys(terms))


def _normalize_term(raw: str, where: str = "") -> str:
    """A term argument under the tokenizer's rules (lowercase, trimmed
    hyphens and apostrophes); anything that is not one token is an error,
    whose message starts with ``where``."""
    sentences = corpus.tokenize(raw)
    if len(sentences) != 1 or len(sentences[0]) != 1:
        raise ConfigError(f"{where}term {raw!r} is not a single token")
    return sentences[0][0]


def _resolve_workers(ns: argparse.Namespace) -> int:
    """--workers, else $DRIFTSPACE_WORKERS, else 1."""
    if ns.workers is None:
        env = os.environ.get(WORKERS_ENV) or "1"
        if not env.strip().isdecimal() or int(env) < 1:
            raise ConfigError(f"{WORKERS_ENV} must be an integer >= 1, got {env!r}")
        return int(env)
    if ns.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {ns.workers}")
    return ns.workers


def _emit(ns: argparse.Namespace, report) -> int:
    """Write the report and config.txt under --out, then print the report.

    A reader that closes stdout early (``| head``) costs nothing: the report
    is already complete on disk, so that is still a success."""
    text = reports.render(report, ns.format)
    out_dir = Path(ns.out)
    path = reports.write_report(text, out_dir, ns.format)
    _write_run_config(out_dir, ns)
    print(f"report written to {path}", file=sys.stderr)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at /dev/null so that the interpreter's final flush of
        # what is still buffered does not fail again at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
    return EXIT_OK


# --- build -------------------------------------------------------------------

def _build_epoch(task):
    """Accumulate one epoch from its id stream and save it; runs in a pool
    worker or in-process, and returns what the build prints."""
    config, label, terms, ids, sentence_ids, seeds, path, float_width = task
    space = SemanticSpace(config, label)
    space.ingest_ids(terms, ids, sentence_ids, seeds)
    persistence.save_space(space, path, float_width=float_width)
    return path, len(space), space.ingested_tokens


def _ordered_map(pool, workers, fn, tasks):
    """``fn`` over ``tasks`` in order.  With a pool, tasks are drawn from
    the iterable only as workers free up, so only a few tasks' inputs are
    alive at once."""
    if pool is None:
        yield from map(fn, tasks)
        return
    pending = deque()
    try:
        for task in tasks:
            if len(pending) > workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, task))
        while pending:
            yield pending.popleft().result()
    finally:
        # After a failure, tasks not yet started never run.
        for future in pending:
            future.cancel()


def cmd_build(ns: argparse.Namespace) -> int:
    # The resolved values go back into ``ns``, so config.txt records them.
    if ns.order_span is None:
        ns.order_span = min(SpaceConfig.order_span, (ns.window - 1) // 2)
    config = SpaceConfig(**{f.name: getattr(ns, f.name) for f in fields(SpaceConfig)})
    root = Path(ns.corpus_root)
    labels = _csv(ns.epochs, "--epochs") if ns.epochs else corpus.epoch_labels(root)
    epoch_files = {label: corpus.list_epoch_files(root, label) for label in labels}
    ns.workers = workers = _resolve_workers(ns)
    out_dir = Path(ns.out)

    # One pool per build: it tokenizes files, then accumulates and saves
    # whole epochs.  Every float is computed once, in one process, from
    # integer counts, so the worker count cannot change a byte.  A pool
    # forks all its workers at once, so it has no more than there are
    # files.  scipy is loaded first so that forked workers inherit it.
    import scipy.sparse  # noqa: F401

    paths = [path for label in labels for path in epoch_files[label]]
    workers = max(1, min(workers, len(paths)))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        read = functools.partial(corpus.read_token_ids, docs_per_line=ns.docs_per_line)
        files = list(_ordered_map(pool, workers, read, paths))
        terms, file_ids = corpus.merge_vocabularies(files)
        file_lengths = [f.lengths for f in files]
        del files  # the per-file vocabularies are merged into ``terms``
        counts = corpus.count_ids(terms, file_ids)
        retained, retained_index = corpus.build_filter(terms, counts, ns.top_k, ns.min_count)
        if not len(retained):
            raise ConfigError("the vocabulary filter retains no terms; lower min_count or top_k")
        weights = None
        if config.weighting == "inverse_log_frequency":
            # The vocabulary ids of rows 0, 1, ... of ``retained`` sort after the -1s.
            weights = inverse_log_weights(counts[np.argsort(retained_index)[-len(retained):]])
        seeds = seed_matrix(retained, config, weights)

        def epoch_tasks():
            first = 0
            for label in labels:
                last = first + len(epoch_files[label])
                ids, sentence_ids = corpus.filtered_ids(
                    _concat(file_ids[first:last]),
                    _concat(file_lengths[first:last]),
                    retained_index,
                    compact=config.compaction,
                )
                # The epoch's files are no longer needed once its task exists.
                file_ids[first:last] = [None] * (last - first)
                file_lengths[first:last] = [None] * (last - first)
                first = last
                # Only the epoch's own terms, renumbered 0..n-1; as a list, since
                # a str array pickles every term at the longest one's width.
                present = np.unique(ids[ids >= 0])
                local = np.where(ids >= 0, np.searchsorted(present, ids), -1)
                yield (config, label, retained[present].tolist(), local,
                       sentence_ids, seeds[present], out_dir / f"{label}.space",
                       ns.float_width)

        out_dir.mkdir(parents=True, exist_ok=True)
        for path, n_terms, n_tokens in _ordered_map(pool, workers, _build_epoch,
                                                    epoch_tasks()):
            print(f"{path}: {n_terms} terms, {n_tokens} retained tokens")
    corpus.write_stats_tsv(terms, counts, out_dir / "vocabulary.tsv")
    _write_run_config(out_dir, ns)
    print(f"vocabulary: {len(terms)} distinct terms, {len(retained)} retained after filtering")
    return EXIT_OK


def _concat(arrays) -> np.ndarray:
    arrays = list(arrays)
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int32)


# --- other commands ----------------------------------------------------------

def cmd_combine(ns: argparse.Namespace) -> int:
    merged = persistence.combine_files(ns.spaces)
    path = persistence.save_space(merged, ns.out)
    print(f"{path}: {len(merged)} terms from {len(ns.spaces)} spaces")
    return EXIT_OK


def cmd_trajectory(ns: argparse.Namespace) -> int:
    total = persistence.load_space(ns.total)
    extra = _read_terms_file(ns.extra_terms) if ns.extra_terms else ()
    # The flags are checked before the query that picks the representatives;
    # the epochs are then loaded with only the rows the report reads.
    if ns.top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {ns.top_n}")
    chosen = diachronic.representatives(total, ns.term, ns.r_size, ns.min_count, extra)
    epochs = persistence.load_spaces(ns.spaces, terms=[ns.term, *chosen])
    report = diachronic.time_trajectory(total, epochs, ns.term, top_n=ns.top_n, chosen=chosen)
    return _emit(ns, report)


def cmd_drift(ns: argparse.Namespace) -> int:
    space0, space1 = persistence.load_spaces([ns.space0, ns.space1])
    exclude = _read_terms_file(ns.exclude_file) if ns.exclude_file else ()
    report = diachronic.drift(
        space0,
        space1,
        min_total_count=ns.min_total_count,
        top_n=ns.top_n,
        thresholds=_parse_thresholds(ns.thresholds),
        exclude=exclude,
        terms=[_normalize_term(t) for t in _csv(ns.terms, "--terms")] if ns.terms else None,
    )
    return _emit(ns, report)


def cmd_bias(ns: argparse.Namespace) -> int:
    qualifiers = _read_terms_file(ns.qualifiers)
    man_terms = _read_terms_file(ns.man_terms)
    woman_terms = _read_terms_file(ns.woman_terms)
    epochs = persistence.load_spaces(ns.spaces, terms=qualifiers + man_terms + woman_terms)
    period = None
    if ns.period:
        period = _period(ns.period, sorted(space.epoch_label for space in epochs))
    report = diachronic.qualifier_gender(
        epochs, qualifiers, man_terms, woman_terms, period=period
    )
    return _emit(ns, report)


def _period(text: str, labels) -> list:
    """The epochs of ``labels`` that --period names: a ``start:end`` range
    split at the first colon not escaped as ``\\:``, else a comma list.
    ``\\:`` is a colon inside a label, as ``\\,`` is a comma inside an item."""
    bounds = _split_values(text, ":")
    if len(bounds) > 1:
        start, end = bounds[0], ":".join(bounds[1:])
        period = [label for label in labels if start <= label <= end]
        if not period:
            raise ConfigError(f"period {text!r} selects no epochs from {labels}")
        return period
    return [_split_values(item, ":")[0] for item in _csv(text, "--period")]


def cmd_equiv(ns: argparse.Namespace) -> int:
    report = persistence.equivalents_files(
        ns.spaces,
        ns.term,
        ns.anchor_epoch,
        top_k=ns.equiv_top_k,
        min_count=ns.min_count,
        exclude_self=ns.exclude_self,
    )
    return _emit(ns, report)


def cmd_predict(ns: argparse.Namespace) -> int:
    space = persistence.load_space(ns.space)
    ranked = diachronic.predict_position(
        space, ns.term, ns.offset, top_n=ns.top_n, min_count=ns.min_count
    )
    rows = [[rank, term, score] for rank, (term, score) in enumerate(ranked, 1)]
    report = reports.TableReport(
        f"predicted offset {ns.offset:+d} neighbors of {ns.term!r} "
        f"in {space.epoch_label}",
        ["rank", "term", "score"],
        rows,
    )
    return _emit(ns, report)


def cmd_neighbors(ns: argparse.Namespace) -> int:
    space = persistence.load_space(ns.space)
    query = space.term_vector(ns.term, normalized=True)
    exclude = () if ns.include_self else {ns.term}
    ranked = space.nearest_neighbors(
        query, ns.top_n, min_count=ns.min_count, exclude=exclude
    )
    rows = [[rank, term, sigma] for rank, (term, sigma) in enumerate(ranked, 1)]
    report = reports.TableReport(
        f"nearest neighbors of {ns.term!r} in {space.epoch_label}",
        ["rank", "term", "similarity"],
        rows,
    )
    return _emit(ns, report)


def cmd_normfreq(ns: argparse.Namespace) -> int:
    epochs = sorted(persistence.load_spaces(ns.spaces, terms=[ns.term]),
                    key=lambda space: space.epoch_label)
    series = norm_frequency_series(epochs, ns.term)
    rows = [[label, count, squared] for label, count, squared in series]
    report = reports.TableReport(
        f"count and squared context norm of {ns.term!r} per epoch",
        ["epoch", "count", "squared_norm"],
        rows,
    )
    return _emit(ns, report)


def cmd_inspect(ns: argparse.Namespace) -> int:
    space = persistence.load_space(ns.space)
    config = space.config
    print(f"epoch_label={space.epoch_label}")
    print(f"terms={len(space)} ingested_tokens={space.ingested_tokens}")
    print(" ".join(f"{f.name}={getattr(config, f.name)}" for f in fields(config)))
    if ns.tsv:
        path = persistence.write_space_tsv(space, ns.tsv)
        print(f"wrote {path}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------

# Input paths are made absolute, so config.txt records where the inputs are.
_path = os.path.abspath


def _add_report_flags(sub, default_top_n=None):
    sub.add_argument("--out", required=True, help="run directory for report + config")
    sub.add_argument("--format", choices=reports.FORMATS, default="pretty")
    if default_top_n is not None:
        sub.add_argument("--top-n", type=int, default=default_top_n)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; runs and --config files set only namespaces."""
    parser = argparse.ArgumentParser(
        prog="driftspace",
        description=(
            "Deterministic random-indexing semantic spaces per time slice, "
            "with analyses of how word usage moves between slices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build per-epoch space files from a corpus tree")
    build.add_argument("--corpus", dest="corpus_root", type=_path, required=True)
    build.add_argument("--epochs", help="comma-separated epoch labels (default: all)")
    build.add_argument("--out", required=True)
    build.add_argument("--dim", type=int, default=SpaceConfig.dim)
    build.add_argument("--window", type=int, default=SpaceConfig.window)
    build.add_argument("--order-span", type=int, default=None,
                       help=f"default: min({SpaceConfig.order_span}, (window-1)/2)")
    build.add_argument("--global-seed", type=int, default=SpaceConfig.global_seed)
    build.add_argument("--perm-seed", type=int, default=SpaceConfig.perm_seed)
    build.add_argument("--weighting", choices=WEIGHTINGS, default=SpaceConfig.weighting)
    build.add_argument("--no-compaction", dest="compaction", action="store_false",
                       default=SpaceConfig.compaction,
                       help="keep holes where filtered tokens were")
    build.add_argument("--docs-per-line", action="store_true",
                       help="treat each line of each file as one document")
    build.add_argument("--top-k", type=int, default=100,
                       help="size of the frequency stop set")
    build.add_argument("--min-count", type=int, default=5)
    build.add_argument("--float-width", type=int, choices=(32, 64), default=64)
    build.add_argument("--workers", type=int, default=None,
                       help=f"parallel ingestion workers (default ${WORKERS_ENV} or 1)")
    build.set_defaults(func=cmd_build)

    comb = sub.add_parser("combine", help="sum spaces built under one config")
    comb.add_argument("spaces", nargs="+", type=_path)
    comb.add_argument("--out", required=True, help="output space file")
    comb.set_defaults(func=cmd_combine)

    traj = sub.add_parser("trajectory", help="per-epoch neighbor trajectory of a term")
    traj.add_argument("term")
    traj.add_argument("--total", type=_path, required=True, help="combined space file")
    traj.add_argument("--spaces", nargs="+", type=_path, required=True,
                      help="per-epoch space files")
    traj.add_argument("--r-size", type=int, default=200)
    traj.add_argument("--min-count", type=int, default=1)
    traj.add_argument("--extra-terms", type=_path, help="file of extra representative terms")
    _add_report_flags(traj, default_top_n=5)
    traj.set_defaults(func=cmd_trajectory)

    drift_cmd = sub.add_parser("drift", help="inter-period change ranking")
    drift_cmd.add_argument("--space0", type=_path, required=True)
    drift_cmd.add_argument("--space1", type=_path, required=True)
    drift_cmd.add_argument("--min-total-count", type=int, default=1500)
    drift_cmd.add_argument("--thresholds", default="0.70,0.35,0.15",
                           help="stable,moderate,fast boundaries")
    drift_cmd.add_argument("--exclude-file", type=_path, help="file of terms to skip")
    drift_cmd.add_argument("--terms", help="comma-separated terms to restrict to")
    _add_report_flags(drift_cmd, default_top_n=15)
    drift_cmd.set_defaults(func=cmd_drift)

    bias = sub.add_parser("bias", help="gendered-qualifier attribution per year")
    bias.add_argument("--spaces", nargs="+", type=_path, required=True)
    bias.add_argument("--qualifiers", type=_path, required=True,
                      help="file, one qualifier per line")
    bias.add_argument("--man-terms", type=_path, required=True)
    bias.add_argument("--woman-terms", type=_path, required=True)
    bias.add_argument("--period", help="label range start:end or comma list; "
                      "\\: and \\, escape a colon and a comma")
    _add_report_flags(bias)
    bias.set_defaults(func=cmd_bias)

    equiv = sub.add_parser("equiv", help="per-epoch equivalents of an anchor term")
    equiv.add_argument("term")
    equiv.add_argument("--anchor-epoch", required=True)
    equiv.add_argument("--spaces", nargs="+", type=_path, required=True)
    equiv.add_argument("--top-k", dest="equiv_top_k", type=int, default=2)
    equiv.add_argument("--min-count", type=int, default=1)
    equiv.add_argument("--exclude-self", action="store_true")
    _add_report_flags(equiv)
    equiv.set_defaults(func=cmd_equiv)

    predict = sub.add_parser("predict", help="decode a term's positional neighbors")
    predict.add_argument("term")
    predict.add_argument("offset", type=int, help="position offset, e.g. 1 or -1")
    predict.add_argument("--space", type=_path, required=True)
    predict.add_argument("--min-count", type=int, default=1)
    _add_report_flags(predict, default_top_n=5)
    predict.set_defaults(func=cmd_predict)

    neigh = sub.add_parser("neighbors", help="nearest neighbors of a term")
    neigh.add_argument("term")
    neigh.add_argument("--space", type=_path, required=True)
    neigh.add_argument("--min-count", type=int, default=1)
    neigh.add_argument("--include-self", action="store_true")
    _add_report_flags(neigh, default_top_n=20)
    neigh.set_defaults(func=cmd_neighbors)

    normfreq = sub.add_parser("normfreq", help="per-epoch count and squared norm")
    normfreq.add_argument("term")
    normfreq.add_argument("--spaces", nargs="+", type=_path, required=True)
    _add_report_flags(normfreq)
    normfreq.set_defaults(func=cmd_normfreq)

    inspect = sub.add_parser("inspect", help="print a space file's header; export TSV")
    inspect.add_argument("space", type=_path)
    inspect.add_argument("--tsv", type=_path, help="write term/count/squared-norm TSV here")
    inspect.set_defaults(func=cmd_inspect)

    for command in sub.choices.values():
        command.add_argument("--config", help="key=value file, such as a run's "
                             "config.txt; overrides flags")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config_file(ns, parser)
        if getattr(ns, "term", None) is not None:
            ns.term = _normalize_term(str(ns.term))
        return ns.func(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TermNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (MissingDataError, SpaceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except DriftspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenProcessPool:
        print("error: a worker process died (killed, or out of memory); spaces not "
              "reported as written were not built", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # anything else is a bug, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
