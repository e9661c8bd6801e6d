"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import contextlib
import io
import json
import os
import random
import struct
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftspace
from driftspace import (
    ConfigError,
    SemanticSpace,
    SpaceConfig,
    SpaceFormatError,
    cli,
    combine,
    diachronic,
    load_space,
    load_spaces,
    persistence,
    reports,
)
from driftspace.space import norm_frequency_series

from helpers import (
    assert_spaces_close,
    build_space,
    count_vocabulary,
    filtered_stream,
    inverse_log_weight_map,
    random_sentences,
    read_documents,
    retained_terms,
    sentences_to_text,
    two_phase_epochs,
    write_epoch_dir,
)

SRC = Path(driftspace.__file__).resolve().parent.parent

BUILD_FLAGS = [
    "--dim", "64", "--window", "5",
    "--top-k", "0", "--min-count", "1",
    "--global-seed", "3", "--perm-seed", "4",
]


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    epochs = two_phase_epochs(
        n_epochs=2, switch_after=1, probe_sents=15, anchor_sents=5, filler_sents=10
    )
    for label, sentences in epochs.items():
        write_epoch_dir(root, label, sentences, n_files=4)
    return root


@pytest.fixture(scope="module")
def built(corpus_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("build")
    code = cli.main(
        ["build", "--corpus", str(corpus_root), "--out", str(out)] + BUILD_FLAGS
    )
    assert code == cli.EXIT_OK
    return out


class TestBuild:
    def test_artifacts_exist(self, built):
        names = sorted(p.name for p in built.iterdir())
        assert names == ["config.txt", "e1.space", "e2.space", "vocabulary.tsv"]

    def test_spaces_load_with_requested_config(self, built):
        space = load_space(built / "e1.space")
        assert space.epoch_label == "e1"
        assert space.config.dim == 64
        assert space.config.window == 5
        assert "gizmo" in space

    def test_config_txt_records_resolved_values(self, built):
        lines = (built / "config.txt").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "command=build"
        entries = dict(line.split("=", 1) for line in lines[1:])
        assert entries["dim"] == "64"
        assert entries["top_k"] == "0"
        assert "func" not in entries
        keys = [line.split("=", 1)[0] for line in lines[1:]]
        assert keys == sorted(keys)

    def test_vocabulary_tsv_is_ranked(self, built):
        lines = (built / "vocabulary.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "term\tcount"
        counts = [int(line.split("\t")[1]) for line in lines[1:]]
        assert counts == sorted(counts, reverse=True)

    def test_rerun_is_byte_identical(self, corpus_root, built, tmp_path):
        out = tmp_path / "again"
        code = cli.main(
            ["build", "--corpus", str(corpus_root), "--out", str(out)] + BUILD_FLAGS
        )
        assert code == cli.EXIT_OK
        for name in ("e1.space", "e2.space", "vocabulary.tsv"):
            assert (out / name).read_bytes() == (built / name).read_bytes()

    def test_parallel_build_after_loads_writes_the_sequential_bytes(self, corpus_root, built,
                                                                    tmp_path):
        # The loads start the section-reading threads; the build's worker
        # processes are forked after them.
        driftspace.load_spaces([built / "e1.space", built / "e2.space"])
        out = tmp_path / "par"
        code = cli.main(
            ["build", "--corpus", str(corpus_root), "--out", str(out), "--workers", "2"]
            + BUILD_FLAGS
        )
        assert code == cli.EXIT_OK
        for name in ("e1.space", "e2.space", "vocabulary.tsv"):
            assert (out / name).read_bytes() == (built / name).read_bytes()

    def test_parallel_build_matches_sequential(self, corpus_root, built, tmp_path):
        out = tmp_path / "par"
        code = cli.main(
            ["build", "--corpus", str(corpus_root), "--out", str(out), "--workers", "2"]
            + BUILD_FLAGS
        )
        assert code == cli.EXIT_OK
        for name in ("e1.space", "e2.space"):
            parallel = load_space(out / name)
            sequential = load_space(built / name)
            assert parallel.epoch_label == sequential.epoch_label
            assert parallel.terms.tolist() == sequential.terms.tolist()
            assert np.array_equal(parallel.counts, sequential.counts)
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in built.iterdir())
        for path in built.iterdir():
            if path.name == "config.txt":
                # The run record differs only in the flags that differ.
                mine = (out / path.name).read_text(encoding="utf-8").splitlines()
                theirs = path.read_text(encoding="utf-8").splitlines()
                assert [line for line in mine if not line.startswith(("out=", "workers="))] == [
                    line for line in theirs if not line.startswith(("out=", "workers="))
                ]
            else:
                assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_the_pool_has_no_more_workers_than_files(self, tmp_path, monkeypatch):
        root = tmp_path / "corpus"
        epochs = two_phase_epochs(n_epochs=2, switch_after=1, probe_sents=6, anchor_sents=3,
                                  filler_sents=4)
        for label, sentences in epochs.items():
            write_epoch_dir(root, label, sentences, n_files=1)
        sizes = []

        class Recorded(ThreadPoolExecutor):  # forks nothing
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorded)
        base = ["build", "--corpus", str(root), *BUILD_FLAGS]
        assert cli.main(base + ["--out", str(tmp_path / "seq")]) == cli.EXIT_OK
        assert cli.main(base + ["--out", str(tmp_path / "six"), "--workers", "6"]) == cli.EXIT_OK
        assert sizes == [2]
        assert cli.main(base + ["--out", str(tmp_path / "one"), "--workers", "6",
                                "--epochs", "e1"]) == cli.EXIT_OK
        assert sizes == [2]  # one file: no pool
        config = (tmp_path / "six" / "config.txt").read_text(encoding="utf-8").splitlines()
        assert "workers=6" in config
        for name in ("e1.space", "e2.space", "vocabulary.tsv"):
            assert (tmp_path / "six" / name).read_bytes() == (tmp_path / "seq" / name).read_bytes()

    def test_workers_env_variable(self, corpus_root, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        out = tmp_path / "env"
        code = cli.main(
            ["build", "--corpus", str(corpus_root), "--out", str(out)] + BUILD_FLAGS
        )
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "2.5"])
    def test_a_bad_workers_env_variable_is_exit_2(self, corpus_root, tmp_path, monkeypatch,
                                                  capsys, value):
        monkeypatch.setenv(cli.WORKERS_ENV, value)
        out = tmp_path / "env"
        code = cli.main(
            ["build", "--corpus", str(corpus_root), "--out", str(out)] + BUILD_FLAGS
        )
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cli.WORKERS_ENV} must be an integer >= 1")
        assert not out.exists()

    def test_epoch_subset(self, corpus_root, tmp_path):
        out = tmp_path / "subset"
        code = cli.main(
            ["build", "--corpus", str(corpus_root), "--out", str(out),
             "--epochs", "e2"] + BUILD_FLAGS
        )
        assert code == cli.EXIT_OK
        assert (out / "e2.space").exists()
        assert not (out / "e1.space").exists()

    def test_missing_corpus_is_exit_3(self, tmp_path):
        code = cli.main(
            ["build", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_MISSING

    def test_bad_window_is_exit_2(self, corpus_root, tmp_path):
        code = cli.main(
            ["build", "--corpus", str(corpus_root), "--out", str(tmp_path / "o"),
             "--window", "4"]
        )
        assert code == cli.EXIT_CONFIG

    def test_overaggressive_filter_is_exit_2(self, corpus_root, tmp_path):
        code = cli.main(
            ["build", "--corpus", str(corpus_root), "--out", str(tmp_path / "o"),
             "--min-count", "100000"]
        )
        assert code == cli.EXIT_CONFIG


def _mixed_corpus(root, seed=31):
    """Two epochs whose files hold several documents, one per line, where
    a line ends mid-sentence, so that --docs-per-line changes windows."""
    rng = random.Random(seed)
    vocab = [f"w{i:02d}" for i in range(40)] + ["the", "and", "of"]
    for label in ("e1", "e2"):
        (root / label).mkdir(parents=True)
        for i in range(3):
            lines = []
            for _ in range(12):
                words = [rng.choice(vocab) for _ in range(rng.randint(3, 14))]
                cut = rng.randint(1, len(words))
                lines.append(" ".join(words[:cut]) + ". " + " ".join(words[cut:]))
            (root / label / f"part{i}.txt").write_text("\n".join(lines), encoding="utf-8")
    return root


@pytest.mark.parametrize("flags", [
    ["--no-compaction"],
    ["--weighting", "inverse_log_frequency"],
    ["--docs-per-line"],
    ["--no-compaction", "--weighting", "inverse_log_frequency", "--docs-per-line"],
])
def test_cli_build_equals_sentence_ingest(tmp_path, flags):
    root = _mixed_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    code = cli.main(["build", "--corpus", str(root), "--out", str(out), "--dim", "64",
                     "--window", "5", "--top-k", "3", "--min-count", "3"] + flags)
    assert code == cli.EXIT_OK
    compact = "--no-compaction" not in flags
    per_line = "--docs-per-line" in flags
    weighting = "inverse_log_frequency" if "--weighting" in flags else "uniform"
    config = SpaceConfig(dim=64, window=5, order_span=2, weighting=weighting, compaction=compact)
    files = {label: sorted((root / label).iterdir()) for label in ("e1", "e2")}
    counts = count_vocabulary(read_documents(files["e1"] + files["e2"], per_line))
    retained = retained_terms(counts, top_k=3, min_count=3)
    weights = inverse_log_weight_map(counts) if weighting != "uniform" else None
    for label in files:
        sentences = [s for doc in read_documents(files[label], per_line)
                     for s in filtered_stream(doc, retained, compact)]
        expected = build_space(config, label, sentences, weights)
        built_space = load_space(out / f"{label}.space")
        assert built_space.ingested_tokens == expected.ingested_tokens
        assert_spaces_close(built_space, expected, rtol=1e-12, atol=1e-12)


def test_reordered_files_and_sentences_build_identical_bytes(tmp_path):
    epochs = two_phase_epochs(n_epochs=2, switch_after=1, probe_sents=15,
                              anchor_sents=5, filler_sents=10)
    rng = random.Random(5)
    outputs = []
    for run, n_files in (("a", 4), ("b", 3)):
        root = tmp_path / run
        for label, sentences in epochs.items():
            if run == "b":
                sentences = sentences[:]
                rng.shuffle(sentences)
            write_epoch_dir(root, label, sentences, n_files=n_files)
        out = tmp_path / f"out-{run}"
        code = cli.main(["build", "--corpus", str(root), "--out", str(out)] + BUILD_FLAGS)
        assert code == cli.EXIT_OK
        outputs.append(out)
    for name in ("e1.space", "e2.space", "vocabulary.tsv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name


@pytest.mark.parametrize("workers", ["1", "2"])
def test_undecodable_corpus_file_is_exit_3(tmp_path, capsys, workers):
    root = tmp_path / "corpus"
    for label in ("e1", "e2"):
        write_epoch_dir(root, label, [["alpha", "beta", "gamma"]] * 5, n_files=2)
    bad = root / "e2" / "part01.txt"
    bad.write_bytes(b"alpha beta \xff\xfe gamma.")
    out = tmp_path / "out"
    code = cli.main(["build", "--corpus", str(root), "--out", str(out),
                     "--workers", workers] + BUILD_FLAGS)
    assert code == cli.EXIT_MISSING
    assert str(bad) in capsys.readouterr().err
    left = [p.name for p in out.iterdir()] if out.exists() else []
    assert not [name for name in left if name.endswith((".space", ".tmp"))]


# Runs a build whose pool worker handed epoch e2 dies at once, as a worker
# killed by the out-of-memory killer would.  Workers inherit the patched
# ``_build_epoch`` by fork, or import this file by path under spawn.
_KILLED_WORKER_BUILD = """
import os, sys
from driftspace import cli

build_epoch = cli._build_epoch

def dying_build_epoch(task):
    if task[1] == "e2":
        os._exit(1)
    return build_epoch(task)

if __name__ == "__main__":
    cli._build_epoch = dying_build_epoch
    sys.exit(cli.main(sys.argv[1:]))
"""


def test_killed_worker_fails_the_build_without_partial_spaces(tmp_path):
    root = tmp_path / "corpus"
    for label in ("e1", "e2", "e3"):
        write_epoch_dir(root, label, [["alpha", "beta", "gamma"]] * 5, n_files=2)
    script = tmp_path / "killed_worker_build.py"
    script.write_text(_KILLED_WORKER_BUILD, encoding="utf-8")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(driftspace.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(script), "build", "--corpus", str(root), "--out", str(out),
         "--workers", "2"] + BUILD_FLAGS,
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == cli.EXIT_INTERNAL
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "worker process" in proc.stderr
    assert not (out / "e2.space").exists()
    for path in out.glob("*.space"):
        assert load_space(path).epoch_label == path.stem


class TestCombine:
    def test_merges_epochs(self, built, tmp_path):
        out = tmp_path / "total.space"
        code = cli.main(
            ["combine", str(built / "e1.space"), str(built / "e2.space"),
             "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        total = load_space(out)
        assert total.epoch_label == "e1+e2"
        e1 = load_space(built / "e1.space")
        e2 = load_space(built / "e2.space")
        assert total.count("gizmo") == e1.count("gizmo") + e2.count("gizmo")

    def test_missing_input_is_exit_3(self, tmp_path):
        code = cli.main(
            ["combine", str(tmp_path / "ghost.space"), "--out", str(tmp_path / "o.space")]
        )
        assert code == cli.EXIT_MISSING


COMBINE_CFG = SpaceConfig(dim=16, window=5, order_span=2, global_seed=3, perm_seed=4)
_MIXED_WARNING = "combining spaces of mixed float widths; result upcast to 64-bit"


@pytest.fixture(scope="module")
def small_spaces():
    """Spaces over overlapping and disjoint vocabularies, uniform and
    inverse-log weighted, and an empty one."""
    rng = random.Random(61)
    weighted = SpaceConfig(dim=16, window=5, order_span=2, global_seed=3, perm_seed=4,
                           weighting="inverse_log_frequency")
    weights = {t: 1.0 / (k + 1) for k, t in enumerate(["p", "q", "r", "s", "t", "ü"])}
    spaces = {}
    for label, vocab in (("a", ["p", "q", "r", "s", "mango"]), ("b", ["q", "s", "t", "ü"]),
                         ("c", ["x", "y", "zz"])):
        spaces[label] = build_space(COMBINE_CFG, label, random_sentences(rng, vocab, 14))
    for label, vocab in (("wa", ["p", "q", "r"]), ("wb", ["r", "s", "t", "ü"])):
        spaces[label] = build_space(weighted, label, random_sentences(rng, vocab, 9),
                                    weights=weights)
    spaces["void"] = SemanticSpace(COMBINE_CFG, "void")
    return spaces


def _combine_argv(paths, out):
    return ["combine", *map(str, paths), "--out", str(out)]


class TestCombineStreams:
    """``combine`` sums the files as they stream past, into the bytes that
    the library's ``combine`` of the loaded inputs saves."""

    CASES = {
        "64-bit": [("a", 64), ("b", 64), ("c", 64)],
        "32-bit": [("a", 32), ("b", 32)],
        "mixed widths": [("a", 32), ("b", 64), ("c", 32)],
        "mixed widths, 64-bit first": [("a", 64), ("b", 32), ("c", 32)],
        "inverse_log_frequency": [("wa", 64), ("wb", 64)],
        "disjoint vocabularies": [("c", 64), ("a", 64)],
        "an empty space": [("a", 64), ("void", 64), ("b", 64)],
        "only an empty space": [("void", 32)],
        "one input": [("b", 32)],
        "a repeated input": [("a", 64), ("b", 64), ("a", 64)],
    }

    @pytest.mark.parametrize("chunk", [1, 400, persistence._CHUNK])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes_are_the_saved_library_combine(self, small_spaces, case, chunk, tmp_path,
                                                monkeypatch):
        inputs = self.CASES[case]
        paths = []
        for k, (name, width) in enumerate(inputs):
            paths.append(persistence.save_space(small_spaces[name],
                                                tmp_path / f"{k}-{name}-{width}.space",
                                                float_width=width))
        mixed = len({width for _, width in inputs}) > 1
        loaded = [load_space(path) for path in paths]
        # Chunks of one row, of a few rows, and whole sections.
        monkeypatch.setattr(persistence, "_CHUNK", chunk)
        out = tmp_path / "total.space"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            expected = persistence.save_space(combine(loaded), tmp_path / "expected.space")
            assert cli.main(_combine_argv(paths, out)) == cli.EXIT_OK
        # The library and the command warn alike.
        assert [str(w.message) for w in caught] == ([_MIXED_WARNING] * 2 if mixed else [])
        assert out.read_bytes() == expected.read_bytes()

    def test_no_inputs_is_exit_2(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="at least one space"):
            persistence.combine_files([])
        assert cli.main(["combine", "--out", str(tmp_path / "o.space")]) == cli.EXIT_CONFIG

    @pytest.fixture(scope="class")
    def images(self, small_spaces, tmp_path_factory):
        """Three saved inputs and the bounds of each one's sections."""
        root = tmp_path_factory.mktemp("combine-images")
        images = []
        for name, width in (("a", 64), ("b", 32), ("c", 64)):
            data = persistence.save_space(small_spaces[name], root / "x.space",
                                          float_width=width).read_bytes()
            images.append((data, _section_starts(data, small_spaces[name], width)))
        return images

    @pytest.mark.filterwarnings("ignore:combining spaces of mixed float widths")
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_damaged_input_fails_as_its_own_load(self, images, data, tmp_path_factory):
        root = tmp_path_factory.mktemp("damaged")
        paths, pass_one, damaged = [], [], []
        for k, (image, starts) in enumerate(images):
            path = root / f"{k}.space"
            paths.append(path)
            if not data.draw(st.booleans(), label=f"damage input {k}"):
                path.write_bytes(image)
                continue
            # Sections: the header, or one of the five with its CRC-32.
            sections = data.draw(st.sets(st.integers(0, len(starts) - 2), min_size=1,
                                         max_size=2), label="sections")
            at = [data.draw(st.integers(starts[n], starts[n + 1] - 1)) for n in sorted(sections)]
            if data.draw(st.booleans(), label="truncate"):
                path.write_bytes(image[:at[-1]])
            else:
                flipped = bytearray(image)
                for offset in at:
                    flipped[offset] ^= 0xFF
                path.write_bytes(bytes(flipped))
            damaged.append(k)
            # Header and term table damage, and any truncation, are found
            # before any file's sections are read.
            if min(sections) < 3 or len(path.read_bytes()) < len(image):
                pass_one.append(k)
        out_dir = root / "out"
        out_dir.mkdir()
        code, err = _run_cli(_combine_argv(paths, out_dir / "total.space"))
        if not damaged:
            assert code == cli.EXIT_OK
            return
        with pytest.raises(SpaceFormatError) as alone:
            load_space(paths[(pass_one or damaged)[0]])
        assert code == cli.EXIT_MISSING
        assert err == f"error: {alone.value}\n"
        assert list(out_dir.iterdir()) == []  # no --out file and no temp file

    @pytest.mark.parametrize("sections, reported", [
        ((3, 4), "counts"), ((4, 5), "context"), ((3, 5), "counts"), ((5,), "order")])
    def test_within_an_input_its_first_damaged_section_is_reported(self, images, tmp_path,
                                                                   sections, reported):
        good = tmp_path / "good.space"
        good.write_bytes(images[0][0])
        image, starts = images[2]
        flipped = bytearray(image)
        for n in sections:
            flipped[starts[n + 1] - 5] ^= 0xFF  # the section's last byte
        damaged = tmp_path / "damaged.space"
        damaged.write_bytes(bytes(flipped))
        for paths in ([damaged], [good, damaged, good]):
            code, err = _run_cli(_combine_argv(paths, tmp_path / "total.space"))
            assert (code, err) == (cli.EXIT_MISSING,
                                   f"error: checksum mismatch in the {reported} section\n")

    def test_a_config_mismatch_is_refused_before_its_sections_are_read(self, images,
                                                                      tmp_path):
        other = build_space(SpaceConfig(dim=16, window=5, order_span=2, global_seed=9,
                                        perm_seed=4), "o", [["p", "q", "r"]])
        data = persistence.save_space(other, tmp_path / "o.space").read_bytes()
        bounds = _section_starts(data, other, 64)
        mismatched = tmp_path / "mismatched.space"  # its context section damaged
        mismatched.write_bytes(data[:bounds[4]] + bytes([data[bounds[4]] ^ 0xFF])
                               + data[bounds[4] + 1:])
        good = tmp_path / "good.space"
        good.write_bytes(images[0][0])
        late = tmp_path / "late.space"  # its order section damaged
        image, starts = images[2]
        late.write_bytes(image[:starts[5]] + bytes([image[starts[5]] ^ 0xFF])
                         + image[starts[5] + 1:])
        out = tmp_path / "out" / "total.space"
        out.parent.mkdir()
        code, err = _run_cli(_combine_argv([good, mismatched, late], out))
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: spaces use different configurations: ")
        assert err.endswith("(labels 'a' vs 'o')\n")
        # Damage to an earlier input's sections is still reported first.
        code, err = _run_cli(_combine_argv([good, late, mismatched], out))
        assert (code, err) == (cli.EXIT_MISSING,
                               "error: checksum mismatch in the order section\n")
        assert list(out.parent.iterdir()) == []

    def test_one_input_file_is_open_at_a_time(self, small_spaces, tmp_path, monkeypatch):
        paths = [persistence.save_space(small_spaces["a"], tmp_path / f"{k}.space")
                 for k in range(6)]
        opened = {"now": 0, "peak": 0}

        class Counted(io.FileIO):
            def __init__(self, path, mode="r", buffering=-1):
                super().__init__(path, mode)
                opened["now"] += 1
                opened["peak"] = max(opened["peak"], opened["now"])

            def close(self):
                if not self.closed:
                    opened["now"] -= 1
                super().close()

        monkeypatch.setattr(persistence, "open", Counted, raising=False)
        assert persistence.combine_files(paths) == combine([small_spaces["a"]] * 6)
        assert opened == {"now": 0, "peak": 1}

    def test_threads_combining_at_once_get_equal_sums(self, small_spaces, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(persistence, "_CHUNK", 1)  # one row per chunk
        paths = [persistence.save_space(small_spaces[name], tmp_path / f"{name}.space")
                 for name in ("a", "b", "c", "a")]
        expected = combine([load_space(path) for path in paths])
        results, start = {}, threading.Barrier(4, timeout=60)

        def run(k):
            start.wait()
            results[k] = [persistence.combine_files(paths) for _ in range(10)]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == [0, 1, 2, 3]
        assert all(total == expected for totals in results.values() for total in totals)

    def test_many_inputs_under_a_low_descriptor_limit(self, small_spaces, tmp_path):
        spaces = [small_spaces[name] for name in ("a", "b", "c")] * 16
        paths = [persistence.save_space(space, tmp_path / f"{k:02d}.space")
                 for k, space in enumerate(spaces)]
        out = tmp_path / "total.space"
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_NOFILE,\n"
                  "                   (32, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))\n"
                  "from driftspace import cli\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script, *_combine_argv(paths, out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        expected = persistence.save_space(combine(spaces), tmp_path / "expected.space")
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("replacement", ["another space", "relabelled", "one byte longer"])
    def test_an_input_replaced_between_the_passes_is_exit_3(self, small_spaces, tmp_path,
                                                            monkeypatch, capsys, replacement):
        paths = [persistence.save_space(small_spaces[name], tmp_path / f"{name}.space")
                 for name in ("a", "b")]
        swapped = paths[1]
        if replacement == "another space":
            new = persistence.save_space(small_spaces["c"], tmp_path / "new.space")
        elif replacement == "relabelled":
            relabelled = load_space(swapped)
            relabelled.epoch_label = "b2"
            new = persistence.save_space(relabelled, tmp_path / "new.space")
        else:
            new = tmp_path / "new.space"
            new.write_bytes(swapped.read_bytes() + b"\0")
        add_file = persistence._add_file

        def swap_first(*args):
            if new.exists():  # after the first pass, before any section is read
                os.replace(new, swapped)
            return add_file(*args)

        monkeypatch.setattr(persistence, "_add_file", swap_first)
        out = tmp_path / "out" / "total.space"
        out.parent.mkdir()
        assert cli.main(_combine_argv(paths, out)) == cli.EXIT_MISSING
        assert capsys.readouterr().err == (
            f"error: {swapped} changed while it was being combined\n")
        assert list(out.parent.iterdir()) == []


def _section_starts(data: bytes, space, width: int) -> list:
    """Where the header and each section (with its CRC-32) of ``space``,
    saved as ``data`` at ``width`` bits, start, and the file's end."""
    fixed = struct.calcsize("<8sIIIIQQBBBB")
    (label_len,) = struct.unpack_from("<I", data, fixed)
    n, row_bytes = len(space), width // 8 * space.config.dim
    sizes = (4 * n, sum(len(t.encode()) for t in space.terms.tolist()), 8 * n,
             n * row_bytes, n * row_bytes)
    starts = [0, fixed + 4 + label_len + 20]
    for size in sizes:
        starts.append(starts[-1] + size + 4)
    assert starts[-1] == len(data)
    return starts


def _run_cli(argv) -> tuple:
    """``(exit code, stderr)`` of ``cli.main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def total_space(built, tmp_path_factory):
    out = tmp_path_factory.mktemp("total") / "total.space"
    assert cli.main(
        ["combine", str(built / "e1.space"), str(built / "e2.space"), "--out", str(out)]
    ) == cli.EXIT_OK
    return out


class TestReportsCommands:
    def test_neighbors_pretty(self, built, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(
            ["neighbors", "gizmo", "--space", str(built / "e1.space"),
             "--out", str(out), "--top-n", "3"]
        )
        assert code == cli.EXIT_OK
        captured = capsys.readouterr()
        assert "nearest neighbors of 'gizmo'" in captured.out
        assert "report written to" in captured.err
        assert (out / "report.txt").exists()
        assert (out / "config.txt").exists()

    def test_neighbors_json_parses(self, built, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(
            ["neighbors", "gizmo", "--space", str(built / "e1.space"),
             "--out", str(out), "--format", "json", "--top-n", "3"]
        )
        assert code == cli.EXIT_OK
        data = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert data["type"] == "table"
        assert len(data["rows"]) == 3
        assert json.loads(capsys.readouterr().out) == data

    def test_unknown_term_is_exit_4(self, built, tmp_path):
        code = cli.main(
            ["neighbors", "zzz-nope", "--space", str(built / "e1.space"),
             "--out", str(tmp_path / "run")]
        )
        assert code == cli.EXIT_NOT_FOUND

    def test_corrupt_space_is_exit_3(self, built, tmp_path):
        corrupt = tmp_path / "corrupt.space"
        data = bytearray((built / "e1.space").read_bytes())
        data[-3] ^= 0xFF
        corrupt.write_bytes(bytes(data))
        code = cli.main(
            ["neighbors", "gizmo", "--space", str(corrupt), "--out", str(tmp_path / "r")]
        )
        assert code == cli.EXIT_MISSING

    def test_trajectory_tsv(self, built, total_space, tmp_path):
        out = tmp_path / "run"
        code = cli.main(
            ["trajectory", "gizmo", "--total", str(total_space),
             "--spaces", str(built / "e1.space"), str(built / "e2.space"),
             "--out", str(out), "--format", "tsv", "--r-size", "20"]
        )
        assert code == cli.EXIT_OK
        lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch\trank\tterm\tsimilarity\tanchor_count"
        assert any(line.startswith("e1\t1\t") for line in lines)
        assert any(line.startswith("e2\t1\t") for line in lines)

    def test_trajectory_queries_the_representatives_once(self, built, total_space, tmp_path,
                                                         monkeypatch):
        queries = []
        nearest = SemanticSpace.nearest_neighbors

        def counted(space, *args, **kwargs):
            queries.append(space.epoch_label)
            return nearest(space, *args, **kwargs)

        monkeypatch.setattr(SemanticSpace, "nearest_neighbors", counted)
        argv = ["trajectory", "gizmo", "--total", str(total_space), "--spaces",
                str(built / "e1.space"), str(built / "e2.space"), "--out", str(tmp_path / "run")]
        assert cli.main(argv) == cli.EXIT_OK
        assert queries == ["e1+e2"]

    def test_drift_with_term_subset(self, built, tmp_path):
        out = tmp_path / "run"
        code = cli.main(
            ["drift", "--space0", str(built / "e1.space"),
             "--space1", str(built / "e2.space"),
             "--min-total-count", "1", "--terms", "gizmo,mango",
             "--out", str(out), "--format", "json"]
        )
        assert code == cli.EXIT_OK
        data = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert {r["term"] for r in data["records"]} == {"gizmo", "mango"}

    def test_drift_bad_thresholds_is_exit_2(self, built, tmp_path):
        code = cli.main(
            ["drift", "--space0", str(built / "e1.space"),
             "--space1", str(built / "e2.space"),
             "--thresholds", "0.1,0.5,0.9", "--out", str(tmp_path / "run")]
        )
        assert code == cli.EXIT_CONFIG

    def test_bias_round_trip(self, built, tmp_path):
        quals = tmp_path / "quals.txt"
        quals.write_text("mango\nrouter\n", encoding="utf-8")
        man = tmp_path / "man.txt"
        man.write_text("papaya\nguava\n", encoding="utf-8")
        woman = tmp_path / "woman.txt"
        woman.write_text("modem\nserver\n", encoding="utf-8")
        out = tmp_path / "run"
        code = cli.main(
            ["bias", "--spaces", str(built / "e1.space"), str(built / "e2.space"),
             "--qualifiers", str(quals), "--man-terms", str(man),
             "--woman-terms", str(woman), "--out", str(out), "--format", "json"]
        )
        assert code == cli.EXIT_OK
        data = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert set(data["male"] + data["female"]) == {"mango", "router"}

    def test_bias_empty_terms_file_is_exit_2(self, built, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n", encoding="utf-8")
        man = tmp_path / "man.txt"
        man.write_text("papaya\n", encoding="utf-8")
        code = cli.main(
            ["bias", "--spaces", str(built / "e1.space"),
             "--qualifiers", str(empty), "--man-terms", str(man),
             "--woman-terms", str(man), "--out", str(tmp_path / "run")]
        )
        assert code == cli.EXIT_CONFIG

    def test_bias_period_range(self, built, tmp_path):
        quals = tmp_path / "quals.txt"
        quals.write_text("mango\n", encoding="utf-8")
        man = tmp_path / "man.txt"
        man.write_text("papaya\n", encoding="utf-8")
        woman = tmp_path / "woman.txt"
        woman.write_text("modem\n", encoding="utf-8")
        out = tmp_path / "run"
        code = cli.main(
            ["bias", "--spaces", str(built / "e1.space"), str(built / "e2.space"),
             "--qualifiers", str(quals), "--man-terms", str(man),
             "--woman-terms", str(woman), "--period", "e1:e1",
             "--out", str(out), "--format", "json"]
        )
        assert code == cli.EXIT_OK
        data = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert data["period"] == "e1"

    def test_equiv(self, built, tmp_path):
        out = tmp_path / "run"
        code = cli.main(
            ["equiv", "gizmo", "--anchor-epoch", "e1",
             "--spaces", str(built / "e1.space"), str(built / "e2.space"),
             "--out", str(out), "--format", "json", "--top-k", "2"]
        )
        assert code == cli.EXIT_OK
        data = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert data["epochs"]["e1"][0]["term"] == "gizmo"

    def test_equiv_missing_anchor_epoch_is_exit_3(self, built, tmp_path):
        code = cli.main(
            ["equiv", "gizmo", "--anchor-epoch", "e9",
             "--spaces", str(built / "e1.space"),
             "--out", str(tmp_path / "run")]
        )
        assert code == cli.EXIT_MISSING

    def test_predict(self, built, tmp_path):
        out = tmp_path / "run"
        code = cli.main(
            ["predict", "gizmo", "1", "--space", str(built / "e1.space"),
             "--out", str(out), "--format", "tsv"]
        )
        assert code == cli.EXIT_OK
        lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rank\tterm\tscore"
        assert len(lines) == 6

    @pytest.mark.parametrize("top_n", ["0", "-3"])
    def test_predict_top_n_below_one_is_exit_2(self, built, tmp_path, top_n):
        code = cli.main(
            ["predict", "gizmo", "1", "--space", str(built / "e1.space"),
             "--out", str(tmp_path / "run"), "--top-n", top_n]
        )
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("top_n", ["0", "-3"])
    def test_trajectory_top_n_below_one_is_exit_2(self, built, total_space, tmp_path, top_n):
        code = cli.main(
            ["trajectory", "gizmo", "--total", str(total_space),
             "--spaces", str(built / "e1.space"), str(built / "e2.space"),
             "--out", str(tmp_path / "run"), "--top-n", top_n]
        )
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("command, flag, name", [("trajectory", "--r-size", "r_size"),
                                                     ("equiv", "--top-k", "top_k")])
    def test_size_flags_below_one_are_exit_2_named(self, built, total_space, tmp_path, capsys,
                                                   command, flag, name, value):
        argv = _analysis_argv(command, built, total_space, tmp_path)
        code = cli.main(argv + ["--out", str(tmp_path / "run"), flag, value])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {name} must be >= 1, got {value}\n"

    def test_normfreq_duplicate_epoch_label_is_exit_2(self, built, tmp_path, capsys):
        e1 = str(built / "e1.space")
        code = cli.main(["normfreq", "gizmo", "--spaces", e1, e1, "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: duplicate epoch label 'e1'\n"

    def test_drift_report_does_not_depend_on_blas_threads(self, built, tmp_path):
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-m", "driftspace", "drift",
                 "--space0", str(built / "e1.space"), "--space1", str(built / "e2.space"),
                 "--min-total-count", "1", "--out", str(out), "--format", "json"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["records"]

    def test_predict_zero_offset_is_exit_2(self, built, tmp_path):
        code = cli.main(
            ["predict", "gizmo", "0", "--space", str(built / "e1.space"),
             "--out", str(tmp_path / "run")]
        )
        assert code == cli.EXIT_CONFIG

    def test_normfreq_sorted_by_epoch(self, built, tmp_path):
        out = tmp_path / "run"
        code = cli.main(
            ["normfreq", "gizmo",
             "--spaces", str(built / "e2.space"), str(built / "e1.space"),
             "--out", str(out), "--format", "tsv"]
        )
        assert code == cli.EXIT_OK
        lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines[1:]] == ["e1", "e2"]

    def test_inspect(self, built, tmp_path, capsys):
        tsv = tmp_path / "dump.tsv"
        code = cli.main(["inspect", str(built / "e1.space"), "--tsv", str(tsv)])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "epoch_label=e1" in out
        assert "dim=64" in out
        assert tsv.read_text(encoding="utf-8").startswith("term\tcount\t")
        assert out.splitlines()[2] == ("dim=64 window=5 order_span=2 global_seed=3 perm_seed=4 "
                                       "weighting=uniform compaction=True")


# Each analysis command with a term argument, as argv around the term.
TERM_COMMANDS = {
    "neighbors": lambda b, t, term: ["neighbors", term, "--space", str(b / "e1.space")],
    "predict": lambda b, t, term: ["predict", term, "1", "--space", str(b / "e1.space")],
    "trajectory": lambda b, t, term: ["trajectory", term, "--total", str(t), "--spaces",
                                      str(b / "e1.space"), str(b / "e2.space"), "--r-size", "20"],
    "equiv": lambda b, t, term: ["equiv", term, "--anchor-epoch", "e1", "--spaces",
                                 str(b / "e1.space"), str(b / "e2.space")],
    "normfreq": lambda b, t, term: ["normfreq", term, "--spaces",
                                    str(b / "e1.space"), str(b / "e2.space")],
    "drift": lambda b, t, term: ["drift", "--space0", str(b / "e1.space"), "--space1",
                                 str(b / "e2.space"), "--min-total-count", "1",
                                 "--terms", f"{term},mango"],
}


class TestTermArguments:
    @pytest.mark.parametrize("command", sorted(TERM_COMMANDS))
    def test_terms_are_normalized_like_the_corpus(self, command, built, total_space, tmp_path):
        reports = []
        for term in ("gizmo", "GIZMO", "'Gizmo-"):
            out = tmp_path / f"run-{len(reports)}"
            argv = TERM_COMMANDS[command](built, total_space, term)
            assert cli.main(argv + ["--out", str(out), "--format", "json"]) == cli.EXIT_OK
            reports.append((out / "report.json").read_bytes())
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    @pytest.mark.parametrize("command", sorted(TERM_COMMANDS))
    @pytest.mark.parametrize("term", ["giz mo", "u.s.", "'-'", "_"])
    def test_a_term_that_is_not_one_token_is_exit_2(self, command, term, built,
                                                     total_space, tmp_path, capsys):
        argv = TERM_COMMANDS[command](built, total_space, term)
        code = cli.main(argv + ["--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG
        capsys.readouterr()


# Each terms-file flag, as argv around the file it names.
def _terms_file_argv(flag, built, total, path):
    spaces = [str(built / "e1.space"), str(built / "e2.space")]
    if flag == "--exclude-file":
        return ["drift", "--space0", spaces[0], "--space1", spaces[1],
                "--min-total-count", "1", "--terms", "gizmo,mango,modem", flag, str(path)]
    if flag == "--extra-terms":
        return ["trajectory", "gizmo", "--total", str(total), "--spaces", *spaces,
                "--r-size", "2", flag, str(path)]
    lists = {"--qualifiers": "gizmo\nmodem\n", "--man-terms": "papaya\n",
             "--woman-terms": "router\n"}
    argv = ["bias", "--spaces", *spaces]
    for other, text in lists.items():
        if other != flag:
            default = path.with_name(other.strip("-") + ".default")
            default.write_text(text, encoding="utf-8")
            argv += [other, str(default)]
    return argv + [flag, str(path)]


TERMS_FILE_FLAGS = ["--qualifiers", "--man-terms", "--woman-terms", "--exclude-file",
                    "--extra-terms"]


class TestTermsFiles:
    @pytest.mark.parametrize("flag", TERMS_FILE_FLAGS)
    def test_lines_are_normalized_like_term_arguments(self, flag, built, total_space, tmp_path):
        reports = []
        for text in ("mango\nmodem\n", "MANGO\n# a comment\n\n  Modem  \n", "'Mango-\n-modem'\nmango\n"):
            path = tmp_path / f"terms-{len(reports)}.txt"
            path.write_text(text, encoding="utf-8")
            out = tmp_path / f"run-{len(reports)}"
            argv = _terms_file_argv(flag, built, total_space, path)
            assert cli.main(argv + ["--out", str(out), "--format", "json"]) == cli.EXIT_OK
            reports.append((out / "report.json").read_bytes())
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    @pytest.mark.parametrize("flag", TERMS_FILE_FLAGS)
    def test_a_line_that_is_not_one_token_is_exit_2(self, flag, built, total_space,
                                                     tmp_path, capsys):
        path = tmp_path / "terms.txt"
        path.write_text("mango\n# fine\nu.s.\n", encoding="utf-8")
        argv = _terms_file_argv(flag, built, total_space, path)
        assert cli.main(argv + ["--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG
        assert f"{path}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", TERMS_FILE_FLAGS)
    def test_a_file_that_is_not_utf8_is_exit_3(self, flag, built, total_space, tmp_path,
                                               capsys):
        path = tmp_path / "terms.txt"
        path.write_bytes(b"mango\ncaf\xe9\n")
        argv = _terms_file_argv(flag, built, total_space, path)
        assert cli.main(argv + ["--out", str(tmp_path / "run")]) == cli.EXIT_MISSING
        err = capsys.readouterr().err
        assert f"not valid UTF-8: {path} (byte 9)" in err
        assert "internal error" not in err


class TestReportOutput:
    @pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
    def test_stdout_and_file_hold_one_rendering(self, fmt, built, tmp_path, capsys, monkeypatch):
        from driftspace import reports

        calls = []
        render = reports.render

        def counted(report, form):
            calls.append(form)
            return render(report, form)

        monkeypatch.setattr(reports, "render", counted)
        out = tmp_path / "run"
        code = cli.main(["drift", "--space0", str(built / "e1.space"), "--space1",
                         str(built / "e2.space"), "--min-total-count", "1",
                         "--out", str(out), "--format", fmt])
        assert code == cli.EXIT_OK
        assert calls == [fmt]
        ext = {"json": "json", "tsv": "tsv", "pretty": "txt"}[fmt]
        assert (out / f"report.{ext}").read_bytes() == capsys.readouterr().out.encode("utf-8")


def _analysis_argv(command, built, total_space, tmp_path):
    e1, e2 = str(built / "e1.space"), str(built / "e2.space")
    if command == "bias":
        files = {}
        for name, text in (("qualifiers", "mango\nrouter\n"), ("man-terms", "papaya\nguava\n"),
                           ("woman-terms", "modem\nserver\n")):
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text(text, encoding="utf-8")
        return ["bias", "--spaces", e1, e2] + [
            arg for name, path in files.items() for arg in (f"--{name}", str(path))]
    return {
        "neighbors": ["neighbors", "gizmo", "--space", e1],
        "predict": ["predict", "gizmo", "1", "--space", e1],
        "trajectory": ["trajectory", "gizmo", "--total", str(total_space),
                       "--spaces", e1, e2, "--r-size", "20"],
        "drift": ["drift", "--space0", e1, "--space1", e2, "--min-total-count", "1"],
        "equiv": ["equiv", "gizmo", "--anchor-epoch", "e1", "--spaces", e1, e2],
        "normfreq": ["normfreq", "gizmo", "--spaces", e1, e2],
    }[command]


class TestJsonReportBytes:
    @pytest.mark.parametrize(
        "command", ["neighbors", "predict", "trajectory", "drift", "bias", "equiv", "normfreq"])
    def test_report_is_a_json_dumps_fixed_point(self, command, built, total_space, tmp_path,
                                                capsys):
        out = tmp_path / "run"
        argv = _analysis_argv(command, built, total_space, tmp_path)
        assert cli.main(argv + ["--out", str(out), "--format", "json"]) == cli.EXIT_OK
        data = (out / "report.json").read_bytes()
        canonical = json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n"
        assert data == canonical.encode("ascii")
        assert capsys.readouterr().out.encode("utf-8") == data

    def test_closed_stdout_pipe_still_writes_the_report(self, built, tmp_path, capsys):
        argv = _analysis_argv("drift", built, None, tmp_path) + ["--format", "json"]
        assert cli.main(argv + ["--out", str(tmp_path / "in_process")]) == cli.EXIT_OK
        rendered = capsys.readouterr().out.encode("utf-8")
        out = tmp_path / "piped"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write by the child fails with EPIPE
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "driftspace", *argv, "--out", str(out)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=300)
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stderr == f"report written to {out / 'report.json'}\n"
        assert (out / "report.json").read_bytes() == rendered
        assert (out / "config.txt").exists()


def _damaged_copy(path, tmp_path):
    """A copy of the space file at ``path`` with a flipped byte in its order
    section's last row."""
    data = bytearray(path.read_bytes())
    data[-5] ^= 0xFF
    copy = tmp_path / f"damaged-{path.name}"
    copy.write_bytes(bytes(data))
    return copy


class TestRestrictedLoads:
    """``bias``, ``trajectory`` and ``normfreq`` load only the rows they read."""

    @staticmethod
    def _library_report(command, built, total_space):
        epochs = load_spaces([built / "e2.space", built / "e1.space"])
        if command == "bias":
            return diachronic.qualifier_gender(epochs, ["mango", "router"], ["papaya", "guava"],
                                               ["modem", "server"])
        if command == "trajectory":
            return diachronic.time_trajectory(load_space(total_space), epochs, "gizmo", r_size=3,
                                              extra_terms=["mango", "absent", "gizmo", "modem"])
        rows = [list(row) for row in norm_frequency_series(epochs[::-1], "gizmo")]
        return reports.TableReport("count and squared context norm of 'gizmo' per epoch",
                                   ["epoch", "count", "squared_norm"], rows)

    @pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
    @pytest.mark.parametrize("command", ["bias", "trajectory", "normfreq"])
    def test_report_is_the_library_report_on_full_loads(self, command, fmt, built, total_space,
                                                        tmp_path, capsys, monkeypatch):
        expected = reports.render(self._library_report(command, built, total_space), fmt)
        loaded = []

        def spy(paths, terms=None):
            spaces = load_spaces(paths, terms)
            if terms is not None:  # not trajectory's load of --total
                loaded.extend((load_spaces([p])[0], space) for p, space in zip(paths, spaces))
            return spaces

        monkeypatch.setattr(persistence, "load_spaces", spy)
        argv = _analysis_argv(command, built, total_space, tmp_path)
        if command == "trajectory":
            extra = tmp_path / "extra.txt"
            extra.write_text("mango\nabsent\ngizmo\nmodem\n", encoding="utf-8")
            argv = argv[:-2] + ["--r-size", "3", "--extra-terms", str(extra)]
        out = tmp_path / "run"
        assert cli.main(argv + ["--out", str(out), "--format", fmt]) == cli.EXIT_OK
        assert capsys.readouterr().out == expected
        assert sorted(out.glob("report.*"))[0].read_text(encoding="utf-8") == expected
        # Both epochs were loaded, each with only some of its file's rows.
        assert len(loaded) == 2
        assert all(0 < len(space) < len(full) for full, space in loaded)

    def test_bias_reads_its_terms_files_before_the_spaces(self, built, tmp_path, capsys):
        argv = _analysis_argv("bias", built, None, tmp_path)
        argv[2] = str(_damaged_copy(built / "e1.space", tmp_path))
        qualifiers = tmp_path / "qualifiers.txt"
        qualifiers.write_text("mango\nu.s.\n", encoding="utf-8")
        assert cli.main(argv + ["--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG
        assert f"{qualifiers}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, code", [
        (["--r-size", "0"], cli.EXIT_CONFIG),
        (["--top-n", "0"], cli.EXIT_CONFIG),
        ([], cli.EXIT_NOT_FOUND),
    ])
    def test_trajectory_checks_flags_and_term_before_opening_the_epochs(
            self, built, total_space, tmp_path, capsys, flags, code):
        damaged = _damaged_copy(built / "e1.space", tmp_path)
        for epochs in ([damaged], [tmp_path / "missing.space"]):
            argv = ["trajectory", "nonesuch", "--total", str(total_space),
                    "--spaces", *map(str, epochs), "--out", str(tmp_path / "run"), *flags]
            assert cli.main(argv) == code
            err = capsys.readouterr().err
            assert ("must be >= 1" in err) == bool(flags)
            assert ("term not found: 'nonesuch'" in err) == (not flags)
        # A known term goes on to the epochs, and their damage is reported.
        argv = ["trajectory", "gizmo", "--total", str(total_space), "--spaces", str(damaged),
                "--out", str(tmp_path / "run")]
        assert cli.main(argv) == cli.EXIT_MISSING
        assert "checksum mismatch in the order section" in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_overrides_flags(self, built, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# narrow the report\ntop_n = 1\n", encoding="utf-8")
        out = tmp_path / "run"
        code = cli.main(
            ["neighbors", "gizmo", "--space", str(built / "e1.space"),
             "--out", str(out), "--top-n", "5", "--format", "tsv",
             "--config", str(conf)]
        )
        assert code == cli.EXIT_OK
        lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2  # header plus exactly one row

    def test_unknown_key_is_exit_2(self, built, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("no_such_knob=1\n", encoding="utf-8")
        code = cli.main(
            ["neighbors", "gizmo", "--space", str(built / "e1.space"),
             "--out", str(tmp_path / "run"), "--config", str(conf)]
        )
        assert code == cli.EXIT_CONFIG

    def test_malformed_line_is_exit_2(self, built, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("just words\n", encoding="utf-8")
        code = cli.main(
            ["neighbors", "gizmo", "--space", str(built / "e1.space"),
             "--out", str(tmp_path / "run"), "--config", str(conf)]
        )
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command, line", [
        ("build", "dim=abc"),
        ("build", "top_k=abc"),
        ("build", "workers=abc"),
        ("build", "window=7.0"),
        ("build", "float_width=16"),
        ("build", "compaction=maybe"),
        ("neighbors", "top_n=abc"),
        ("neighbors", "min_count=abc"),
        ("neighbors", "include_self=maybe"),
        ("neighbors", "dim=abc"),  # a key without a flag here converts as build's
        ("neighbors", "func=cmd_build"),
        ("neighbors", "help=yes"),
        ("neighbors", "config=other.conf"),
        ("neighbors", "command=build"),  # config.txt's first line, of another command
        ("normfreq", "spaces= , "),
    ])
    def test_a_value_of_the_wrong_type_is_exit_2(self, corpus_root, built, tmp_path, capsys,
                                                 command, line):
        conf = tmp_path / "run.conf"
        conf.write_text(f"# the first line\n{line}\n", encoding="utf-8")
        out = tmp_path / "run"
        argv = {
            "build": ["build", "--corpus", str(corpus_root), *BUILD_FLAGS],
            "neighbors": ["neighbors", "gizmo", "--space", str(built / "e1.space")],
            "normfreq": ["normfreq", "gizmo", "--spaces", str(built / "e1.space")],
        }[command]
        assert cli.main([*argv, "--out", str(out), "--config", str(conf)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {conf}:2: ")
        assert line.partition("=")[0] in err
        assert not out.exists()

    def test_values_convert_as_their_flags_take_them(self, built, tmp_path):
        conf = tmp_path / "neighbors.conf"
        conf.write_text("include_self = yes\ntop_n = 1\nmin_count = 0\n", encoding="utf-8")
        out = tmp_path / "neighbors"
        code = cli.main(["neighbors", "gizmo", "--space", str(built / "e1.space"),
                         "--out", str(out), "--format", "tsv", "--config", str(conf)])
        assert code == cli.EXIT_OK
        rows = (out / "report.tsv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split("\t")[1] for row in rows] == ["gizmo"]
        # A flag of many values takes a comma-separated list.
        conf = tmp_path / "normfreq.conf"
        spaces = ", ".join(str(built / name) for name in ("e1.space", "e2.space"))
        conf.write_text(f"spaces = {spaces}\n", encoding="utf-8")
        out = tmp_path / "normfreq"
        code = cli.main(["normfreq", "gizmo", "--spaces", str(built / "e1.space"),
                         "--out", str(out), "--format", "tsv", "--config", str(conf)])
        assert code == cli.EXIT_OK
        assert len((out / "report.tsv").read_text(encoding="utf-8").splitlines()) == 3

    def test_config_file_that_is_not_utf8_is_exit_3(self, built, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"top_n = 1\n# caf\xe9\n")
        code = cli.main(
            ["neighbors", "gizmo", "--space", str(built / "e1.space"),
             "--out", str(tmp_path / "run"), "--config", str(conf)]
        )
        assert code == cli.EXIT_MISSING
        err = capsys.readouterr().err
        assert f"not valid UTF-8: {conf} (byte 15)" in err
        assert "internal error" not in err

    def test_missing_config_file_is_exit_3(self, built, tmp_path):
        code = cli.main(
            ["neighbors", "gizmo", "--space", str(built / "e1.space"),
             "--out", str(tmp_path / "run"), "--config", str(tmp_path / "ghost.conf")]
        )
        assert code == cli.EXIT_MISSING

    def test_a_build_fed_its_config_txt_writes_the_same_bytes(self, corpus_root, built,
                                                                tmp_path):
        out = tmp_path / "again"
        code = cli.main(["build", "--corpus", str(corpus_root), "--out", str(out),
                         "--config", str(built / "config.txt")])
        assert code == cli.EXIT_OK
        for name in ("e1.space", "e2.space", "vocabulary.tsv", "config.txt"):
            assert (out / name).read_bytes() == (built / name).read_bytes(), name

    @pytest.mark.parametrize(
        "command", ["neighbors", "predict", "trajectory", "drift", "bias", "equiv", "normfreq"])
    def test_an_analysis_fed_its_config_txt_writes_the_same_report(self, command, built,
                                                                     total_space, tmp_path):
        argv = _analysis_argv(command, built, total_space, tmp_path)
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(argv + ["--out", str(first), "--format", "tsv"]) == cli.EXIT_OK
        code = cli.main(argv + ["--out", str(second), "--config", str(first / "config.txt")])
        assert code == cli.EXIT_OK
        for name in ("report.tsv", "config.txt"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_one_file_serves_build_and_neighbors(self, corpus_root, tmp_path):
        conf = tmp_path / "shared.conf"
        conf.write_text("dim = 64\ntop_n = 3\nr_size = 10\n", encoding="utf-8")
        out = tmp_path / "build"
        code = cli.main(["build", "--corpus", str(corpus_root), "--out", str(out),
                         "--window", "5", "--top-k", "0", "--min-count", "1",
                         "--config", str(conf)])
        assert code == cli.EXIT_OK
        assert load_space(out / "e1.space").config.dim == 64
        run = tmp_path / "neighbors"
        code = cli.main(["neighbors", "gizmo", "--space", str(out / "e1.space"),
                         "--out", str(run), "--format", "tsv", "--config", str(conf)])
        assert code == cli.EXIT_OK
        assert len((run / "report.tsv").read_text(encoding="utf-8").splitlines()) == 4

    def test_a_relative_run_feeds_a_build_from_its_own_directory(self, corpus_root, tmp_path,
                                                                 monkeypatch):
        # config.txt records absolute input paths, so a run read back from
        # another working directory still finds them.
        (tmp_path / "m").symlink_to(corpus_root)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["build", "--corpus", "m", "--out", "A", *BUILD_FLAGS]) == cli.EXIT_OK
        lines = (tmp_path / "A" / "config.txt").read_text(encoding="utf-8").splitlines()
        assert f"corpus_root={tmp_path / 'm'}" in lines
        monkeypatch.chdir(tmp_path / "A")
        code = cli.main(["build", "--corpus", str(corpus_root), "--out", "../D",
                         "--config", "config.txt"])
        assert code == cli.EXIT_OK
        names = sorted(p.name for p in (tmp_path / "A").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "D").iterdir())
        for name in names:
            assert (tmp_path / "D" / name).read_bytes() == (tmp_path / "A" / name).read_bytes()

    def test_every_input_path_is_recorded_absolute(self, built, tmp_path, monkeypatch):
        monkeypatch.chdir(built)
        conf = tmp_path / "run.conf"
        conf.write_text(f"spaces = e1.space, {built / 'e2.space'}\n", encoding="utf-8")
        out = tmp_path / "normfreq"
        code = cli.main(["normfreq", "gizmo", "--spaces", "e2.space", "--out", str(out),
                         "--config", str(conf)])
        assert code == cli.EXIT_OK
        lines = (out / "config.txt").read_text(encoding="utf-8").splitlines()
        assert f"spaces={built / 'e1.space'},{built / 'e2.space'}" in lines

    def test_a_path_with_a_comma_survives_config_txt(self, built, tmp_path, monkeypatch):
        odd = tmp_path / "x,y"
        odd.mkdir()
        (odd / "e1.space").write_bytes((built / "e1.space").read_bytes())
        monkeypatch.chdir(tmp_path)
        argv = ["normfreq", "gizmo", "--spaces", "x,y/e1.space", str(built / "e2.space"),
                "--format", "tsv"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(argv + ["--out", str(first)]) == cli.EXIT_OK
        lines = (first / "config.txt").read_text(encoding="utf-8").splitlines()
        assert f"spaces={tmp_path}/x\\,y/e1.space,{built / 'e2.space'}" in lines
        code = cli.main(["normfreq", "gizmo", "--spaces", "unused.space", "--out", str(second),
                         "--config", str(first / "config.txt")])
        assert code == cli.EXIT_OK
        for name in ("report.tsv", "config.txt"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_an_epoch_label_with_a_comma_is_named_by_its_escape(self, tmp_path):
        root = tmp_path / "corpus"
        epochs = two_phase_epochs(
            n_epochs=2, switch_after=1, probe_sents=15, anchor_sents=5, filler_sents=10)
        for label, sentences in zip(["a,b", "c"], epochs.values()):
            write_epoch_dir(root, label, sentences)
        full, subset, again = tmp_path / "full", tmp_path / "subset", tmp_path / "again"
        assert cli.main(["build", "--corpus", str(root), "--out", str(full),
                         *BUILD_FLAGS]) == cli.EXIT_OK
        assert cli.main(["build", "--corpus", str(root), "--out", str(subset),
                         "--epochs", "a\\,b", *BUILD_FLAGS]) == cli.EXIT_OK
        assert sorted(p.name for p in subset.glob("*.space")) == ["a,b.space"]
        lines = (subset / "config.txt").read_text(encoding="utf-8").splitlines()
        assert "epochs=a\\,b" in lines
        code = cli.main(["build", "--corpus", str(root), "--out", str(again),
                         "--config", str(subset / "config.txt")])
        assert code == cli.EXIT_OK
        for name in ("a,b.space", "vocabulary.tsv", "config.txt"):
            assert (again / name).read_bytes() == (subset / name).read_bytes(), name
        terms = {}
        for flag, words in (("--qualifiers", "mango\nrouter\n"), ("--man-terms", "papaya\n"),
                            ("--woman-terms", "modem\n")):
            terms[flag] = tmp_path / f"{flag[2:]}.txt"
            terms[flag].write_text(words, encoding="utf-8")
        argv = ["bias", "--spaces", str(full / "a,b.space"), str(full / "c.space"),
                *(str(part) for item in terms.items() for part in item),
                "--period", "a\\,b", "--format", "json"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(argv + ["--out", str(first)]) == cli.EXIT_OK
        data = json.loads((first / "report.json").read_text(encoding="utf-8"))
        assert data["period"] == "a,b"
        assert list(data["votes"]) == ["a,b"]
        code = cli.main(argv + ["--out", str(second), "--config", str(first / "config.txt")])
        assert code == cli.EXIT_OK
        for name in ("report.json", "config.txt"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_an_epoch_label_with_a_colon_is_named_by_its_escape(self, tmp_path):
        root = tmp_path / "corpus"
        epochs = two_phase_epochs(
            n_epochs=3, switch_after=1, probe_sents=15, anchor_sents=5, filler_sents=10)
        for label, sentences in zip(["a:b", "a1", "c"], epochs.values()):
            write_epoch_dir(root, label, sentences)
        built = tmp_path / "built"
        assert cli.main(["build", "--corpus", str(root), "--out", str(built),
                         *BUILD_FLAGS]) == cli.EXIT_OK
        terms = {}
        for flag, words in (("--qualifiers", "mango\nrouter\n"), ("--man-terms", "papaya\n"),
                            ("--woman-terms", "modem\n")):
            terms[flag] = tmp_path / f"{flag[2:]}.txt"
            terms[flag].write_text(words, encoding="utf-8")
        spaces = [str(built / f"{label}.space") for label in ("a:b", "a1", "c")]
        for period, label, votes in (("a\\:b", "a:b", ["a:b"]), ("a\\:b,c", "a:b-c", ["a:b", "c"])):
            argv = ["bias", "--spaces", *spaces,
                    *(str(part) for item in terms.items() for part in item),
                    "--period", period, "--format", "json"]
            first, second = tmp_path / f"first-{label}", tmp_path / f"second-{label}"
            assert cli.main(argv + ["--out", str(first)]) == cli.EXIT_OK
            data = json.loads((first / "report.json").read_text(encoding="utf-8"))
            assert data["period"] == label
            assert list(data["votes"]) == votes
            assert f"period={period}" in (first / "config.txt").read_text(encoding="utf-8")
            code = cli.main(argv + ["--out", str(second), "--config", str(first / "config.txt")])
            assert code == cli.EXIT_OK
            for name in ("report.json", "config.txt"):
                assert (second / name).read_bytes() == (first / name).read_bytes(), name

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="ab:, ", min_size=1, max_size=8))
    def test_a_period_without_a_backslash_parses_as_before(self, text):
        labels = ["a", "a:b", "ab", "b", "b,a"]

        def before(text):  # the parse before colons could be escaped
            if ":" in text:
                start, _, end = text.partition(":")
                period = [label for label in labels if start <= label <= end]
                if not period:
                    raise ConfigError(f"period {text!r} selects no epochs from {labels}")
                return period
            return cli._csv(text, "--period")

        def outcome(parse):
            try:
                return parse(text, labels) if parse is cli._period else parse(text)
            except ConfigError as exc:
                return str(exc)

        assert outcome(cli._period) == outcome(before)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.text(alphabet="a,\\ ", max_size=6), min_size=1, max_size=4))
    def test_many_values_round_trip_through_their_config_form(self, values):
        text = cli._join_values(values)
        assert cli._split_values(text) == values
        if not any("," in value for value in values) and not any(
                value.endswith("\\") for value in values[:-1]):
            assert text == ",".join(values)  # written as before
        if "\\," not in text:
            assert cli._split_values(text) == text.split(",")  # read as before

    def test_a_config_file_leaves_the_next_run_its_defaults(self, built, tmp_path):
        # The parser is built once per process; a --config value goes onto
        # that run's namespace, never into the parser's defaults.
        conf = tmp_path / "run.conf"
        conf.write_text("top_n = 3\n", encoding="utf-8")
        argv = ["neighbors", "gizmo", "--space", str(built / "e1.space"), "--format", "tsv"]
        assert cli.build_parser() is cli.build_parser()
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(argv + ["--out", str(first), "--config", str(conf)]) == cli.EXIT_OK
        assert cli.main(argv + ["--out", str(second)]) == cli.EXIT_OK
        rows = [len((out / "report.tsv").read_text(encoding="utf-8").splitlines()) - 1
                for out in (first, second)]
        assert rows == [3, 20]


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_format(self, built, tmp_path, capsys):
        code = cli.main(
            ["neighbors", "gizmo", "--space", str(built / "e1.space"),
             "--out", str(tmp_path / "run"), "--format", "xml"]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command, flag", [
        ("build", "--epochs"), ("drift", "--terms"), ("bias", "--period")])
    def test_an_empty_comma_list_is_exit_2(self, corpus_root, built, tmp_path, capsys,
                                           command, flag):
        argv = (["build", "--corpus", str(corpus_root), *BUILD_FLAGS] if command == "build"
                else _analysis_argv(command, built, None, tmp_path))
        out = tmp_path / "run"
        assert cli.main([*argv, "--out", str(out), flag, " , "]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {flag} lists no values")
        assert not out.exists()
