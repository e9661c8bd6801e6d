"""Binary space files: round trips, canonical bytes, corruption detection."""

import io
import mmap
import os
import random
import signal
import struct
import sys
import threading
import time
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftspace import (
    BadMagicError,
    ChecksumError,
    ConfigError,
    SemanticSpace,
    SpaceConfig,
    SpaceFormatError,
    TruncatedFileError,
    VersionMismatchError,
    combine,
    load_space,
    load_spaces,
    save_space,
)
from driftspace import persistence
from driftspace.persistence import FORMAT_VERSION, MAGIC, write_space_tsv

from helpers import (
    assert_spaces_identical,
    build_space,
    cut_to_terms,
    ingest_sentences,
    random_sentences,
)

CFG = SpaceConfig(dim=32, window=5, order_span=2, global_seed=3, perm_seed=4)
_FIXED = struct.calcsize("<8sIIIIQQBBBB")


@pytest.fixture
def space():
    rng = random.Random(71)
    vocab = [f"v{i:02d}" for i in range(12)] + ["naïve", "o'clock"]
    return build_space(CFG, "1987", random_sentences(rng, vocab, 40))


class TestRoundTrip:
    def test_load_restores_everything(self, space, tmp_path):
        path = save_space(space, tmp_path / "a.space")
        loaded = load_space(path)
        assert loaded == space
        assert loaded.epoch_label == "1987"
        assert loaded.config == CFG
        assert loaded.ingested_tokens == space.ingested_tokens
        assert loaded.float_dtype == np.dtype(np.float64)

    def test_resave_is_byte_identical(self, space, tmp_path):
        first = save_space(space, tmp_path / "a.space").read_bytes()
        second = save_space(load_space(tmp_path / "a.space"), tmp_path / "b.space").read_bytes()
        assert first == second

    def test_same_space_same_bytes(self, space, tmp_path):
        a = save_space(space, tmp_path / "a.space").read_bytes()
        b = save_space(space, tmp_path / "b.space").read_bytes()
        assert a == b

    def test_empty_space(self, tmp_path):
        empty = SemanticSpace(CFG, "void")
        loaded = load_space(save_space(empty, tmp_path / "e.space"))
        assert loaded == empty
        assert len(loaded) == 0

    def test_no_temp_file_left_behind(self, space, tmp_path):
        save_space(space, tmp_path / "a.space")
        assert [p.name for p in tmp_path.iterdir()] == ["a.space"]

    def test_concurrent_saves_to_one_path(self, space, tmp_path):
        rng = random.Random(73)
        other = build_space(CFG, "1988", random_sentences(rng, ["p", "q", "r"], 20))
        target = tmp_path / "shared.space"
        barrier = threading.Barrier(2)
        errors = []

        def writer(which):
            try:
                barrier.wait()
                for _ in range(5):
                    save_space(which, target)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(s,)) for s in (space, other)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert load_space(target) in (space, other)
        assert [p.name for p in tmp_path.iterdir()] == ["shared.space"]

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_write_leaves_no_temp_file(self, space, tmp_path, monkeypatch, failing):
        def boom(*args):
            raise OSError(f"injected {failing} failure")

        monkeypatch.setattr(os, failing, boom)
        with pytest.raises(OSError, match="injected"):
            save_space(space, tmp_path / "a.space")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_saved_file_mode_follows_the_umask(self, space, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        path = save_space(space, tmp_path / "a.space")
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_combine_commutes_with_save_load(self, tmp_path):
        rng = random.Random(72)
        vocab = [f"v{i:02d}" for i in range(10)]
        s0 = build_space(CFG, "p0", random_sentences(rng, vocab, 30))
        s1 = build_space(CFG, "p1", random_sentences(rng, vocab, 30))
        save_space(combine([s0, s1]), tmp_path / "whole.space")
        r0 = load_space(save_space(s0, tmp_path / "s0.space"))
        r1 = load_space(save_space(s1, tmp_path / "s1.space"))
        save_space(combine([r0, r1]), tmp_path / "parts.space")
        whole = (tmp_path / "whole.space").read_bytes()
        parts = (tmp_path / "parts.space").read_bytes()
        assert whole == parts
        assert load_space(tmp_path / "parts.space") == combine([s0, s1])


class TestFloatWidth:
    def test_float32_round_trip(self, space, tmp_path):
        path = save_space(space, tmp_path / "narrow.space", float_width=32)
        loaded = load_space(path)
        assert loaded.float_dtype == np.dtype(np.float32)
        assert loaded.terms.tolist() == space.terms.tolist()
        assert loaded.context.dtype == np.float32
        np.testing.assert_allclose(loaded.context, space.context, rtol=1e-6)
        assert np.array_equal(loaded.counts, space.counts)

    def test_ingest_keeps_a_loaded_float32_width(self, space, tmp_path):
        narrow = load_space(save_space(space, tmp_path / "narrow.space", float_width=32))
        assert "fresh" not in narrow and "v00" in narrow
        _assert_ingest_rounds_once(narrow, [["fresh", "v00"]])
        assert "fresh" in narrow
        assert narrow.context.dtype == np.float32
        assert narrow.order.dtype == np.float32
        first = save_space(narrow, tmp_path / "again.space")
        reloaded = load_space(first)
        assert reloaded == narrow
        assert save_space(reloaded, tmp_path / "third.space").read_bytes() == first.read_bytes()

    def test_weighted_ingest_into_float32_rounds_once(self):
        # Weighted seeds are not all 32-bit floats, so a 32-bit sum of the
        # rounded rows would differ from the one rounding of the 64-bit sum.
        config = SpaceConfig(dim=32, window=5, weighting="inverse_log_frequency")
        vocab = [f"v{i:02d}" for i in range(12)]
        weights = {term: 1.0 / np.log1p(k + 2) for k, term in enumerate(vocab)}
        rng = random.Random(74)
        narrow = build_space(config, "n", random_sentences(rng, vocab[:8], 30), weights,
                             float_dtype=np.float32)
        _assert_ingest_rounds_once(narrow, random_sentences(rng, vocab[4:], 30), weights)

    def test_weighted_space_loads_but_refuses_ingest(self, tmp_path):
        config = SpaceConfig(dim=32, window=5, weighting="inverse_log_frequency")
        weights = {"a": 0.5, "b": 0.25}
        built = build_space(config, "w", [["a", "b", "a"]], weights=weights)
        loaded = load_space(save_space(built, tmp_path / "w.space"))
        assert loaded == built
        with pytest.raises(ConfigError):
            loaded.ingest_sentence(["a", "b"])
        assert combine([loaded, loaded]).count("a") == 4

    def test_float32_files_are_smaller(self, space, tmp_path):
        wide = save_space(space, tmp_path / "wide.space").stat().st_size
        narrow = save_space(space, tmp_path / "narrow.space", float_width=32).stat().st_size
        assert narrow < wide

    def test_mixed_width_combine_warns_and_upcasts(self, space, tmp_path):
        narrow = load_space(save_space(space, tmp_path / "n.space", float_width=32))
        wide = load_space(save_space(space, tmp_path / "w.space"))
        with pytest.warns(UserWarning, match="mixed float widths"):
            merged = combine([narrow, wide])
        assert merged.float_dtype == np.dtype(np.float64)

    def _mixed_inputs(self, space, tmp_path):
        other = build_space(CFG, "1988", random_sentences(random.Random(72), space.terms.tolist(), 40))
        paths = [
            save_space(space, tmp_path / "n1.space", float_width=32),
            save_space(other, tmp_path / "n2.space", float_width=32),
            save_space(space, tmp_path / "w.space"),
        ]
        return paths, [load_space(path) for path in paths]

    def test_mixed_width_combine_sums_every_input_in_64_bit(self, space, tmp_path):
        _, (n1, n2, wide) = self._mixed_inputs(space, tmp_path)
        with pytest.warns(UserWarning, match="mixed float widths"):
            merged = combine(iter([n1, n2, wide]))
        assert merged.float_dtype == np.dtype(np.float64)
        for term in merged.terms.tolist():
            for kind in ("context", "order"):
                expected = np.zeros(CFG.dim)
                for part in (n1, n2, wide):
                    if term in part:
                        expected += part.term_vector(term, kind=kind)
                assert merged.term_vector(term, kind=kind).tobytes() == expected.tobytes()

    def test_cli_combine_sums_mixed_widths_in_64_bit(self, space, tmp_path):
        from driftspace import cli

        paths, inputs = self._mixed_inputs(space, tmp_path)
        out = tmp_path / "total.space"
        with pytest.warns(UserWarning, match="mixed float widths"):
            code = cli.main(["combine", *map(str, paths), "--out", str(out)])
        assert code == cli.EXIT_OK
        merged = load_space(out)
        assert merged.float_dtype == np.dtype(np.float64)
        for term in merged.terms.tolist():
            expected = np.zeros(CFG.dim)
            for part in inputs:
                if term in part:
                    expected += part.term_vector(term)
            assert np.array_equal(merged.term_vector(term), expected)
        with pytest.warns(UserWarning, match="mixed float widths"):
            assert merged == combine(inputs)

    def test_read_table_matches_load_space(self, space, tmp_path):
        path = save_space(space, tmp_path / "n.space", float_width=32)
        table = persistence._read_table(path)
        loaded = load_space(path)
        header = table.space
        assert (header.config, header.epoch_label, header.float_dtype, header.ingested_tokens) == (
            loaded.config, loaded.epoch_label, loaded.float_dtype, loaded.ingested_tokens)
        assert len(header) == 0 and table.dtype == np.dtype("<f4")
        assert table.terms.tolist() == loaded.terms.tolist() == space.terms.tolist()
        # The head is the file's bytes up to the counts section.
        data = path.read_bytes()
        assert table.size == len(data)
        assert table.head == data[:_section_bounds(loaded, data)["counts"][0]]

    def test_bad_width_rejected(self, space, tmp_path):
        with pytest.raises(ConfigError):
            save_space(space, tmp_path / "x.space", float_width=16)


def _assert_ingest_rounds_once(narrow, sentences, weights=None):
    """Ingest ``sentences`` into the 32-bit ``narrow`` and check that each
    row is its old row plus the kernel's 64-bit rows, rounded once."""
    old = {term: (narrow.context[k].copy(), narrow.order[k].copy())
           for k, term in enumerate(narrow.terms.tolist())}
    part = build_space(narrow.config, "part", sentences, weights=weights)
    ingest_sentences(narrow, sentences, weights)
    zero = np.zeros(narrow.config.dim, dtype=np.float32)
    for term in narrow.terms.tolist():
        for kind, before in zip(("context", "order"), old.get(term, (zero, zero))):
            added = part.term_vector(term, kind=kind) if term in part else 0.0
            expected = (before.astype(np.float64) + added).astype(np.float32)
            assert narrow.term_vector(term, kind=kind).tobytes() == expected.tobytes()


def _flip_byte(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0xFF
    return bytes(out)


SECTIONS = ("term lengths", "term bytes", "counts", "context", "order")


def _header_size(data: bytes) -> int:
    (label_len,) = struct.unpack_from("<I", data, _FIXED)
    return _FIXED + 4 + label_len + 16 + 4


def _term_count_offset(data: bytes) -> int:
    return _header_size(data) - 20


def _section_bounds(space, data: bytes) -> dict:
    """Section name -> (first byte, offset of its CRC-32) in a saved file."""
    width = 8 if space.float_dtype == np.float64 else 4
    sizes = [4 * len(space), sum(len(t.encode()) for t in space.terms.tolist()),
             8 * len(space), width * space.context.size, width * space.order.size]
    bounds, start = {}, _header_size(data)
    for name, size in zip(SECTIONS, sizes):
        bounds[name] = (start, start + size)
        start += size + 4
    assert start == len(data)
    return bounds


def _with_header_field(data: bytes, offset: int, value: bytes) -> bytes:
    """``data`` with header bytes replaced and the header CRC-32 redone."""
    end = _header_size(data) - 4
    header = data[:offset] + value + data[offset + len(value):end]
    return header + struct.pack("<I", zlib.crc32(header)) + data[end + 4:]


class TestCorruption:
    @pytest.fixture
    def blob(self, space, tmp_path):
        path = save_space(space, tmp_path / "a.space")
        return path.read_bytes(), tmp_path

    def test_bad_magic(self, blob, tmp_path):
        data, _ = blob
        bad = tmp_path / "bad.space"
        bad.write_bytes(b"NOTSPACE" + data[8:])
        with pytest.raises(BadMagicError):
            load_space(bad)

    def test_version_mismatch_suggests_rebuild(self, blob, tmp_path):
        data, _ = blob
        bumped = data[:8] + struct.pack("<I", FORMAT_VERSION + 1) + data[12:]
        bad = tmp_path / "bad.space"
        bad.write_bytes(bumped)
        with pytest.raises(VersionMismatchError, match="[Rr]ebuild"):
            load_space(bad)

    def test_truncation_reports_offset(self, blob, tmp_path):
        data, _ = blob
        cut = len(data) - 7
        bad = tmp_path / "bad.space"
        bad.write_bytes(data[:cut])
        with pytest.raises(TruncatedFileError) as err:
            load_space(bad)
        assert err.value.offset == cut
        assert err.value.expected > cut

    def test_empty_file_is_truncated(self, tmp_path):
        bad = tmp_path / "empty.space"
        bad.write_bytes(b"")
        with pytest.raises(TruncatedFileError) as err:
            load_space(bad)
        assert err.value.offset == 0

    def test_truncated_header(self, blob, tmp_path):
        data, _ = blob
        bad = tmp_path / "bad.space"
        bad.write_bytes(data[:10])
        with pytest.raises(TruncatedFileError):
            load_space(bad)

    def test_header_checksum(self, blob, tmp_path):
        data, _ = blob
        # Corrupt the label byte region, keeping lengths intact.
        label_pos = struct.calcsize("<8sIIIIQQBBBB") + 4
        bad = tmp_path / "bad.space"
        bad.write_bytes(_flip_byte(data, label_pos))
        with pytest.raises(ChecksumError):
            load_space(bad)

    def test_record_checksum_names_the_term(self, space, blob, tmp_path):
        # Version 2 has no per-term records: the error names the section.
        data, _ = blob
        bad = tmp_path / "bad.space"
        for section, (start, end) in _section_bounds(space, data).items():
            bad.write_bytes(_flip_byte(data, (start + end) // 2))
            with pytest.raises(ChecksumError, match=f"the {section} section"):
                load_space(bad)
            bad.write_bytes(_flip_byte(data, end))  # the stored CRC-32 itself
            with pytest.raises(ChecksumError, match=f"the {section} section"):
                load_space(bad)

    def test_trailing_bytes(self, blob, tmp_path):
        data, _ = blob
        bad = tmp_path / "bad.space"
        bad.write_bytes(data + b"junk")
        with pytest.raises(SpaceFormatError, match="trailing"):
            load_space(bad)

    def test_unknown_weighting_code(self, blob, tmp_path):
        data, _ = blob
        offset = struct.calcsize("<8sIIIIQQ")
        patched = data[:offset] + bytes([9]) + data[offset + 1:]
        bad = tmp_path / "bad.space"
        bad.write_bytes(patched)
        with pytest.raises(SpaceFormatError, match="weighting"):
            load_space(bad)

    def test_unknown_hash_algorithm(self, blob, tmp_path):
        data, _ = blob
        offset = struct.calcsize("<8sIIIIQQB")
        patched = data[:offset] + bytes([9]) + data[offset + 1:]
        bad = tmp_path / "bad.space"
        bad.write_bytes(patched)
        with pytest.raises(SpaceFormatError, match="scheme"):
            load_space(bad)

    def test_magic_constant_pinned(self):
        assert MAGIC == b"DRIFTSPC"
        assert FORMAT_VERSION == 2

    def test_version_1_file_is_refused(self, blob, tmp_path, capsys):
        from driftspace import cli

        data, _ = blob
        old = tmp_path / "v1.space"
        old.write_bytes(_with_header_field(data, 8, struct.pack("<I", 1)))
        with pytest.raises(VersionMismatchError, match="version 1; .*Rebuild"):
            load_space(old)
        assert cli.main(["inspect", str(old)]) == cli.EXIT_MISSING
        assert "Rebuild" in capsys.readouterr().err

    def test_header_with_an_invalid_config_is_a_format_error(self, blob, tmp_path):
        data, _ = blob
        bad = tmp_path / "bad.space"
        bad.write_bytes(_with_header_field(data, 16, struct.pack("<I", 4)))  # window 4
        with pytest.raises(SpaceFormatError, match="window"):
            load_space(bad)

    def test_header_claiming_more_terms_than_the_file_holds(self, blob, tmp_path):
        data, _ = blob
        huge = _with_header_field(data, _term_count_offset(data), struct.pack("<Q", 10**6))
        bad = tmp_path / "bad.space"
        bad.write_bytes(huge)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFileError, match="term lengths") as err:
                load_space(bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 10**6 terms of dim 32 would need 512 MB of vectors; nothing near
        # even the 4 MB of term lengths is allocated.
        assert peak < 1 << 20
        assert err.value.offset == len(huge)


class TestTsvExport:
    def test_rows_sorted_with_norms(self, tmp_path):
        space = build_space(CFG, "e", [["b", "ctx"], ["a", "ctx"], ["a", "ctx"]])
        path = write_space_tsv(space, tmp_path / "out.tsv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "term\tcount\tsquared_context_norm"
        terms = [line.split("\t")[0] for line in lines[1:]]
        assert terms == sorted(terms)
        row = dict(zip(["term", "count", "sq"], lines[1].split("\t")))
        assert row["term"] == "a"
        assert row["count"] == "2"
        assert float(row["sq"]) == pytest.approx(4.0, rel=1e-9)


@pytest.fixture(scope="module")
def images(tmp_path_factory):
    """Two saved spaces of different vocabularies and widths, the file the
    fuzz cases write to, and each section's bounds in the first image."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = random.Random(74)
    wide = build_space(CFG, "1987", random_sentences(rng, ["a", "bé", "c", "dd"], 12))
    narrow = build_space(CFG, "1988-extra", random_sentences(rng, ["a", "x", "yy"], 9))
    first = save_space(wide, root / "wide.space").read_bytes()
    second = save_space(narrow, root / "narrow.space", float_width=32).read_bytes()
    return first, second, root / "fuzzed.space", _section_bounds(wide, first)


def _load_or_format_error(path, data):
    """Load ``data``; any exception but a SpaceFormatError fails the test."""
    path.write_bytes(data)
    try:
        return load_space(path)
    except SpaceFormatError as exc:
        return exc


class TestFuzz:
    def test_truncation_at_every_section_boundary(self, images):
        first, _, path, bounds = images
        cuts = {0, _FIXED, _header_size(first) - 4, _header_size(first)}
        for start, crc in bounds.values():
            cuts |= {start, start + 1, crc - 1, crc, crc + 1, crc + 3}
        for cut in sorted(c for c in cuts if c < len(first)):
            result = _load_or_format_error(path, first[:cut])
            assert isinstance(result, TruncatedFileError), cut
            assert result.offset == cut and result.expected > cut

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_truncation(self, images, data):
        first, _, path, _ = images
        cut = data.draw(st.integers(0, len(first) - 1))
        assert isinstance(_load_or_format_error(path, first[:cut]), TruncatedFileError)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_flips(self, images, data):
        first, _, path, _ = images
        damaged = bytearray(first)
        for bit in data.draw(st.sets(st.integers(0, 8 * len(first) - 1), min_size=1, max_size=3)):
            damaged[bit // 8] ^= 1 << (bit % 8)
        assert isinstance(_load_or_format_error(path, bytes(damaged)), SpaceFormatError)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_spliced_headers(self, images, data):
        first, second, path, _ = images
        head, tail = data.draw(st.sampled_from([(first, second), (second, first)]))
        cut = data.draw(st.integers(0, _header_size(head) + 8))
        resume = data.draw(st.integers(0, len(tail)))
        _load_or_format_error(path, head[:cut] + tail[resume:])


def _failure(load, *args):
    """What ``load(*args)`` raises, as (class, message, offsets), or None."""
    try:
        load(*args)
    except SpaceFormatError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None), getattr(exc, "expected", None)
    return None


@st.composite
def _damaged(draw, first, second):
    """One file's bytes with the damage of a TestFuzz case."""
    kind = draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        return first[:draw(st.integers(0, len(first) - 1))]
    if kind == "flip":
        damaged = bytearray(first)
        for bit in draw(st.sets(st.integers(0, 8 * len(first) - 1), min_size=1, max_size=3)):
            damaged[bit // 8] ^= 1 << (bit % 8)
        return bytes(damaged)
    head, tail = draw(st.sampled_from([(first, second), (second, first)]))
    cut = draw(st.integers(0, _header_size(head) + 8))
    return head[:cut] + tail[draw(st.integers(0, len(tail))):]


# Terms of the fuzzed images, and two that neither holds.
_FUZZ_TERMS = ["a", "bé", "c", "dd", "x", "yy", "absent", "zz"]


class TestLoadSpaces:
    @pytest.fixture
    def paths(self, space, tmp_path):
        config = SpaceConfig(dim=32, window=5, weighting="inverse_log_frequency")
        weighted = build_space(config, "w", [["a", "b", "a"]], weights={"a": 0.5, "b": 0.25})
        return [save_space(space, tmp_path / "wide.space"),
                save_space(space, tmp_path / "narrow.space", float_width=32),
                save_space(SemanticSpace(CFG, "void"), tmp_path / "empty.space"),
                save_space(weighted, tmp_path / "weighted.space")]

    def test_loaded_matrices_are_writable_arrays_of_their_own(self, paths):
        spaces = load_spaces(paths)
        again = [load_space(path) for path in paths]
        for space, other in zip(spaces, again):
            for matrix, same in ((space.context, other.context), (space.order, other.order)):
                assert matrix.flags.writeable
                matrix += 1.0  # as a fold adds into a loaded space
                np.testing.assert_array_equal(matrix, same + 1.0)
        assert load_spaces(paths) == again  # no load shares another's matrices

    def test_dropped_pages_stay_inside_the_buffer(self):
        block = np.full(5 * mmap.PAGESIZE, 7, dtype=np.uint8)
        inner = block[100:-100]
        persistence._drop_pages(inner)
        assert np.all(block[:100] == 7) and np.all(block[-100:] == 7)
        if persistence._madvise is not None:
            assert np.count_nonzero(inner == 0) >= 3 * mmap.PAGESIZE
        tiny = np.full(10, 7, dtype=np.uint8)
        persistence._drop_pages(tiny)
        assert np.all(tiny == 7)

    def test_equals_one_load_per_file(self, paths):
        spaces = load_spaces(paths + paths[::-1])
        singles = [load_space(path) for path in paths + paths[::-1]]
        assert spaces == singles
        assert [s.float_dtype for s in spaces] == [s.float_dtype for s in singles]
        assert [s.float_dtype for s in spaces[:4]] == [np.float64, np.float32, np.float64,
                                                       np.float64]
        assert len(spaces[2]) == 0 and spaces[3].config.weighting == "inverse_log_frequency"
        assert load_spaces([]) == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_damage_in_one_file_of_three_fails_as_that_file_alone(self, images, data):
        first, second, path, _ = images
        root = path.parent
        good = [root / "wide.space", root / "narrow.space"]
        path.write_bytes(data.draw(_damaged(first, second)))
        at = data.draw(st.integers(0, 2))
        paths = good[:at] + [path] + good[at:]
        # No terms, an empty list, absent terms, some or all of the files'
        # terms; rows streamed one at a time, a few at a time or in one chunk.
        terms = data.draw(st.none() | st.lists(st.sampled_from(_FUZZ_TERMS)))
        chunk = data.draw(st.sampled_from([1, 100, persistence._CHUNK]))
        alone = _failure(load_space, path)
        with mock.patch.object(persistence, "_CHUNK", chunk):
            assert _failure(load_spaces, paths, terms) == alone
            if alone is None:  # a splice can make a whole file
                loaded = load_spaces(paths, terms)
        if alone is None:
            for space, p in zip(loaded, paths):
                full = load_space(p)
                assert_spaces_identical(space, full if terms is None else cut_to_terms(full, terms))

    @pytest.mark.parametrize("section", ["context", "order"])
    def test_a_restricted_load_checks_the_rows_it_leaves_out(self, images, tmp_path, section):
        first, _, _, bounds = images
        # The wide image's terms are a, bé, c, dd: flip a byte of the last row.
        path = tmp_path / "flipped.space"
        path.write_bytes(_flip_byte(first, bounds[section][1] - 1))
        alone = _failure(load_space, path)
        assert alone[:2] == (ChecksumError, f"checksum mismatch in the {section} section")
        for terms in ([], ["a"], ["a", "absent"]):
            assert _failure(load_spaces, [path], terms) == alone

    @pytest.mark.parametrize("terms", [[], ["absent"], ["v03", "naïve", "a", "absent"], None])
    def test_a_restricted_load_is_the_full_load_cut_to_its_terms(self, paths, terms,
                                                                monkeypatch):
        terms = load_space(paths[0]).terms.tolist() if terms is None else terms
        monkeypatch.setattr(persistence, "_CHUNK", 3 * 32 * 8)  # several chunks per section
        spaces = load_spaces(paths, terms)
        for space, path in zip(spaces, paths):
            assert_spaces_identical(space, cut_to_terms(load_space(path), terms))

    def test_threads_loading_at_once_get_equal_spaces(self, paths, monkeypatch):
        monkeypatch.setattr(persistence, "_CHUNK", 1)  # one row per chunk
        terms = ["v01", "v02", "naïve", "a"]
        expected = [cut_to_terms(load_space(p), terms) for p in paths * 3]
        results, start = {}, threading.Barrier(4, timeout=60)

        def load(k):
            start.wait()
            results[k] = [load_spaces(paths * 3, terms) for _ in range(20)]

        threads = [threading.Thread(target=load, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads switch between every few chunks
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for loads in results.values():
            for spaces in loads:
                for space, other in zip(spaces, expected):
                    assert_spaces_identical(space, other)

    def test_the_first_damaged_file_in_argument_order_is_reported(self, images, tmp_path):
        first, second, _, bounds = images
        order_crc = bounds["order"][1]
        late = tmp_path / "late.space"  # found by a pool thread
        late.write_bytes(_flip_byte(first, order_crc))
        early = tmp_path / "early.space"  # found while reading the header
        early.write_bytes(first[:_FIXED - 1])
        good = tmp_path / "good.space"
        good.write_bytes(second)
        missing = tmp_path / "missing.space"
        assert _failure(load_space, late)[0] is ChecksumError
        assert _failure(load_spaces, [good, late, early]) == _failure(load_space, late)
        assert _failure(load_spaces, [early, late]) == _failure(load_space, early)
        assert _failure(load_spaces, [late, missing]) == _failure(load_space, late)
        with pytest.raises(FileNotFoundError):
            load_spaces([good, missing, late])
        # Within a file, sections fail in file order, as one read after
        # another would.
        both = tmp_path / "both.space"
        both.write_bytes(_flip_byte(_flip_byte(first, bounds["context"][0]), order_crc))
        for paths in ([good, both], [both, good]):  # read by the caller, then the pool
            assert _failure(load_spaces, paths)[:2] == (
                ChecksumError, "checksum mismatch in the context section")

    def test_open_files_stay_within_the_pool_size_plus_one(self, space, tmp_path,
                                                          monkeypatch):
        paths = [save_space(space, tmp_path / f"{k:02d}.space") for k in range(20)]
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

        def slow_section(*args):
            time.sleep(0.005)  # so that files wait for the pool
            return read_section(*args)

        read_section = persistence._read_section
        monkeypatch.setattr(persistence, "open", Counted, raising=False)
        monkeypatch.setattr(persistence, "_read_section", slow_section)
        assert load_spaces(paths) == [space] * 20
        threads = persistence._section_pool()[1]
        assert opened == {"now": 0, "peak": threads + 1}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_child_forked_after_a_load_loads_again(self, space, tmp_path):
        path = save_space(space, tmp_path / "a.space")
        assert load_spaces([path, path]) == [space, space]  # the pool is running
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports through its exit code
            code = 2
            try:
                signal.alarm(60)  # the parent's pool threads do not exist here
                code = 0 if load_spaces([path, path]) == [space, space] else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
