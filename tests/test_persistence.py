"""Binary space files: round trips, canonical bytes, corruption detection."""

import os
import random
import struct
import threading
import tracemalloc
import zlib

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
    save_space,
)
from driftspace.persistence import FORMAT_VERSION, MAGIC, load_header, write_space_tsv

from helpers import build_space, random_sentences

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
        narrow.ingest_sentence(["fresh", "v00"])
        assert "fresh" in narrow
        assert narrow.context.dtype == np.float32
        assert narrow.order.dtype == np.float32
        first = save_space(narrow, tmp_path / "again.space")
        reloaded = load_space(first)
        assert reloaded == narrow
        assert save_space(reloaded, tmp_path / "third.space").read_bytes() == first.read_bytes()

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

    def test_mixed_width_fold_widens_at_first_change(self, space, tmp_path):
        _, (n1, n2, wide) = self._mixed_inputs(space, tmp_path)
        with pytest.warns(UserWarning, match="mixed float widths"):
            merged = combine(iter([n1, n2, wide]))
        for term in merged.terms.tolist():
            narrow_sum = np.zeros(CFG.dim, dtype=np.float32)
            for part in (n1, n2):
                if term in part:
                    narrow_sum += part.term_vector(term)
            expected = narrow_sum.astype(np.float64) + wide.term_vector(term)
            assert np.array_equal(merged.term_vector(term), expected)

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
        assert merged == combine([part.widen() for part in inputs])

    def test_load_header_matches_load_space(self, space, tmp_path):
        path = save_space(space, tmp_path / "n.space", float_width=32)
        header, terms = load_header(path)
        loaded = load_space(path)
        assert (header.config, header.epoch_label, header.float_dtype, header.ingested_tokens) == (
            loaded.config, loaded.epoch_label, loaded.float_dtype, loaded.ingested_tokens)
        assert len(header) == 0
        assert terms.tolist() == loaded.terms.tolist() == space.terms.tolist()

    def test_bad_width_rejected(self, space, tmp_path):
        with pytest.raises(ConfigError):
            save_space(space, tmp_path / "x.space", float_width=16)


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
