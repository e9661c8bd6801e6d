"""Binary space files: canonical, checksummed, atomic.

Layout, format version 2 (all integers little-endian, no padding):

    magic            8 bytes  b"DRIFTSPC"
    format_version   u32      2
    dim              u32
    window           u32
    order_span       u32
    global_seed      u64
    perm_seed        u64
    weighting        u8       0=uniform, 1=inverse_log_frequency
    hash_algorithm   u8       seed-derivation scheme id (see vectors)
    float_width      u8       32 or 64
    compaction       u8       0/1
    label_len        u32      followed by that many UTF-8 bytes
    term_count       u64
    ingested_tokens  u64
    header_crc       u32      CRC-32 of everything above
    then five sections, each followed by the u32 CRC-32 of its own bytes:
    term lengths     term_count u32, the UTF-8 length of each term
    term bytes       the terms' UTF-8 bytes, concatenated, sorted by term
    counts           term_count u64
    context          term_count x dim floats of float_width, row-major
    order            term_count x dim floats of float_width, row-major

Terms are written in sorted order and floats in a fixed byte order, so the
same space always serializes to the same bytes; writes go to a uniquely
named temp file in the target directory, are fsynced and renamed into place.
The header fixes the size of every section but the term bytes, whose size
the checked term lengths fix, so a load checks the whole layout against the
file size before it allocates an array, then reads each section straight
into its array.  Version 1 files (one checksummed record per term) are
refused with VersionMismatchError.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    ChecksumError,
    ConfigError,
    SpaceFormatError,
    TruncatedFileError,
    VersionMismatchError,
)
from .space import SemanticSpace, SpaceConfig, WEIGHTINGS
from .vectors import HASH_ALGORITHM_ID

MAGIC = b"DRIFTSPC"
FORMAT_VERSION = 2

_FIXED_HEADER = struct.Struct("<8sIIIIQQBBBB")
_U32 = struct.Struct("<I")
_COUNTS = struct.Struct("<QQ")

_WIDTH_DTYPES = {32: np.dtype("<f4"), 64: np.dtype("<f8")}
_LENGTH = np.dtype("<u4")
# Counts are stored as u64 and held as int64; a load refuses counts >= 2**63.
_COUNT = np.dtype("<i8")

_IO_BUFFER = 1 << 20


def _raw_bytes(array: np.ndarray) -> np.ndarray:
    """A flat byte view of a C-contiguous array, for I/O and CRCs."""
    return array.reshape(-1).view(np.uint8)


def save_space(space: SemanticSpace, path, float_width: int | None = None) -> Path:
    """Write the canonical binary image of ``space`` to ``path``.

    ``float_width`` defaults to the space's own dtype (64 for built spaces);
    passing 32 downcasts vectors on write.  Identical spaces produce
    byte-identical files.  Sections are written from the space's arrays,
    so a save copies a matrix only to change its width.
    """
    if float_width is None:
        float_width = 32 if space.float_dtype == np.dtype(np.float32) else 64
    if float_width not in _WIDTH_DTYPES:
        raise ConfigError(f"float_width must be 32 or 64, got {float_width}")
    path = Path(path)
    # A unique temp name per writer (created exclusively, as mkstemp does,
    # but with the umask's mode rather than owner-only), so concurrent saves
    # to one path never share a half-written file; the rename makes
    # whichever finishes last win.
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb", buffering=_IO_BUFFER) as fh:
            for chunk in _image(space, float_width):
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def _image(space: SemanticSpace, float_width: int):
    """The file's bytes: the checksummed header, then each section
    followed by its CRC-32."""
    dtype = _WIDTH_DTYPES[float_width]
    config = space.config
    label = space.epoch_label.encode("utf-8")
    header = bytearray()
    header += _FIXED_HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        config.dim,
        config.window,
        config.order_span,
        config.global_seed,
        config.perm_seed,
        WEIGHTINGS.index(config.weighting),
        HASH_ALGORITHM_ID,
        float_width,
        int(config.compaction),
    )
    header += _U32.pack(len(label)) + label
    header += _COUNTS.pack(len(space), space.ingested_tokens)
    header += _U32.pack(zlib.crc32(header))
    yield header
    encoded = [term.encode("utf-8") for term in space.terms.tolist()]
    for section in (
        np.fromiter(map(len, encoded), dtype=_LENGTH, count=len(encoded)),
        np.frombuffer(b"".join(encoded), dtype=np.uint8),
        space.counts.astype("<u8"),
        np.ascontiguousarray(space.context, dtype=dtype),
        np.ascontiguousarray(space.order, dtype=dtype),
    ):
        data = _raw_bytes(section)
        yield data
        yield _U32.pack(zlib.crc32(data))


class _Reader:
    """Exact reads of a space file that know its size, so that a read
    past the end is refused before anything is allocated for it."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.offset = 0

    def need(self, n: int, what: str) -> None:
        if self.offset + n > self.size:
            raise TruncatedFileError(self.size, self.offset + n, what)

    def fill(self, buffer: np.ndarray, what: str) -> None:
        """Read exactly ``buffer.size`` bytes into the uint8 ``buffer``."""
        self.need(buffer.size, what)
        got = self.fh.readinto(buffer)  # buffered: short only at the end of the file
        if got != buffer.size:  # the file shrank after its size was taken
            raise TruncatedFileError(self.offset + got, self.offset + buffer.size, what)
        self.offset += got

    def take(self, n: int, what: str) -> bytes:
        self.need(n, what)
        buffer = np.empty(n, dtype=np.uint8)
        self.fill(buffer, what)
        return buffer.tobytes()

    def section(self, array: np.ndarray, what: str) -> np.ndarray:
        """Fill ``array`` from the file and check the CRC-32 after it."""
        data = _raw_bytes(array)
        self.fill(data, f"{what} section")
        (stored,) = _U32.unpack(self.take(_U32.size, f"{what} checksum"))
        if zlib.crc32(data) != stored:
            raise ChecksumError(f"checksum mismatch in the {what} section")
        return array

    def check_layout(self, sections, exact: bool) -> None:
        """Each ``(what, size)`` section plus its CRC must fit in the file,
        in order; with ``exact``, they must also end where the file ends."""
        end = self.offset
        for what, size in sections:
            end += size + _U32.size
            if end > self.size:
                raise TruncatedFileError(self.size, end, f"{what} section")
        if exact and end < self.size:
            raise SpaceFormatError(f"{self.size - end} trailing bytes after the last section")


def load_space(path) -> SemanticSpace:
    """Read a space file, verifying structure and checksums.

    Raises BadMagicError, VersionMismatchError, TruncatedFileError (with
    the failing offset) or ChecksumError; each is a distinct class so
    callers can map them to distinct exit codes.  Every section is read
    straight into the array the space keeps.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        space, terms, dtype = _read_header(reader)
        counts = reader.section(np.empty(len(terms), dtype=_COUNT), "counts")
        if len(terms) and counts.min() < 0:
            raise SpaceFormatError("a stored count exceeds 2**63 - 1")
        shape = (len(terms), space.config.dim)
        context = reader.section(np.empty(shape, dtype=dtype), "context")
        order = reader.section(np.empty(shape, dtype=dtype), "order")
    native = space.float_dtype
    space.set_rows(terms, counts.astype(np.int64, copy=False),
                   context.astype(native, copy=False), order.astype(native, copy=False))
    return space


def load_header(path):
    """``(space, terms)``: the space a file holds without its rows (config,
    label, float width and token total) and its sorted term table, read
    and checked as ``load_space`` checks them."""
    with open(path, "rb") as fh:
        return _read_header(_Reader(fh))[:2]


def _read_header(reader: _Reader):
    """The header as an empty space, the term table and the file's float
    dtype."""
    fixed = reader.take(_FIXED_HEADER.size, "fixed header")
    (magic, version, dim, window, order_span, global_seed, perm_seed, weighting_code,
     hash_algorithm, float_width, compaction) = _FIXED_HEADER.unpack(fixed)
    if magic != MAGIC:
        raise BadMagicError(
            f"not a space file: expected magic {MAGIC!r}, found {magic!r}"
        )
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"space file is format version {version}; this build reads version "
            f"{FORMAT_VERSION} only. Rebuild the space from its corpus or "
            f"convert it with a matching release."
        )
    if hash_algorithm != HASH_ALGORITHM_ID:
        raise SpaceFormatError(
            f"space file uses seed-derivation scheme {hash_algorithm}; "
            f"this build implements scheme {HASH_ALGORITHM_ID}"
        )
    if float_width not in _WIDTH_DTYPES:
        raise SpaceFormatError(f"unsupported float width {float_width}")
    if weighting_code >= len(WEIGHTINGS):
        raise SpaceFormatError(f"unknown weighting code {weighting_code}")

    label_len = reader.take(_U32.size, "label length")
    label_bytes = reader.take(_U32.unpack(label_len)[0], "epoch label")
    counts = reader.take(_COUNTS.size, "term and token counts")
    (stored,) = _U32.unpack(reader.take(_U32.size, "header checksum"))
    if zlib.crc32(fixed + label_len + label_bytes + counts) != stored:
        raise ChecksumError("header checksum mismatch")
    # Decode only after the checksum passed, so a corrupted byte surfaces
    # as a checksum failure rather than a decode error.
    try:
        label = label_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpaceFormatError(f"epoch label is not valid UTF-8: {exc}") from None

    try:
        config = SpaceConfig(dim=dim, window=window, order_span=order_span,
                             global_seed=global_seed, perm_seed=perm_seed,
                             weighting=WEIGHTINGS[weighting_code], compaction=bool(compaction))
    except ConfigError as exc:
        raise SpaceFormatError(f"space file header holds an invalid config: {exc}") from None
    term_count, ingested_tokens = _COUNTS.unpack(counts)
    native = np.float32 if float_width == 32 else np.float64
    space = SemanticSpace.empty(config, label, float_dtype=native)
    space.ingested_tokens = ingested_tokens
    dtype = _WIDTH_DTYPES[float_width]
    return space, _read_terms(reader, term_count, dim * dtype.itemsize), dtype


def _read_terms(reader: _Reader, term_count: int, row_bytes: int) -> np.ndarray:
    """The term table as a sorted array, after checking that the file is
    exactly as long as the header and the term lengths say."""
    sections = [
        ("term lengths", term_count * _LENGTH.itemsize),
        ("term bytes", term_count),  # at least one byte per term
        ("counts", term_count * _COUNT.itemsize),
        ("context", term_count * row_bytes),
        ("order", term_count * row_bytes),
    ]
    reader.check_layout(sections, exact=False)
    lengths = reader.section(np.empty(term_count, dtype=_LENGTH), "term lengths")
    sections[1] = ("term bytes", int(lengths.sum(dtype=np.uint64)))
    reader.check_layout(sections[1:], exact=True)
    blob = reader.section(np.empty(sections[1][1], dtype=np.uint8), "term bytes").tobytes()
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    try:
        terms = [blob[end - n:end].decode("utf-8") for end, n in zip(ends, lengths.tolist())]
    except UnicodeDecodeError as exc:
        raise SpaceFormatError(f"a term is not valid UTF-8: {exc}") from None
    terms = np.array(terms, dtype=str)
    if term_count and (lengths.min() == 0 or np.any(terms[1:] <= terms[:-1])):
        raise SpaceFormatError("the term table is not sorted, unique, non-empty terms")
    return terms


def write_space_tsv(space: SemanticSpace, path) -> Path:
    """Inspection export: term, count, squared context norm per row."""
    context = space.context.astype(np.float64, copy=False)
    # One BLAS dot per row, the bits of np.dot(row, row).
    squared = np.vecdot(context, context)
    lines = ["term\tcount\tsquared_context_norm"]
    lines += [
        f"{term}\t{count}\t{sq:.12g}"
        for term, count, sq in zip(space.terms.tolist(), space.counts.tolist(), squared.tolist())
    ]
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
