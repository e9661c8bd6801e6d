"""Binary space files: canonical, checksummed, atomic.

Layout (all integers little-endian, no padding):

    magic            8 bytes  b"DRIFTSPC"
    format_version   u32      currently 1
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
    records          term_count times, sorted lexicographically by term:
        term_len     u32      followed by that many UTF-8 bytes
        count        u64
        context      dim floats of float_width
        order        dim floats of float_width
        record_crc   u32      CRC-32 of this record's bytes

Terms are written in sorted order and floats in a fixed byte order, so the
same space always serializes to the same bytes; writes go to a uniquely
named temp file in the target directory, are fsynced and renamed into place.
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
from .space import SemanticSpace, SpaceConfig, TermEntry, WEIGHTINGS
from .vectors import HASH_ALGORITHM_ID

MAGIC = b"DRIFTSPC"
FORMAT_VERSION = 1

_FIXED_HEADER = struct.Struct("<8sIIIIQQBBBB")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_COUNTS = struct.Struct("<QQ")

_WIDTH_DTYPES = {32: np.dtype("<f4"), 64: np.dtype("<f8")}

_IO_BUFFER = 1 << 20

_RECORD_FIELDS = ("term", "count", "context vector", "order vector", "checksum")


def _weighting_code(weighting: str) -> int:
    return WEIGHTINGS.index(weighting)


def save_space(space: SemanticSpace, path, float_width: int | None = None) -> Path:
    """Write the canonical binary image of ``space`` to ``path``.

    ``float_width`` defaults to the space's own dtype (64 for built spaces);
    passing 32 downcasts vectors on write.  Identical spaces produce
    byte-identical files.  The image is streamed record by record, so a
    save holds no copy of the file in memory.
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
    """The file's bytes: the checksummed header, then each checksummed record."""
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
        _weighting_code(config.weighting),
        HASH_ALGORITHM_ID,
        float_width,
        int(config.compaction),
    )
    header += _U32.pack(len(label)) + label
    header += _COUNTS.pack(len(space.entries), space.ingested_tokens)
    header += _U32.pack(zlib.crc32(header))
    yield header
    for term in sorted(space.entries):
        entry = space.entries[term]
        term_bytes = term.encode("utf-8")
        record = bytearray()
        record += _U32.pack(len(term_bytes)) + term_bytes
        record += _U64.pack(entry.count)
        record += np.ascontiguousarray(entry.context, dtype=dtype).tobytes()
        record += np.ascontiguousarray(entry.order, dtype=dtype).tobytes()
        record += _U32.pack(zlib.crc32(record))
        yield record


class _Reader:
    """Sequential reads of a space file that keep a running CRC-32 of
    the bytes they return, so no more than one record is held at once."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.offset = 0
        self.crc = 0
        self.buffer = bytearray()

    def take(self, n: int, what: str) -> bytes:
        end = self.offset + n
        if end > self.size:
            raise TruncatedFileError(self.size, end, what)
        chunk = self.fh.read(n)
        self.offset = end
        self.crc = zlib.crc32(chunk, self.crc)
        return chunk

    def take_record(self, index: int, term_len: int, vector_bytes: int):
        """The rest of record ``index`` after its term length, read at
        once: term, count and both vectors, or None if the stored CRC-32
        that follows them does not match.  The bytes are a view of a
        buffer that the next call overwrites."""
        end = self.offset
        for n, field in zip(
            (term_len, _U64.size, vector_bytes, vector_bytes, _U32.size), _RECORD_FIELDS
        ):
            end += n
            if end > self.size:
                raise TruncatedFileError(self.size, end, f"record {index} {field}")
        n = end - self.offset
        if len(self.buffer) < n:
            self.buffer = bytearray(n)
        chunk = memoryview(self.buffer)[:n]
        self.fh.readinto(chunk)
        self.offset = end
        body = chunk[:-_U32.size]
        (stored,) = _U32.unpack(chunk[-_U32.size:])
        computed = zlib.crc32(body, self.crc)
        self.crc = 0
        return body if stored == computed else None

    def checksum_matches(self, what: str) -> bool:
        """Read a stored CRC-32 and compare it with the bytes read since
        the previous one."""
        computed = self.crc
        (stored,) = _U32.unpack(self.take(_U32.size, what))
        self.crc = 0
        return stored == computed


def load_space(path) -> SemanticSpace:
    """Read a space file, verifying structure and checksums.

    Raises BadMagicError, VersionMismatchError, TruncatedFileError (with
    the failing offset) or ChecksumError; each is a distinct class so
    callers can map them to distinct exit codes.  The file is read record
    by record, so a load holds no copy of it beside the vectors.
    """
    with open(path, "rb", buffering=_IO_BUFFER) as fh:
        reader = _Reader(fh)
        space, term_count, float_width = _read_header(reader)
        return _read_records(reader, space, term_count, float_width)


def load_header(path) -> SemanticSpace:
    """The space a file holds without its term records: config, label,
    float width and token total, read and checked as ``load_space``
    checks them."""
    with open(path, "rb") as fh:
        space, _, _ = _read_header(_Reader(fh))
    return space


def _read_header(reader: _Reader):
    """The header as an empty space, its term count and float width."""
    fixed = reader.take(_FIXED_HEADER.size, "fixed header")
    (
        magic,
        version,
        dim,
        window,
        order_span,
        global_seed,
        perm_seed,
        weighting_code,
        hash_algorithm,
        float_width,
        compaction,
    ) = _FIXED_HEADER.unpack(fixed)
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

    (label_len,) = _U32.unpack(reader.take(_U32.size, "label length"))
    label_bytes = reader.take(label_len, "epoch label")
    term_count, ingested_tokens = _COUNTS.unpack(
        reader.take(_COUNTS.size, "term and token counts")
    )
    if not reader.checksum_matches("header checksum"):
        raise ChecksumError("header checksum mismatch")
    # Decode only after the checksum passed, so a corrupted byte surfaces
    # as a checksum failure rather than a decode error.
    try:
        label = label_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpaceFormatError(f"epoch label is not valid UTF-8: {exc}") from None

    config = SpaceConfig(
        dim=dim,
        window=window,
        order_span=order_span,
        global_seed=global_seed,
        perm_seed=perm_seed,
        weighting=WEIGHTINGS[weighting_code],
        compaction=bool(compaction),
    )
    native = np.float32 if float_width == 32 else np.float64
    space = SemanticSpace.empty(config, label, float_dtype=native)
    space.ingested_tokens = ingested_tokens
    return space, term_count, float_width


def _read_records(reader: _Reader, space: SemanticSpace, term_count: int,
                  float_width: int) -> SemanticSpace:
    dtype = _WIDTH_DTYPES[float_width]
    native = space.float_dtype
    dim = space.config.dim
    vector_bytes = dim * dtype.itemsize
    for index in range(term_count):
        (term_len,) = _U32.unpack(reader.take(_U32.size, f"record {index} term length"))
        body = reader.take_record(index, term_len, vector_bytes)
        if body is None:
            raise ChecksumError(f"checksum mismatch in record {index}")
        term_bytes = bytes(body[:term_len])
        (count,) = _U64.unpack_from(body, term_len)
        offset = term_len + _U64.size
        context = np.frombuffer(body, dtype, dim, offset).astype(native)
        order = np.frombuffer(body, dtype, dim, offset + vector_bytes).astype(native)
        try:
            term = term_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpaceFormatError(
                f"record {index} term is not valid UTF-8: {exc}"
            ) from None
        space.entries[term] = TermEntry(context, order, count)
    if reader.offset != reader.size:
        raise SpaceFormatError(
            f"{reader.size - reader.offset} trailing bytes after the last record"
        )
    return space


def write_space_tsv(space: SemanticSpace, path) -> Path:
    """Inspection export: term, count, squared context norm per row."""
    lines = ["term\tcount\tsquared_context_norm"]
    for term in sorted(space.entries):
        entry = space.entries[term]
        context = np.asarray(entry.context, dtype=np.float64)
        squared = float(np.dot(context, context))
        lines.append(f"{term}\t{entry.count}\t{squared:.12g}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
