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
file size before it allocates an array.  The term table and counts are read
whole; the matrix sections stream in chunks of whole rows, each fed to the
CRC-32 as it arrives (``_stream_rows``), on every core (``_File``).  A full
load reads the chunks straight into the space's arrays.  The other readers
take them out of one reused buffer per reading thread: a restricted load
(``load_spaces(paths, terms)``) copies the kept rows, ``combine_files`` adds
every row into ``combine``'s sum, and ``equivalents_files`` scores every
context row against the anchor (``space.RowScores``) and keeps no row, its
order sections only passing their CRC-32s.  Version 1 files (one
checksummed record per term) are refused with VersionMismatchError.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import struct
import threading
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    BadMagicError,
    ChecksumError,
    ConfigError,
    SpaceFormatError,
    TermNotFoundError,
    TruncatedFileError,
    VersionMismatchError,
)
from . import diachronic
from .space import (WEIGHTINGS, RowScores, SemanticSpace, SpaceConfig, _summed, rows_in,
                    unit_vector)
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
# Matrix sections stream in chunks of whole rows of at most this many bytes
# (one row, if a row is longer).
_CHUNK = 1 << 20


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


def _read_at(fd: int, buffer, offset: int, what: str, expected: int | None = None):
    """Fill the writable ``buffer`` from the file at ``offset``.  A read
    short of it means the file shrank after its size was taken; the error
    names ``expected`` (by default the buffer's end) as the offset needed."""
    view = memoryview(buffer)
    done = 0
    while done < len(view):
        got = os.preadv(fd, [view[done:]], offset + done)
        if not got:
            end = offset + len(view) if expected is None else expected
            raise TruncatedFileError(offset + done, end, what)
        done += got
    return buffer


def _check_crc(fd: int, crc: int, end: int, what: str) -> None:
    """Compare ``crc`` with the CRC-32 stored at ``end``, after the section."""
    checksum = _read_at(fd, bytearray(_U32.size), end, f"{what} checksum")
    if crc != _U32.unpack(checksum)[0]:
        raise ChecksumError(f"checksum mismatch in the {what} section")


_buffers = threading.local()


def _stream_rows(fd: int, offset: int, shape: tuple, dtype: np.dtype, what: str, sink) -> None:
    """Read the section at ``offset``, ``shape`` = (rows, dim) floats of
    ``dtype``, in chunks of whole rows, each fed to the CRC-32 as it
    arrives, then check the section's CRC-32.  A ``sink`` array of
    ``shape`` takes the chunks in place; any other sink is called as
    ``sink(first, chunk)``, the chunk a (rows, dim) view of the calling
    thread's reused buffer whose first row is the section's row ``first``.
    ``preadv`` and ``crc32`` release the GIL, so pool threads stream
    sections side by side."""
    rows, dim = shape
    row_bytes = dim * dtype.itemsize
    step = max(1, _CHUNK // row_bytes)
    in_place = isinstance(sink, np.ndarray)
    buffer = getattr(_buffers, "chunk", None)
    if in_place:
        buffer = _raw_bytes(sink)
    elif buffer is None or buffer.size < step * row_bytes:
        buffer = _buffers.chunk = np.empty(step * row_bytes, dtype=np.uint8)
    end = offset + rows * row_bytes
    crc = 0
    for first in range(0, rows, step):
        at = first * row_bytes if in_place else 0
        chunk = buffer[at:at + min(step, rows - first) * row_bytes]
        _read_at(fd, chunk, offset + first * row_bytes, f"{what} section", expected=end)
        crc = zlib.crc32(chunk, crc)
        if not in_place:
            sink(first, chunk.view(dtype).reshape(-1, dim))
    _check_crc(fd, crc, end, what)


def _copy_kept(out: np.ndarray, keep: np.ndarray):
    """A ``_stream_rows`` sink that copies the rows ``keep`` marks, in
    order, into ``out``."""
    before = np.concatenate(([0], np.cumsum(keep)))  # kept rows before each row

    def sink(first, chunk):
        last = first + len(chunk)
        out[before[first]:before[last]] = chunk[keep[first:last]]
    return sink


def _add_into(out: np.ndarray, rows: np.ndarray):
    """A ``_stream_rows`` sink that adds the section's row k into
    ``out[rows[k]]``; no row repeats in ``rows``."""
    def sink(first, chunk):
        out[rows[first:first + len(chunk)]] += chunk
    return sink


class _Reader:
    """Exact reads of a space file at a running offset that know the
    file's size, so that a read past the end is refused before anything
    is allocated for it."""

    def __init__(self, fd: int):
        self.fd = fd
        self.size = os.fstat(fd).st_size
        self.offset = 0

    def need(self, n: int, what: str) -> None:
        if self.offset + n > self.size:
            raise TruncatedFileError(self.size, self.offset + n, what)

    def take(self, n: int, what: str) -> bytes:
        self.need(n, what)
        data = bytes(_read_at(self.fd, bytearray(n), self.offset, what))
        self.offset += n
        return data

    def section(self, array: np.ndarray, what: str) -> np.ndarray:
        """Fill ``array`` from the file and check the CRC-32 after it;
        ``check_layout`` has made sure that both fit."""
        data = _raw_bytes(array)
        _read_at(self.fd, data, self.offset, f"{what} section")
        self.offset += data.size
        _check_crc(self.fd, zlib.crc32(data), self.offset, what)
        self.offset += _U32.size
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
    callers can map them to distinct exit codes.
    """
    return load_spaces([path])[0]


def load_spaces(paths, terms=None) -> list:
    """``[load_space(path) for path in paths]``, with the files' matrix
    sections read and checked on every core.

    The calling thread reads and checks each file's header, term table and
    counts, and allocates its matrices; pool threads then stream the
    context and order sections into them and check their CRCs, while the
    calling thread goes on to the next file.  It reads the last file's context
    section itself, since it would otherwise only wait.  At most one file
    more than the pool has threads is open at a time.  Errors are those of
    sequential loads: the first damaged file in argument order raises, as
    ``load_space`` would on it alone.

    With ``terms``, each space keeps only the rows of those of ``terms``
    its file holds (sorted terms, counts, context and order rows); its
    label, config and ``ingested_tokens`` are the file's.  Every section is
    still read in full and checked, so the errors are those of a full
    load, but the rows left out are never allocated.  Such a space answers
    only for its own rows: a neighbor query over it ranks only them.
    """
    _, threads = _section_pool()
    paths = list(paths)
    if terms is not None:
        terms = np.array(list(terms), dtype=str)
    spaces, pending = [], deque()
    try:
        for k, path in enumerate(paths):
            while len(pending) > threads:
                spaces.append(pending.popleft().finish())
            try:
                pending.append(_Load(path, last=k == len(paths) - 1, terms=terms))
            except Exception:
                # Damage in an earlier file is reported first, as it would
                # be were the files loaded one after another.
                while pending:
                    pending.popleft().finish()
                raise
        while pending:
            spaces.append(pending.popleft().finish())
    finally:
        for load in pending:
            load.file.close()
    return spaces


class _File:
    """A space file open on one descriptor, whose two matrix sections
    stream into sinks: the order section in a pool thread, the context
    section too, or, for a file read ``own``, on the calling thread in
    ``finish``.  Every section comes through the one descriptor whose
    header was checked, so a file renamed over the path meanwhile cannot
    be mixed in."""

    def __init__(self, path):
        self.file = open(path, "rb", buffering=0)
        self.reader = _Reader(self.file.fileno())
        self.reads, self.own = [], None

    def stream(self, counts_at: int, shape: tuple, dtype: np.dtype, sinks, own: bool) -> None:
        """Start streaming the context and order sections, ``shape`` =
        (rows, dim) floats of ``dtype`` each, into ``sinks``; the counts
        section, at ``counts_at``, precedes them."""
        pool, _ = _section_pool()
        rows, dim = shape
        context_at = _context_at(counts_at, rows)
        order_at = context_at + rows * dim * dtype.itemsize + _U32.size
        for what, offset, sink in zip(("context", "order"), (context_at, order_at), sinks):
            read = (self.reader.fd, offset, shape, dtype, what, sink)
            if own and what == "context":
                self.own = read
            else:
                self.reads.append(pool.submit(_stream_rows, *read))

    def finish(self) -> None:
        """Wait for both sections, then close; a damaged section raises,
        the context section's damage first."""
        try:
            if self.own:
                _stream_rows(*self.own)
            for read in self.reads:
                read.result()
        finally:
            self.close()

    def close(self) -> None:
        """Close the file once no read of it can still run: reads not yet
        started are cancelled, the others waited for."""
        for read in self.reads:
            read.cancel()
        wait(self.reads)
        self.file.close()


def _context_at(counts_at: int, rows: int) -> int:
    """The offset of the context section, after the counts section at
    ``counts_at`` and its CRC-32."""
    return counts_at + rows * _COUNT.itemsize + _U32.size


class _Load:
    """One space file being loaded: its header, term table and counts read
    and checked, its matrix sections streaming into the arrays it
    allocated, the context section of the ``last`` file in ``finish``.
    With ``terms`` (an array), only their rows are kept."""

    def __init__(self, path, last: bool, terms=None):
        self.file = _File(path)
        try:
            reader = self.file.reader
            self.space, dtype, table, _ = _read_header(reader)
            term_count = len(table[0])
            dim = self.space.config.dim
            keep = None
            if terms is not None:
                # The rows to keep depend on the decoded terms, so a
                # restricted load decodes them before its reads start.
                self.terms = _decode_terms(*table)
                keep = np.isin(self.terms, terms)
                self.terms = self.terms[keep]
            rows = term_count if keep is None else len(self.terms)
            # Allocated here, not in the pool threads: that kept peak RSS
            # lower.
            self.matrices = [np.empty((rows, dim), dtype=dtype) for _ in range(2)]
            sinks = self.matrices if keep is None else [
                _copy_kept(matrix, keep) for matrix in self.matrices]
            self.file.stream(reader.offset, (term_count, dim), dtype, sinks, own=last)
            # Meanwhile, the checks of what precedes them in the file, in
            # file order.
            if terms is None:
                self.terms = _decode_terms(*table)
            self.counts = _read_counts(reader, term_count)
            if keep is not None:
                self.counts = self.counts[keep]
        except BaseException:
            self.file.close()
            raise

    def finish(self) -> SemanticSpace:
        """The loaded space; a damaged section raises, the context
        section's damage first."""
        self.file.finish()
        native = self.space.float_dtype
        context, order = (matrix.astype(native, copy=False) for matrix in self.matrices)
        self.space.set_rows(self.terms, self.counts.astype(np.int64, copy=False), context, order)
        return self.space


_pool = None
_pool_lock = threading.Lock()


def _section_pool():
    """``(pool, threads)``: the process's section readers, one thread per
    CPU the process may run on, started on first use and kept, since
    starting a pool per load cost time and peak RSS."""
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                threads = len(os.sched_getaffinity(0))
            except AttributeError:  # not on every platform
                threads = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(threads, thread_name_prefix="driftspace-load"), threads
        return _pool


def _drop_pool() -> None:
    """A forked child has none of its parent's threads: its first load
    starts a pool of its own."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_drop_pool)


def _read_counts(reader: _Reader, term_count: int) -> np.ndarray:
    """The counts section at the reader's offset, checked."""
    counts = reader.section(np.empty(term_count, dtype=_COUNT), "counts")
    if term_count and counts.min() < 0:
        raise SpaceFormatError("a stored count exceeds 2**63 - 1")
    return counts


class _Table(NamedTuple):
    """A space file's header and term table, read and checked as
    ``load_space`` checks them: the header as a space without rows, the
    float dtype, the decoded terms, the file's size, and its bytes up to the
    counts section as they were checked."""

    path: object
    space: SemanticSpace
    dtype: np.dtype
    terms: np.ndarray
    size: int
    head: bytes


def _read_table(path) -> _Table:
    with open(path, "rb", buffering=0) as fh:
        reader = _Reader(fh.fileno())
        space, dtype, (lengths, blob), header = _read_header(reader)
    terms = _decode_terms(lengths, blob)
    # The checked bytes as the file holds them, CRC-32s included.
    head = [header]
    for data in (_raw_bytes(lengths), blob):
        head += [bytes(data), _U32.pack(zlib.crc32(data))]
    return _Table(path, space, dtype, terms, reader.size, b"".join(head))


def combine_files(paths) -> SemanticSpace:
    """``combine`` of the spaces in the files at ``paths``, into its bytes,
    streamed: no input is loaded and one input file is open at a time.

    The first pass reads every file's header and term table in argument
    order, and ``combine``'s kernel allocates the union of their
    vocabularies once.  The second reopens each file in turn, refuses it if
    its config differs from the first file's (``combine``'s
    CombineMismatchError, before its sections are read) or if its header or
    term table are no longer those the first pass read (SpaceFormatError
    naming it), and adds its counts, context and order sections into the
    result's rows as they stream past, the order section in a pool
    thread.  Every section is checked as ``load_space`` checks it, and the
    first damaged file in argument order raises, with the first damaged
    section; damage to a header or term table is found in the first pass,
    before any section is read.
    """
    tables = [_read_table(path) for path in paths]
    return _summed([table.space for table in tables], [table.terms for table in tables],
                   lambda k, out, rows: _add_file(tables[k], out, rows))


def _add_file(table: _Table, out: SemanticSpace, rows: np.ndarray) -> None:
    """Add the sections of ``table``'s file into ``out``'s ``rows``."""
    file = _File(table.path)
    try:
        reader = file.reader
        if reader.size != table.size or reader.take(len(table.head), "header") != table.head:
            raise SpaceFormatError(f"{table.path} changed while it was being combined")
        shape = (len(table.terms), out.config.dim)
        file.stream(reader.offset, shape, table.dtype,
                    [_add_into(out.context, rows), _add_into(out.order, rows)], own=True)
        out.counts[rows] += _read_counts(reader, shape[0])
    except BaseException:
        file.close()
        raise
    file.finish()


def equivalents_files(paths, term: str, anchor_epoch: str, top_k: int = 2, min_count: int = 1,
                      exclude_self: bool = False):
    """``diachronic.equivalents(load_spaces(paths), ...)``, streamed: no
    epoch is loaded, and each context row is scored against the anchor as
    it streams past.

    After the flag check, a label pass reads each file's fixed header and
    label and finds the anchor epoch's file.  Its header, term table and
    counts are read and checked, and the anchor term's context row is read
    with one ``preadv``.  Then each file in argument order has its header
    (refused as changed if it no longer begins with what the label pass
    read), term table and counts checked on the calling thread, while its
    context section streams through a ``RowScores`` of the anchor and its
    order section past its CRC-32, in pool threads; the last file's context
    section streams on the calling thread, and the anchor row must stream
    as it was read.  At most one file more than the pool has threads is
    open at a time.  Nothing is ranked before every section of every file
    has passed its check, and the errors are those of ``equivalents`` over
    ``load_spaces(paths)``: the first damaged file in argument order, then
    the labels and configs, the anchor epoch, the term and its vector.
    """
    diachronic._check_top_k(top_k)
    paths = list(paths)
    heads = [_label_head(path) for path in paths]
    at = next((k for k, head in enumerate(heads) if head and head[1] == anchor_epoch), None)
    anchor = query = failure = None
    if at is not None:
        try:
            anchor = _Scan(paths[at], heads[at][0])
            query = anchor.anchor_vector(term)
        except Exception as exc:
            # Raised once every file has been checked: damage to this file
            # or an earlier one comes first, as in a load.
            anchor, failure = None, exc
    scans = _scan_all(paths, heads, at, anchor, query)
    diachronic._anchored([scan.space for scan in scans], anchor_epoch)
    if failure is not None:
        raise failure
    epochs = {scan.space.epoch_label: (scan.terms, scan.counts, scan.scores) for scan in scans}
    return diachronic._equivalence_report(epochs, term, anchor_epoch, top_k, min_count,
                                          exclude_self)


def _label_head(path):
    """The fixed header, label length and label of the file at ``path``,
    as bytes, and the label, none of them checked; None if they cannot be
    read."""
    try:
        with open(path, "rb", buffering=0) as fh:
            reader = _Reader(fh.fileno())
            fixed = reader.take(_FIXED_HEADER.size + _U32.size, "fixed header")
            label = reader.take(_U32.unpack_from(fixed, _FIXED_HEADER.size)[0], "epoch label")
        return fixed + label, label.decode("utf-8")
    except (OSError, ValueError, SpaceFormatError):
        return None


def _scan_all(paths, heads, at: int | None, anchor, query) -> list:
    """Every file's ``_Scan``, in argument order; the ``anchor`` scan, if
    any, is the file at ``at``, held open until its turn.  Each file whose
    config is the anchor file's is scored against ``query``; the others
    only pass their checks."""
    _, threads = _section_pool()
    config = None if anchor is None else anchor.space.config
    scans, pending = [], deque()
    try:
        for k, (path, head) in enumerate(zip(paths, heads)):
            while len(pending) + (anchor is not None) > threads:
                pending.popleft().file.finish()
            try:
                if k == at and anchor is not None:
                    scan, anchor = anchor, None
                else:
                    scan = _Scan(path, head and head[0])
                scan.start(query if scan.space.config == config else None, own=k == len(paths) - 1)
            except Exception:
                # Damage in an earlier file is reported first.
                while pending:
                    pending.popleft().file.finish()
                raise
            pending.append(scan)
            scans.append(scan)
        while pending:
            pending.popleft().file.finish()
    finally:
        for scan in pending:
            scan.file.close()
        if anchor is not None:
            anchor.file.close()
    return scans


def _past(first, chunk) -> None:
    """A ``_stream_rows`` sink that keeps nothing: the section only passes
    its CRC-32 check."""


class _Scan:
    """One space file of ``equivalents_files``, open on one descriptor:
    its header, read and checked, must begin with ``head``, the bytes the
    label pass read.  ``start`` scores its context rows against a query as
    they stream and reads its term table and counts.  A method that fails
    closes the file."""

    def __init__(self, path, head):
        self.path = path
        self.file = _File(path)
        reader = self.file.reader
        try:
            self.space, self.dtype, self.table, header = _read_header(reader)
            if head is None or not header.startswith(head):
                raise SpaceFormatError(f"{path} changed while it was being read")
        except BaseException:
            self.file.close()
            raise
        self.counts_at = reader.offset
        self.shape = (len(self.table[0]), self.space.config.dim)
        self.terms = self.scores = self.row = None

    def _read_rows(self) -> None:
        """Decode the term table, read the counts; both are checked."""
        self.terms = _decode_terms(*self.table)
        self.table = None
        self.counts = _read_counts(self.file.reader, self.shape[0])

    def anchor_vector(self, term: str) -> np.ndarray:
        """``term_vector(term, normalized=True)`` of the file's space, from
        its term table and counts and one read of the term's context row."""
        try:
            self._read_rows()
            k = int(rows_in(self.terms, [term])[0])
            if k < 0:
                raise TermNotFoundError(term)
            row = np.empty(self.shape[1], dtype=self.dtype)
            offset = _context_at(self.counts_at, self.shape[0]) + k * row.nbytes
            _read_at(self.file.reader.fd, _raw_bytes(row), offset, "context section")
            self.row = k, row.tobytes()
            return unit_vector(row.astype(self.space.float_dtype), term)
        except BaseException:
            self.file.close()
            raise

    def start(self, query, own: bool) -> None:
        """Start streaming both matrix sections, the context section into a
        ``RowScores`` of ``query`` (past its check only, if ``query`` is
        None), then read the term table and counts unless ``anchor_vector``
        has.  The row that read must stream as it was read."""
        try:
            sink = _past
            if query is not None:
                sink = self.scores = RowScores(query, self.shape[0])
            if self.row is not None:
                sink = _reading_row_as(sink, *self.row, self.path)
            self.file.stream(self.counts_at, self.shape, self.dtype, [sink, _past], own)
            if self.terms is None:
                self._read_rows()
        except BaseException:
            self.file.close()
            raise


def _reading_row_as(sink, k: int, row: bytes, path):
    """``sink``, after checking that the section's row ``k`` is ``row``."""
    def check(first, chunk):
        if 0 <= k - first < len(chunk) and chunk[k - first].tobytes() != row:
            raise SpaceFormatError(f"{path} changed while it was being read")
        sink(first, chunk)
    return check


def _read_header(reader: _Reader):
    """The header as an empty space, the file's float dtype, the term
    table as read and checked, not yet decoded (``_decode_terms``), and the
    header's bytes."""
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
    header = fixed + label_len + label_bytes + counts
    checksum = reader.take(_U32.size, "header checksum")
    if zlib.crc32(header) != _U32.unpack(checksum)[0]:
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
    space = SemanticSpace(config, label, float_dtype=native)
    space.ingested_tokens = ingested_tokens
    dtype = _WIDTH_DTYPES[float_width]
    table = _read_term_table(reader, term_count, dim * dtype.itemsize)
    return space, dtype, table, header + checksum


def _read_term_table(reader: _Reader, term_count: int, row_bytes: int) -> tuple:
    """``(lengths, blob)``: the term lengths and term bytes, after checking
    that the file is exactly as long as the header and the term lengths
    say."""
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
    return lengths, blob


def _decode_terms(lengths: np.ndarray, blob: bytes) -> np.ndarray:
    """The term table as a sorted array of terms."""
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    try:
        terms = [blob[end - n:end].decode("utf-8") for end, n in zip(ends, lengths.tolist())]
    except UnicodeDecodeError as exc:
        raise SpaceFormatError(f"a term is not valid UTF-8: {exc}") from None
    terms = np.array(terms, dtype=str)
    if len(terms) and (lengths.min() == 0 or np.any(terms[1:] <= terms[:-1])):
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
