"""File formats for timestamp streams, and the ground-truth record a simulation writes.

Text stream format, one event per line::

    qvibe-ts v1 <tag> <tick_ps> <t_exp_s> <count>
    12345
    12347
    ...

The header line holds six whitespace-separated fields. ``tick_ps`` is the
tick duration in picoseconds, written as the shortest decimal that reads
back to the same float (``100.0`` for the default tick) and read as the
correctly rounded value of that decimal times 1e-12, so the text and the
binary file of one stream carry the same tick. ``t_exp_s`` is the exposure
in seconds as a Python float literal. Exactly ``count`` tick lines follow,
each 1 to 19 ASCII digits (at most 2^63 - 1) ended by LF or CRLF; the last
may lack its line end. After them only ASCII whitespace may follow. This
is the grammar the writer emits and the only one read: a sign, an
underscore or a blank inside a tick line, or a bare CR line end, is a
``StreamFormatError``. Both directions work on chunks of
``_CHUNK_LINES`` lines with numpy array operations. The reader finds the
line ends once and refuses as a single pass over the whole body would: the
first line that is not 1 to 19 digits, then too few lines, then trailing
data, then the first tick past the int64 range.

Binary stream format: a 32-byte header (magic ``qvibe-ts``, version byte,
tag byte, reserved padding, then tick duration and exposure as
little-endian float64 seconds) followed by the ticks as little-endian
uint64. The event count is implied by the file size. A read stream's ticks
are a read-only view of the file's bytes.

Ground truth is written as JSON from the signal a run played and its
geometry factor: the waveform component list, the operating delay, and g.
The package never reads it back.
"""

from __future__ import annotations

import json
import struct
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np

from .core import GeometryFactor
from .errors import StreamFormatError
from .floatrepr import POW10, spell_digits
from .simulate import STREAM_TAGS, TimestampStream, VibrationSignal

_TEXT_MAGIC = "qvibe-ts"
_TEXT_VERSION = "v1"
_MAX_TICK_DIGITS = 19  # 2^63 - 1 has 19 digits, and 19 digits fit in uint64
# The text reader works on ticks in groups of 9 digits, which fit in uint32.
_GROUP_DIGITS = 9
# Shifting a decimal by a power of ten is exact in this context, whatever its
# length; the header tick and the config units (qvibe.config) both use it.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_BIN_HEADER = struct.Struct("<8sBB6sdd")
_BIN_MAGIC = b"qvibe-ts"
_BIN_VERSION = 1

# Both text directions work _CHUNK_LINES lines at a time, so that a chunk's
# buffers stay in cache. A write then a read of n sorted 10-digit ticks,
# timed on 2 cores, medians interleaved, at chunks of 2^13, 2^15, 2^17 lines
# and unchunked: n = 95k (the README quick start) 5.7 + 8.4, 4.9 + 7.0,
# 7.8 + 10.3 and 8.1 + 10.3 ms; n = 1M 48 + 64, 30 + 50, 40 + 58 and
# 59 + 85 ms.
_CHUNK_LINES = 1 << 15


def write_stream_text(stream: TimestampStream, path: str | Path) -> None:
    # repr is the shortest decimal that reads back to the tick; shifting it
    # by 12 places keeps that exact in picoseconds.
    tick_ps = format(Decimal(repr(float(stream.tick_duration))).scaleb(12, _EXACT), "f")
    header = "%s %s %s %s %r %d\n" % (
        _TEXT_MAGIC,
        _TEXT_VERSION,
        stream.tag,
        tick_ps if "." in tick_ps else tick_ps + ".0",
        float(stream.t_exp),
        len(stream),
    )
    with Path(path).open("wb") as fh:
        fh.write(header.encode())
        fh.writelines(_format_ticks(stream.ticks))


def _format_ticks(ticks: np.ndarray) -> Iterator[np.ndarray]:
    """The decimal digits of each tick and a newline, as ASCII blocks in file order.

    ``ticks`` are sorted ascending and non-negative, as a ``TimestampStream``
    keeps them. They are formatted ``_CHUNK_LINES`` at a time, and each block
    is a C-ordered uint8 array of the lines of one digit count in a chunk.
    """
    for lo in range(0, ticks.size, _CHUNK_LINES):
        chunk = ticks[lo : lo + _CHUNK_LINES].astype(np.uint64)
        width = len(str(chunk[-1]))
        # Sorted, the ticks of d digits are the run from the first tick >=
        # 10^(d-1) to the first tick >= 10^d, and each run is one block below.
        edges = [0, *np.searchsorted(chunk, POW10[1:width]).tolist(), chunk.size]
        # Row r holds digit r of every tick, right-aligned in `width` digits,
        # and the last row the newlines; column i, from the tick's first
        # significant digit down, is line i of the chunk.
        chars = np.empty((width + 1, chunk.size), dtype=np.uint8)
        spell_digits(chunk, chars[:width])
        chars[:width] += ord("0")
        chars[width] = ord("\n")
        for d, (a, b) in enumerate(zip(edges, edges[1:]), start=1):
            yield np.ascontiguousarray(chars[width - d :, a:b].T)


def read_stream_text(path: str | Path) -> TimestampStream:
    path = Path(path)
    raw = path.read_bytes()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    head_end = raw.find(b"\n")
    if head_end < 0:
        head_end = len(raw)
    header = raw[:head_end].decode("utf-8", "replace")
    fields = header.split()
    if (
        len(fields) != 6
        or fields[0] != _TEXT_MAGIC
        or fields[1] != _TEXT_VERSION
        or "\r" in header  # a bare CR ends no line and separates no field
    ):
        raise StreamFormatError(f"{path}: bad header {header!r}")
    tag = fields[2]
    if tag not in STREAM_TAGS:
        raise StreamFormatError(f"{path}: unknown tag {tag!r}")
    try:
        float(fields[3])  # a float literal: Decimal alone would take "_1.0" and "1._"
        tick_duration = float(Decimal(fields[3]).scaleb(-12, _EXACT))
        t_exp = float(fields[4])
        count = int(fields[5])
    except (ValueError, ArithmeticError):
        raise StreamFormatError(f"{path}: bad header numbers in {header!r}") from None
    if count < 0:
        raise StreamFormatError(f"{path}: negative tick count {count}")
    body = np.frombuffer(raw, dtype=np.uint8, offset=min(head_end + 1, len(raw)))
    ticks = _parse_ticks(path, body, count)
    try:
        return TimestampStream(tag=tag, ticks=ticks, tick_duration=tick_duration, t_exp=t_exp)
    except ValueError as exc:
        raise StreamFormatError(f"{path}: {exc}") from None


def _parse_ticks(path: Path, body: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` lines of ``body`` as int64 ticks.

    Error messages number lines from the top of the file, so the first tick
    is line 2. The refusal is the first that applies of: the first line that
    is not 1 to 19 digits, too few lines, trailing data, and the first tick
    past the int64 range.
    """
    ends = np.flatnonzero(body == ord("\n"))
    if body.size and body[-1] != ord("\n"):
        ends = np.append(ends, body.size)  # the last line lacks its line end
    n = min(count, ends.size)
    ends = ends[:n]
    lengths = np.diff(ends, prepend=-1)
    lengths -= 1
    value = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, _CHUNK_LINES):
        hi = lo + _CHUNK_LINES
        _decode_chunk(path, body, ends[lo:hi], lengths[lo:hi], value[lo:hi], lo)
    if n < count:
        raise StreamFormatError(f"{path}: expected {count} ticks, file ends at {n}")
    if body[int(ends[-1]) + 1 if n else 0 :].tobytes().strip():
        raise StreamFormatError(f"{path}: trailing data after {count} ticks")
    over = np.flatnonzero(value > np.iinfo(np.int64).max)
    if over.size:
        i = int(over[0])
        raise StreamFormatError(
            f"{path}: line {i + 2}: tick {int(value[i])} exceeds the int64 tick range"
        )
    return value.view(np.int64)


def _decode_chunk(
    path: Path,
    body: np.ndarray,
    ends: np.ndarray,
    lengths: np.ndarray,
    out: np.ndarray,
    first: int,
) -> None:
    """Check the tick lines ``first`` onwards, each the ``lengths[i]`` bytes of
    ``body`` before ``ends[i]``, and write their values to ``out``, all at once.

    Raises for the first of these lines that is not 1 to 19 digits.
    """
    shortest, width = int(lengths.min()), int(lengths.max())
    if shortest < 1 or width > _MAX_TICK_DIGITS:
        _raise_first_bad_line(path, body, ends, lengths, first)
    # Row i of `rows` is the `width` bytes that end at line i's end, gathered
    # as one item of a `width`-byte dtype, which numpy copies as fast as a
    # memcpy. A line that ends within `width` bytes of the body's start has
    # no such window, so its row is filled in below.
    windows = np.ndarray((body.size - width + 1,), np.dtype((np.void, width)), body, strides=(1,))
    starts = ends - width
    early = int(np.searchsorted(ends, width))  # at most the body's first 9 lines
    starts[:early] = 0
    rows = windows[starts].view(np.uint8).reshape(ends.size, width)
    rows -= ord("0")  # non-digits wrap above 9
    for i in range(early):
        rows[i, : width - lengths[i]] = 0
        rows[i, width - lengths[i] :] = body[ends[i] - lengths[i] : ends[i]] - ord("0")
    # A shorter line's row starts with bytes of earlier lines: column j is
    # cleared in the rows of lines shorter than width - j.
    for j in range(width - shortest):
        rows[:, j] *= lengths >= width - j
    if rows.max() > 9:
        _raise_first_bad_line(path, body, ends, lengths, first)
    # Horner's rule over the digit columns, in uint32 groups of up to 9
    # digits, each then shifted into uint64. 19 digits stay below 2^64, so
    # uint64 never wraps.
    columns = rows.T
    for lead in range(0, width, _GROUP_DIGITS):
        group = columns[lead].astype(np.uint32)
        for column in columns[lead + 1 : lead + _GROUP_DIGITS]:
            group *= 10
            group += column
        if lead:
            out *= POW10[min(_GROUP_DIGITS, width - lead)]
            out += group
        else:
            out[:] = group


def _raise_first_bad_line(
    path: Path, body: np.ndarray, ends: np.ndarray, lengths: np.ndarray, first: int
) -> NoReturn:
    """Name the first of the lines ending at ``ends`` that is not 1 to 19
    digits; they are tick lines ``first`` onwards."""
    bad = np.flatnonzero((lengths < 1) | (lengths > _MAX_TICK_DIGITS))[:1].tolist()
    start = ends[0] - lengths[0]
    region = body[start : ends[-1]]
    stray = np.flatnonzero(((region - ord("0")) > 9) & (region != ord("\n")))[:1]
    i = min(bad + np.searchsorted(ends, stray + start, side="right").tolist())
    line = body[ends[i] - lengths[i] : ends[i]].tobytes().decode("utf-8", "replace")
    raise StreamFormatError(f"{path}: line {first + i + 2}: not an integer tick: {line!r}")


def write_stream_binary(stream: TimestampStream, path: str | Path) -> None:
    path = Path(path)
    header = _BIN_HEADER.pack(
        _BIN_MAGIC,
        _BIN_VERSION,
        STREAM_TAGS.index(stream.tag),
        b"\x00" * 6,
        stream.tick_duration,
        stream.t_exp,
    )
    with path.open("wb") as fh:
        fh.write(header)
        # Ticks are non-negative, so their int64 bytes are their uint64 bytes.
        fh.write(np.ascontiguousarray(stream.ticks, dtype="<i8"))


def read_stream_binary(path: str | Path) -> TimestampStream:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _BIN_HEADER.size:
        raise StreamFormatError(f"{path}: truncated header")
    magic, version, tag_code, _pad, tick_duration, t_exp = _BIN_HEADER.unpack_from(raw)
    if magic != _BIN_MAGIC or version != _BIN_VERSION:
        raise StreamFormatError(f"{path}: not a binary timestamp file")
    if tag_code >= len(STREAM_TAGS):
        raise StreamFormatError(f"{path}: unknown tag code {tag_code}")
    body_size = len(raw) - _BIN_HEADER.size
    if body_size % 8:
        raise StreamFormatError(f"{path}: body length {body_size} is not a multiple of 8")
    # Read-only views of the file's bytes: the stream owns no copy of them.
    raw_ticks = np.frombuffer(raw, dtype="<u8", offset=_BIN_HEADER.size)
    over = np.flatnonzero(raw_ticks > np.iinfo(np.int64).max)
    if over.size:
        i = int(over[0])
        raise StreamFormatError(
            f"{path}: tick {int(raw_ticks[i])} of event {i} exceeds the int64 tick range"
        )
    ticks = raw_ticks.view("<i8")
    try:
        return TimestampStream(
            tag=STREAM_TAGS[tag_code], ticks=ticks, tick_duration=tick_duration, t_exp=t_exp
        )
    except ValueError as exc:
        raise StreamFormatError(f"{path}: {exc}") from None


def read_stream(path: str | Path) -> TimestampStream:
    """Read either stream format, sniffing the magic bytes."""
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(len(_BIN_MAGIC) + 4)
    if head.startswith(_BIN_MAGIC + bytes([_BIN_VERSION])):
        return read_stream_binary(path)
    return read_stream_text(path)


def write_ground_truth(signal: VibrationSignal, geometry: GeometryFactor, path: str | Path) -> None:
    doc = {
        "components": [
            {"f": c.frequency, "app": c.amplitude_pp, "phase": c.phase}
            for c in signal.components
        ],
        "tau_op": signal.dc_offset_delay,
        "g": geometry.g,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

