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
``StreamFormatError``. Both directions work with numpy array operations
on about ``_CHUNK_LINES`` lines at a time. The writer formats chunks of
that many ticks. The reader reads the header from at most _HEADER_BYTES
bytes, then the body in pieces of 16 * _CHUNK_LINES bytes, finding each
piece's line ends as it is read and carrying a line the piece leaves
unfinished, a CR at its end among them, into the next (``_parse_ticks``).
It holds the ticks, 8 bytes a line, and one piece's buffers: about twice
the piece's bytes and 36 bytes a line of it, 2.6 MiB for 10-digit ticks
and 8.5 MiB at most, for lines of one digit. It refuses as a single pass
over the whole body would: the first line that is not 1 to 19 digits,
then too few lines, then trailing data, then the first tick past the
int64 range. A refusal quotes at most the first _QUOTE_BYTES bytes of
the header or tick line it names.

Binary stream format: a 32-byte header (magic ``qvibe-ts``, version byte,
tag byte, reserved padding, then tick duration and exposure as
little-endian float64 seconds) followed by the ticks as little-endian
uint64. The event count is implied by the file size. The body is read
into one read-only int64 array that the stream owns, checked for the
int64 range _CHUNK_LINES ticks at a time, so a read holds 8 bytes a tick.

Ground truth is written as JSON from the signal a run played and its
geometry factor: the waveform component list, the operating delay, and g.
The package never reads it back.
"""

from __future__ import annotations

import json
import os
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
_INT64_MAX = np.iinfo(np.int64).max
# A text header is read from at most _HEADER_BYTES bytes, and a refusal
# quotes at most _QUOTE_BYTES bytes of a header or tick line.
_HEADER_BYTES = 4096
_QUOTE_BYTES = 80

# Both text directions work about _CHUNK_LINES lines at a time, so that a
# chunk's buffers stay in cache: the writer formats _CHUNK_LINES ticks at a
# time, and the reader reads pieces of 16 * _CHUNK_LINES bytes, 47,662
# lines of 10 digits. A write then a read of n sorted 10-digit ticks,
# timed on 2 cores, medians interleaved over two sittings, at chunks of
# 2^13, 2^15 and 2^17 lines: n = 95k (the README quick start) 3.5 + 3.5,
# 2.8 + 3.2 and 2.7 + 3.6 ms; n = 1M 34-37 + 36-41, 27-31 + 30-38 and
# 29-34 + 36-40 ms.
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
    with path.open("rb") as fh:
        line = fh.readline(_HEADER_BYTES + 1)
        header_bytes = line[:-2] if line.endswith(b"\r\n") else line.removesuffix(b"\n")
        header = header_bytes.decode("utf-8", "replace")
        fields = header.split()
        if (
            len(line) > _HEADER_BYTES and not line.endswith(b"\n")
            or len(fields) != 6
            or fields[0] != _TEXT_MAGIC
            or fields[1] != _TEXT_VERSION
            or "\r" in header  # a bare CR ends no line and separates no field
        ):
            raise StreamFormatError(f"{path}: bad header {_quote(header_bytes)}")
        tag = fields[2]
        if tag not in STREAM_TAGS:
            raise StreamFormatError(f"{path}: unknown tag {tag!r}")
        try:
            float(fields[3])  # a float literal: Decimal alone would take "_1.0" and "1._"
            tick_duration = float(Decimal(fields[3]).scaleb(-12, _EXACT))
            t_exp = float(fields[4])
            count = int(fields[5])
        except (ValueError, ArithmeticError):
            raise StreamFormatError(
                f"{path}: bad header numbers in {_quote(header_bytes)}"
            ) from None
        if count < 0:
            raise StreamFormatError(f"{path}: negative tick count {count}")
        ticks = _parse_ticks(path, fh, count, os.fstat(fh.fileno()).st_size - len(line))
    try:
        return TimestampStream(tag=tag, ticks=ticks, tick_duration=tick_duration, t_exp=t_exp)
    except ValueError as exc:
        raise StreamFormatError(f"{path}: {exc}") from None


def _quote(line: bytes) -> str:
    """``line`` decoded and quoted, or only its first _QUOTE_BYTES bytes and a mark if longer."""
    quoted = repr(line[:_QUOTE_BYTES].decode("utf-8", "replace"))
    if len(line) > _QUOTE_BYTES:
        return f"{quoted} (the first {_QUOTE_BYTES} bytes of a longer line)"
    return quoted


def _parse_ticks(path: Path, fh, count: int, size: int) -> np.ndarray:
    """The first ``count`` lines of the ``size`` bytes left in ``fh`` as int64 ticks.

    The body is read a piece of 16 * _CHUNK_LINES bytes at a time into one
    buffer, after the start of the line the piece before left unfinished,
    and each piece's whole lines are decoded together. Error messages
    number lines from the top of the file, so the first tick is line 2.
    The refusal is the first that applies of: the first line that is not 1
    to 19 digits, too few lines, trailing data, and the first tick past the
    int64 range; each is raised as soon as the pieces read settle it, so a
    line left unfinished is refused once it holds more than
    _QUOTE_BYTES + 1 bytes (a CR may yet end it) and none is kept longer.
    """
    # A tick line holds a digit and its LF, but the last may lack the LF.
    value = np.empty(min(count, (size + 1) // 2), dtype=np.uint64)
    piece = min(16 * _CHUNK_LINES, size)
    buf = bytearray(_QUOTE_BYTES + 2 + piece)
    view = memoryview(buf)
    done, kept, over = 0, 0, None  # lines decoded, bytes carried, first tick past int64
    while True:
        got = fh.readinto(view[kept : kept + min(piece, size)])
        size -= got
        last = not got or not size
        end = kept + got
        # A CRLF split between pieces is whole here: the CR was carried.
        data = view[:end] if buf.find(b"\r", 0, end) < 0 else buf[:end].replace(b"\r\n", b"\n")
        body = np.frombuffer(data, dtype=np.uint8)
        ends = np.flatnonzero(body == ord("\n"))[: count - done]
        if last and ends.size < count - done and body.size and body[-1] != ord("\n"):
            ends = np.append(ends, body.size)  # the last line lacks its line end
        if ends.size:
            lengths = np.diff(ends, prepend=-1)
            lengths -= 1
            out = value[done : done + ends.size]
            _decode_chunk(path, body, ends, lengths, out, done)
            if over is None and out.max() > _INT64_MAX:
                over = done + int(np.argmax(out > _INT64_MAX))
            done += ends.size
        rest = body[int(ends[-1]) + 1 if ends.size else 0 :]
        if done == count:
            if rest.tobytes().strip():
                raise StreamFormatError(f"{path}: trailing data after {count} ticks")
            kept = 0
        elif rest.size > _QUOTE_BYTES + 1:
            raise StreamFormatError(
                f"{path}: line {done + 2}: not an integer tick: {_quote(rest.tobytes())}"
            )
        else:
            kept = rest.size
            buf[:kept] = rest.tobytes()
        if last:
            break
    if done < count:
        raise StreamFormatError(f"{path}: expected {count} ticks, file ends at {done}")
    if over is not None:
        raise StreamFormatError(
            f"{path}: line {over + 2}: tick {int(value[over])} exceeds the int64 tick range"
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
    line = body[ends[i] - lengths[i] : ends[i]].tobytes()
    raise StreamFormatError(f"{path}: line {first + i + 2}: not an integer tick: {_quote(line)}")


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
    with path.open("rb") as fh:
        head = fh.read(_BIN_HEADER.size)
        if len(head) < _BIN_HEADER.size:
            raise StreamFormatError(f"{path}: truncated header")
        magic, version, tag_code, _pad, tick_duration, t_exp = _BIN_HEADER.unpack(head)
        if magic != _BIN_MAGIC or version != _BIN_VERSION:
            raise StreamFormatError(f"{path}: not a binary timestamp file")
        if tag_code >= len(STREAM_TAGS):
            raise StreamFormatError(f"{path}: unknown tag code {tag_code}")
        body_size = os.fstat(fh.fileno()).st_size - _BIN_HEADER.size
        if body_size % 8:
            raise StreamFormatError(f"{path}: body length {body_size} is not a multiple of 8")
        # Read straight into the stream's own array.
        ticks = np.empty(body_size // 8, dtype="<i8")
        if fh.readinto(ticks) != body_size:
            raise StreamFormatError(f"{path}: file shrank while it was read")
    ticks.flags.writeable = False
    # A uint64 past the int64 range reads as a negative int64; the ticks are
    # checked _CHUNK_LINES at a time, so the check holds no mask of them all.
    for lo in range(0, ticks.size, _CHUNK_LINES):
        piece = ticks[lo : lo + _CHUNK_LINES]
        if piece.min() < 0:
            i = lo + int(np.argmax(piece < 0))
            raise StreamFormatError(
                f"{path}: tick {int(ticks[i]) + 2**64} of event {i} exceeds the int64 tick range"
            )
    try:
        return TimestampStream(
            tag=STREAM_TAGS[tag_code], ticks=ticks, tick_duration=tick_duration, t_exp=t_exp
        )
    except ValueError as exc:
        raise StreamFormatError(f"{path}: {exc}") from None


def _is_binary(head: bytes) -> bool:
    """Whether a stream file's first bytes open the binary format."""
    return head.startswith(_BIN_MAGIC + bytes([_BIN_VERSION]))


def text_events(path: str | Path) -> int:
    """The events a text stream file's header declares; 0 for a binary file,
    an unreadable one or one that declares none."""
    try:
        with Path(path).open("rb") as fh:
            head = fh.read(_HEADER_BYTES)
    except OSError:
        return 0
    fields = head.split(b"\n", 1)[0].split()
    if _is_binary(head) or len(fields) != 6 or not fields[5].isdigit():
        return 0
    return int(fields[5])


def read_stream(path: str | Path) -> TimestampStream:
    """Read either stream format, sniffing the magic bytes."""
    path = Path(path)
    with path.open("rb") as fh:
        binary = _is_binary(fh.read(len(_BIN_MAGIC) + 1))
    return read_stream_binary(path) if binary else read_stream_text(path)


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

