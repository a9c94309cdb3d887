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
``StreamFormatError``. Both directions work on the whole tick body as one
byte buffer with numpy array operations.

Binary stream format: a 32-byte header (magic ``qvibe-ts``, version byte,
tag byte, reserved padding, then tick duration and exposure as
little-endian float64 seconds) followed by the ticks as little-endian
uint64. The event count is implied by the file size.

Ground truth is written as JSON from the signal a run played and its
geometry factor: the waveform component list, the operating delay, and g.
The package never reads it back.
"""

from __future__ import annotations

import json
import struct
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from pathlib import Path
from typing import NoReturn

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import GeometryFactor
from .errors import StreamFormatError
from .simulate import STREAM_TAGS, TimestampStream, VibrationSignal

_TEXT_MAGIC = "qvibe-ts"
_TEXT_VERSION = "v1"
_MAX_TICK_DIGITS = 19  # 2^63 - 1 has 19 digits, and 19 digits fit in uint64
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
# Shifting a decimal by a power of ten is exact in this context, whatever its
# length; the header tick and the config units (qvibe.config) both use it.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_BIN_HEADER = struct.Struct("<8sBB6sdd")
_BIN_MAGIC = b"qvibe-ts"
_BIN_VERSION = 1


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
    Path(path).write_bytes(header.encode() + _format_ticks(stream.ticks))


def _format_ticks(ticks: np.ndarray) -> bytes:
    """The decimal digits of each tick and a newline, as one ASCII buffer.

    ``ticks`` are sorted ascending and non-negative, as a ``TimestampStream``
    keeps them.
    """
    if ticks.size == 0:
        return b""
    rest = ticks.astype(np.uint64)
    width = len(str(ticks[-1]))
    # Sorted, the ticks of d digits are the run from the first tick >= 10^(d-1)
    # to the first tick >= 10^d, and each run is one rectangular block below.
    edges = [0, *np.searchsorted(rest, _POW10[1:width]).tolist(), rest.size]
    # Row r holds digit r of every tick, right-aligned in `width` digits, and
    # the last row the newlines; column i, from the tick's first significant
    # digit down, is line i of the file.
    chars = np.empty((width + 1, rest.size), dtype=np.uint8)
    for r in range(width - 1, -1, -1):
        rest, chars[r] = np.divmod(rest, 10)
    chars[:width] += ord("0")
    chars[width] = ord("\n")
    return b"".join(
        chars[width - d :, lo:hi].T.tobytes()
        for d, (lo, hi) in enumerate(zip(edges, edges[1:]), start=1)
    )


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
    """The first ``count`` lines of ``body`` as int64 ticks, all checked at once.

    Error messages number lines from the top of the file, so the first tick
    is line 2.
    """
    ends = np.flatnonzero(body == ord("\n"))
    if body.size and body[-1] != ord("\n"):
        ends = np.append(ends, body.size)  # the last line lacks its line end
    n = min(count, ends.size)
    ends = ends[:n]
    lengths = np.diff(ends, prepend=-1) - 1
    width = int(lengths.max(initial=0))
    if lengths.min(initial=1) < 1 or width > _MAX_TICK_DIGITS:
        _raise_first_bad_line(path, body, ends, lengths)
    # The bytes of the n lines as digit values after `width` zeros, so that
    # the `width` bytes before every line end lie inside the buffer.
    padded = np.zeros(width + (int(ends[-1]) if n else 0), dtype=np.uint8)
    digits = padded[width:]
    np.subtract(body[: digits.size], ord("0"), out=digits)  # non-digits wrap above 9
    if np.count_nonzero(digits > 9) > max(n - 1, 0):  # more than the line ends
        _raise_first_bad_line(path, body, ends, lengths)
    if n < count:
        raise StreamFormatError(f"{path}: expected {count} ticks, file ends at {n}")
    if body[int(ends[-1]) + 1 if n else 0 :].tobytes().strip():
        raise StreamFormatError(f"{path}: trailing data after {count} ticks")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Horner's rule over right-aligned digit columns: row i of `columns` is
    # the `width` bytes that end at line i's end. A shorter line's row starts
    # with digits of earlier lines (their line ends zeroed); these add a
    # multiple of 10^length, which the modulo removes. 19 digits stay below
    # 2^64, so uint64 never wraps.
    digits[ends[:-1]] = 0
    columns = sliding_window_view(padded, width)[ends]
    value = np.zeros(n, dtype=np.uint64)
    for column in columns.T:
        value *= 10
        value += column
    value %= _POW10[lengths]
    over = np.flatnonzero(value > np.iinfo(np.int64).max)
    if over.size:
        i = int(over[0])
        raise StreamFormatError(
            f"{path}: line {i + 2}: tick {int(value[i])} exceeds the int64 tick range"
        )
    return value.view(np.int64)


def _raise_first_bad_line(
    path: Path, body: np.ndarray, ends: np.ndarray, lengths: np.ndarray
) -> NoReturn:
    """Name the first of the lines ending at ``ends`` that is not 1 to 19 digits."""
    bad = np.flatnonzero((lengths < 1) | (lengths > _MAX_TICK_DIGITS))[:1].tolist()
    region = body[: ends[-1]]
    stray = np.flatnonzero(((region - ord("0")) > 9) & (region != ord("\n")))[:1]
    i = min(bad + np.searchsorted(ends, stray, side="right").tolist())
    line = body[ends[i] - lengths[i] : ends[i]].tobytes().decode("utf-8", "replace")
    raise StreamFormatError(f"{path}: line {i + 2}: not an integer tick: {line!r}")


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
        fh.write(stream.ticks.astype("<u8").tobytes())


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
    body = raw[_BIN_HEADER.size:]
    if len(body) % 8:
        raise StreamFormatError(f"{path}: body length {len(body)} is not a multiple of 8")
    raw_ticks = np.frombuffer(body, dtype="<u8")
    over = np.flatnonzero(raw_ticks > np.iinfo(np.int64).max)
    if over.size:
        i = int(over[0])
        raise StreamFormatError(
            f"{path}: tick {int(raw_ticks[i])} of event {i} exceeds the int64 tick range"
        )
    ticks = raw_ticks.astype(np.int64)
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

