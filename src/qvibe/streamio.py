"""File formats for timestamp streams and ground-truth records.

Text stream format, one event per line::

    qvibe-ts v1 <tag> <tick_ps> <t_exp_s> <count>
    12345
    12347
    ...

Binary stream format: a 32-byte header (magic ``qvibe-ts``, version byte,
tag byte, reserved padding, then tick duration and exposure as
little-endian float64 seconds) followed by the ticks as little-endian
uint64. The event count is implied by the file size.

Ground truth is JSON with the waveform component list, the operating
delay, and the geometry factor.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .core import GeometryFactor
from .errors import StreamFormatError
from .simulate import STREAM_TAGS, GroundTruth, SignalComponent, TimestampStream, VibrationSignal

_TEXT_MAGIC = "qvibe-ts"
_TEXT_VERSION = "v1"
_BIN_HEADER = struct.Struct("<8sBB6sdd")
_BIN_MAGIC = b"qvibe-ts"
_BIN_VERSION = 1


def write_stream_text(stream: TimestampStream, path: str | Path) -> None:
    path = Path(path)
    tick_ps = stream.tick_duration * 1e12
    header = "%s %s %s %r %r %d" % (
        _TEXT_MAGIC,
        _TEXT_VERSION,
        stream.tag,
        float(tick_ps),
        float(stream.t_exp),
        len(stream),
    )
    lines = [header]
    lines.extend(str(int(t)) for t in stream.ticks)
    path.write_text("\n".join(lines) + "\n")


def read_stream_text(path: str | Path) -> TimestampStream:
    path = Path(path)
    with path.open("r") as fh:
        header = fh.readline().rstrip("\n")
        fields = header.split()
        if len(fields) != 6 or fields[0] != _TEXT_MAGIC or fields[1] != _TEXT_VERSION:
            raise StreamFormatError(f"{path}: bad header {header!r}")
        tag = fields[2]
        if tag not in STREAM_TAGS:
            raise StreamFormatError(f"{path}: unknown tag {tag!r}")
        try:
            tick_ps = float(fields[3])
            t_exp = float(fields[4])
            count = int(fields[5])
        except ValueError as exc:
            raise StreamFormatError(f"{path}: bad header numbers: {exc}") from None
        ticks = np.empty(count, dtype=np.int64)
        for i in range(count):
            line = fh.readline()
            if not line:
                raise StreamFormatError(f"{path}: expected {count} ticks, file ends at {i}")
            try:
                ticks[i] = int(line)
            except ValueError:
                raise StreamFormatError(
                    f"{path}: line {i + 2}: not an integer tick: {line.strip()!r}"
                ) from None
        if fh.readline().strip():
            raise StreamFormatError(f"{path}: trailing data after {count} ticks")
    try:
        return TimestampStream(tag=tag, ticks=ticks, tick_duration=tick_ps * 1e-12, t_exp=t_exp)
    except ValueError as exc:
        raise StreamFormatError(f"{path}: {exc}") from None


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


def write_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    doc = {
        "components": [
            {"f": c.frequency, "app": c.amplitude_pp, "phase": c.phase}
            for c in truth.signal.components
        ],
        "tau_op": truth.signal.dc_offset_delay,
        "g": truth.geometry.g,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_ground_truth(path: str | Path) -> GroundTruth:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"{path}: invalid JSON: {exc}") from None
    try:
        comps = tuple(
            SignalComponent(frequency=c["f"], amplitude_pp=c["app"], phase=c["phase"])
            for c in doc["components"]
        )
        signal = VibrationSignal(components=comps, dc_offset_delay=doc["tau_op"])
        geometry = GeometryFactor(doc["g"])
    except (KeyError, TypeError) as exc:
        raise StreamFormatError(f"{path}: missing or malformed field: {exc}") from None
    return GroundTruth(signal=signal, geometry=geometry)
