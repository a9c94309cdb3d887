import json
import math
import re
import struct
import tempfile
import tracemalloc
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qvibe import streamio
from qvibe.cli import main
from qvibe.config import parse_quantity
from qvibe.core import GeometryFactor, PhotonPairSpec, quadrature_delay
from qvibe.errors import AnalysisError, ConfigError, StreamFormatError
from qvibe.estimate import AnalysisOptions, pipeline
from qvibe.simulate import (
    _PAIR_THREAD_EVENTS, ChannelModel, TimestampStream, VibrationSignal, simulate_quantum_run,
)
from qvibe.streamio import (
    read_stream,
    read_stream_binary,
    read_stream_text,
    write_ground_truth,
    write_stream_binary,
    write_stream_text,
)


def make_stream(n=500, seed=4, tag="coincidence"):
    rng = np.random.default_rng(seed)
    ticks = np.sort(rng.integers(0, 10**10, n))
    return TimestampStream(tag, ticks, 100e-12, 1.0)


def test_text_round_trip(tmp_path):
    s = make_stream()
    path = tmp_path / "s.txt"
    write_stream_text(s, path)
    back = read_stream_text(path)
    assert back.tag == s.tag
    assert back.tick_duration == s.tick_duration
    assert back.t_exp == s.t_exp
    assert np.array_equal(back.ticks, s.ticks)


def test_text_round_trip_empty(tmp_path):
    s = TimestampStream("singles1", [], 50e-12, 2.5)
    path = tmp_path / "empty.txt"
    write_stream_text(s, path)
    back = read_stream_text(path)
    assert len(back) == 0
    assert back.t_exp == 2.5
    assert back.tick_duration == 50e-12


def test_binary_round_trip(tmp_path):
    s = make_stream(tag="anticoincidence")
    path = tmp_path / "s.bin"
    write_stream_binary(s, path)
    back = read_stream_binary(path)
    assert back.tag == s.tag
    assert back.tick_duration == s.tick_duration
    assert back.t_exp == s.t_exp
    assert np.array_equal(back.ticks, s.ticks)


def test_read_stream_sniffs_format(tmp_path):
    s = make_stream()
    write_stream_text(s, tmp_path / "a.txt")
    write_stream_binary(s, tmp_path / "a.bin")
    assert np.array_equal(read_stream(tmp_path / "a.txt").ticks, s.ticks)
    assert np.array_equal(read_stream(tmp_path / "a.bin").ticks, s.ticks)


def test_text_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not-a-stream v1 coincidence 100.0 1.0 0\n")
    with pytest.raises(StreamFormatError):
        read_stream_text(path)
    path.write_text("qvibe-ts v2 coincidence 100.0 1.0 0\n")
    with pytest.raises(StreamFormatError):
        read_stream_text(path)
    path.write_text("qvibe-ts v1 mystery 100.0 1.0 0\n")
    with pytest.raises(StreamFormatError):
        read_stream_text(path)


def test_text_wrong_count(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("qvibe-ts v1 coincidence 100.0 1.0 3\n10\n20\n")
    with pytest.raises(StreamFormatError, match="ends at 2"):
        read_stream_text(path)


def test_text_trailing_data(tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("qvibe-ts v1 coincidence 100.0 1.0 1\n10\n20\n")
    with pytest.raises(StreamFormatError, match="trailing"):
        read_stream_text(path)


def test_text_bad_tick_reports_line(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("qvibe-ts v1 coincidence 100.0 1.0 2\n10\nfrog\n")
    with pytest.raises(StreamFormatError, match="line 3"):
        read_stream_text(path)


def test_text_unsorted_rejected(tmp_path):
    path = tmp_path / "unsorted.txt"
    path.write_text("qvibe-ts v1 coincidence 100.0 1.0 2\n20\n10\n")
    with pytest.raises(StreamFormatError):
        read_stream_text(path)


def test_binary_corruption(tmp_path):
    s = make_stream(n=10)
    path = tmp_path / "s.bin"
    write_stream_binary(s, path)
    raw = path.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(raw[:10])
    with pytest.raises(StreamFormatError):
        read_stream_binary(tmp_path / "trunc.bin")
    (tmp_path / "ragged.bin").write_bytes(raw[:-3])
    with pytest.raises(StreamFormatError, match="multiple of 8"):
        read_stream_binary(tmp_path / "ragged.bin")
    bad = bytearray(raw)
    bad[9] = 43  # unknown tag code
    (tmp_path / "badtag.bin").write_bytes(bytes(bad))
    with pytest.raises(StreamFormatError, match="tag code"):
        read_stream_binary(tmp_path / "badtag.bin")
    huge = raw[:-8] + (2**63 + 5).to_bytes(8, "little")  # would wrap negative as int64
    (tmp_path / "huge.bin").write_bytes(huge)
    with pytest.raises(StreamFormatError, match="tick 9223372036854775813 of event 9"):
        read_stream_binary(tmp_path / "huge.bin")


def test_ground_truth_round_trip(tmp_path):
    sig = VibrationSignal.square_wave(10.0, 55e-9, dc_offset_delay=1.41e-15)
    path = tmp_path / "truth.json"
    write_ground_truth(sig, GeometryFactor(2), path)
    doc = json.loads(path.read_text())
    assert doc["g"] == 2
    assert doc["tau_op"] == 1.41e-15
    assert [(c["f"], c["app"], c["phase"]) for c in doc["components"]] == [
        (c.frequency, c.amplitude_pp, c.phase) for c in sig.components
    ]


def text_file(tmp_path, body, header="qvibe-ts v1 coincidence 100.0 1.0"):
    """A text stream file: the header fields, then ``body`` from the count on."""
    path = tmp_path / "s.txt"
    path.write_bytes(header.encode() + b" " + (body if isinstance(body, bytes) else body.encode()))
    return path


def test_text_accepts_crlf_and_a_missing_final_newline(tmp_path):
    for body in ("3\r\n0\r\n9\r\n10\r\n", "3\n0\n9\n10", "3\n0\n9\n10\n \t\r\n\n"):
        assert read_stream_text(text_file(tmp_path, body)).ticks.tolist() == [0, 9, 10]


def test_text_tick_lines_are_digits_only(tmp_path):
    # int() took all of these; the text grammar is what the writer emits.
    for line in (" 10", "10 ", "+10", "1_0", "1e3", "١", "1\r0", ""):
        path = text_file(tmp_path, f"2\n5\n{line}\n")
        with pytest.raises(StreamFormatError, match=r"line 3: not an integer tick"):
            read_stream_text(path)
    path = text_file(tmp_path, "2\n5\n" + "0" * 19 + "7\n")  # 20 digits
    with pytest.raises(StreamFormatError, match="line 3: not an integer tick: '0{19}7'"):
        read_stream_text(path)
    path = text_file(tmp_path, b"3\n1\n\xff\n2\n")
    with pytest.raises(StreamFormatError, match=r"line 3: not an integer tick"):
        read_stream_text(path)


def test_text_reports_the_first_bad_line(tmp_path):
    path = text_file(tmp_path, "4\n1\n2x\n" + "9" * 25 + "\n4\n")
    with pytest.raises(StreamFormatError, match="line 3:"):
        read_stream_text(path)
    path = text_file(tmp_path, "4\n1\n\n2x\n4\n")
    with pytest.raises(StreamFormatError, match="line 3:"):
        read_stream_text(path)
    path = text_file(tmp_path, "3\n1\n2\nfrog\n")  # before the count check
    with pytest.raises(StreamFormatError, match="line 4:"):
        read_stream_text(path)


def test_text_refuses_every_non_digit_byte_in_a_tick_line(tmp_path):
    for byte in set(range(256)) - set(b"0123456789\n"):
        path = text_file(tmp_path, b"2\n5\n1" + bytes([byte]) + b"2\n")
        with pytest.raises(StreamFormatError, match=r"line 3: not an integer tick"):
            read_stream_text(path)


def test_text_int64_range(tmp_path):
    top = 2**63 - 1
    back = read_stream_text(text_file(tmp_path, f"2\n0\n{top}\n", "qvibe-ts v1 singles2 1.0 1e300"))
    assert back.ticks.tolist() == [0, top]
    path = text_file(tmp_path, f"2\n0\n{top + 1}\n")
    with pytest.raises(StreamFormatError, match="line 3: tick 9223372036854775808 exceeds"):
        read_stream_text(path)
    path = text_file(tmp_path, f"1\n{'9' * 19}\n")
    with pytest.raises(StreamFormatError, match="line 2: tick 9{19} exceeds"):
        read_stream_text(path)


def test_text_rejects_everything_after_the_ticks_but_whitespace(tmp_path):
    for tail in ("10\n\nfrog\n", "10\n \n\t\n7", "10\n\x00"):
        with pytest.raises(StreamFormatError, match="trailing data after 1 ticks"):
            read_stream_text(text_file(tmp_path, "1\n" + tail))


def test_text_header_rejections(tmp_path):
    with pytest.raises(StreamFormatError, match="negative tick count -2"):
        read_stream_text(text_file(tmp_path, "-2\n"))
    # Checked against the lines present, never allocated up front.
    with pytest.raises(StreamFormatError, match="expected 100000000000000 ticks, file ends at 1"):
        read_stream_text(text_file(tmp_path, "100000000000000\n5\n"))
    path = tmp_path / "cr.txt"
    path.write_bytes(b"qvibe-ts v1 coincidence 100.0 1.0\r0\n")
    with pytest.raises(StreamFormatError, match="bad header"):
        read_stream_text(path)
    path.write_bytes(b"qvibe-ts v1 coincidence\xff 100.0 1.0 0\n")
    with pytest.raises(StreamFormatError, match="unknown tag"):
        read_stream_text(path)
    for tick in ("_100.0", "100._", "1é", "sNaN", "1e999999999999999999999"):
        path.write_text(f"qvibe-ts v1 coincidence {tick} 1.0 0\n")
        with pytest.raises(StreamFormatError, match="bad header numbers"):
            read_stream_text(path)


def test_text_writer_matches_the_per_line_format(tmp_path):
    # Every digit count, with the ticks either side of each power of ten.
    ticks = sorted({0, 2**63 - 1} | {10**k + d for k in range(1, 19) for d in (-1, 0, 0, 1)})
    s = TimestampStream("coincidence", ticks, 100e-12, 1e300)
    path = tmp_path / "s.txt"
    write_stream_text(s, path)
    body = "".join(f"{t}\n" for t in ticks)
    assert path.read_text() == f"qvibe-ts v1 coincidence 100.0 1e+300 {len(ticks)}\n" + body
    write_stream_text(TimestampStream("singles1", [], 100e-12, 1.0), path)
    assert path.read_text() == "qvibe-ts v1 singles1 100.0 1.0 0\n"


@pytest.mark.parametrize("tick", ["23 ps", "100 ps", "1000 ps", "1 ps", "0.3 ns", "81 fs"])
def test_text_header_tick_reads_back_exactly(tmp_path, tick):
    # The binary header stores the float itself, so both files must agree.
    s = TimestampStream("anticoincidence", [1, 2], parse_quantity(tick, "time", "tick"), 1.0)
    write_stream_text(s, tmp_path / "s.txt")
    write_stream_binary(s, tmp_path / "s.bin")
    text, binary = read_stream(tmp_path / "s.txt"), read_stream(tmp_path / "s.bin")
    assert text.tick_duration == binary.tick_duration == s.tick_duration


def test_text_header_tick_is_the_correctly_rounded_decimal(tmp_path):
    # Just above the midpoint of 23 ps and the next float up, in 85 digits:
    # rounding to fewer digits first would land on the midpoint and round down.
    with localcontext(Context(prec=100)):
        midpoint = (Decimal(23e-12) + Decimal(math.nextafter(23e-12, 1))) / 2 * 10**12
    path = tmp_path / "s.txt"
    for field in ("23", "23.0", "2.3e1", "22.999999999999996", "22.999999999999998",
                  "0." + "0" * 40 + "1", f"{midpoint:f}00001"):
        path.write_text(f"qvibe-ts v1 coincidence {field} 1.0 0\n")
        # int / int division of Fractions rounds correctly: the reference.
        assert read_stream_text(path).tick_duration == float(Fraction(field) / 10**12)


@pytest.mark.parametrize("fmt", ["text", "binary"])
@pytest.mark.parametrize("tick, t_exp", [(math.inf, 1.0), (100e-12, math.inf),
                                         (math.nan, 1.0), (100e-12, -math.inf)])
def test_non_finite_tick_or_exposure_is_a_format_error(tmp_path, fmt, tick, t_exp):
    if fmt == "text":
        path = tmp_path / "s.txt"
        path.write_text(f"qvibe-ts v1 coincidence {tick * 1e12!r} {t_exp!r} 1\n5\n")
    else:
        path = tmp_path / "s.bin"
        write_stream_binary(TimestampStream("coincidence", [5], 100e-12, 1.0), path)
        raw = bytearray(path.read_bytes())
        raw[16:32] = struct.pack("<dd", tick, t_exp)
        path.write_bytes(bytes(raw))
    with pytest.raises(StreamFormatError, match=r"must be positive and finite"):
        read_stream(path)
    with pytest.raises(ConfigError, match=r"must be positive and finite"):
        TimestampStream("coincidence", [5], tick, t_exp)


# ----- the text codec's chunks -----

# 0, 2^63 - 1, and both ends of every digit count.
EDGE_TICKS = sorted({2**63 - 1} | {10**k + d for k in range(19) for d in (-1, 0)})


def codec(chunk=None):
    """The text codec with its chunk size patched where given."""
    return mock.patch.object(streamio, "_CHUNK_LINES", chunk or streamio._CHUNK_LINES)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([1, 2, 3, 38, 100, streamio._CHUNK_LINES - 1, streamio._CHUNK_LINES,
                     streamio._CHUNK_LINES + 1]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 3, 4096]),
    st.booleans(),
)
@example(streamio._CHUNK_LINES + 1, 0, None, False)
@example(streamio._CHUNK_LINES, 0, None, True)
def test_text_codec_round_trip_matches_the_per_line_format(size, seed, chunk, one_digit):
    # Sorted ticks spread over every bit length, the edge ticks among them,
    # or ticks of one digit, many repeated; in one chunk or more, the last
    # full, short or of one line.
    assume(chunk != 3 or size <= 100)
    rng = np.random.default_rng(seed)
    if one_digit:
        ticks = rng.integers(0, 10, size)
    else:
        ticks = rng.integers(0, 2**63 - 1, size, endpoint=True) >> rng.integers(0, 63, size)
        ticks[: len(EDGE_TICKS)] = EDGE_TICKS[:size]
    ticks.sort()
    s = TimestampStream("coincidence", ticks, 100e-12, 1e300)
    with tempfile.TemporaryDirectory() as tmp, codec(chunk=chunk):
        path = Path(tmp) / "s.txt"
        write_stream_text(s, path)
        body = path.read_bytes().split(b"\n", 1)[1]
        assert body == b"".join(b"%d\n" % t for t in ticks.tolist())
        back = read_stream_text(path)
    assert back.ticks.dtype == np.int64 and np.array_equal(back.ticks, ticks)


TOP = 2**63 - 1

# Every text body the tests above refuse or take, from the count on, and
# cases whose bad line, over-long line, short count, trailing data or
# out-of-range tick lies past the first chunk of a chunked reader.
TEXT_CASES = [
    "3\n10\n20\n", "1\n10\n20\n", "2\n10\nfrog\n", "2\n20\n10\n",
    *(f"2\n5\n{line}\n" for line in (" 10", "10 ", "+10", "1_0", "1e3", "\u0661", "1\r0", "")),
    "2\n5\n" + "0" * 19 + "7\n", b"3\n1\n\xff\n2\n",
    "4\n1\n2x\n" + "9" * 25 + "\n4\n", "4\n1\n\n2x\n4\n", "3\n1\n2\nfrog\n",
    f"2\n0\n{TOP}\n", f"2\n0\n{TOP + 1}\n", f"1\n{'9' * 19}\n",
    "1\n10\n\nfrog\n", "1\n10\n \n\t\n7", "1\n10\n\x00", "-2\n", "100000000000000\n5\n",
    "3\r\n0\r\n9\r\n10\r\n", "3\n0\n9\n10", "3\n0\n9\n10\n \t\r\n\n", "3\n5\n10\n100\n",
    "6\n1\n2\n3\n4\nfrog\n6\n", "6\n1\n2\n3\n4\n" + "1" * 20 + "\n6\n",
    "6\n1\n2\n3\n4\n\n6\n", "8\n1\n2\n3\n4\n5\n6\n", "6\n1\n2\n3\n4\n5\n6\n7\n",
    f"6\n1\n2\n3\n4\n5\n{TOP + 1}\n", "6\n1\nx\n3\n4\ny\n6\n",
    f"6\n1\n{TOP + 1}\n3\n4\nfrog\n6\n", "6\n1\n2\n3\n4\n5\n6", "6\n1\n2\n3\n4\n50\n6\n",
]


def cli_outcome(path, capsys):
    """The exit code and output of ``qvibe estimate`` on ``path`` as both streams."""
    code = main(["estimate", str(path), str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("body", TEXT_CASES)
def test_chunked_reader_refuses_as_the_single_pass_reader(tmp_path, capsys, body):
    path = text_file(tmp_path, body)
    with codec(chunk=2**62):
        expected = cli_outcome(path, capsys)
    assert expected[0] in (2, 3)  # a stream error, or both files tagged coincidence
    for chunk in (1, 2, 3):
        with codec(chunk=chunk):
            assert cli_outcome(path, capsys) == expected, chunk


def read_outcome(path):
    try:
        return read_stream_text(path).ticks.tolist()
    except StreamFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 10**12), min_size=1, max_size=12).map(sorted),
       st.integers(0, 10**6), st.integers(0, 255), st.sampled_from([1, 2, 3]))
def test_chunked_reader_agrees_on_any_one_byte_corruption(ticks, where, byte, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.txt"
        write_stream_text(TimestampStream("coincidence", ticks, 100e-12, 1e300), path)
        raw = bytearray(path.read_bytes())
        raw[where % len(raw)] = byte
        path.write_bytes(bytes(raw))
        with codec(chunk=2**62):
            expected = read_outcome(path)
        with codec(chunk=chunk):
            assert read_outcome(path) == expected


@pytest.mark.parametrize("body, message", [
    # With chunks of 3 lines, lines 2 to 4 are the first chunk and 5 to 7
    # the second; lines are counted from the top of the file.
    ("6\n1\n2\n3\n4\nfrog\n6\n", "line 6: not an integer tick: 'frog'"),
    ("6\n1\n2\n3\n4\n" + "1" * 20 + "\n6\n", "line 6: not an integer tick: '1{20}'"),
    ("8\n1\n2\n3\n4\n5\n6\n", "expected 8 ticks, file ends at 6"),
    ("6\n1\n2\n3\n4\n5\n6\n7\n", "trailing data after 6 ticks"),
    (f"6\n1\n2\n3\n4\n5\n{TOP + 1}\n", "line 7: tick 9223372036854775808 exceeds"),
    # Both chunks fail: the first chunk's line wins.
    ("6\n1\nx\n3\n4\ny\n6\n", "line 3: not an integer tick: 'x'"),
    # A bad line in either chunk wins over an out-of-range tick.
    (f"6\n1\n{TOP + 1}\n3\n4\nfrog\n6\n", "line 6: not an integer tick: 'frog'"),
])
def test_chunked_reader_names_later_chunk_lines_from_the_top(tmp_path, body, message):
    path = text_file(tmp_path, body)
    for chunk in (1, 2, 3, 2**62):
        with codec(chunk=chunk), pytest.raises(StreamFormatError, match=message):
            read_stream_text(path)


def test_binary_read_stream_is_read_only_and_analyses_as_its_text_twin(tmp_path):
    pair = PhotonPairSpec(delta_omega=2 * math.pi * 177e12)
    signal = VibrationSignal.pure_tone(10.0, 20e-9, dc_offset_delay=quadrature_delay(pair))
    run = simulate_quantum_run(pair, signal, ChannelModel(rate_c=19e3, rate_a=19e3), 1.0, seed=5)
    results = []
    for write, ext in ((write_stream_text, "txt"), (write_stream_binary, "bin")):
        paths = [tmp_path / f"{s.tag}.{ext}" for s in run]
        for s, path in zip(run, paths):
            write(s, path)
        streams = [read_stream(path) for path in paths]
        if ext == "bin":
            # The ticks are a view of the file's bytes, so any write into
            # them during the analysis would raise.
            assert not any(s.ticks.flags.writeable for s in streams)
        results.append(pipeline(*streams, fringe=pair, geometry=GeometryFactor(2),
                                options=AnalysisOptions(f_max=200.0)))
    text, binary = results
    assert text.detected and binary.detected
    assert text.spectrum.to_csv() == binary.spectrum.to_csv()
    assert text.reconstruction.to_json() == binary.reconstruction.to_json()


# ----- the readers' pieces, and a pair's files side by side -----

# The text reader's piece, in bytes, as 16 times the patched _CHUNK_LINES.
PIECE_LINES = 16
# A header whose exposure holds ticks of any digit count.
WIDE = "qvibe-ts v1 coincidence 1.0 1e300"


def test_the_text_reader_joins_a_line_split_between_pieces(tmp_path):
    # 17-digit lines of 18 bytes in pieces of 16: every line but the first
    # starts in one piece and ends in the next.
    ticks = [10**16 + 7 * k for k in range(9)]
    path = text_file(tmp_path, b"9\n" + b"".join(b"%d\n" % t for t in ticks), WIDE)
    for chunk in (1, 2, 3):
        with codec(chunk=chunk):
            assert read_stream_text(path).ticks.tolist() == ticks, chunk


def test_the_text_reader_joins_a_crlf_split_between_pieces(tmp_path):
    # 15-digit lines ended by CRLF, 17 bytes: the first piece of 16 bytes
    # ends on the first line's CR, and the second starts with its LF.
    ticks = [10**14 + 3 * k for k in range(5)]
    body = b"".join(b"%d\r\n" % t for t in ticks)
    assert body[PIECE_LINES - 1 : PIECE_LINES + 1] == b"\r\n"
    path = text_file(tmp_path, b"5\r\n" + body, WIDE)
    with codec(chunk=1):
        assert read_stream_text(path).ticks.tolist() == ticks
    # A bare CR at a piece's end is still no line end, and is kept in the
    # line it is refused in.
    bare = bytearray(body)
    bare[PIECE_LINES] = ord("7")
    line = repr(bare[:34].replace(b"\r\n", b"").decode())
    assert line == "'100000000000000\\r7100000000000003'"
    with codec(chunk=1), pytest.raises(
        StreamFormatError, match=f"line 2: not an integer tick: {re.escape(line)}$"
    ):
        read_stream_text(text_file(tmp_path, b"5\n" + bytes(bare), WIDE))


def test_a_bad_line_in_a_later_piece_is_named_by_its_file_line(tmp_path):
    lines = [b"%d" % (10**9 + k) for k in range(40)]
    lines[30] = b"10000000x0"  # tick 31, line 32 of the file, in the 21st piece of 16 bytes
    path = text_file(tmp_path, b"40\n" + b"\n".join(lines) + b"\n")
    for chunk in (1, 2, 3, None):
        with codec(chunk=chunk), pytest.raises(
            StreamFormatError, match=r"line 32: not an integer tick: '10000000x0'$"
        ):
            read_stream_text(path)


def test_trailing_data_in_a_later_piece_is_refused_before_an_earlier_overflow(tmp_path):
    body = f"2\n{TOP + 1}\n5\n" + "\n" * 40 + "frog\n"
    for chunk in (1, 2, None):
        with codec(chunk=chunk), pytest.raises(
            StreamFormatError, match=r"trailing data after 2 ticks$"
        ):
            read_stream_text(text_file(tmp_path, body))
        with codec(chunk=chunk), pytest.raises(
            StreamFormatError, match=r"line 2: tick 9223372036854775808 exceeds"
        ):
            read_stream_text(text_file(tmp_path, body.replace("frog", "")))


def test_a_refusal_quotes_at_most_80_bytes_of_a_long_line(tmp_path):
    cut = "(the first 80 bytes of a longer line)"
    header = "qvibe-ts v1 coincidence 100.0 1.0 "
    # A tick line of 300k digits, refused long before the reader reaches
    # its end; a header with no line end, read no further than its first
    # 4096 bytes; and a header whose count is not a number.
    for body, message in [
        ("1\n" + "9" * 300_000 + "\n", f"line 2: not an integer tick: '{'9' * 80}' {cut}"),
        ("1 " + "7" * 300_000, f"bad header '{(header + '1 ' + '7' * 80)[:80]}' {cut}"),
        ("1" + "x" * 100 + "\n",
         f"bad header numbers in '{(header + '1' + 'x' * 80)[:80]}' {cut}"),
    ]:
        for chunk in (1, None):
            with codec(chunk=chunk), pytest.raises(StreamFormatError) as refused:
                read_stream_text(text_file(tmp_path, body))
            assert str(refused.value) == f"{tmp_path / 's.txt'}: {message}"
    # A line of exactly 80 bytes is quoted whole, even where a piece of 16
    # bytes ends on its CR: the 81 bytes carried may yet end in a CRLF.
    body = "1\n" * 6 + "12\n" + "5" * 80 + "\r\n"
    assert body.index("\r") == 6 * PIECE_LINES - 1
    for chunk in (1, 2, None):
        with codec(chunk=chunk), pytest.raises(
            StreamFormatError, match=f"line 9: not an integer tick: '{'5' * 80}'$"
        ):
            read_stream_text(text_file(tmp_path, "8\n" + body))


def whole_file_ticks(path):
    """The ticks of a stream file, parsed from its whole bytes at once."""
    raw = path.read_bytes()
    if raw.startswith(b"qvibe-ts\x01"):
        return np.frombuffer(raw, dtype="<i8", offset=32)
    return np.array([int(line) for line in raw.split(b"\n")[1:] if line], dtype=np.int64)


@pytest.fixture
def small_pair_on_a_worker(monkeypatch, counting_pools):
    """The pair's I/O opens its worker for files of an event or more."""
    monkeypatch.setattr("qvibe.simulate._PAIR_THREAD_EVENTS", 0)
    return counting_pools


def test_pieces_and_the_pair_worker_read_the_ticks_of_a_whole_file_parse(
    tmp_path, capsys, small_pair_on_a_worker
):
    config = tmp_path / "tone.ini"
    config.write_text("[signal]\nkind = pure_tone\nfrequency = 10 Hz\namplitude_pp = 20 nm\n"
                      "[channel]\nrate_c = 19 kHz\nrate_a = 19 kHz\n[run]\nseed = 8\n"
                      "[analysis]\nf_max = 200 Hz\n")
    kept = []
    outcomes = []
    opened = {}
    for flags, ext in (([], "txt"), (["--binary"], "bin")):
        # Written side by side, as simulate draws them for this seed.
        assert main(["simulate", "-c", str(config), "--out", str(tmp_path / ext), *flags]) == 0
        assert small_pair_on_a_worker == [1, 1]  # the draw's worker, then the writes'
        small_pair_on_a_worker.clear()
        capsys.readouterr()
        paths = [tmp_path / ext / f"{tag}.{ext}" for tag in ("coincidence", "anticoincidence")]
        kept.append([whole_file_ticks(path).tobytes() for path in paths])
        for chunk in (1, None):
            with codec(chunk=chunk):
                assert [read_stream(path).ticks.tobytes() for path in paths] == kept[-1]
                outcomes.append((main(["estimate", *map(str, paths), "-c", str(config),
                                       "--format", "json"]), capsys.readouterr().out))
        # The scan's worker and each refinement's, after the reads' for text.
        assert set(small_pair_on_a_worker) == {1} and len(small_pair_on_a_worker) >= 4
        opened[ext] = len(small_pair_on_a_worker)
        small_pair_on_a_worker.clear()
    assert opened["txt"] == opened["bin"] + 2  # a binary pair is read in turn
    assert kept[0] == kept[1]  # the text and binary files hold the same ticks
    assert outcomes[0][0] == 0 and '"f_hat": 10.' in outcomes[0][1]
    assert all(outcome == outcomes[0] for outcome in outcomes)


def pair_outcome(capsys, *files, flags=()):
    """The exit code and stderr of ``qvibe estimate`` on ``files``."""
    code = main(["estimate", *map(str, files), *flags])
    return code, capsys.readouterr().err


def test_side_by_side_reads_refuse_in_the_serial_order(tmp_path, capsys, monkeypatch,
                                                       counting_pools):
    # Stream 1 fails at its last line, stream 2 at its first, so on the
    # worker stream 2 fails first; stream 1's refusal is still the one
    # printed, and the tag check comes after both reads.
    ticks = "".join(f"{10**9 + k}\n" for k in range(3000))
    files = {
        "late.txt": f"qvibe-ts v1 coincidence 100.0 1.0 3001\n{ticks}frog\n",
        "c.txt": f"qvibe-ts v1 coincidence 100.0 1.0 3000\n{ticks}",
        "early.txt": "qvibe-ts v1 anticoincidence 100.0 1.0 3000\nx\n",
        "a.txt": f"qvibe-ts v1 anticoincidence 100.0 1.0 3000\n{ticks}",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    late, c, early, a = (tmp_path / name for name in files)
    cases = [
        ((late, early), 3, f"stream error: {late}: line 3002: not an integer tick: 'frog'\n"),
        ((c, early), 3, f"stream error: {early}: line 2: not an integer tick: 'x'\n"),
        ((a, c), 2, "config error: mode quantum reads streams tagged coincidence then"
                    " anticoincidence, got anticoincidence then coincidence\n"),
        ((a, early), 3, f"stream error: {early}: line 2: not an integer tick: 'x'\n"),
    ]
    for gate in (0, 3000):  # each pair on the worker, then each serially
        monkeypatch.setattr("qvibe.simulate._PAIR_THREAD_EVENTS", gate)
        for chunk in (1, None):
            for files_, code, err in cases:
                with codec(chunk=chunk):
                    assert pair_outcome(capsys, *files_) == (code, err), (gate, chunk, files_)
                assert counting_pools == ([1] if gate == 0 else []), (gate, files_)
                counting_pools.clear()


def test_a_long_text_pair_is_read_on_a_worker_and_a_pair_with_a_binary_file_in_turn(
    tmp_path, capsys, monkeypatch, counting_pools
):
    # At the package's gate, two text files of one event more than it each
    # are read side by side; the same ticks in two binary files, or in one
    # binary file beside a text one, are read in turn. The analysis stops
    # after the reads, so the reads' pool is the only one counted.
    def no_analysis(*args, **kwargs):
        raise AnalysisError("stopped after the reads")

    monkeypatch.setattr("qvibe.cli.pipeline", no_analysis)
    events = _PAIR_THREAD_EVENTS + 1
    for tag, seed in (("coincidence", 1), ("anticoincidence", 2)):
        stream = make_stream(events, seed, tag)
        write_stream_text(stream, tmp_path / f"{tag}.txt")
        write_stream_binary(stream, tmp_path / f"{tag}.bin")
    for c, a, opened in (("txt", "txt", [1]), ("bin", "bin", []), ("txt", "bin", []),
                         ("bin", "txt", [])):
        files = (tmp_path / f"coincidence.{c}", tmp_path / f"anticoincidence.{a}")
        assert pair_outcome(capsys, *files) == (4, "analysis error: stopped after the reads\n")
        assert counting_pools == opened, (c, a)
        counting_pools.clear()


def test_side_by_side_writes_print_and_fail_in_the_serial_order(
    tmp_path, capsys, small_pair_on_a_worker
):
    # An anticoincidence file that cannot be written (a directory of its
    # name) is refused after the coincidence file's notice, as the serial
    # loop refuses it.
    config = tmp_path / "tone.ini"
    config.write_text("[signal]\nkind = pure_tone\nfrequency = 10 Hz\namplitude_pp = 20 nm\n"
                      "[channel]\nrate_c = 3 kHz\nrate_a = 3 kHz\n")
    (tmp_path / "out" / "anticoincidence.txt").mkdir(parents=True)
    assert main(["simulate", "-c", str(config), "--out", str(tmp_path / "out")]) == 3
    out, err = capsys.readouterr()
    assert re.fullmatch(rf"wrote {re.escape(str(tmp_path / 'out' / 'coincidence.txt'))}"
                        r" \(\d+ events\)\n", out), out
    assert err.startswith("io error: [Errno 21] Is a directory:"), err
    assert small_pair_on_a_worker == [1, 1]


# The text reader's piece (16 * _CHUNK_LINES bytes) holds at most twice its
# bytes, in its buffer and one line-end mask, and 36 bytes a line of it.
def piece_budget(line_bytes):
    piece = 16 * streamio._CHUNK_LINES
    return 2 * piece + 36 * (piece // line_bytes)


@pytest.mark.parametrize("digits", [1, 10])
def test_a_text_read_holds_its_ticks_and_one_piece(tmp_path, digits):
    # 2M lines: 8 bytes a line are the ticks kept; the whole-file reader
    # peaked at 35.9 bytes a line with 10-digit ticks.
    n = 2_000_000
    ticks = np.sort(np.random.default_rng(digits).integers(10 ** (digits - 1), 10**digits, n))
    path = tmp_path / "s.txt"
    write_stream_text(TimestampStream("coincidence", ticks, 1e-300, 1.0), path)
    tracemalloc.start()
    try:
        back = read_stream_text(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.ticks.tobytes() == ticks.tobytes()
    assert peak <= 8 * n + piece_budget(digits + 1), (peak / n, piece_budget(digits + 1))


def test_a_binary_read_holds_its_ticks_alone(tmp_path):
    # The ticks are read into one array the stream owns, and checked a
    # block at a time (the file's bytes and a mask of every tick: 9.0 bytes a tick).
    n = 2_000_000
    ticks = np.sort(np.random.default_rng(3).integers(0, 10**10, n))
    path = tmp_path / "s.bin"
    write_stream_binary(TimestampStream("coincidence", ticks, 100e-12, 1.0), path)
    tracemalloc.start()
    try:
        back = read_stream_binary(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.ticks.tobytes() == ticks.tobytes() and back.ticks.base is None
    assert peak <= 8 * n + (1 << 18), peak / n
