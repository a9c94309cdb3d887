import numpy as np
import pytest

from qvibe.core import GeometryFactor
from qvibe.errors import StreamFormatError
from qvibe.simulate import GroundTruth, TimestampStream, VibrationSignal
from qvibe.streamio import (
    read_ground_truth,
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
    truth = GroundTruth(sig, GeometryFactor(2))
    path = tmp_path / "truth.json"
    write_ground_truth(truth, path)
    back = read_ground_truth(path)
    assert back.geometry.g == 2
    assert back.signal.dc_offset_delay == pytest.approx(1.41e-15, rel=1e-12)
    assert len(back.signal.components) == len(sig.components)
    for a, b in zip(back.signal.components, sig.components):
        assert a.frequency == pytest.approx(b.frequency, rel=1e-12)
        assert a.amplitude_pp == pytest.approx(b.amplitude_pp, rel=1e-12)
        assert a.phase == pytest.approx(b.phase, rel=1e-12)


def test_ground_truth_rejects_junk(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StreamFormatError):
        read_ground_truth(path)
    path.write_text('{"tau_op": 0.0, "g": 2}')
    with pytest.raises(StreamFormatError):
        read_ground_truth(path)
