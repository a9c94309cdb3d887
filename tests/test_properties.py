"""Property tests for the projection identities, the config parser and the
stream files.

Streams are drawn as arbitrary sorted tick arrays (duplicates, the first
and the last tick included) and projected on uniform grids from 4 to 600
bins (4096 against the exact sum), which run the binned grid transform, or
on arbitrary frequency arrays, which run the direct sum. Config values are arbitrary text under
every schema key, and arbitrary decimals under every power-of-ten unit. Stream files are written from arbitrary
streams and read from arbitrary or corrupted bytes. Runs are derandomised,
so the suite is reproducible.
"""

import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from qvibe.config import _SCHEMA, _UNIT_TABLES, _kind_of, parse_config, parse_quantity
from qvibe.errors import ConfigError, StreamFormatError
from qvibe.estimate import (
    _economised_terms,
    _fold_size,
    _project_grid,
    _series_table,
    _series_terms,
    combined_spectrum,
    frequency_grid,
    grid_spacing,
    project_timestamps,
    window_weights,
)
from qvibe.simulate import STREAM_TAGS, TimestampStream
from qvibe.streamio import (
    read_stream,
    read_stream_binary,
    read_stream_text,
    write_stream_binary,
    write_stream_text,
)

TICK = 100e-12
T_EXP = 1e-3  # 1e7 ticks
LAST = int(round(T_EXP / TICK)) - 1

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

ticks = st.lists(
    st.one_of(st.integers(0, LAST), st.sampled_from([0, LAST])), min_size=1, max_size=300
)
bins = st.integers(4, 600)
windows = st.sampled_from(["hann", "rectangular"])


def stream(tick_list, tag="coincidence"):
    return TimestampStream(tag, np.sort(np.asarray(tick_list, dtype=np.int64)), TICK, T_EXP)


def grid(m):
    # frequency_grid(t_exp, f_max) has floor(f_max / df) + 1 bins.
    return frequency_grid(T_EXP, (m - 0.5) * 0.6 / T_EXP)


def scale(s):
    return max(len(s), 1) / T_EXP


@PROPERTY
@given(ticks, ticks, bins, windows)
def test_projection_is_linear_under_merge(t1, t2, m, window):
    s1, s2 = stream(t1), stream(t2)
    freqs = grid(m)
    assert freqs.size == m
    union = stream(np.sort(np.concatenate([s1.ticks, s2.ticks])))
    merged = project_timestamps(union, freqs, window)
    parts = project_timestamps(s1, freqs, window) + project_timestamps(s2, freqs, window)
    assert np.max(np.abs(merged - parts)) <= 1e-12 * scale(union)


@PROPERTY
@given(ticks, st.integers(1, LAST // 2), bins)
def test_time_shift_is_a_phase_ramp(tick_list, shift, m):
    # Without a taper, delaying every event by shift ticks multiplies the
    # projection at f by exp(-2j pi f shift * TICK).
    base = [min(t, LAST - shift) for t in tick_list]
    s = stream(base)
    shifted = stream([t + shift for t in base])
    freqs = grid(m)
    ramp = np.exp(-2j * math.pi * freqs * (shift * TICK))
    p = project_timestamps(s, freqs, "rectangular")
    p_shifted = project_timestamps(shifted, freqs, "rectangular")
    assert np.max(np.abs(p_shifted - ramp * p)) <= 1e-12 * scale(s)


@PROPERTY
@given(ticks, bins, windows)
def test_identical_streams_cancel_to_exact_zero(tick_list, m, window):
    sc = stream(tick_list)
    sa = stream(tick_list, "anticoincidence")
    y = combined_spectrum(sc, sa, 1.0, grid(m), window)
    assert np.max(np.abs(y)) == 0.0


@PROPERTY
@given(ticks, st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20), windows)
def test_negative_frequencies_project_to_conjugates(tick_list, f, window):
    # Real weights: p_-f = conj(p_f), here on the direct sum (a +-f array).
    s = stream(tick_list)
    f = np.asarray(f)
    p = project_timestamps(s, np.concatenate([f, -f]), window)
    assert np.max(np.abs(p[f.size:] - np.conj(p[: f.size]))) <= 1e-12 * scale(s)


@PROPERTY
@given(ticks, ticks, bins, windows, st.floats(0.1, 10.0))
def test_combined_spectrum_is_conjugate_symmetric(t1, t2, m, window, ratio):
    # The grid transform at +f against the direct sum at -f.
    sc, sa = stream(t1), stream(t2, "anticoincidence")
    freqs = grid(m)
    y = combined_spectrum(sc, sa, ratio, freqs, window)
    y_neg = combined_spectrum(sc, sa, ratio, -freqs, window)
    assert np.max(np.abs(y_neg - np.conj(y))) <= 1e-12 * (scale(sc) + ratio * scale(sa))


def folded_event_sum(parts, t_exp, df, m, n):
    """The event sum on the grid k * df, k < m, over the phases of an n-bin fold.

    _project_grid rounds each event's phase once, to x = t df n bins of its
    n-point FFT; at 4k bins that rounding alone reaches 1e-12 of sum |w|,
    so this oracle sums over the same x, with the phase e^(-2j pi k x / n)
    reduced exactly: k floor(x) mod n in integers plus k (x - floor(x)).
    Returns the sum and its scale, sum |w| / t_exp.
    """
    exact = np.zeros(m, dtype=complex)
    total = 0.0
    for t, w in parts:
        x = t * (df * n)
        cell = np.floor(x)
        whole, frac = cell.astype(np.int64), x - cell
        rows = max(1, (1 << 20) // max(t.size, 1))  # a few MB of phases at a time
        for k0 in range(0, m, rows):
            k = np.arange(k0, min(m, k0 + rows))
            phase = (np.outer(k, whole) % n + np.outer(k, frac)) * (-2.0 * math.pi / n)
            exact[k] += (np.cos(phase) @ w + 1j * (np.sin(phase) @ w)) / t_exp
        total += np.sum(np.abs(w)) / t_exp
    return exact, total


@PROPERTY
@given(ticks, ticks, st.integers(4, 4096), windows, st.floats(0.1, 10.0))
def test_grid_transform_matches_the_event_sum(t1, t2, m, window, ratio):
    # What is left against the oracle is the transform's own error, the
    # series truncation and the FFT rounding: under 1e-13 sum |w| / t_exp.
    df = grid_spacing(T_EXP)
    parts = []
    for tick_list, scale in ((t1, 1.0), (t2, -ratio)):
        t = stream(tick_list).centered_times()
        parts.append((t, scale * window_weights(t, T_EXP, window)))
    n = _fold_size(m, sum(t.size for t, _ in parts))  # the fold _project_grid takes
    y = _project_grid(parts, T_EXP, df, m)
    exact, total = folded_event_sum(parts, T_EXP, df, m, n)
    assert np.max(np.abs(y - exact)) <= 1e-13 * total


def test_grid_transform_matches_the_event_sum_on_an_event_heavy_grid(monkeypatch):
    # 200k events on the 334-bin quick-start grid: the rule folds far above
    # 2m = 668 there, so the series is short. The transform is checked at
    # that fold, and on every tenth event at the largest fold the rule takes
    # on this grid, the one it picks as the event count grows without bound.
    t_exp, m = 1.0, 334
    df = grid_spacing(t_exp)
    rng = np.random.default_rng(14)
    parts = []
    for size, scale in ((100_000, 1.0), (100_000, -0.8)):
        t = np.sort(rng.integers(0, 10**10, size)) * 1e-10 - t_exp / 2
        parts.append((t, scale * window_weights(t, t_exp, "hann")))
    picked, largest = _fold_size(m, 200_000), _fold_size(m, 10**12)
    assert 1024 < picked <= largest
    for n, every in ((picked, 1), (largest, 10)):
        asked = []  # _project_grid asks the rule for its fold, with its bins and events

        def fold(*shape, n=n):
            asked.append(shape)
            return n

        monkeypatch.setattr("qvibe.estimate._fold_size", fold)
        some = [(t[::every], w[::every]) for t, w in parts]
        y = _project_grid(some, t_exp, df, m)
        assert asked == [(m, 200_000 // every)]
        exact, total = folded_event_sum(some, t_exp, df, m, n)
        assert np.max(np.abs(y - exact)) <= 1e-13 * total


def test_grid_transform_reads_the_mirrored_bins_at_the_smallest_fold(monkeypatch):
    # At n = m rounded up to a power of two, bins n/2 < k < m are read from
    # the rfft's mirror image: at m = n (theta near pi, the longest series,
    # 20 economised terms in place of 27 Taylor terms), at m = n/2 + 2 (one
    # mirrored bin), and with one stream empty, which bins nothing.
    t_exp, n = 1.0, 1024
    df = grid_spacing(t_exp)
    rng = np.random.default_rng(15)
    parts = []
    for size, scale in ((3_000, 1.0), (2_000, -0.7)):
        t = np.sort(rng.integers(0, 10**10, size)) * 1e-10 - t_exp / 2
        parts.append((t, scale * window_weights(t, t_exp, "hann")))
    empty = (np.array([]), np.array([]))
    assert _series_terms(math.pi * (n - 1) / n) == 27
    assert _economised_terms(math.pi * (n - 1) / n) == 20
    assert _series_table(n, n).shape == (20, n)
    monkeypatch.setattr("qvibe.estimate._fold_size", lambda m, events: n)
    for m in (n, n // 2 + 2):
        for some in (parts, [parts[0], empty], [empty, parts[1]]):
            y = _project_grid(some, t_exp, df, m)
            exact, total = folded_event_sum(some, t_exp, df, m, n)
            assert np.max(np.abs(y - exact)) <= 1e-13 * total, (m, [t.size for t, _ in some])


POWER_OF_TEN_UNITS = {
    "time": {"s": 0, "ms": -3, "us": -6, "ns": -9, "ps": -12, "fs": -15, "as": -18},
    "frequency": {"Hz": 0, "kHz": 3, "MHz": 6, "GHz": 9, "THz": 12},
    "length": {"m": 0, "mm": -3, "um": -6, "nm": -9, "pm": -12},
}
decimals = st.builds(
    "{}{}.{}e{}".format,
    st.sampled_from(["", "-", "+"]),
    st.integers(0, 10**20),
    st.integers(0, 10**12).map(lambda n: str(n).rjust(12, "0")),
    st.integers(-320, 270),
)


@PROPERTY
@given(decimals)
@example("23")
@example("1550")
def test_power_of_ten_units_are_correctly_rounded(num):
    # Each unit shifts the decimal exactly; the one rounding is to the double.
    assert {k: set(t) for k, t in POWER_OF_TEN_UNITS.items()} == {
        k: set(t) for k, t in _UNIT_TABLES.items() if k != "angle"
    }
    for kind, table in POWER_OF_TEN_UNITS.items():
        for unit, exp in table.items():
            value = parse_quantity(f"{num} {unit}", kind, "x")
            assert value == float(Fraction(num) * Fraction(10) ** exp), (num, unit)


schema_keys = st.one_of(
    st.sampled_from([(section, key) for section, keys in _SCHEMA.items() for key in keys]),
    st.integers(0, 10**6).map(lambda n: ("signal", f"component_{n}")),
)
# "ini" writes `key = value` under its section; "json" stores the value as a
# JSON string; "json_literal" splices the text in as a raw JSON value, so
# numbers, NaN, arrays and malformed documents reach the decoder as well.
config_forms = st.sampled_from(["ini", "json", "json_literal"])


def config_text(section, key, value, form):
    if form == "ini":
        return f"[{section}]\n{key} = {value}\n"
    if form == "json":
        return json.dumps({f"{section}.{key}": value})
    return "{" + json.dumps(f"{section}.{key}") + ": " + value + "}"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(schema_keys, st.text(), config_forms)
@example(("run", "seed"), "-1", "ini")
@example(("run", "seed"), "1e999", "ini")
@example(("run", "seed"), "1e999", "json_literal")
@example(("run", "seed"), "1e999", "json")
def test_config_values_raise_only_config_error(section_key, value, form):
    # Any text under any key either parses and types, or is a ConfigError,
    # which the CLI reports with exit code 2; nothing else may escape.
    # Every value is typed when the text is parsed, so a lookup only reads.
    section, key = section_key
    try:
        cfg = parse_config(config_text(section, key, value, form))
    except ConfigError:
        return
    for sec, entries in cfg.values.items():
        for k, typed in entries.items():
            assert cfg.get(sec, k) is typed
            if isinstance(typed, str):  # only a text kind stays text
                assert _kind_of(sec, k) in ("str", "time_or_quadrature"), (sec, k)


TOP = 2**63 - 1
stream_ticks = st.lists(
    st.one_of(st.integers(0, TOP), st.integers(0, 10**6), st.sampled_from([0, 9, 10, TOP])),
    max_size=60,
).map(sorted)
positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def timestamp_streams(draw):
    ticks = draw(stream_ticks)
    if ticks and draw(st.booleans()):
        ticks = sorted(ticks + ticks[: draw(st.integers(1, len(ticks)))])  # duplicates
    tick = draw(positive_floats)
    # Any exposure above the last tick; doubling keeps it strictly above.
    t_exp = (ticks[-1] + 1 if ticks else 1) * tick * draw(st.floats(2.0, 1e6))
    assume(0 < t_exp < math.inf)
    return TimestampStream(draw(st.sampled_from(STREAM_TAGS)), ticks, tick, t_exp)


def in_tmp(fn):
    with tempfile.TemporaryDirectory() as tmp:
        return fn(Path(tmp))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(timestamp_streams())
@example(TimestampStream("singles2", [], 5e-324, 1e-323))
@example(TimestampStream("coincidence", [TOP, TOP], 100e-12, 1e300))
@example(TimestampStream("coincidence", [0, 7], 23 * 1e-12, 1.0))
def test_stream_files_round_trip_exactly(s):
    def check(tmp):
        write_stream_text(s, tmp / "s.txt")
        write_stream_binary(s, tmp / "s.bin")
        body = (tmp / "s.txt").read_text().split("\n", 1)[1]
        # The per-line formatter the text writer replaces, as the oracle.
        assert body == "".join(f"{t}\n" for t in s.ticks.tolist())
        for back in (read_stream_text(tmp / "s.txt"), read_stream_binary(tmp / "s.bin")):
            assert back.tag == s.tag
            assert back.tick_duration == s.tick_duration and back.t_exp == s.t_exp
            assert back.ticks.dtype == np.int64 and back.ticks.tolist() == s.ticks.tolist()

    in_tmp(check)


def read_outcome(data):
    # Anything read_stream cannot take must be a StreamFormatError (CLI exit 3).
    def read(tmp):
        (tmp / "f").write_bytes(data)
        try:
            return read_stream(tmp / "f")
        except StreamFormatError:
            return None

    return in_tmp(read)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=120).map(lambda b: b"qvibe-ts v1 coincidence 100.0 1.0 2\n" + b),
    st.binary(max_size=120).map(lambda b: b"qvibe-ts\x01" + b),
))
@example(b"qvibe-ts v1 coincidence 100.0 1.0 1\n99999999999999999999\n")
@example(b"qvibe-ts v1 coincidence 1e999 1.0 1\n5\n")
def test_read_stream_takes_any_bytes(data):
    read_outcome(data)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(timestamp_streams(), st.booleans(), st.integers(0, 10**9), st.integers(0, 255))
def test_read_stream_takes_any_one_byte_corruption(s, binary, where, byte):
    def corrupt(tmp):
        path = tmp / "s"
        (write_stream_binary if binary else write_stream_text)(s, path)
        raw = bytearray(path.read_bytes())
        raw[where % len(raw)] = byte
        return bytes(raw)

    back = read_outcome(in_tmp(corrupt))
    assert back is None or isinstance(back, TimestampStream)
