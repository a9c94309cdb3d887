"""The array formatter spells every double exactly as ``repr`` does."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from qvibe.floatrepr import _tables, float_lines


def spelled(values, nonfinite=repr):
    """Each value as float_lines spells it, one line each."""
    x = np.asarray(values, dtype=np.float64)
    text = float_lines([x], [b"\n"], nonfinite=nonfinite).decode()
    return text.split("\n")[:-1]


def mismatches(values, nonfinite=repr):
    x = np.asarray(values, dtype=np.float64)
    return [(nonfinite(float(v)), got) for v, got in zip(x, spelled(x, nonfinite))
            if got != nonfinite(float(v))]


def neighbours(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


def edge_values():
    tiny = sys.float_info.min  # the smallest normal
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-323, sys.float_info.max, -sys.float_info.max]
    values += neighbours(tiny) + neighbours(1e-4) + neighbours(1e16)
    # Powers of two: a normal one has a closer lower neighbour, an asymmetric interval.
    values += [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    values += [v for e in range(-323, 309) for v in neighbours(float(f"1e{e}"))]
    values += [0.1, 0.3, 123.456, 2.0**53 + 2, 9007199254740993.0, 1e23, 0.00012345678901234567]
    return np.array(values)


def test_edge_values_spell_as_repr():
    x = edge_values()
    assert mismatches(x) == []
    assert mismatches(-x) == []


def test_random_bit_patterns_spell_as_repr():
    rng = np.random.default_rng(20240613)
    x = rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    x = x[np.isfinite(x)]
    assert x.size > 199_000
    assert mismatches(x) == []


def test_positional_range_and_subnormals_spell_as_repr():
    rng = np.random.default_rng(7)
    scaled = rng.standard_normal(50_000) * 10.0 ** rng.integers(-6, 18, 50_000)
    integers = rng.integers(-(2**53), 2**53, 20_000).astype(np.float64)
    subnormals = np.arange(1, 20_000, dtype=np.uint64).view(np.float64)
    assert mismatches(np.concatenate([scaled, integers, subnormals])) == []


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
def test_formatter_equals_repr(values):
    assert spelled(values) == [repr(v) for v in values]


def test_non_finite_values_go_through_the_given_spelling():
    values = [math.inf, -math.inf, math.nan, 1.5]
    assert spelled(values) == ["inf", "-inf", "nan", "1.5"]
    assert spelled(values, json.dumps) == ["Infinity", "-Infinity", "NaN", "1.5"]


def test_lines_lay_columns_and_ends_out_in_order():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(5000), rng.standard_normal(5000) * 1e-9
    text = float_lines([a, b], [b",", b";end\n"]).decode()
    assert text == "".join("%r,%r;end\n" % (float(u), float(v)) for u, v in zip(a, b))
    assert float_lines([np.array([])], [b"\n"]) == b""


def test_tables_hold_the_exact_floors_and_powers():
    # k = floor(log10(2^q)), or of 3/4 2^q on an irregular interval;
    # h = q + floor(log2(10^-k)) + 2; g = floor(10^-k 2^-r) + 1 in [2^125, 2^126).
    ks, hs, g1s, g0s, _ = _tables()
    for irregular in (0, 1):
        for bq in range(2047):
            q = max(bq, 1) - 1075
            row = bq + 2048 * irregular
            x = Fraction(2) ** q * (Fraction(3, 4) if irregular else 1)
            k = int(ks[row])
            assert Fraction(10) ** k <= x < Fraction(10) ** (k + 1)
            log2 = int(hs[row]) - q - 2
            assert 2**log2 <= Fraction(10) ** -k < 2 ** (log2 + 1)
            g = (int(g1s[row]) << 63) + int(g0s[row])
            assert g == math.floor(Fraction(10) ** -k / Fraction(2) ** (log2 - 125)) + 1
            assert 2**125 <= g < 2**126
