"""Python's ``repr`` of float64 arrays, computed with numpy integer arithmetic.

``repr(float(v))`` is the shortest decimal that reads back to v, the one
closest to v among those of that length, with ties to an even last digit.
It is spelled positionally from 1e-4 up to 1e16 (``0.0001``, ``21000.5``,
``100.0``, ``-0.0``) and in exponent form outside, with at least two
exponent digits (``1e-05``, ``1.5e+300``, ``5e-324``). One ``repr`` call
costs about 1.7 µs on a 2-core x86-64 machine; here a block of values
costs a few hundred array operations, about 0.3 µs a value there.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020), as the JDK's ``DoubleToDecimal`` computes them. A finite
v = c 2^q has the rounding interval R_v around it, closed when c is even,
of width w = 2^q, or 3/4 2^q when v is a power of two whose lower
neighbour is closer; k = floor(log10(w)), so 10^k <= w < 10^(k+1). With g,
a 126-bit over-estimate of 10^-k, the products g c 2^q rounded to odd give
s = floor(v 10^-k) and exact comparisons of the interval's ends with
s 10^k and (s + 1) 10^k and with the two multiples of 10^(k+1) either
side of v. R_v holds at most one multiple of 10^(k+1); if it holds one,
that is the shortest decimal in R_v, and otherwise the shorter of s 10^k
and (s + 1) 10^k that lies in R_v, or the closer if both do. The JDK skips
the multiples of 10^(k+1) when s < 100, because Java prints at least two
digits (``4.9E-324``); repr prints one (``5e-324``), so they are always
tried here. Ryū (U. Adams, PLDI 2018) finds the same digits.

Products of 64-bit words are built from 32-bit limbs in uint64 lanes, and
the power table is built on first use. ``spell_digits``, which writes the
decimal digits of uint64 values, is shared with the text stream writer
(``qvibe.streamio``); this module imports nothing from the package.
"""

from __future__ import annotations

import functools

import numpy as np

POW10 = 10 ** np.arange(20, dtype=np.uint64)  # every power of ten below 2^64
_M32 = 0xFFFF_FFFF
_M63 = (1 << 63) - 1
_EXPONENTS = 2048  # biased binary exponents; 2047 (inf and nan) is spelled by ``nonfinite``


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Per biased exponent, regular then irregular: k, h, g = g1 2^63 + g0; then the suffixes.

    k = floor(log10(2^q)), or floor(log10(3/4 2^q)) for the irregular
    interval; h = q + floor(log2(10^-k)) + 2; and g = floor(10^-k 2^-r) + 1
    with r chosen so that 2^125 <= g < 2^126. The floors of logarithms are
    the JDK's MathUtils products, exact over the exponents of doubles.
    """
    q = np.clip(np.arange(_EXPONENTS), 1, _EXPONENTS - 2).astype(np.int64) - 1075
    q = np.concatenate([q, q])
    k = q * 661_971_961_083 - np.repeat([0, 274_743_187_321], _EXPONENTS) >> 41
    log2 = -k * 913_124_641_741 >> 38  # floor(log2(10^-k))
    g = {}
    for e, r in zip((-k).tolist(), (log2 - 125).tolist()):
        if e not in g:
            # 10^e / 2^r, rounded down, plus one.
            g[e] = ((10**e << -r if r < 0 else 10**e >> r) if e >= 0 else (1 << -r) // 10**-e) + 1
    g1, g0 = zip(*((g[e] >> 63, g[e] & _M63) for e in (-k).tolist()))
    # Column p + 400 spells the exponent suffix of decimal point position p,
    # the exponent being p - 1 (``e-05``, ``e+300``), 0 marking no character.
    suffixes = np.zeros((5, 801), dtype=np.uint8)
    for p in range(-400, 401):
        text = b"e%+03d" % (p - 1)
        suffixes[5 - len(text) :, p + 400] = np.frombuffer(text, dtype=np.uint8)
    h = (q + log2 + 2).astype(np.uint64)
    return k, h, np.array(g1, np.uint64), np.array(g0, np.uint64), suffixes


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and k with f 10^k the shortest decimal that reads back to each finite nonzero double.

    f may end in zeros. Zeros and non-finite values give meaningless pairs.
    """
    ks, hs, g1s, g0s, _ = _tables()
    t = bits & (1 << 52) - 1
    bq = bits >> 52 & 0x7FF
    irregular = (t == 0) & (bq > 1)
    row = bq.astype(np.intp) + irregular * _EXPONENTS
    k, h, g1, g0 = ks[row], hs[row], g1s[row], g0s[row]
    c = np.minimum(bq, 1) << 52 | t
    out = c & 1  # an odd c leaves the interval's ends out
    # The words of g cp for cp = 4c 2^h < 2^60, from 32-bit limb products:
    # g1, g0 < 2^63, so no sum below wraps.
    cp = c << 2 << h
    lo, hi = cp & _M32, cp >> 32
    g1_lo, g1_hi, g0_lo, g0_hi = g1 & _M32, g1 >> 32, g0 & _M32, g0 >> 32
    x0, x1 = g0 * cp, g0_hi * hi + (g0_hi * lo + (g0_lo * lo >> 32) + g0_lo * hi >> 32)
    y0, y1 = g1 * cp, g1_hi * hi + (g1_hi * lo + (g1_lo * lo >> 32) + g1_lo * hi >> 32)

    def rop(x1, y0, y1):
        # g cp / 2^127 rounded to odd, from the high words (the JDK's rop).
        z = (y0 >> 1) + x1
        return y1 + (z >> 63) | (z & _M63 != 0)

    vb = rop(x1, y0, y1)
    # The interval's ends take cp + 2^(h+1) and cp - 2^(h+1), or cp - 2^h on
    # an irregular interval: g times that power of two is added to the words.
    up = h + 1
    a0, a1 = g0 << up, g1 << up
    b0, b1 = g0 >> 63 - h, g1 >> 63 - h
    y0r = y0 + a1
    vbr = rop(x1 + b0 + (x0 + a0 < a0), y0r, y1 + b1 + (y0r < a1)) - out
    down = up - irregular
    a0, a1 = g0 << down, g1 << down
    b0, b1 = g0 >> 64 - down, g1 >> 64 - down
    vbl = rop(x1 - b0 - (x0 < a0), y0 - a1, y1 - b1 - (y0 < a1)) + out
    s = vb >> 2
    # The multiples of 10^(k+1) either side of v; at most one lies in R_v.
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = sp10 + 10 << 2 <= vbr
    # Else s 10^k or (s + 1) 10^k: the one in R_v, or the closer, ties to even.
    uin = vbl <= s << 2
    win = s + 1 << 2 <= vbr
    mid = s << 2 | 2
    lower = np.where(uin != win, uin, (vb < mid) | (vb == mid) & (s & 1 == 0))
    f = np.where(upin != wpin, sp10 + wpin * np.uint64(10), s + ~lower)
    return f, k


def spell_digits(values: np.ndarray, out: np.ndarray) -> None:
    """Write the decimal digits of each uint64 value, right-aligned, into the rows of ``out``.

    Row r of ``out`` gets digit r of every value zero-padded to ``len(out)``
    digits, each value being below 10^len(out). Digits are taken from the
    right in uint32 groups of up to 9. numpy divides by a constant with a
    multiply and a shift in floor_divide, though not in divmod, so each
    remainder is taken by hand; and uint32 lanes divide several times faster
    than uint64 ones.
    """
    rest = values
    for top in range(len(out), 0, -9):
        if top > 9:
            high = rest // 10**9
            group, rest = (rest - high * 10**9).astype(np.uint32), high
        else:
            group = rest.astype(np.uint32)
        quotient, tens = np.empty_like(group), np.empty_like(group)
        for r in range(top - 1, max(top - 9, 0) - 1, -1):
            np.floor_divide(group, 10, out=quotient)
            np.multiply(quotient, 10, out=tens)
            np.subtract(group, tens, out=out[r], casting="unsafe")  # < 10
            group, quotient = quotient, group


# Rows of the character table of one value: its sign, 22 digit slots with a
# slot for the point after each of the first 21, then ``e``, the exponent's
# sign and its three digits. A character left out of the spelling is 0.
_SIGN, _DIGITS, _POINTS, _E = 0, slice(1, 45, 2), slice(2, 44, 2), 44
_ROWS = 49
_SLOT = np.arange(22, dtype=np.int8)[:, None]


def _spell(x: np.ndarray, nonfinite) -> np.ndarray:
    """Characters whose column i, read down without its zeros, spells x[i].

    x[i] is spelled as repr spells it, or by ``nonfinite`` if it is not
    finite. The table is uint8, _ROWS by the length of x.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    f, k = _decimal(bits)
    suffixes = _tables()[-1]
    zero = bits << 1 == 0
    f[zero] = k[zero] = 0
    digits = np.searchsorted(POW10[1:], f, side="right") + 1
    point = k + digits  # f 10^k = 0.d1d2... 10^point
    exponent = (point <= -4) | (point > 16)
    # Positional values are spelled from F = f 10^scale, an integer scaled by
    # 10^K with K <= 0, exponent ones from F = f. F's 17 digits fill slots
    # 4..20 of 22, right-aligned: the units digit of a positional value is in
    # slot 20 + K >= 0, and slot 21 holds the 0 of a bare ``.0``.
    scale = np.maximum(k, 0) * ~exponent  # at most 15 where positional
    chars = np.empty((_ROWS, bits.size), dtype=np.uint8)
    slots = chars[_DIGITS]
    figures = slots[4:21]
    spell_digits(f * POW10[scale], figures)
    first = 21 - digits - scale
    last = np.maximum((figures.astype(bool) * _SLOT[4:21]).max(axis=0), first)
    # The point follows slot ``units``; the value's digits fill slots start..end.
    units = np.where(exponent, first, 20 + np.minimum(k, 0)).astype(np.int8)
    start = np.minimum(first, units).astype(np.int8)
    end = np.where(exponent, last, np.maximum(last, units + 1)).astype(np.int8)
    slots[:4] = slots[21] = ord("0")
    figures += ord("0")
    slots *= (_SLOT >= start) & (_SLOT <= end)
    chars[_SIGN] = bits >> 63
    chars[_SIGN] *= ord("-")
    chars[_POINTS] = (_SLOT[:21] == units) & (end > units)
    chars[_POINTS] *= ord(".")
    suffixes.take(point + 400, axis=1, out=chars[_E:])
    chars[_E:] *= exponent
    for i in np.flatnonzero(bits >> 52 & 0x7FF == 0x7FF):
        text = nonfinite(float(bits[i : i + 1].view(np.float64)[0])).encode()
        chars[:, i] = 0
        chars[: len(text), i] = np.frombuffer(text, dtype=np.uint8)
    return chars


# Values spelled per pass: each pass's arrays stay in cache.
_PASS_VALUES = 1 << 12


def float_lines(columns, ends, nonfinite=repr) -> bytes:
    """ASCII lines, line i spelling ``columns[0][i]``, ``ends[0]``, ``columns[1][i]``, ...

    Each float is spelled as ``repr(float(v))``, and a non-finite one as
    ``nonfinite(float(v))`` instead (``json.dumps`` spells ``NaN``). Each end
    is bytes, with no NUL, written after its column's value in every line.
    """
    tails = np.zeros((len(ends), max(map(len, ends))), dtype=np.uint8)
    for row, end in enumerate(ends):
        tails[row, : len(end)] = np.frombuffer(end, dtype=np.uint8)
    n, step = len(columns[0]), max(_PASS_VALUES // len(columns), 1)
    out = []
    for lo in range(0, n, step):
        # Line-major: value j is column j % len(columns) of line j // len(columns).
        values = np.stack([col[lo : lo + step] for col in columns], axis=1).ravel()
        chars = _spell(values, nonfinite)
        chars = chars[chars.any(axis=1)]  # rows no value of the pass uses
        lines = values.size // len(ends)
        table = np.empty((lines, len(ends), len(chars) + tails.shape[1]), dtype=np.uint8)
        table[..., : len(chars)] = chars.T.reshape(lines, len(ends), len(chars))
        table[..., len(chars) :] = tails
        out.append(table.tobytes().translate(None, b"\0"))
    return b"".join(out)
