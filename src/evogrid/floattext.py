"""Float64 values as `json.dumps` spells them, a block of floats at a time.

`FloatJoiner(seps)(values, kinds)` is `"".join(text(x) + seps[k] for x, k in
zip(values, kinds))`, where `text` is `float.__repr__` with json's spelling
of non-finite values.  A float with 1e-4 <= |x| < 1, which repr writes as
`0.[000]ddd`, takes a numpy kernel of Ryū's general case (Adams, "Ryū: fast
float-to-string conversion", PLDI 2018): the shortest digits that round back
to x, the nearest of them to x, which are repr's digits.  Ryū removes digits
while the ends of x's rounding interval still differ above them; the kernel
counts those digits in _REMOVALS + 1 fixed steps of whole-array division,
the same for every float, and leaves a float that would drop more than
_REMOVALS digits, a short decimal such as 0.1, to the fallback.  Every
float outside the kernel goes through `float.__repr__`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FloatJoiner"]

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# floats per kernel pass.  A pass makes the same 130 or so numpy calls
# whatever its size, and at 4,096 floats each uint64 lane array is 32 KiB,
# under glibc's default mmap threshold of 128 KiB.  The benchmark that
# writes a 512 x 512 operator and parses it back peaked about 23 MiB higher
# (no hole in glibc's heap for its next 24 MB string) in 4 of 20 runs, and
# in 10 of 20 with the older kernel's 2,048-float passes; 8,192-float passes
# peaked 1.5 MiB higher in every run, for no further gain in time
_PASS_FLOATS = 1 << 12

# the most digits the kernel removes from a float's vr; a float that would
# drop more, a short decimal such as 0.1, takes the fallback
_REMOVALS = 4

# a float's text columns: sign, "0.", three leading zeros, 20 digit columns;
# repr's longest text, such as "-2.2250738585072014e-308", is 24 characters
_TEXT = 26
_COLUMNS = np.arange(_TEXT)
_AFTER = _TEXT - 2  # widths of the text after "0.", 0 to 23 columns: three zeros and 20 digits
_DIGITS4 = np.array([f"{k:04d}" for k in range(10_000)], dtype="S4").view(np.uint32)  # "0000" to "9999"
_E8 = np.uint64(10**8)
_TEN = np.uint64(10)
_POW10 = np.array([10**k for k in range(_REMOVALS + 2)], dtype=np.uint64)
_POW5 = np.array([5**i for i in range(27)], dtype=np.uint64)  # 5^26 < 2^63
_LOW32 = np.uint64(0xFFFFFFFF)
_BITS32 = np.uint64(32)
_MANTISSA = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)


def _fallback_texts(values: np.ndarray) -> list[str]:
    """`json.dumps`' text of each float: `float.__repr__`, or NaN and ±Infinity."""
    return [_NON_FINITE.get(text, text) for text in map(float.__repr__, values.tolist())]


def _shift128(hi: np.ndarray, lo: np.ndarray, q: np.ndarray) -> np.ndarray:
    """floor((hi * 2^64 + lo) / 2^q) for 0 < q < 64, when it is below 2^64."""
    return (hi << (np.uint64(64) - q)) | (lo >> q)


def _mul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products a * b as (hi, lo) words, formed from 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> _BITS32
    b0, b1 = b & _LOW32, b >> _BITS32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _BITS32) + (p01 & _LOW32) + (p10 & _LOW32)
    lo = (p00 & _LOW32) | (mid << _BITS32)
    hi = a1 * b1 + (p01 >> _BITS32) + (p10 >> _BITS32) + (mid >> _BITS32)
    return hi, lo


def _shortest(m2: np.ndarray, q: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryū's general case for x = 4 m2 * 2^e2 with e2 = -(q + i) < 0.

    vr, vp and vm are floor((4 m2, 4 m2 + 2, 4 m2 - 2) * 5^i / 2^q): x and
    the ends of its rounding interval times 10^i.  They are exact: 4 m2 <
    2^55 and 5^i < 2^63, so each product is a 128-bit hi:lo pair.  Ryū
    removes digits from all three while floor(vp / 10) > floor(vm / 10), and
    the last digit removed rounds vr.  floor(vp / 10^j) > floor(vm / 10^j)
    holds from j = 1 up to the count of digits removed and for no larger j,
    so that count is the number of j from 1 to _REMOVALS + 1 where it holds,
    or more when that number is _REMOVALS + 1.  The caller keeps out every x
    whose vr, vp or vm can be exact, where Ryū needs its trailing-zero cases,
    and every x with more than _REMOVALS digits removed.  Returns the digits
    as an integer and the count of digits removed, so x's digits stand for
    digits * 10^(removed - i).
    """
    p5 = _POW5[i]
    hi, lo = _mul128(m2 << np.uint64(2), p5)
    # (4 m2 +- 2) 5^i = 4 m2 5^i +- 2 5^i, with the carry or borrow into hi
    d = p5 << np.uint64(1)
    lo_p, lo_m = lo + d, lo - d
    q = q.astype(np.uint64)
    vr = _shift128(hi, lo, q)
    vp = _shift128(hi + (lo_p < lo), lo_p, q)
    vm = _shift128(hi - (lo < d), lo_m, q)
    removed, up, down = np.zeros(len(m2), dtype=np.int64), vp, vm
    for _ in range(_REMOVALS + 1):
        up, down = up // _TEN, down // _TEN
        removed += up > down
    scale = _POW10.take(removed)
    digits = vr // scale
    low = digits * scale
    # round up when the last digit removed is 5 or more, or when the digits
    # would be vm's, at or below the interval's lower end
    digits += ((vr - low) << np.uint64(1) >= scale) | (vm >= low)
    return digits, removed


def _digit_text(digits: np.ndarray) -> np.ndarray:
    """Each integer below 10^20 as 20 zero-padded ASCII digits, one uint8 row per integer."""
    high = digits // _E8
    low = (digits - high * _E8).astype(np.uint32)
    top = (high // _E8).astype(np.uint32)
    high = (high - top * _E8).astype(np.uint32)
    groups = np.stack([top, high // 10_000, high % 10_000, low // 10_000, low % 10_000], axis=1)
    return _DIGITS4.take(groups).view(np.uint8)


class FloatJoiner:
    """Float blocks as `json.dumps` writes their floats, with a separator
    table: `joiner(values, kinds)` is each float of the 1-d float64 array
    `values` followed by `seps[kinds[j]]`, all joined into one string;
    every kind must index `seps`.

    The kernel runs over at most `_PASS_FLOATS` floats at a time.  A joiner
    keeps its row and mask buffers, and the bytes of the text it joins, from
    one call to the next, so a writer that joins many blocks allocates them
    once.
    """

    def __init__(self, seps: list[str]):
        # a row head per separator, "-0.000", 20 digit columns and the
        # separator; a mask per (separator, sign, columns after "0.")
        width = _TEXT + max(map(len, seps), default=0)
        self._heads = np.zeros((len(seps), width), dtype=np.uint8)
        self._heads[:, :6] = np.frombuffer(b"-0.000", dtype=np.uint8)
        for row, sep in zip(self._heads, seps):
            row[_TEXT : _TEXT + len(sep)] = np.frombuffer(sep.encode("ascii"), dtype=np.uint8)
        end, negative, after = np.ix_([_TEXT + len(s) for s in seps], [0, 1], range(_AFTER))
        column = np.arange(width)[:, None, None, None]
        keeps = (
            ((column == 0) & (negative == 1))
            | ((column >= 1) & (column < 3))
            | ((column >= _TEXT - after) & (column < _TEXT))
            | ((column >= _TEXT) & (column < end))
        )
        self._keeps = np.moveaxis(keeps, 0, -1).reshape(-1, width)
        self._rows = np.empty((_PASS_FLOATS, width), dtype=np.uint8)
        self._keep = np.empty(self._rows.shape, dtype=bool)
        self._text = np.empty(0, dtype=np.uint8)

    def __call__(self, values: np.ndarray, kinds: np.ndarray) -> str:
        if self._text.size < self._rows.shape[1] * len(values):
            self._text = np.empty(self._rows.shape[1] * len(values), dtype=np.uint8)
        end = 0
        for lo in range(0, len(values), _PASS_FLOATS):
            text = self._pass(values[lo : lo + _PASS_FLOATS], kinds[lo : lo + _PASS_FLOATS])
            self._text[end : end + len(text)] = text
            end += len(text)
        return str(self._text[:end], "ascii")

    def _pass(self, values: np.ndarray, kinds: np.ndarray) -> np.ndarray:
        # one uint8 row per float, its text columns and then its separator's,
        # and a mask of the characters each row keeps; row order keeps the
        # floats'.  The kernel runs on every lane with its exponent clipped to
        # the window's (2^-14 < 1e-4, so the window's exponent fields are 1009
        # to 1022), and the lanes outside the window, with an exact vr or with
        # more than _REMOVALS digits removed take the fallback's text.
        # e2 = exponent - 1023 - 52 - 2: Ryū scales the mantissa by 4
        bits = values.view(np.uint64)
        neg_e2 = 1077 - np.clip((bits >> np.uint64(52)) & np.uint64(0x7FF), 1009, 1022).astype(np.int64)
        q = ((neg_e2 * 732923) >> 20) - 1  # floor(-e2 log10 5) - 1
        i = neg_e2 - q
        m2 = (bits & _MANTISSA) | _HIDDEN
        # out: vr exact, m2 with at least q - 2 trailing zero bits; this takes
        # out the power-of-two m2 too, whose lower bound is nearer
        magnitude = np.abs(values)
        inexact = (m2 & ((np.uint64(1) << (q - 2).astype(np.uint64)) - np.uint64(1))) != 0
        digits, removed = _shortest(m2, q, i)
        slow = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1.0) & inexact & (removed <= _REMOVALS)))
        # x = digits * 10^-(i - removed) < 1, so the text after "0." is the
        # last i - removed columns of "000" and the zero-padded digits
        # (take's mode "clip" writes to `out` directly; "raise" buffers a copy)
        rows, keep = self._rows[: len(values)], self._keep[: len(values)]
        self._heads.take(kinds, axis=0, out=rows, mode="clip")
        rows[:, 6:_TEXT] = _digit_text(digits)
        self._keeps.take((kinds * 2 + (values < 0.0)) * _AFTER + i - removed, axis=0, out=keep, mode="clip")
        if slow.size:
            texts = _fallback_texts(values[slow])
            rows[slow, :_TEXT] = np.array(texts, dtype=f"S{_TEXT}").view(np.uint8).reshape(len(texts), _TEXT)
            keep[slow, :_TEXT] = _COLUMNS < np.array([len(t) for t in texts])[:, None]
        return rows[keep]
