"""Deterministic randomness with a fully specified bit stream.

Every sampled object in this package (Gaussian matrices, Haar unitaries,
random grid functions, subset samples) is drawn through :class:`SplitMix64`
so that a seed written in a scenario file pins the stream down exactly,
independent of numpy's generator internals.  The generator is the classic
splitmix64 state transition:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output z XOR (z >> 31)

Derived quantities are defined on top of the raw 64-bit stream as follows.

uniform:        (next_uint64 >> 11) * 2^-53, a double in [0, 1).
integer(n):     next_uint64 mod n  (modulo reduction; the bias is irrelevant
                at the sample counts used here and keeps the rule trivial).
normal pair:    Box-Muller from two uniforms u1, u2 drawn in that order,
                r = sqrt(-2 ln(1 - u1)), theta = 2 pi u2,
                pair = (r cos theta, r sin theta).
standard_normal: the first component of a fresh normal pair (the second is
                discarded; no caching, so the stream position is always
                two uniforms per call).
complex_normal: (x + i y) / sqrt(2) with (x, y) one normal pair.
complex_matrix: entries drawn row-major, one complex_normal each.
haar_qr(g):     per n x n complex_normal matrix of a stack g (..., n, n), its
                QR with each column of Q multiplied by r_jj / |r_jj| (1 where
                r_jj = 0) so the R diagonal is positive and the distribution
                is exactly Haar (Mezzadri, Notices AMS 2007).  numpy runs one
                LAPACK QR per stack entry, so an entry has the bits of its
                own unstacked QR.
haar_unitary(n): haar_qr of one complex_matrix(n, n) draw, the one-entry case
                of the stacked rule: k Haar unitaries of orders n_1..n_k drawn
                in turn are one complex_matrix row of n_1^2 + ... + n_k^2
                entries, split in order and passed to haar_qr as stacks.

These rules are the contract; the tests draw them a scalar at a time as
the oracle that the vectorized draws match bit for bit.  splitmix64 is
counter-based, word k of seed s is mix(s + k * gamma), so the raw words of
one seed or of many (`raw_streams`) are one numpy uint64 expression, mixed
in blocks of 2^17 words, and a state advances by exactly `count`, or
2 * rows * cols, steps.  `normals` maps raw words, two per entry, to
complex normals; `complex_matrix` runs it on its own words.  A sampler
whose draw counts depend on earlier draws reads the largest count and walks
the words in the scalar draws' order; words past the last one it uses are
dropped.
The uniforms, sqrt, products and the division are numpy
operations, which are correctly rounded IEEE arithmetic.
`log`, `cos` and `sin` stay on libm through CPython, mapped over the vector:
numpy's `log` differs from `math.log` in the last bit on about 0.3% of
inputs, and numpy's float64 `sin`/`cos` dispatch to SIMD kernels that vary
with the CPU.  Each normal makes two CPython calls that reach libm:
  - `math.log(1 - u1)`, mapped by `itertools.starmap` over `zip` of the
    values: `math.log` takes an optional base, so it parses an argument
    tuple on every call, and `zip` hands `starmap` one reused 1-tuple
    instead of a new one per value;
  - `cmath.exp(i theta)`, whose real and imaginary parts are libm's
    cos theta and sin theta bit for bit: for a finite argument CPython
    computes exp(a + ib) as exp(a) cos b + i exp(a) sin b with libm's `exp`,
    `cos` and `sin`, and exp(0) is exactly 1, so both products are exact.
The division by sqrt(2) is written out as CPython's complex
quotient by a real s computes it,
    re = (x + y * 0.0) / s,  im = (y - x * 0.0) / s,
which keeps its signed zeros (x = -0.0, y >= +0.0 gives re = +0.0, not the
-0.0 of x / s) without depending on a Python version's complex rules.

Independent substreams come from `derive_seed(root, label)` which mixes the
root seed with the FNV-1a hash of a text label through one splitmix64 step.
FNV-1a reads a label's bytes in order, so `derive_seeds(root, labels)` hashes
the labels' common head once and continues its state over each label's tail
(`fnv1a64(tail, state)`); a head of characters is a head of UTF-8 bytes.
"""

from __future__ import annotations

import cmath
import math
from itertools import starmap
from os.path import commonprefix

import numpy as np

__all__ = ["SplitMix64", "derive_seed", "derive_seeds", "fnv1a64", "haar_qr", "normals", "raw_streams"]

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_TWO_PI = 2.0 * math.pi
_SQRT2 = math.sqrt(2.0)
_BLOCK = 1 << 16  # complex normals per vectorized step; bounds the working memory
# the same constants as numpy scalars, for the array form of the stream
_GAMMA_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def fnv1a64(text: str, state: int = _FNV_OFFSET) -> int:
    """FNV-1a hash of the UTF-8 bytes of `text`, as a 64-bit integer, continued
    from `state`: fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b)."""
    h = state
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def derive_seed(root: int, label: str) -> int:
    """A reproducible child seed for the named substream of `root`."""
    return _mix((int(root) ^ fnv1a64(label)) & MASK64)


def derive_seeds(root: int, labels: list[str]) -> list[int]:
    """derive_seed(root, label) for each label, with the labels' common head hashed once."""
    head = commonprefix(labels)
    root, state, cut = int(root), fnv1a64(head), len(head)
    return [_mix((root ^ fnv1a64(label[cut:], state)) & MASK64) for label in labels]


def raw_streams(seeds: list[int], counts: list[int]) -> np.ndarray:
    """The first counts[i] raw words of each `SplitMix64(seeds[i])`, in the
    order of the seeds, as one uint64 array: at position p, in the run of
    seed s from offset o, the word is mix(s + (p - o + 1) gamma)."""
    if any(c < 0 for c in counts):
        raise ValueError("count must be nonnegative")
    out = np.arange(1, sum(counts) + 1, dtype=np.uint64)
    out *= _GAMMA_U64
    lo = 0
    for seed, count in zip(seeds, counts):
        out[lo : lo + count] += np.uint64((int(seed) - lo * _GAMMA) & MASK64)
        lo += count
    for lo in range(0, len(out), 2 * _BLOCK):
        z = out[lo : lo + 2 * _BLOCK]
        z ^= z >> 30
        z *= _MIX1_U64
        z ^= z >> 27
        z *= _MIX2_U64
        z ^= z >> 31
    return out


def normals(words: np.ndarray, out: np.ndarray) -> None:
    """Write to the complex vector `out` the complex normals of `words`, two
    raw words per entry: entry i is the `complex_normal` of the uniforms of
    words 2i and 2i + 1 (see the module docstring)."""
    m = len(out)
    # the uniforms of the even words, then of the odd ones: no array of all
    # of them is held beside `words`; two libm calls per entry (module docstring)
    log = np.fromiter(starmap(math.log, zip((1.0 - (words[0::2] >> 11) * 2.0**-53).tolist())), np.float64, m)
    r = np.sqrt(-2.0 * log)
    turn = np.zeros(m, np.complex128)  # i theta, then exp(i theta) = cos theta + i sin theta
    turn.imag = _TWO_PI * ((words[1::2] >> 11) * 2.0**-53)
    turn = np.fromiter(map(cmath.exp, turn.tolist()), np.complex128, m)
    x = r * turn.real
    y = r * turn.imag
    pairs = out.view(np.float64)  # re, im interleaved
    pairs[0::2] = (x + y * 0.0) / _SQRT2
    pairs[1::2] = (y - x * 0.0) / _SQRT2


class SplitMix64:
    """splitmix64 stream with the derived draws documented in the module."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return _mix(self._state)

    def integers(self, bound: int, count: int) -> np.ndarray:
        """`count` integers in [0, bound) as a uint64 array, bit-identical to
        that many `integer(bound)` draws.  A draw is below 2^64, so a bound
        of 2^64 or more leaves it as it is."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        z = self._raw(count)
        return z % np.uint64(bound) if bound <= MASK64 else z

    def _raw(self, count: int) -> np.ndarray:
        """The next `count` raw outputs as one array."""
        z = raw_streams([self._state], [count])
        self._state = (self._state + count * _GAMMA) & MASK64
        return z

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        """`rows * cols` complex normals, row-major, bit-identical to
        that many `complex_normal` draws (see the module docstring)."""
        n = rows * cols
        out = np.empty((rows, cols), dtype=np.complex128)
        flat = out.reshape(n)
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            normals(self._raw(2 * m), flat[start : start + m])
        return out

    def haar_unitary(self, n: int) -> np.ndarray:
        """Haar-distributed n x n unitary via phase-normalized QR."""
        return haar_qr(self.complex_matrix(n, n))


def haar_qr(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex normal matrices (..., n, n), one per stack
    entry: the phase-normalized QR of the module docstring."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    # zero diagonal entries have probability zero; normalize defensively
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]
