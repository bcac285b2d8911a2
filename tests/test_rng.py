import cmath
import hashlib
import math
import subprocess
import sys
from itertools import starmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evogrid.rng import _BLOCK, MASK64, SplitMix64, derive_seed, derive_seeds, fnv1a64, haar_qr, normals, raw_streams

from conftest import complex_normal, integer, normal_pair, one_thread_env, parent_haar_rule, standard_normal, uniform


# published splitmix64 outputs for seed 0; any drift here breaks every
# seeded value in the package, so these are pinned first
SEED0_STREAM = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)


def test_seed0_known_answers():
    r = SplitMix64(0)
    assert [r.next_uint64() for _ in range(5)] == list(SEED0_STREAM)


def test_seed_1234567_known_answer():
    r = SplitMix64(1234567)
    assert r.next_uint64() == 0x599ED017FB08FC85
    assert r.next_uint64() == 0x2C73F08458540FA5


def test_uniform_matches_bit_contract():
    r1, r2 = SplitMix64(99), SplitMix64(99)
    raw = r2.next_uint64()
    assert uniform(r1) == (raw >> 11) * 2.0**-53
    assert 0.0 <= uniform(r1) < 1.0


def test_integer_is_modulo_reduction():
    r1, r2 = SplitMix64(5), SplitMix64(5)
    raw = r2.next_uint64()
    assert integer(r1, 17) == raw % 17
    with pytest.raises(ValueError):
        integer(r1, 0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=MASK64),
    st.one_of(st.integers(min_value=1, max_value=2**70), st.sampled_from([1, 2**63, MASK64, 2**64, 2**64 + 1, 2**200])),
    st.integers(min_value=0, max_value=40),
)
def test_integers_equal_the_scalar_stream(seed, bound, count):
    r1, r2 = SplitMix64(seed), SplitMix64(seed)
    drawn = r1.integers(bound, count)
    assert drawn.dtype == np.uint64 and drawn.shape == (count,)
    assert drawn.tolist() == [integer(r2, bound) for _ in range(count)]
    # the stream continues where the scalar calls leave it
    assert r1.next_uint64() == r2.next_uint64()


def test_integers_rejects_a_nonpositive_bound_or_count():
    r = SplitMix64(5)
    for bound, count in ((0, 3), (-1, 3), (5, -1)):
        with pytest.raises(ValueError):
            r.integers(bound, count)
    assert r.next_uint64() == SplitMix64(5).next_uint64()


def test_standard_normal_consumes_two_uniforms():
    r1, r2 = SplitMix64(3), SplitMix64(3)
    standard_normal(r1)
    uniform(r2)
    uniform(r2)
    assert r1.next_uint64() == r2.next_uint64()


def test_complex_matrix_row_major_order():
    r1, r2 = SplitMix64(21), SplitMix64(21)
    m = r1.complex_matrix(2, 3)
    flat = [complex_normal(r2) for _ in range(6)]
    assert m.shape == (2, 3)
    assert list(m.ravel()) == flat


# state 0 is reached on the first draw, and mix(0) = 0: the first uniform
# is exactly 0.0, so r = sqrt(-2 * log(1.0)) = -0.0 and x = -0.0
ZERO_FIRST_DRAW_SEED = (-0x9E3779B97F4A7C15) & MASK64


def test_complex_matrix_bits_equal_scalar_stream():
    # 4 x 70,000 draws, across a vectorized block boundary; libm log differs
    # from numpy's on about 0.3% of inputs
    for seed in (0, 91, 1234567, ZERO_FIRST_DRAW_SEED):
        vector, scalar = SplitMix64(seed), SplitMix64(seed)
        drawn = vector.complex_matrix(280, 250)
        expect = np.array([complex_normal(scalar) for _ in range(70_000)], dtype=np.complex128)
        assert drawn.ravel().tobytes() == expect.tobytes(), seed


def test_complex_matrix_keeps_complex_division_zero_signs():
    r = SplitMix64(ZERO_FIRST_DRAW_SEED)
    assert uniform(r) == 0.0
    x, y = normal_pair(SplitMix64(ZERO_FIRST_DRAW_SEED))
    assert math.copysign(1.0, x) == -1.0 and math.copysign(1.0, y) == 1.0
    z = SplitMix64(ZERO_FIRST_DRAW_SEED).complex_matrix(1, 1)[0, 0]
    # complex division gives (-0.0 + 0.0 * 0.0) / sqrt(2) = +0.0, not x / sqrt(2)
    assert math.copysign(1.0, z.real) == 1.0
    assert math.copysign(1.0, z.imag) == 1.0


@pytest.mark.parametrize("counts", [[], [0], [1], [0, 1, 0], [2 * _BLOCK + 3], [5, 2 * _BLOCK - 1, 0, 7]])
@pytest.mark.parametrize("start", [0, 1, 2 * _BLOCK])
def test_raw_streams_are_each_seed_s_own_words(counts, start):
    # a leading run of `start` words of another seed puts the runs under test
    # at an offset in the array, past a block when it is 2 _BLOCK: each run
    # is still its seed's words from the first one
    seeds = [(0, 91, ZERO_FIRST_DRAW_SEED, 1234567)[i % 4] + i for i in range(len(counts))]
    words = raw_streams([7, *seeds], [start, *counts])
    assert words.dtype == np.uint64 and words.shape == (start + sum(counts),)
    assert words[:start].tobytes() == SplitMix64(7)._raw(start).tobytes()
    expected = [SplitMix64(seed)._raw(count) for seed, count in zip(seeds, counts)]
    assert words[start:].tobytes() == np.concatenate([np.empty(0, np.uint64), *expected]).tobytes()
    # the scalar stream, for the short reads
    if sum(counts) < 100:
        scalar = []
        for seed, count in zip(seeds, counts):
            r = SplitMix64(seed)
            scalar += [r.next_uint64() for _ in range(count)]
        assert words[start:].tolist() == scalar


def test_raw_streams_rejects_a_negative_count():
    with pytest.raises(ValueError):
        raw_streams([1, 2], [3, -1])


@pytest.mark.parametrize("seed", [0, 91, ZERO_FIRST_DRAW_SEED])
@pytest.mark.parametrize("count", [0, 1, 7, _BLOCK + 5])
def test_normals_are_complex_matrix_bit_for_bit(seed, count):
    out = np.empty(count, dtype=np.complex128)
    normals(SplitMix64(seed)._raw(2 * count), out)
    assert out.tobytes() == SplitMix64(seed).complex_matrix(1, count).tobytes()
    if seed == ZERO_FIRST_DRAW_SEED and count:
        # the first entry keeps complex division's +0.0 real part
        assert out[0].real == 0.0 and math.copysign(1.0, out[0].real) == 1.0


def test_normals_read_two_words_per_entry_across_substreams():
    seeds, counts = [3, ZERO_FIRST_DRAW_SEED, 5], [1, 3, 2]
    out = np.empty(sum(counts), dtype=np.complex128)
    normals(raw_streams(seeds, [2 * c for c in counts]), out)
    expect = []
    for seed, count in zip(seeds, counts):
        r = SplitMix64(seed)
        expect += [complex_normal(r) for _ in range(count)]
    assert out.tobytes() == np.array(expect, dtype=np.complex128).tobytes()


# -- the libm calls behind `normals` ----------------------------------------------


def _exp_parts(theta):
    z = cmath.exp(complex(0.0, theta))
    return z.real.hex(), z.imag.hex()


def _numpy_exp_parts(thetas):
    """The parts of numpy's complex exp of i theta, as `normals` forms it."""
    turn = np.zeros(len(thetas), np.complex128)
    turn.imag = thetas
    np.exp(turn, out=turn)
    return [(z.real.hex(), z.imag.hex()) for z in turn.tolist()]


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True))
def test_cmath_exp_of_i_theta_is_libm_cos_and_sin_bit_for_bit(theta):
    libm = (math.cos(theta).hex(), math.sin(theta).hex())
    assert _exp_parts(theta) == libm
    assert _numpy_exp_parts([theta]) == [libm]


@pytest.mark.parametrize("point", [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi])
def test_cmath_exp_is_cos_and_sin_at_the_quarter_turns_and_their_neighbours(point):
    # where cos or sin crosses zero, and below a full turn, the largest theta
    for theta in (math.nextafter(point, -math.inf), point, math.nextafter(point, math.inf)):
        if 0.0 <= theta < 2 * math.pi:
            assert _exp_parts(theta) == (math.cos(theta).hex(), math.sin(theta).hex()), theta


def _grid_theta(words):
    """theta = 2 pi u of the uniforms of `words`, as `normals` forms it."""
    return 2.0 * math.pi * ((np.asarray(words, np.uint64) >> 11) * 2.0**-53)


def test_numpy_exp_of_i_theta_is_cmath_exp_and_libm_cos_and_sin_bit_for_bit():
    # 2^18 Box-Muller angles of one seed, and the edges of glibc's branches:
    # theta = 0 and one grid step, below 2^-27 (where sin and cos take their
    # tiny-argument paths), each side of 0.855469 and 2.426265 (where
    # sin/cos switch between reductions), the quarter turns, and the largest
    # grid theta below 2 pi
    edges = [0.0, 2.0 * math.pi * 2.0**-53, 2.0**-28, math.nextafter(2.0**-27, 0.0), 2.0**-1022, 5e-324]
    for point in (0.855469, 2.426265, math.pi / 2, math.pi, 3 * math.pi / 2):
        edges += [math.nextafter(point, 0.0), point, math.nextafter(point, math.inf)]
    largest = _grid_theta([MASK64])[0]
    assert largest < 2 * math.pi
    thetas = np.concatenate([_grid_theta(SplitMix64(2024)._raw(1 << 18)), edges, [largest]])
    numpy_parts = _numpy_exp_parts(thetas)
    theta_list = thetas.tolist()
    assert numpy_parts == [_exp_parts(theta) for theta in theta_list]
    assert numpy_parts == [(math.cos(theta).hex(), math.sin(theta).hex()) for theta in theta_list]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), max_size=50))
def test_starmap_over_zip_is_the_mapped_log(values):
    assert [x.hex() for x in starmap(math.log, zip(values))] == [x.hex() for x in map(math.log, values)]


class _Words:
    """A stream that hands out given raw words, for the scalar oracle."""

    def __init__(self, words):
        self._words = iter(words)

    def next_uint64(self):
        return next(self._words)


def test_normals_keep_the_scalar_signed_zeros_where_a_uniform_is_zero():
    # words below 2^11 give the uniform 0.0: u1 = 0 makes r = sqrt(-2 log 1) =
    # -0.0, and u2 = 0 makes theta = 0.0, sin theta = 0.0; every pairing of
    # them with each other and with nonzero uniforms
    small = [0, 1, 2**11 - 1]
    other = SplitMix64(5)._raw(4).tolist()
    pairs = [(u1, u2) for u1 in small + other for u2 in small + other]
    words = np.array([w for pair in pairs for w in pair], dtype=np.uint64)
    out = np.empty(len(pairs), dtype=np.complex128)
    normals(words, out)
    expect = [complex_normal(_Words(pair)) for pair in pairs]
    assert out.tobytes() == np.array(expect, dtype=np.complex128).tobytes()
    x, y = normal_pair(_Words((0, 0)))
    assert (x.hex(), y.hex()) == ("-0x0.0p+0", "-0x0.0p+0")


def test_normals_make_one_log_call_per_entry_and_no_exp_cos_or_sin_call(monkeypatch):
    calls = dict.fromkeys(("log", "exp", "cos", "sin"), 0)

    def counted(module, name, key):
        original = getattr(module, name)

        def spy(*args):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, spy)

    counted(math, "log", "log")
    counted(cmath, "exp", "exp")
    counted(math, "cos", "cos")
    counted(math, "sin", "sin")
    out = np.empty(37, dtype=np.complex128)
    normals(SplitMix64(8)._raw(2 * 37), out)
    assert calls == {"log": 37, "exp": 0, "cos": 0, "sin": 0}


@pytest.mark.parametrize("shape", [(0, 4), (1, 1), (3, 5), (17, 2), (300, 300)])
def test_complex_matrix_advances_two_uniforms_per_entry(shape):
    r1, r2 = SplitMix64(44), SplitMix64(44)
    r1.complex_matrix(*shape)
    for _ in range(2 * shape[0] * shape[1]):
        uniform(r2)
    assert r1.next_uint64() == r2.next_uint64()


def test_complex_matrix_512_frozen_digest():
    m = SplitMix64(91).complex_matrix(512, 512)
    assert hashlib.sha256(m.tobytes()).hexdigest() == (
        "9bb231827a00bb4f41166877a2eb81465b68df4a5b18ec56adc59825b6f97664"
    )


def test_haar_unitary_128_frozen_digest_at_one_blas_thread():
    # QR rounding depends on the BLAS thread count, so pin it in a fresh process
    code = (
        "import hashlib; from evogrid.rng import SplitMix64; "
        "print(hashlib.sha256(SplitMix64(91).haar_unitary(128).tobytes()).hexdigest())"
    )
    result = subprocess.run([sys.executable, "-c", code], env=one_thread_env(), capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "02915ff8a0104873e9df84aa208ae58f4379d3027c4364c40665954e5c49842a"


def test_haar_unitary_is_unitary_and_deterministic():
    u1 = SplitMix64(77).haar_unitary(5)
    u2 = SplitMix64(77).haar_unitary(5)
    assert np.array_equal(u1, u2)
    assert np.allclose(u1 @ u1.conj().T, np.eye(5), atol=1e-12)
    # phase normalization leaves the implied R diagonal positive
    g = SplitMix64(77).complex_matrix(5, 5)
    r = u1.conj().T @ g
    assert np.all(np.diagonal(r).real > 0)
    assert np.allclose(np.diagonal(r).imag, 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_haar_qr_of_a_stack_is_the_per_matrix_rule_bit_for_bit(n):
    g = SplitMix64(60 + n).complex_matrix(6, n * n).reshape(6, n, n)
    g[2] = 0.0  # every R diagonal entry zero: the guard replaces each phase by 1
    g[3] = -0.0
    g[4, :, 0] = 0.0  # a zero first column: only r_11 is zero
    stacked = haar_qr(g)
    for k in range(6):
        assert stacked[k].tobytes() == parent_haar_rule(g[k]).tobytes(), k
    assert np.array_equal(stacked[2], np.eye(n)) and np.array_equal(stacked[3], np.eye(n))
    assert np.isfinite(stacked).all()


@pytest.mark.parametrize("n", [1, 4, 9])
def test_haar_unitary_is_the_one_entry_case_of_the_stacked_rule(n):
    for seed in (7, ZERO_FIRST_DRAW_SEED):
        r1, r2 = SplitMix64(seed), SplitMix64(seed)
        assert r1.haar_unitary(n).tobytes() == parent_haar_rule(r2.complex_matrix(n, n)).tobytes()
        assert r1.next_uint64() == r2.next_uint64()


def test_fnv1a64_known_answers():
    # reference FNV-1a 64-bit values
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_derive_seed_stable_and_label_sensitive():
    s1 = derive_seed(42, "alpha")
    s2 = derive_seed(42, "alpha")
    s3 = derive_seed(42, "beta")
    assert s1 == s2
    assert s1 != s3
    assert 0 <= s1 <= MASK64


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=12), st.text(max_size=12))
def test_fnv1a64_continues_from_a_state(head, tail):
    assert fnv1a64(tail, fnv1a64(head)) == fnv1a64(head + tail)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=MASK64), st.text(max_size=6), st.lists(st.text(max_size=8), max_size=6))
def test_derive_seeds_is_derive_seed_per_label(root, head, tails):
    labels = [head + tail for tail in tails]
    assert derive_seeds(root, labels) == [derive_seed(root, label) for label in labels]
