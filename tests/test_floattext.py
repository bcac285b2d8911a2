"""The float kernel against `float.__repr__` and `json.dumps`, on its window.

`floattext.FloatJoiner` formats floats with 1e-4 <= |x| < 1 by a numpy
kernel and every other float by `float.__repr__`.  Uniform 64-bit patterns
land in that window about 4% of the time, so these strategies draw its
exponents, its edges, the mantissas the kernel leaves to the fallback and
short decimals, from which Ryū removes more digits than the kernel does.
"""

import json
import sys
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evobench.ladder import ladder_config
from evogrid import floattext
from evogrid.cli import _CHUNK_FLOATS, _json_chunks, main
from evogrid.scenario import encode_matrix

MANTISSA_BITS = 52
ONE_E4_BITS = int(np.float64(1e-4).view(np.uint64))
ONE_BITS = int(np.float64(1.0).view(np.uint64))

signs = st.sampled_from([0, 1 << 63])
# the window's exponent fields are 1009 (2^-14 < 1e-4) to 1022 (2^-1); two
# more on each side reach 2^-16 and 2.0
exponents = st.integers(1007, 1024)
mantissas = st.one_of(
    st.integers(0, (1 << MANTISSA_BITS) - 1),
    # many trailing zero bits, down to a power of two; from q - 2 = 35 to 44
    # of them, vr can be exact and the float takes the fallback
    st.tuples(st.integers(0, (1 << MANTISSA_BITS) - 1), st.integers(20, MANTISSA_BITS)).map(
        lambda mk: mk[0] >> mk[1] << mk[1]
    ),
)
window_bits = st.builds(lambda s, e, m: s | e << MANTISSA_BITS | m, signs, exponents, mantissas)
# the layout's edges: 1e-4, whose neighbours below print as 9.99...e-05, and
# 1.0, whose neighbours below print as 0.99...
edge_bits = st.builds(
    lambda s, edge, step: s | (edge + step), signs, st.sampled_from([ONE_E4_BITS, ONE_BITS]), st.integers(-3000, 3000)
)
# window floats rounded to 1 to 16 decimals, such as 0.1 or -0.0123: random
# mantissas almost never drop more than two or three digits
short_decimals = st.builds(
    lambda negative, x, k: -round(x, k) if negative else round(x, k),
    st.booleans(), st.floats(1e-4, 1.0, exclude_max=True), st.integers(1, 16),
)
window_floats = st.one_of(
    st.one_of(window_bits, edge_bits).map(lambda bits: float(np.uint64(bits).view(np.float64))), short_decimals
)


@settings(max_examples=300, deadline=None)
@given(st.lists(window_floats, min_size=1, max_size=64))
def test_each_window_float_is_its_repr(values):
    a = np.array(values, dtype=np.float64)
    text = floattext.FloatJoiner(["|"])(a, np.zeros(len(a), dtype=np.int64))
    assert text.split("|")[:-1] == [float.__repr__(x) for x in values]


# the layout's edges; powers of two; floats whose vr is exact and whose last
# digit Ryū's general case would round up where repr rounds half to even;
# and floats whose low product word carries into the high one when 2 * 5^i
# is added for vp, about one float in 2^11
EDGE_FLOATS = [
    1e-4, 1.0, 0.9999999999999999, 9.999999999999999e-05, 2.0**-14, 2.0**-13, 0.5, 0.375, 0.1,
    0.00010156631469726562, 0.0004892349243164062, 0.007814407348632812, 0.12500381469726562, 0.5000076293945312,
    0.00018317527365907906, 0.00040427789503378226,
    0.0, 5e-324, 1e16, float("nan"), float("inf"),
]


def test_edge_floats_are_their_repr_with_either_sign():
    a = np.array(EDGE_FLOATS + [-x for x in EDGE_FLOATS])
    joiner = floattext.FloatJoiner([",", ";"])
    expected = [floattext._NON_FINITE.get(text, text) for text in map(float.__repr__, a.tolist())]
    for kinds in (np.zeros(len(a), dtype=np.int64), np.arange(len(a)) % 2):
        assert joiner(a, kinds) == "".join(text + ",;"[k] for text, k in zip(expected, kinds))


def removed_digits(x: float) -> int:
    """The digits Ryū's general case removes from the vr of a float x in the
    window: i minus the columns repr writes after "0.", where x * 10^i is vr."""
    neg_e2 = 1077 - (int(np.float64(abs(x)).view(np.uint64)) >> MANTISSA_BITS)
    i = neg_e2 - (len(str(5**neg_e2)) - 2)  # q = floor(-e2 log10 5) - 1
    return i - (len(repr(abs(x))) - 2)


# floats that drop exactly _REMOVALS digits, which the kernel writes, and
# _REMOVALS + 1, which the fallback writes; exponent fields 1009, 1014, 1019
# and 1022, and none with an exact vr
DROP_KERNEL = [0.000106821203412745, 0.0020005832423784, 0.066115848306022, 0.79521404620914]
DROP_FALLBACK = [0.00010467440907654, 0.002156974146436, 0.09191078572364, 0.8403640857106]


def test_floats_that_drop_more_digits_than_the_kernel_removes_take_the_fallback(monkeypatch):
    assert [removed_digits(x) for x in DROP_KERNEL] == [floattext._REMOVALS] * len(DROP_KERNEL)
    assert [removed_digits(x) for x in DROP_FALLBACK] == [floattext._REMOVALS + 1] * len(DROP_FALLBACK)
    fallback, seen = floattext._fallback_texts, []
    monkeypatch.setattr(floattext, "_fallback_texts", lambda values: seen.extend(values.tolist()) or fallback(values))
    values = DROP_KERNEL + DROP_FALLBACK + [-x for x in DROP_KERNEL + DROP_FALLBACK]
    text = floattext.FloatJoiner(["|"])(np.array(values), np.zeros(len(values), dtype=np.int64))
    assert text.split("|")[:-1] == [float.__repr__(x) for x in values]
    assert sorted(seen) == sorted(DROP_FALLBACK + [-x for x in DROP_FALLBACK])


def test_a_join_holds_at_most_256_bytes_per_pass_float():
    # the kernel's temporaries live for one pass, so a join of 2^14 floats,
    # once a first one has sized the buffers the joiner keeps, traces at
    # most 256 bytes per pass float, or the string it returns, which is
    # built after the last pass
    values = np.random.default_rng(7).uniform(-1.0, 1.0, 1 << 14)
    kinds = np.arange(values.size) % 2
    join = floattext.FloatJoiner([", ", "],\n  ["])
    join(values, kinds)
    tracemalloc.start()
    try:
        text = join(values, kinds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(256 * floattext._PASS_FLOATS, sys.getsizeof(text))


def test_a_chunk_of_compute_is_whole_passes_of_arrays_under_the_mmap_threshold():
    # every join of compute's writer but an array's last runs full passes,
    # and a pass's uint64 lane arrays stay below glibc's default mmap
    # threshold, so they reuse heap space from pass to pass
    assert _CHUNK_FLOATS % floattext._PASS_FLOATS == 0
    assert 8 * floattext._PASS_FLOATS < 128 * 1024


@st.composite
def window_arrays(draw):
    shape = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple))
    values = draw(st.lists(window_floats, min_size=2 * int(np.prod(shape)), max_size=2 * int(np.prod(shape))))
    return np.array(values).view(np.complex128).reshape(shape)


@settings(max_examples=100, deadline=None)
@given(window_arrays())
def test_window_arrays_match_json_dumps(a):
    for doc, oracle in ((a, encode_matrix(a)), ({"b": [a], "a": 1}, {"b": [encode_matrix(a)], "a": 1})):
        assert "".join(_json_chunks(doc)) == json.dumps(oracle, sort_keys=True, indent=2)


def test_compute_formats_almost_every_float_of_a_dense_operator_in_the_kernel(monkeypatch, tmp_path):
    # rung 3x8's {1, 2} operator, the benchmark's compute workload: 512 x 512
    # complex entries, 524,288 floats.  Right bytes alone would not show that
    # the kernel ran, as the fallback writes the same text
    fallback, counts = floattext._fallback_texts, []
    monkeypatch.setattr(floattext, "_fallback_texts", lambda values: counts.append(values.size) or fallback(values))
    config, out = tmp_path / "rung.json", tmp_path / "ops.json"
    config.write_text(json.dumps(ladder_config(3, 8)), encoding="utf-8")
    assert main(["compute", str(config), "--subsets", "1,2", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").count(",") >= 2 * 512 * 512
    assert 0 < sum(counts) <= 0.02 * 2 * 512 * 512
