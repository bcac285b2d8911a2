import hashlib
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evogrid import (
    CapExceededError,
    ConfigError,
    DomainError,
    Tolerances,
    builtin_scenario,
    canonical_json,
    load_scenario,
    pullback_along,
    run_suite,
    scenario_from_dict,
)
from evogrid.cli import _CHUNK_FLOATS, _json_chunks, main
from evogrid.suites import SUITE_NAMES
from evogrid.scenario import decode_matrix, encode_matrix

from conftest import integer, one_thread_env


def minimal_config(**overrides):
    cfg = {
        "name": "tiny",
        "seed": 5,
        "algebra": {"blocks": [2]},
        "time_frame": {"times": ["1"], "weights": {"1": "1"}, "sigma0": "all"},
        "grids": {"1": {"named": ["identity", "trace_average"]}},
        "dynamics": {
            "kind": "action_weight",
            "weights": [
                {"times": [], "values": [[1.0, 0.0]]},
                {"times": ["1"], "values": [[1.0, 0.0], [-1.0, 0.0]]},
            ],
        },
    }
    cfg.update(overrides)
    return cfg


# -- config plumbing -----------------------------------------------------------


def test_matrix_codec_roundtrip():
    m = np.array([[1.0 + 2.0j, 0.0], [-0.5j, 3.0]])
    again = decode_matrix(encode_matrix(m), "test")
    assert np.array_equal(m, again)


def test_canonical_json_is_sorted_and_compact():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}'


def test_minimal_config_loads():
    scn = load_scenario(minimal_config())
    assert scn.name == "tiny"
    assert scn.space.dimension == 2
    assert scn.conjugated is None
    assert scn.lagrangian is None


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        load_scenario(minimal_config(bogus=1))


def _demo_with_grid_unitaries(cfg):
    cfg["grids"]["1"] = {"unitaries": [{"blocks": [encode_matrix(np.eye(2)), encode_matrix(np.eye(3))], "prem": []}]}


# one misspelt key per nested scenario object, keyed by where it sits
MISSPELT_KEYS = {
    "time_frame": ("demo", ("time_frame",), "sigma", [[], ["1"]]),
    "algebra": ("demo", ("algebra",), "block", [2]),
    "grids[t]": ("demo", ("grids", "1"), "seeds", 3),
    "grids[t].haar": ("demo", ("grids", "1", "haar"), "cont", 3),
    "grids[t].unitaries[i]": ("demo", None, None, _demo_with_grid_unitaries),
    "dynamics": ("demo", ("dynamics",), "term", {}),
    "dynamics.terms[t]": ("demo", ("dynamics", "terms", "1"), "postmap", "abs"),
    "post_map": ("demo", ("dynamics", "terms", "1"), "post_map", {"name": "abs2", "scal": 5}),
    "probe": ("demo", ("dynamics", "terms", "1", "probe"), "pair", []),
    "probe.pairs[i]": ("demo", ("dynamics", "terms", "1", "probe", "pairs", 0), "densty", []),
    "reference": ("demo", ("dynamics", "terms", "1", "reference"), "grid_idx", 1),
    "conjugator": ("demo", ("conjugator",), "matrx", []),
    "conjugator.haar": ("demo", ("conjugator", "haar"), "sed", 1),
    "dynamics.weights[i]": ("witness", ("dynamics", "weights", 1), "time", ["1"]),
}


@pytest.mark.parametrize("where", list(MISSPELT_KEYS))
def test_misspelt_nested_key_exits_with_config_error(tmp_path, where):
    builtin, path, key, value = MISSPELT_KEYS[where]
    cfg = builtin_scenario(builtin)
    if path is None:
        value(cfg)
    else:
        node = cfg
        for step in path:
            node = node[step]
        node[key] = value
    scenario_path = tmp_path / "misspelt.json"
    scenario_path.write_text(json.dumps(cfg))
    assert main(["verify", str(scenario_path)]) == 2


def test_weights_must_be_decimal_strings():
    cfg = minimal_config()
    cfg["time_frame"] = {"times": ["1"], "weights": {"1": 0.5}}
    with pytest.raises(ConfigError):
        load_scenario(cfg)
    cfg["time_frame"] = {"times": ["1"], "weights": {"1": "half"}}
    with pytest.raises(ConfigError):
        load_scenario(cfg)


def test_tolerances_parsing():
    t = Tolerances.from_config({"dynamics": 1e-9})
    assert t.dynamics == 1e-9
    assert t.exact == 0.0
    with pytest.raises(ConfigError):
        Tolerances.from_config({"nope": 1.0})
    scn = load_scenario(minimal_config(tolerances={"unitary": 1e-8}))
    assert scn.tolerances.unitary == 1e-8


@pytest.mark.parametrize(
    "key, value",
    [
        (("tolerances", "exact"), float("nan")),
        (("tolerances", "conjugated"), float("inf")),
        (("tolerances", "exact"), True),
        (("tolerances", "unitary"), -1e-9),
        (("witness_threshold",), float("nan")),
        (("witness_threshold",), float("-inf")),
        (("witness_threshold",), True),
        (("witness_threshold",), -1.0),
    ],
    ids=["exact-nan", "conjugated-inf", "exact-bool", "unitary-negative", "threshold-nan", "threshold-ninf",
         "threshold-bool", "threshold-negative"],
)
def test_unusable_tolerance_exits_with_config_error(tmp_path, key, value):
    # NaN fails every "deviation <= tol", infinity passes every one, a
    # negative threshold passes every witness value, and a boolean would
    # load as 0.0 or 1.0
    cfg = builtin_scenario("witness")
    if len(key) == 2:
        cfg.setdefault(key[0], {})[key[1]] = value
    else:
        cfg[key[0]] = value
    path = tmp_path / "tolerance.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path)]) == 2


def test_fingerprint_tracks_effective_config():
    a = load_scenario(minimal_config())
    b = load_scenario(minimal_config())
    c = load_scenario(minimal_config(), seed_override=99)
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint
    assert c.seed == 99


def test_builtin_scenarios_load_and_differ():
    demo = load_scenario("demo")
    witness = load_scenario("witness")
    assert demo.space.dimension == 12
    assert demo.lagrangian is not None
    assert demo.conjugated is not None
    assert witness.witness_threshold == 0.1
    assert witness.conjugated is not None
    assert np.allclose(
        witness.conjugated.conjugator @ witness.conjugated.conjugator.conj().T, np.eye(2), atol=1e-12
    )
    assert demo.fingerprint != witness.fingerprint


def test_builtin_scenario_dicts_are_fresh_copies():
    one = builtin_scenario("demo")
    one["seed"] = 1000
    assert builtin_scenario("demo")["seed"] != 1000


def test_cap_env_var_overrides(monkeypatch):
    monkeypatch.setenv("EVOGRID_DENSE_CAP", "4")
    with pytest.raises(CapExceededError):
        load_scenario("demo")
    monkeypatch.setenv("EVOGRID_DENSE_CAP", "not-a-number")
    with pytest.raises(ConfigError):
        load_scenario(minimal_config())


def test_incomplete_weight_family_rejected():
    cfg = minimal_config()
    cfg["dynamics"]["weights"] = cfg["dynamics"]["weights"][:1]
    with pytest.raises(ConfigError):
        load_scenario(cfg)


def test_scenario_accepts_dict_or_name_or_path(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(minimal_config()))
    from_path = load_scenario(str(path))
    from_dict = load_scenario(minimal_config())
    assert from_path.fingerprint == from_dict.fingerprint


# -- suite engine ----------------------------------------------------------------


def test_run_suite_selection_and_tags():
    scn = load_scenario("demo")
    report = run_suite(scn, ["spectral"])
    assert report.suites == ("spectral",)
    assert report.records
    for record in report.records:
        assert record.theorem.startswith(("T3.", "C3.", "P3."))
    assert report.overall_pass


def test_run_suite_skips_absent_components():
    scn = load_scenario(minimal_config())
    report = run_suite(scn, ["conjugation", "lagrangian"])
    assert report.records == ()


def sixty_four_point_scenario():
    # two times with 8 Haar maps each: the full subset has 64 points, so
    # subset ids no longer fit a fixed-width integer
    cfg = builtin_scenario("demo")
    term = cfg["dynamics"]["terms"]["1"]
    cfg["time_frame"] = {"times": ["1", "2"], "weights": {"1": "0.5", "2": "0"}}
    cfg["grids"] = {t: {"haar": {"count": 8, "seed": 100 + int(t)}} for t in ("1", "2")}
    cfg["dynamics"]["terms"] = {"1": term, "2": term}
    del cfg["conjugator"]
    scn = load_scenario(cfg)
    assert scn.space.dimension == 64
    return scn


def test_spectral_suite_passes_at_64_points():
    report = run_suite(sixty_four_point_scenario(), ["spectral"])
    assert len(report.records) == 14
    assert report.overall_pass


def test_projection_diagonals_match_the_id_bit_test():
    # point x is in the set of id i exactly when bit restricted[x] of i is
    # set; rows come out C-ordered, because BLAS sums in layout order; a
    # conjugated measure keeps the same diagonal rule
    from evogrid.representation import conjugate
    from evogrid.suites import _bit_rows

    scn = sixty_four_point_scenario()
    reversal = np.eye(scn.space.dimension)[::-1]
    for rep in (scn.representation, conjugate(reversal, scn.representation)):
        for subset in scn.frame.admissible():
            k = scn.space.npoints(subset)
            restricted = scn.space.restricted_index_array(subset)
            ids = [0, 1, (1 << k) - 1, (1 << k) // 3, (1 << (k - 1)) + 5]
            got = rep.spectral_measure(subset).diagonals(_bit_rows(ids, k))
            expected = np.array([[(i >> int(r)) & 1 for r in restricted] for i in ids], dtype=np.int64)
            assert got.flags.c_contiguous
            assert np.array_equal(got, expected)


def test_sampled_point_sets_are_the_labeled_draws(monkeypatch):
    # the 64-point subset is sampled: each check draws the sorted distinct
    # ids of its labeled substream, so an exact check reading 0.0 still
    # covers the same sets
    from evogrid import suites
    from evogrid.rng import SplitMix64, derive_seed

    scn = sixty_four_point_scenario()
    full = sorted(map(str, scn.space.full))
    expected = {f"pushforward-{full}": 256, f"injectivity-{full}": 512, "injectivity-full": 512}
    drawn = {}
    point_set, chunks = suites._point_set, suites._point_set_chunks
    offsets, family = scn.space.family_offsets(), scn.frame.admissible()

    def spy_chunks(scn, prefix, exhaustive, samples):
        # each subset's first `count` rows over its part of the chunk's flat rows
        for lo, hi, rows, count in chunks(scn, prefix, exhaustive, samples):
            for i in range(lo, hi):
                part = rows[: count[i - lo], offsets[i] - offsets[lo] : offsets[i + 1] - offsets[lo]]
                drawn[f"{prefix}-{sorted(map(str, family[i]))}"] = part
            yield lo, hi, rows, count

    monkeypatch.setattr(suites, "_point_set",
                        lambda scn, label, *args: drawn.setdefault(label, point_set(scn, label, *args)))
    monkeypatch.setattr(suites, "_point_set_chunks", spy_chunks)
    suites._check_atoms(scn)
    suites._check_injectivity(scn)
    for label, samples in expected.items():
        rng = SplitMix64(derive_seed(scn.seed, label))
        ids = sorted({integer(rng, 1 << 64) for _ in range(samples)})
        assert [sum(1 << int(b) for b in np.flatnonzero(row)) for row in drawn[label]] == ids


def _ids_of_words(words, k):
    # ceil(k / 64) raw words per set, low word first, top word masked to k
    nwords = -(-k // 64)
    ids = []
    for i in range(0, len(words), nwords):
        ids.append(sum(w << (64 * j) for j, w in enumerate(words[i : i + nwords])) & ((1 << k) - 1))
    return ids


def _row_ids(rows):
    return [sum(1 << int(b) for b in np.flatnonzero(row)) for row in rows]


def test_sampled_point_sets_past_64_points_reach_every_point():
    # rung 3x5 has N = 125 points: a set is two raw words of its labeled
    # substream, and the sets are the sorted distinct ids
    from evobench.ladder import ladder_config
    from evogrid import suites
    from evogrid.rng import SplitMix64, derive_seed

    scn = scenario_from_dict(ladder_config(3, 5))
    n = scn.space.dimension
    rows = suites._point_set(scn, "injectivity-full", n, 4096, 512)
    assert rows.shape[1] == n and rows[:, 64:].any(axis=0).all()
    rng = SplitMix64(derive_seed(scn.seed, "injectivity-full"))
    assert _row_ids(rows) == sorted(set(_ids_of_words([rng.next_uint64() for _ in range(2 * 512)], n)))


@pytest.mark.parametrize("k", [1, 63, 64, 65, 128, 130])
def test_multi_word_ids_stay_below_two_to_the_k(k):
    from evogrid import suites
    from evogrid.rng import SplitMix64

    ids = suites._random_ids(SplitMix64(k).integers(1 << 64, 300 * -(-k // 64)), k)
    assert ids.shape == (300, -(-k // 64))
    if k <= 64:
        # one masked word is one integer(2^k) draw
        assert np.array_equal(ids[:, 0], SplitMix64(k).integers(1 << k, 300))
    assert all(sum(int(w) << (64 * j) for j, w in enumerate(row)) < 1 << k for row in ids)
    assert suites._bit_rows(ids, k)[:, k - 1].any()


def test_embedding_measure_catches_swapped_broadcast_axes(monkeypatch):
    # the lifted side pulls back through the digit-built image, the measure
    # side gathers through the table; a pullback that swaps two grid axes
    # permutes the lifted diagonals and must show
    from evogrid import suites

    scn = load_scenario("demo")
    assert suites._check_embedding_measure(scn)[0][2] == 0.0

    def swapped(space, values, image, lo):
        rows = pullback_along(space, values, image, lo)
        cube = rows.reshape(*rows.shape[:2], *space.full_shape())
        return np.ascontiguousarray(cube.swapaxes(2, 3)).reshape(rows.shape)

    monkeypatch.setattr(suites, "pullback_along", swapped)
    [(check, _, deviation, tolerance)] = suites._check_embedding_measure(scn)
    assert check == "embedding-measure"
    assert deviation > tolerance


def test_report_body_is_deterministic():
    scn = load_scenario("demo")
    body1 = run_suite(scn, ["algebra"]).body_lines()
    body2 = run_suite(scn, ["algebra"]).body_lines()
    assert body1 == body2
    summary = json.loads(body1[-1])
    assert summary["summary"] is True
    assert summary["scenario"] == "demo"


# -- command line -----------------------------------------------------------------


def test_cli_verify_pass_and_report(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main(["verify", "demo", "--suite", "dynamics", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1]["pass"] is True
    for record in records[:-1]:
        assert set(record) == {"check", "theorem", "max_deviation", "tolerance", "pass"}


def test_cli_verify_reports_failure(tmp_path):
    cfg = minimal_config()
    cfg["dynamics"]["weights"][1]["values"] = [[1.0, 0.0], [0.6, 0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = main(["verify", str(path), "--suite", "dynamics"])
    assert code == 1


def test_cli_verify_seed_override_changes_fingerprint(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["verify", "witness", "--suite", "dynamics", "--out", str(out1)]) == 0
    assert main(["verify", "witness", "--suite", "dynamics", "--seed", "8", "--out", str(out2)]) == 0
    s1 = json.loads(out1.read_text().strip().splitlines()[-1])
    s2 = json.loads(out2.read_text().strip().splitlines()[-1])
    assert s1["fingerprint"] != s2["fingerprint"]
    assert s2["seed"] == 8


def test_cli_exit_code_on_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2


def test_cli_exit_code_on_missing_file():
    assert main(["verify", "/definitely/not/here.json"]) == 2


def test_cli_exit_code_on_non_finite_deviation(monkeypatch):
    from evogrid import suites

    def overflowing(scn):
        return [("overflowing", "S2", float("nan"), 0.0)]

    monkeypatch.setitem(suites._SUITES, "algebra", [overflowing])
    assert main(["verify", "demo"]) == 5


@pytest.mark.parametrize(
    "matrix",
    [[[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], [[[1.0, 0.0]]]],
    ids=["non-unitary", "wrong-size"],
)
def test_cli_exit_code_on_bad_conjugator_matrix(tmp_path, matrix):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal_config(conjugator={"matrix": matrix})))
    assert main(["verify", str(path)]) == 2


def test_each_conjugator_is_checked_once(monkeypatch, tmp_path):
    # the conjugated representation checks W when the scenario builds it;
    # suites, the commutant witness and compute read it without checking again
    import evogrid.representation as representation

    calls = []
    original = representation.check_unitary

    def counting(u):
        calls.append(np.shape(u))
        return original(u)

    monkeypatch.setattr(representation, "check_unitary", counting)
    run_suite(load_scenario("demo"), ["all"])
    assert calls == [(12, 12)]
    calls.clear()
    assert main(["compute", "demo", "--subsets", "1,2;3;-", "--out", str(tmp_path / "ops.json")]) == 0
    assert calls == [(12, 12)]
    assert_indented_json((tmp_path / "ops.json").read_text())


def test_each_conjugated_dense_matrix_is_built_once_per_check(monkeypatch):
    # conjugation-covariance reads only sampled columns and builds no dense
    # matrix; the witness builds each twisted unitary once, for the bounds of
    # every commutator with it
    from evogrid import commutant_witness, suites
    from evogrid.representation import ConjugatedDiagonalOperator

    scn = load_scenario("demo")
    calls = []
    original = ConjugatedDiagonalOperator.to_dense

    def counting(self):
        calls.append(self.dimension)
        return original(self)

    monkeypatch.setattr(ConjugatedDiagonalOperator, "to_dense", counting)
    suites._check_conjugation_covariance(scn)
    assert calls == []
    commutant_witness(scn.weight, scn.representation, scn.conjugated)
    assert len(calls) == len(scn.weight.domain())


@pytest.mark.parametrize("where", ["conjugator", "weight", "grid"])
def test_cli_exit_code_on_non_finite_input(tmp_path, where):
    # a NaN must stop at load; reaching an SVD it makes LAPACK raise
    nan = float("nan")
    one = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    broken = [[[nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    if where == "conjugator":
        cfg = minimal_config(conjugator={"matrix": broken})
    elif where == "grid":
        cfg = minimal_config(grids={"1": {"unitaries": [[one], [broken]]}})
    else:
        cfg = minimal_config()
        cfg["dynamics"]["weights"][1]["values"][1] = [nan, 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path)]) == 2


def test_cli_exit_code_on_a_nan_after_the_first_deviation(monkeypatch):
    # built-in max keeps its running value against NaN; the suites' maxima
    # must let it through so that the runner aborts.  The third operator
    # norm under the spectral suite is diagonal-calculus's product law on
    # its second pair, after finite deviations on the first.
    from evogrid.representation import DiagonalOperator

    calls = []
    original = DiagonalOperator.norm

    def third_is_nan(self):
        calls.append(original(self))
        return calls[-1] if len(calls) != 3 else float("nan")

    monkeypatch.setattr(DiagonalOperator, "norm", third_is_nan)
    assert main(["verify", "demo", "--suite", "spectral"]) == 5
    assert len(calls) > 3


def test_cli_exit_code_on_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("EVOGRID_DENSE_CAP", "4")
    assert main(["verify", "demo", "--suite", "algebra"]) == 3


@pytest.mark.parametrize("count", [5000, 10**400], ids=["5000", "1e400"])
def test_an_over_cap_grid_exits_3_before_any_draw(count, tmp_path, monkeypatch, capsys):
    from evogrid import algebra, rng

    calls = []
    for module in (algebra, rng):
        monkeypatch.setattr(module, "haar_qr", lambda g, original=module.haar_qr: calls.append(g.shape) or original(g))
    cfg = builtin_scenario("demo")
    cfg["grids"]["1"]["haar"]["count"] = count
    path = tmp_path / "over-cap.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path)]) == 3
    assert calls == []
    assert capsys.readouterr().err == f"cap exceeded: representation dimension {6 * count} exceeds the cap 4096\n"


@pytest.mark.parametrize(
    "blocks, cap, code", [([5], 16, 3), ([4], 16, 0), ([10**400], None, 3), ([10**2200], None, 3)],
    ids=["d25-cap16", "d16-cap16", "1e400", "past-digit-limit"],
)
def test_the_cap_bounds_the_algebra_coordinate_dimension(blocks, cap, code, tmp_path, capsys):
    # d = sum n_i^2 is checked as soon as the algebra is parsed: witness has
    # N = 2 basis paths, so only the algebra can exceed the cap
    cfg = builtin_scenario("witness")
    cfg["algebra"]["blocks"] = blocks
    if cap is not None:
        cfg["cap"] = cap
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path), "--out", str(tmp_path / "report.jsonl")]) == code
    err = capsys.readouterr().err
    if code == 3:
        d = blocks[0] ** 2
        size = str(d) if d.bit_length() <= 4096 else f"of {d.bit_length()} bits"
        assert err == f"cap exceeded: algebra coordinate dimension {size} exceeds the cap {cap or 4096}\n"


def test_a_grid_product_past_the_digit_limit_exits_3(tmp_path, capsys):
    # N has more digits than Python converts to a string; the message names its bit length
    cfg = builtin_scenario("demo")
    for t in ("1", "2"):
        cfg["grids"][t]["haar"]["count"] = 10**3000
    path = tmp_path / "over-cap.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path)]) == 3
    bits = (2 * 10**6000).bit_length()
    assert capsys.readouterr().err == f"cap exceeded: representation dimension of {bits} bits exceeds the cap 4096\n"


@pytest.mark.parametrize("times", [13, 16])
def test_an_over_cap_family_exits_3_at_once(times, tmp_path, capsys):
    # one-entry grids keep N = 1 while "all" admits 2^T subsets, whose pair
    # tables would be 2^T x 2^T: the family size is bounded before it is built
    from evobench.ladder import ladder_config

    path = tmp_path / "family.json"
    path.write_text(json.dumps(ladder_config(times, 1)))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"cap exceeded: admissible family size {2**times} exceeds the cap 4096\n"


@pytest.mark.parametrize("cap, code", [(15, 3), (16, 0)])
def test_the_cap_bounds_a_listed_family(cap, code, tmp_path, capsys):
    # rung 4x1 (N = 1, d = 13) with its 16 subsets listed: the list's length is bounded
    from evobench.ladder import ladder_config

    cfg = ladder_config(4, 1)
    cfg["cap"] = cap
    cfg["time_frame"]["sigma0"] = [list(s) for r in range(5) for s in itertools.combinations("1234", r)]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path), "--out", str(tmp_path / "report.jsonl")]) == code
    if code == 3:
        assert capsys.readouterr().err == f"cap exceeded: admissible family size 16 exceeds the cap {cap}\n"


BEYOND_FLOAT = "1" + "0" * 400  # an integer literal that float() overflows on
PAST_DIGIT_LIMIT = "1" + "0" * 5000  # past Python's 4,300-digit limit for int parsing
IDENTITY_BLOCKS = json.dumps([encode_matrix(np.eye(2)), encode_matrix(np.eye(3))])

# builtin, path to a node, and the JSON text that replaces it
MALFORMED_INPUTS = {
    "tolerance-beyond-float": ("witness", ("tolerances",), '{"exact": %s}' % BEYOND_FLOAT),
    "threshold-beyond-float": ("witness", ("witness_threshold",), BEYOND_FLOAT),
    "conjugator-entry-beyond-float": ("witness", ("conjugator", "matrix", 0, 0, 0), BEYOND_FLOAT),
    "probe-entry-beyond-float": (
        "demo", ("dynamics", "terms", "1", "probe", "pairs", 0, "element", 0, 0, 0, 1), BEYOND_FLOAT
    ),
    "weight-value-beyond-float": ("witness", ("dynamics", "weights", 1, "values", 0, 0), BEYOND_FLOAT),
    "post-map-scale-beyond-float": (
        "demo", ("dynamics", "terms", "1", "post_map"), '{"name": "abs2", "scale": %s}' % BEYOND_FLOAT
    ),
    "integer-past-digit-limit": ("witness", ("seed",), PAST_DIGIT_LIMIT),
    "pair-of-three-numbers": ("witness", ("conjugator", "matrix", 0, 0), "[0.7071067811865476, 0.0, 5.0]"),
    "perm-not-a-list": ("demo", ("grids", "1"), '{"unitaries": [{"blocks": %s, "perm": 5}]}' % IDENTITY_BLOCKS),
    "not-utf-8": ("witness", ("name",), '"t\xe9moin"'),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_2_with_one_config_error_line(case, tmp_path, capsys):
    builtin, where, text = MALFORMED_INPUTS[case]
    cfg = builtin_scenario(builtin)
    node = cfg
    for step in where[:-1]:
        node = node[step]
    node[where[-1]] = "@@"
    path = tmp_path / "malformed.json"
    # Latin-1 keeps json.dumps' ASCII as it is and writes "\xe9" as one byte that is not UTF-8
    path.write_bytes(json.dumps(cfg).replace('"@@"', text).encode("latin-1"))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


# JSON-like values: numbers past float range, NaN and infinities, strings
# (some of which float() reads), and lists and dicts nested a few levels
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**400), 10**400), st.integers(-3, 3), st.floats(),
    st.text(max_size=3), st.sampled_from(["1e400", "-0.0", "nan", " 2 ", "1_0"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)
# matrix-shaped lists with entries of one to three scalars, so that many decode
matrix_like = st.lists(st.lists(st.lists(json_scalars, min_size=1, max_size=3), min_size=1, max_size=2),
                       min_size=1, max_size=2)


def _pair_bits(rows) -> bytes:
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in rows], dtype=np.complex128).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, matrix_like))
def test_decoders_decode_or_raise_config_error(value):
    # each decoder either decodes, keeping the bits float() gives, or raises ConfigError
    from evogrid import scenario

    try:
        decoded = decode_matrix(value, "m")
    except ConfigError:
        pass
    else:
        assert decoded.tobytes() == _pair_bits(value)
    try:
        pairs = scenario._pairs(value, "values")
    except ConfigError:
        pass
    else:
        assert np.array(pairs, dtype=np.complex128).tobytes() == _pair_bits([value])
    try:
        number = scenario._finite_number(value, "x")
    except ConfigError:
        pass
    else:
        assert not isinstance(value, bool) and math.isfinite(number)
        assert np.float64(number).tobytes() == np.float64(float(value)).tobytes()


def test_cli_exit_code_on_unknown_suite():
    assert main(["verify", "demo", "--suite", "nope"]) == 4


@pytest.mark.parametrize("spelling", ["", " , "])
def test_cli_exit_code_on_an_empty_suite_selection(spelling):
    assert main(["verify", "demo", "--suite", spelling]) == 4


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_on_an_empty_family(suite, tmp_path):
    # no admissible subset at all: every law holds vacuously, with 0.0
    # records; on witness there is no commutator to bound, so its threshold
    # fails commutant-witness and nothing else
    for source in ("demo", "witness"):
        cfg = builtin_scenario(source)
        cfg["time_frame"]["sigma0"] = []
        if source == "witness":
            cfg["dynamics"]["weights"] = []
        path, out = tmp_path / f"{source}.json", tmp_path / f"{source}.jsonl"
        path.write_text(json.dumps(cfg))
        code = main(["verify", str(path), "--suite", suite, "--out", str(out)])
        failed = [r["check"] for r in map(json.loads, out.read_text().splitlines()) if "check" in r and not r["pass"]]
        expected = ["commutant-witness"] if (source, suite) == ("witness", "dynamics") else []
        assert (code, failed) == (1 if expected else 0, expected)


def test_run_suite_rejects_an_empty_selection():
    with pytest.raises(DomainError, match="no suite selected"):
        run_suite(load_scenario("demo"), [])


def test_cli_exit_code_on_unknown_label():
    assert main(["compute", "demo", "--subsets", "1,9"]) == 4


def test_cli_compute_takes_a_group_list_that_starts_with_the_empty_set(tmp_path, capsys):
    # argparse reads a separate value that starts with "-" as an option, so
    # such a list is passed in the --subsets= form
    with pytest.raises(SystemExit) as exc:
        main(["compute", "demo", "--subsets", "-;1"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err
    out = tmp_path / "ops.json"
    assert main(["compute", "demo", "--subsets=-;1", "--out", str(out)]) == 0
    assert [tuple(op["times"]) for op in json.loads(out.read_text())["operators"]] == [(), ("1",)]


@pytest.mark.parametrize("subsets", ["1,1", "1;2,1,2", "1;", "1;;2", ";", "1,", "1,,2", ""])
def test_cli_compute_rejects_a_repeated_label_or_an_empty_group(subsets, tmp_path, capsys):
    # "1,1" would build {1} under the times ["1", "1"], and an empty group
    # would add the empty set, which only "-" names
    out = tmp_path / "ops.json"
    assert main(["compute", "demo", "--subsets", subsets, "--out", str(out)]) == 4
    assert "domain error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_code_on_inadmissible_subset(tmp_path):
    cfg = minimal_config()
    cfg["time_frame"]["times"] = ["1", "2"]
    cfg["time_frame"]["weights"] = {"1": "1", "2": "1"}
    cfg["time_frame"]["sigma0"] = [[], ["1"], ["1", "2"]]
    cfg["grids"]["2"] = {"named": ["identity"]}
    cfg["dynamics"]["weights"] = [
        {"times": [], "values": [[1.0, 0.0]]},
        {"times": ["1"], "values": [[1.0, 0.0], [-1.0, 0.0]]},
        {"times": ["1", "2"], "values": [[1.0, 0.0], [-1.0, 0.0]]},
    ]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(cfg))
    assert main(["compute", str(path), "--subsets", "2"]) == 4


@pytest.mark.parametrize(
    "command", [["verify", "witness"], ["compute", "witness", "--subsets", "1"], ["demo", "witness"]],
    ids=["verify", "compute", "demo"],
)
@pytest.mark.parametrize("target", ["missing-directory/out.json", "."], ids=["missing-directory", "a-directory"])
def test_an_unwritable_out_path_exits_2_with_one_line(command, target, tmp_path, capsys):
    assert main([*command, "--out", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and err.count("\n") == 1, err


def assert_indented_json(text: str) -> None:
    """compute writes exactly what json.dumps(sort_keys=True, indent=2) would."""
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2)


# raw float64 bit patterns, plus the values whose text is easiest to get wrong
SPECIAL_FLOAT_BITS = np.array(
    [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16, 1e-7, 0.1, 1e22,
     float("nan"), float("inf"), float("-inf")],
    dtype=np.float64,
).view(np.uint64).tolist()
float_bits = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_FLOAT_BITS))


def assert_writer_matches_json_dumps(a: np.ndarray) -> None:
    """The chunks of `a`, at nesting levels 0 to 3 through lists and a dict,
    join to json.dumps of its `encode_matrix` lists."""
    doc, oracle = a, encode_matrix(a)
    for wrap in (lambda x: [x], lambda x: {"b": 1, "a": x}, lambda x: [True, x, "s"]):
        assert "".join(_json_chunks(doc)) == json.dumps(oracle, sort_keys=True, indent=2)
        doc, oracle = wrap(doc), wrap(oracle)
    assert "".join(_json_chunks(doc)) == json.dumps(oracle, sort_keys=True, indent=2)


@st.composite
def complex_arrays(draw):
    shape = draw(st.lists(st.integers(0, 7), min_size=1, max_size=3).map(tuple))
    bits = draw(st.lists(float_bits, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)))
    return np.array(bits, dtype=np.uint64).view(np.complex128).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(complex_arrays())
def test_array_writer_matches_indented_json_dumps(a):
    assert_writer_matches_json_dumps(a)


# a chunk formats at most _CHUNK_FLOATS floats, two per complex entry: the
# first shape is one axis longer than a chunk, the second has leading-axis
# slices longer than a chunk, the third such slices on its middle axis; the
# fourth wraps rows of 10 floats, which do not divide a chunk, many times per
# chunk, and the fifth wraps two axes whose float counts divide it
@pytest.mark.parametrize(
    "shape",
    [(3 * _CHUNK_FLOATS // 2 + 3,), (3, _CHUNK_FLOATS // 2 + 5), (2, 2, _CHUNK_FLOATS // 2 + 1),
     (3 * _CHUNK_FLOATS // 10 + 1, 5), (3 * _CHUNK_FLOATS // 32 + 1, 2, 8)],
    ids=["1d", "2d", "3d", "2d-short-rows", "3d-dividing"],
)
def test_array_writer_matches_json_dumps_across_chunks(shape):
    rng = np.random.default_rng(7)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert 2 * a.size >= 3 * _CHUNK_FLOATS
    flat = a.reshape(-1)  # a view: a non-finite value and -0.0 past the first chunk
    flat[_CHUNK_FLOATS // 2 + 1] = complex(float("nan"), -0.0)
    flat[-2] = complex(-0.0, float("-inf"))
    flat[-1] = complex(float("inf"), 0.0)
    # chunks do not depend on the nesting level, so one level is enough here
    oracle = json.dumps({"a": [encode_matrix(a)], "b": 1}, sort_keys=True, indent=2)
    assert "".join(_json_chunks({"a": [a], "b": 1})) == oracle


# an empty axis at every position of one to three axes
@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (0, 2, 2), (2, 0, 2), (2, 2, 0)], ids=str)
def test_array_writer_matches_json_dumps_on_empty_axes(shape):
    assert_writer_matches_json_dumps(np.zeros(shape, dtype=np.complex128))


def test_array_writer_holds_one_chunk_of_float_text_at_a_time():
    # a 512 x 512 payload is some 24 MB of text; no chunk may hold more than
    # _CHUNK_FLOATS floats, each under 64 characters with its separator
    rng = np.random.default_rng(11)
    a = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
    doc = {"operators": [{"kind": "dense", "matrix": a, "times": ["1"]}]}
    lengths = [len(chunk) for chunk in _json_chunks(doc)]
    assert max(lengths) <= 64 * _CHUNK_FLOATS
    assert sum(lengths) > 10 * max(lengths)


def test_cli_compute_satisfies_group_law(tmp_path):
    out = tmp_path / "ops.json"
    assert main(["compute", "demo", "--subsets", "1;2;1,2;-", "--out", str(out)]) == 0
    assert_indented_json(out.read_text())
    doc = json.loads(out.read_text())
    assert doc["conjugated"] is True
    by_times = {tuple(op["times"]): op for op in doc["operators"]}

    def dense(op):
        assert op["kind"] == "dense"
        return np.array([[complex(re, im) for re, im in row] for row in op["matrix"]])

    u1 = dense(by_times[("1",)])
    u2 = dense(by_times[("2",)])
    u12 = dense(by_times[("1", "2")])
    empty = dense(by_times[()])
    assert np.allclose(u1 @ u2, u12, atol=1e-10)
    assert np.allclose(empty, np.eye(12), atol=1e-12)


def test_cli_compute_builds_each_operator_after_the_last_is_written(monkeypatch):
    # every group is validated first; then operator k is built only once
    # operator k - 1's text, through its closing brace, has been written,
    # so one operator is held at a time
    from evogrid import cli

    written, built = [], []
    build = cli.evolution_unitary

    def spy(weight, subset, rep):
        built.append("".join(written))
        return build(weight, subset, rep)

    class Sink:
        def write(self, text):
            written.append(text)

    monkeypatch.setattr(cli, "evolution_unitary", spy)
    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(["compute", "demo", "--subsets", "1;2;1,2;9"]) == 4
    assert built == [] and written == []
    assert main(["compute", "demo", "--subsets", "1;2;1,2;1"]) == 0
    assert [text.count('"times"') for text in built] == [0, 1, 2, 3]
    assert all(text.endswith("}") for text in built[1:])
    doc = json.loads("".join(written))
    assert [op["times"] for op in doc["operators"]] == [["1"], ["2"], ["1", "2"], ["1"]]


def test_cli_compute_fixes_the_malloc_thresholds_where_it_can(monkeypatch, capsys):
    # glibc gets a fixed 8 MiB mmap threshold and twice that as its trim
    # threshold; a C library without mallopt, or none to load, is left as is
    from evogrid import cli

    calls = []

    class Glibc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    def no_library(name):
        raise OSError("no C library")

    texts = []
    for cdll in (lambda name: Glibc(), lambda name: object(), no_library):
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert main(["compute", "demo", "--subsets", "1"]) == 0
        texts.append(capsys.readouterr().out)
    assert calls == [(-3, 8 << 20), (-1, 16 << 20)]
    assert texts[0] == texts[1] == texts[2]


def test_cli_compute_diagonal_without_conjugator(tmp_path):
    cfg = minimal_config()
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "ops.json"
    assert main(["compute", str(path), "--subsets", "1", "--out", str(out)]) == 0
    assert_indented_json(out.read_text())
    doc = json.loads(out.read_text())
    op = doc["operators"][0]
    assert op["kind"] == "diagonal"
    assert op["diagonal"] == [[1.0, 0.0], [-1.0, 0.0]]


def test_cli_demo_outputs_valid_config(tmp_path, capsys):
    assert main(["demo"]) == 0
    text = capsys.readouterr().out
    cfg = json.loads(text)
    scn = scenario_from_dict(cfg)
    assert scn.name == "demo"
    assert main(["demo", "witness"]) == 0
    cfg2 = json.loads(capsys.readouterr().out)
    assert cfg2["name"] == "witness"


def test_cli_verify_byte_identical_reports(tmp_path):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert main(["verify", "demo", "--seed", "42", "--suite", "algebra", "--out", str(out1)]) == 0
    assert main(["verify", "demo", "--seed", "42", "--suite", "algebra", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_timings_excluded_from_body(tmp_path):
    out, plain = tmp_path / "t.jsonl", tmp_path / "plain.jsonl"
    assert main(["verify", "witness", "--suite", "dynamics", "--timings", "--out", str(out)]) == 0
    assert main(["verify", "witness", "--suite", "dynamics", "--out", str(plain)]) == 0
    lines = out.read_text().strip().splitlines()
    appendix = json.loads(lines[-1])
    assert "timings" in appendix
    for line in lines[:-1]:
        assert "timings" not in json.loads(line)
        assert "shared" not in json.loads(line)
    assert "\n".join(lines[:-1]) + "\n" == plain.read_text()
    # one call times each group; its time is split evenly among the records
    groups = [
        ["action-weight-laws", "unitary-evolution", "null-unitary", "group-law", "commutation"],
        ["conjugated-dynamics", "commutant-witness"],
    ]
    assert appendix["shared"] == groups
    for group in groups:
        assert len({appendix["timings"][check] for check in group}) == 1
    assert all(isinstance(seconds, float) for seconds in appendix["timings"].values())


def test_demo_reports_the_benchmark_check_ids_suite_by_suite_in_order():
    # the benchmark's gate fails a report that lacks any id of its table
    from evobench.ladder import SUITE_CHECKS

    scn = load_scenario("demo")
    for suite, checks in SUITE_CHECKS.items():
        assert tuple(r.check for r in run_suite(scn, [suite]).records) == checks, suite
    report = run_suite(scn, ["all"])
    assert report.suites == tuple(SUITE_CHECKS)
    assert [r.check for r in report.records] == [check for checks in SUITE_CHECKS.values() for check in checks]


# report body of `evogrid verify demo --suite spectral --suite lagrangian`;
# every value in it is elementwise arithmetic, so no BLAS build can move it
DEMO_SPECTRAL_LAGRANGIAN_SHA256 = "faeb432e3081d95192580c7ed0bd1ae62465ba3f1f2bd79739a5f10f65995dde"


def test_cli_spectral_and_lagrangian_report_bytes_are_pinned(tmp_path):
    out = tmp_path / "report.jsonl"
    assert main(["verify", "demo", "--suite", "spectral", "--suite", "lagrangian", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEMO_SPECTRAL_LAGRANGIAN_SHA256


# stdout of commands whose conjugated values round differently
# under another BLAS thread count, and of the algebra suite on demo, whose
# values are BLAS products and SVDs too, so each runs in a fresh one-thread process;
# LADDER_2X8, LADDER_3X5, LADDER_3X8, LADDER_5X2, LADDER_8X1 and LADDER_4X3
# name the files written from evobench's ladder rungs 2x8 (N = 64), 3x5
# (N = 125), 3x8 (N = 512), 5x2 (N = 32, all suites: the benchmark's
# geometry-5x2 report), 8x1 (N = 1, 256 subsets and 8,748 disjoint pairs:
# the largest family pinned, and every subset has one atom) and 4x3 (N = 81)
LADDERS = {"ladder-2x8.json": (2, 8), "ladder-3x5.json": (3, 5), "ladder-3x8.json": (3, 8), "ladder-5x2.json": (5, 2),
           "ladder-8x1.json": (8, 1), "ladder-4x3.json": (4, 3)}
LADDER_2X8, LADDER_3X5, LADDER_3X8, LADDER_5X2, LADDER_8X1, LADDER_4X3 = LADDERS
CONJUGATED_OUTPUT_SHA256 = {
    ("verify", "demo", "--suite", "conjugation", "--suite", "dynamics"):
        "e73069444f316362fcd1aecc0305871cc12ae0f4fab3cbc35ffb01fcb665d2d3",
    ("compute", "demo", "--subsets", "1,2;3;-"):
        "98eededf26b34aff1b8c011983fe2421ce2f2b3b902f3c25217de4764195ed15",
    ("compute", LADDER_2X8, "--subsets", "1,2;1;-"):
        "70d1b8a55ece3e7f9b73ca3dc10f85a7633e84b3443789c5bf61879fadcf0094",
    # the benchmark's compute workload: 524,288 floats, many chunks and passes
    ("compute", LADDER_3X8, "--subsets", "1,2"):
        "de5b87a4c407052aa022b2ffbd87d7b0b8a7d14618db89e0aba378980978f57c",
    ("verify", LADDER_3X5, "--suite", "conjugation", "--suite", "dynamics"):
        "f2645a95d1bf4941381e2428f62c8596569aa5eae619ebbef517360432e81a58",
    ("verify", LADDER_2X8):
        "0b84b428355530a0fcc285a5a0d1ae33c6f8bd9d8999ab55e53bd80d7723232d",
    ("verify", LADDER_3X8, "--suite", "conjugation"):
        "38c474eab53fb0de1c9d4dcfee6581191304f0d54188298303d33eb3059e68e3",
    ("verify", LADDER_3X8, "--suite", "dynamics"):
        "a02a59f6bd8a35f1df37d242bf4e1be15264812051e9e5a82d25cae55ddf143d",
    ("verify", "demo", "--suite", "algebra"):
        "673bea38fa74f33412ba1db581a38270d622627443bbaba533892e73225d5fa7",
    ("verify", LADDER_5X2):
        "c3c38137dc9fa427095510da007f7a21704f3ebd95f033829753f303a762c82b",
    ("verify", LADDER_3X5):
        "ce5c465919b4e25cdfe991433cfe47ff8c909aea16dd25ce4adad0cc774b1a03",
    ("verify", LADDER_8X1, "--suite", "dynamics", "--suite", "lagrangian"):
        "c237ed1e85936cf254c45572896fabf4a1c31cba19dfe7133d586e619a52407c",
    ("verify", LADDER_8X1):
        "b4d6788a5f5cf642de86251d0415c23f7d8c6626b2c867ae3978871a9967ded7",
    ("verify", LADDER_4X3):
        "9d22b9f416eaa37d7471388d8d4f6bb38951b25418aa92f616edd59da535881b",
    # the one built-in report that forms the commutant witness, and so reads
    # dense conjugated operators built through a representation
    ("verify", "witness"):
        "a47b504f9fe64e855f63aeba16a0d91623c55e1d092a4634715151a2121b7aab",
}


def _pin_ids(pins):
    # the command, then the ladder rung or the scenario other than demo it
    # reads, if any; a later pin of the same command and rung adds its
    # suites, or "all" when it names none
    ids = []
    for argv in pins:
        pin = f"{argv[0]}-{argv[1].removesuffix('.json')}" if argv[1] != "demo" else argv[0]
        if pin in ids:
            pin += "".join(f"-{b}" for a, b in zip(argv, argv[1:]) if a == "--suite") or "-all"
        ids.append(pin)
    return ids


@pytest.mark.parametrize("argv", list(CONJUGATED_OUTPUT_SHA256), ids=_pin_ids(CONJUGATED_OUTPUT_SHA256))
def test_cli_conjugated_output_bytes_are_pinned_at_one_blas_thread(argv, tmp_path):
    from evobench.ladder import ladder_config

    for name, rung in LADDERS.items():
        (tmp_path / name).write_text(json.dumps(ladder_config(*rung), sort_keys=True))
    result = subprocess.run([sys.executable, "-m", "evogrid.cli", *argv], env=one_thread_env(), capture_output=True,
                            timeout=120, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    if argv[0] == "compute":
        assert_indented_json(result.stdout.decode("utf-8").removesuffix("\n"))
    assert hashlib.sha256(result.stdout).hexdigest() == CONJUGATED_OUTPUT_SHA256[argv]
