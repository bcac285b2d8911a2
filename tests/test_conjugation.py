"""The conjugation checks against mutants and against the dense route.

Each mutant row breaks one law the conjugation checks claim, by a
monkeypatch of the library or by an edited config, and names the checks
that must then report more than their tolerance; `to_dense`, which no
check reads, has its row through `evogrid compute`.  The dense route the
checks no longer take stays here as the oracle their bounds must cover,
and the per-operator covariance body as the oracle of the stacked one.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from evobench.ladder import ladder_config
from evogrid import builtin_scenario, evolution_unitary, load_scenario, run_suite, scenario_from_dict, suites
from evogrid.cli import main
from evogrid.dynamics import nan_max
from evogrid.representation import ConjugatedDiagonalOperator, PureRepresentation, SpectralMeasure, integrate, integrate_rows
from evogrid.rng import SplitMix64, derive_seed
from evogrid.scenario import decode_matrix, encode_matrix
from evogrid.suites import COVARIANCE_COLUMNS

from conftest import conjugated_rep, integer, last_point_ignored, neighbouring_members, one_thread_env


def _w_d_w_star_columns(self, cols):
    # W diag(d) W* in place of W* diag(d) W, for one column list or one list per stack row
    w = self.conjugator
    return w @ (self.diag[..., None] * np.swapaxes(w.conj()[cols], -1, -2))


def _w_d_w_star(self):
    return _w_d_w_star_columns(self, slice(None))


def _transposed_entry(original):
    return lambda self, i, j: original(self, j, i)


def _conjugated_trace(original):
    return lambda self: original(self).conjugate()


def _reversed_stack(original):
    # a stack's rows back to front; one operator's columns as they are
    return lambda self, cols: original(self, cols)[::-1] if self.diag.ndim == 2 else original(self, cols)


def _first_row_entry(original):
    # every row of a stack reads the entry of its first row, for each of its (i, j) pairs,
    # whether the rows share one pair list or each has its own
    def entry(self, i, j):
        first = np.broadcast_to(self.diag[:1], self.diag.shape) if self.diag.ndim == 2 else self.diag
        return original(ConjugatedDiagonalOperator(self.representation, first), i, j)

    return entry


def _scaled_conjugator(cfg):
    # a norm defect of 1e-11 still passes check_unitary's 1e-10 gate
    w = SplitMix64(cfg["conjugator"]["haar"]["seed"]).haar_unitary(12)
    cfg["conjugator"] = {"matrix": encode_matrix((1.0 + 1e-11) * w)}
    return cfg


MUTANTS = {
    # the one formula: both covariance checks read stacked columns
    "columns-w-d-w-star": (
        (ConjugatedDiagonalOperator, "columns", _w_d_w_star_columns),
        None,
        ("conjugation-covariance", "conjugated-dynamics"),
    ),
    # the W* and row Gram a representation holds for its operators; the routes form their own
    "shared-adjoint-transposed": (
        (PureRepresentation, "conjugator_adjoint", property(lambda self: self.conjugator.T)),
        None,
        ("conjugation-covariance", "conjugated-dynamics"),
    ),
    "shared-row-gram-of-moduli": (
        (PureRepresentation, "row_gram", property(lambda self: np.sum(np.abs(self.conjugator), axis=1))),
        None,
        ("conjugation-covariance",),
    ),
    "scaled-conjugator": (None, _scaled_conjugator, ("conjugated-pvm", "conjugated-trace")),
    "transposed-entry": (
        (ConjugatedDiagonalOperator, "entry", _transposed_entry(ConjugatedDiagonalOperator.entry)),
        None,
        ("conjugation-covariance",),
    ),
    "conjugated-trace-value": (
        (ConjugatedDiagonalOperator, "trace", _conjugated_trace(ConjugatedDiagonalOperator.trace)),
        None,
        ("conjugation-covariance",),
    ),
    # the stacks the covariance checks read: each subset's ten operators,
    # and every subset's conjugated evolution unitary
    "reversed-stack-columns": (
        (ConjugatedDiagonalOperator, "columns", _reversed_stack(ConjugatedDiagonalOperator.columns)),
        None,
        ("conjugation-covariance", "conjugated-dynamics"),
    ),
    "first-row-stack-entry": (
        (ConjugatedDiagonalOperator, "entry", _first_row_entry(ConjugatedDiagonalOperator.entry)),
        None,
        ("conjugation-covariance",),
    ),
    "neighbouring-atom": (
        (SpectralMeasure, "diagonals", neighbouring_members(SpectralMeasure.diagonals)),
        None,
        ("singleton-conjugacy",),
    ),
    # the last point of every subset belongs to no set: the conjugated total set loses its last fibre
    "diagonals-ignore-last-point": (
        (SpectralMeasure, "diagonals", last_point_ignored(SpectralMeasure.diagonals)),
        None,
        ("conjugated-pvm",),
    ),
    # the Gram diagonal the checks form themselves, as row sums of |W|
    "row-gram-of-moduli": (
        (suites, "_row_gram", lambda w: np.sum(np.abs(w), axis=1)),
        None,
        ("conjugated-trace", "conjugation-covariance"),
    ),
}

# the rows that tell conjugated-pvm from conjugated-trace leave the check of
# the pair they do not list at its clean value
KEEPS_CLEAN = {"diagonals-ignore-last-point": "conjugated-trace", "row-gram-of-moduli": "conjugated-pvm"}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_each_conjugation_check_catches_its_mutant(mutant, monkeypatch):
    patch, edit, caught = MUTANTS[mutant]
    cfg = builtin_scenario("demo")
    if edit is not None:
        cfg = edit(cfg)
    scn = scenario_from_dict(cfg)
    clean = {r.check: r for r in run_suite(scn, ["conjugation"]).records} if mutant in KEEPS_CLEAN else {}
    if patch is not None:
        monkeypatch.setattr(*patch)
    records = {r.check: r for r in run_suite(scn, ["all"]).records}
    for check in caught:
        assert records[check].max_deviation > records[check].tolerance, check
    if mutant in KEEPS_CLEAN:
        kept = KEEPS_CLEAN[mutant]
        assert records[kept].max_deviation == clean[kept].max_deviation and records[kept].passed


# `to_dense` has two callers, `compute` and the witness, which only the
# `witness` scenario forms and whose Hadamard conjugator is its own W* and
# W^T; so its row runs through `evogrid compute`, whose dense matrices must
# be W* diag(u) W
COMPUTE_MUTANTS = {"to-dense-w-d-w-star": (ConjugatedDiagonalOperator, "to_dense", _w_d_w_star)}
COMPUTE_SUBSETS = (frozenset({"1", "2"}), frozenset({"3"}), frozenset())


def _computed(path):
    assert main(["compute", "demo", "--subsets", "1,2;3;-", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert [frozenset(op["times"]) for op in doc["operators"]] == list(COMPUTE_SUBSETS)
    return path.read_bytes(), [decode_matrix(op["matrix"], "matrix") for op in doc["operators"]]


@pytest.mark.parametrize("mutant", list(COMPUTE_MUTANTS))
def test_compute_output_catches_its_mutant(mutant, tmp_path, monkeypatch):
    scn = load_scenario("demo")
    w = scn.conjugated.conjugator
    oracle = [
        w.conj().T @ (evolution_unitary(scn.weight, s, scn.representation).diag[:, None] * w)
        for s in COMPUTE_SUBSETS
    ]
    clean_bytes, clean = _computed(tmp_path / "clean.json")
    monkeypatch.setattr(*COMPUTE_MUTANTS[mutant])
    moved_bytes, moved = _computed(tmp_path / "moved.json")
    assert moved_bytes != clean_bytes
    assert max(np.max(np.abs(a - b)) for a, b in zip(clean, oracle)) <= 1e-12
    assert max(np.max(np.abs(a - b)) for a, b in zip(moved, oracle)) > 1e-12


def _scenario(source):
    if source.startswith("ladder-"):
        return scenario_from_dict(ladder_config(*map(int, source.removeprefix("ladder-").split("x"))))
    return load_scenario(source)


# not the witness scenario: at N = 2 a BLAS may round products of
# different widths differently in the last bit
@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "ladder-3x5"])
def test_covariance_columns_are_the_dense_columns_bit_for_bit(source, monkeypatch):
    from evogrid import suites

    scn = _scenario(source)
    read = []
    original = ConjugatedDiagonalOperator.columns

    def spy(self, cols):
        read.append((self, cols))
        return original(self, cols)

    monkeypatch.setattr(ConjugatedDiagonalOperator, "columns", spy)
    suites._check_conjugation_covariance(scn)
    monkeypatch.undo()
    # one stacked read of the whole family, ten rows per subset, each row the
    # columns of its one-row operator at its own column list
    assert len(read) == 1
    stack, cols = read[0]
    got = stack.columns(cols)
    assert got.shape == (10 * len(scn.frame.admissible()), scn.space.dimension, COVARIANCE_COLUMNS)
    assert cols.shape == (len(got), COVARIANCE_COLUMNS)
    for d, row_cols, columns in zip(stack.diag, cols, got):
        op = ConjugatedDiagonalOperator(stack.representation, d)
        assert columns.tobytes() == np.ascontiguousarray(op.to_dense()[:, row_cols]).tobytes()


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "ladder-3x5"])
def test_the_covariance_stack_is_each_subsets_plain_gather_bit_for_bit(source, monkeypatch):
    # the covariance check gathers the ten diagonals of every subset of a
    # chunk in one take, through no measure; each subset's rows are what
    # `integrate_rows` gathers from its sampled values through the plain
    # measure, the conjugated measure's bits too, -0.0 turned +0.0 alike
    from evogrid import suites

    scn = _scenario(source)
    stacks, measures = [], []
    route = suites.conjugated_columns
    monkeypatch.setattr(suites, "conjugated_columns", lambda a, w, d, cols: stacks.append(d) or route(a, w, d, cols))
    diagonals = SpectralMeasure.diagonals
    monkeypatch.setattr(SpectralMeasure, "diagonals", lambda self, rows: measures.append(self) or diagonals(self, rows))
    integrate = suites.integrate_rows
    monkeypatch.setattr(suites, "integrate_rows", lambda measure, values: measures.append(measure) or integrate(measure, values))
    suites._check_conjugation_covariance(scn)
    assert measures == [] and len(stacks) == 1
    expected = [
        integrate_rows(scn.representation.spectral_measure(subset), covariance_samples(scn, subset)[0])
        for subset in scn.frame.admissible()
    ]
    assert stacks[0].tobytes() == np.concatenate(expected).tobytes()


def covariance_samples(scn, subset):
    """A subset's ten value rows, its projection's 0/1 row then its function's values
    for each of five samples, and its columns and rows, drawn one scalar at a time."""
    space = scn.space
    n = space.dimension
    rng = SplitMix64(derive_seed(scn.seed, f"covariance-{sorted(map(str, subset))}"))
    k = space.npoints(subset)
    values = np.zeros((10, k), dtype=np.complex128)
    for row in range(0, 10, 2):
        members = sorted({integer(rng, k) for _ in range(integer(rng, k) + 1)})
        values[row, members] = 1.0
        values[row + 1] = space.random_function(subset, rng).values
    cols = [integer(rng, n) for _ in range(COVARIANCE_COLUMNS)]
    rows = [integer(rng, n) for _ in range(COVARIANCE_COLUMNS)]
    return values, cols, rows


def per_operator_covariance(scn) -> float:
    """The covariance body before the stack: each subset's five projections
    and five integrals built and read one operator at a time."""
    space = scn.space
    w = scn.conjugated.conjugator
    w_star = w.conj().T
    row_gram = np.sum(w * np.conj(w), axis=1)
    dev = 0.0
    for subset in scn.frame.admissible():
        plain = scn.representation.spectral_measure(subset)
        moved = scn.conjugated.spectral_measure(subset)
        values, cols, rows = covariance_samples(scn, subset)
        for row in range(0, 10, 2):
            members, f = np.flatnonzero(values[row]).tolist(), space.function(subset, values[row + 1])
            for op, d in (
                (moved.projection(members), plain.projection(members).diag),
                (integrate(f, moved), integrate(f, plain).diag),
            ):
                route = w_star @ (d[:, None] * w[:, cols])
                entries = np.array([op.entry(i, j) for i, j in zip(rows, cols)])
                dev = nan_max(
                    dev,
                    float(np.max(np.linalg.norm(op.columns(cols) - route, axis=0))),
                    float(np.max(np.abs(entries - route[rows, np.arange(len(cols))]))),
                    abs(op.trace() - np.sum(d * row_gram)),
                )
    return dev


def _reported_covariance(source) -> tuple[str, str]:
    # the oracle and the record, as float.hex, in a one-thread process: the
    # report bytes are pinned only at one BLAS thread
    scn = _scenario(source)
    record = {r.check: r for r in run_suite(scn, ["conjugation"]).records}["conjugation-covariance"]
    return per_operator_covariance(scn).hex(), record.max_deviation.hex()


@pytest.mark.parametrize("n", [1, 32, 125, 512])
def test_entry_reads_index_arrays_with_the_bits_of_its_scalar_calls(n):
    rep = conjugated_rep(SplitMix64(5).haar_unitary(n))
    rng = SplitMix64(6)
    stack = rng.complex_matrix(10, n)
    rows, cols = rng.integers(n, COVARIANCE_COLUMNS).tolist(), rng.integers(n, COVARIANCE_COLUMNS).tolist()
    w = rep.conjugator
    for diag in (stack, stack[3]):
        op = ConjugatedDiagonalOperator(rep, diag)
        # the scalar formula of one entry, one (10, N) or (N,) product summed over its rows
        formula = np.array([np.sum(np.conj(w[:, i]) * diag * w[:, j], axis=-1) for i, j in zip(rows, cols)])
        scalar = np.array([op.entry(i, j) for i, j in zip(rows, cols)])
        assert scalar.tobytes() == formula.tobytes()
        for i, j in ((rows, cols), (np.array(rows), np.array(cols))):
            pairs = op.entry(i, j)
            assert pairs.shape == scalar.shape == (COVARIANCE_COLUMNS, *diag.shape[:-1])
            assert pairs.tobytes() == scalar.tobytes()
        # a value's bits do not depend on the pairs read with it
        assert op.entry(rows[1:2], cols[1:2]).tobytes() == scalar[1:2].tobytes()


def test_covariance_reads_each_chunks_entries_in_one_call(monkeypatch):
    # one call per chunk, its pair lists one per stack row, each subset's
    # rows and columns for each of its ten rows
    scn = load_scenario("demo")
    calls = []
    entry = ConjugatedDiagonalOperator.entry
    monkeypatch.setattr(ConjugatedDiagonalOperator, "entry", lambda self, i, j: calls.append((i, j)) or entry(self, i, j))
    suites._check_conjugation_covariance(scn)
    assert len(calls) == 1
    rows, cols = calls[0]
    sampled = [covariance_samples(scn, subset)[1:] for subset in scn.frame.admissible()]
    assert cols.tolist() == [c for c, _ in sampled for _ in range(10)]
    assert rows.tolist() == [r for _, r in sampled for _ in range(10)]


def test_entry_reads_one_pair_list_per_stack_row_with_the_bits_of_its_rows():
    rep = conjugated_rep(SplitMix64(5).haar_unitary(32))
    rng = SplitMix64(6)
    stack = rng.complex_matrix(10, 32)
    rows, cols = rng.integers(32, 40).reshape(10, 4), rng.integers(32, 40).reshape(10, 4)
    op = ConjugatedDiagonalOperator(rep, stack)
    pairs = op.entry(rows, cols)
    assert pairs.shape == (10, 4)
    for d, i, j, values in zip(stack, rows, cols, pairs):
        assert values.tobytes() == ConjugatedDiagonalOperator(rep, d).entry(i, j).tobytes()


COVARIANCE_SOURCES = ["demo", "witness", "ladder-5x2", "ladder-3x5", "ladder-4x3", "ladder-2x8", "ladder-3x8", "ladder-8x1"]


def _in_one_thread(code: str) -> str:
    result = subprocess.run([sys.executable, "-c", code], env=one_thread_env("src", ".", "tests"), capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def reported_covariance():
    code = (
        "import json; from test_conjugation import COVARIANCE_SOURCES, _reported_covariance; "
        "print(json.dumps({s: _reported_covariance(s) for s in COVARIANCE_SOURCES}))"
    )
    return json.loads(_in_one_thread(code))


@pytest.mark.parametrize("source", COVARIANCE_SOURCES)
def test_stacked_covariance_reports_the_per_operator_deviation_bit_for_bit(source, reported_covariance):
    oracle, record = reported_covariance[source]
    assert record == oracle


def _chunked_covariance(source, budget) -> tuple[str, int]:
    # the record as float.hex with the stack entry budget set to `budget`, and the chunks it took
    from evogrid import dynamics

    scn = _scenario(source)
    chunks = []
    route = suites.conjugated_columns
    original = dynamics.PAIR_ENTRIES
    dynamics.PAIR_ENTRIES = budget
    suites.conjugated_columns = lambda a, w, d, cols: chunks.append(len(d)) or route(a, w, d, cols)
    try:
        [(_, _, dev, _)] = suites._check_conjugation_covariance(scn)
    finally:
        dynamics.PAIR_ENTRIES, suites.conjugated_columns = original, route
    assert sum(chunks) == 10 * len(scn.frame.admissible())
    return dev.hex(), len(chunks)


def test_covariance_does_not_depend_on_its_chunks():
    # rung 5x2 (32 subsets of N = 32) is one chunk at the entry budget; at a
    # budget of ten subsets' diagonals it takes four, with the same record bits
    code = (
        "import json; from test_conjugation import _chunked_covariance; "
        "print(json.dumps([_chunked_covariance('ladder-5x2', b) for b in (1 << 16, 10 * 10 * 32, 1)]))"
    )
    (whole, one), (split, four), (single, each) = json.loads(_in_one_thread(code))
    assert (one, four, each) == (1, 4, 32)
    assert split == single == whole


def test_one_wide_product_is_the_narrow_products_bit_for_bit_at_one_thread():
    # the stacked covariance check forms ten operators' four columns in one
    # product of width 40; the report bytes hold only while that equals ten
    # products of width 4, with W* in the transposed layout the check uses
    code = """
import numpy as np
from evogrid.rng import SplitMix64
for n in (12, 125, 512):
    rng = SplitMix64(n)
    w_star, block = rng.complex_matrix(n, n).conj().T, rng.complex_matrix(n, 40)
    narrow = [w_star @ np.ascontiguousarray(block[:, c : c + 4]) for c in range(0, 40, 4)]
    print(n, (w_star @ block).tobytes() == np.concatenate(narrow, axis=1).tobytes())
"""
    assert _in_one_thread(code).split() == ["12", "True", "125", "True", "512", "True"]


@pytest.mark.parametrize("source", ["demo", "witness", "ladder-3x5"])
def test_dense_route_stays_under_the_gram_bounds(source):
    # the deleted dense route as oracle: sampled ||P1 P2 - P(V1 n V2)||_2,
    # ||P^2 - P||_2 and |tr P - rank P| from to_dense() are at most what
    # conjugated-pvm and conjugated-trace report
    scn = _scenario(source)
    reported = {r.check: r.max_deviation for r in run_suite(scn, ["conjugation"]).records}
    rng = SplitMix64(derive_seed(scn.seed, "dense-oracle"))
    n = scn.space.dimension
    pair = idempotency = trace = 0.0
    for subset in scn.frame.admissible():
        measure = scn.conjugated.spectral_measure(subset)
        k = measure.npoints
        for _ in range(10):
            v1, v2 = integer(rng, 1 << k), integer(rng, 1 << k)
            m1, m2, both = ([b for b in range(k) if (v >> b) & 1] for v in (v1, v2, v1 & v2))
            p1, p2, inter = (measure.projection(m).to_dense() for m in (m1, m2, both))
            pair = max(pair, float(np.linalg.norm(p1 @ p2 - inter, 2)))
            idempotency = max(idempotency, float(np.linalg.norm(p1 @ p1 - p1, 2)))
            # tr P - rank P summed exactly: a float sum near the rank would
            # round the difference to an ulp of the rank
            trace = max(trace, abs(math.fsum([*np.diag(p1).real, -(len(m1) * n // k)])))
    assert 0.0 < pair <= reported["conjugated-pvm"]
    assert idempotency <= reported["conjugated-trace"]
    assert trace <= reported["conjugated-trace"]
