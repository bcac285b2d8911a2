"""The conjugation checks against mutants and against the dense route.

Each mutant row breaks one law the conjugation checks claim, by a
monkeypatch of the library or by an edited config, and names the checks
that must then report more than their tolerance.  The dense route the
checks no longer take stays here as the oracle their bounds must cover.
"""

import math

import numpy as np
import pytest

from evobench.ladder import ladder_config
from evogrid import builtin_scenario, load_scenario, run_suite, scenario_from_dict
from evogrid.representation import ConjugatedDiagonalOperator, SpectralMeasure, _ConjugatorProducts
from evogrid.rng import SplitMix64, derive_seed
from evogrid.scenario import encode_matrix


def _w_d_w_star_columns(self, cols):
    w = self.conjugator
    return w @ (self.diag[:, None] * w.conj().T[:, cols])


def _w_d_w_star(self):
    return _w_d_w_star_columns(self, slice(None))


def _transposed_entry(original):
    return lambda self, i, j: original(self, j, i)


def _conjugated_trace(original):
    return lambda self: original(self).conjugate()


def _neighbouring_atom(self, index):
    return self.projection([(index + 1) % self.npoints])


def _scaled_conjugator(cfg):
    # a norm defect of 1e-11 still passes check_unitary's 1e-10 gate
    w = SplitMix64(cfg["conjugator"]["haar"]["seed"]).haar_unitary(12)
    cfg["conjugator"] = {"matrix": encode_matrix((1.0 + 1e-11) * w)}
    return cfg


MUTANTS = {
    # the one formula: covariance reads its columns, the witness its dense T2
    "columns-w-d-w-star": (
        (ConjugatedDiagonalOperator, "columns", _w_d_w_star_columns),
        None,
        ("conjugation-covariance", "conjugated-dynamics"),
    ),
    "to-dense-w-d-w-star": ((ConjugatedDiagonalOperator, "to_dense", _w_d_w_star), None, ("conjugated-dynamics",)),
    # the products every operator of a representation shares; the routes form their own
    "shared-adjoint-transposed": (
        (_ConjugatorProducts, "adjoint", property(lambda self: self.conjugator.T)),
        None,
        ("conjugation-covariance", "conjugated-dynamics"),
    ),
    "shared-row-gram-of-moduli": (
        (_ConjugatorProducts, "row_gram", property(lambda self: np.sum(np.abs(self.conjugator), axis=1))),
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
    "neighbouring-atom": ((SpectralMeasure, "atom", _neighbouring_atom), None, ("singleton-conjugacy",)),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_each_conjugation_check_catches_its_mutant(mutant, monkeypatch):
    patch, edit, caught = MUTANTS[mutant]
    cfg = builtin_scenario("demo")
    if edit is not None:
        cfg = edit(cfg)
    scn = scenario_from_dict(cfg)
    if patch is not None:
        monkeypatch.setattr(*patch)
    records = {r.check: r for r in run_suite(scn, ["all"]).records}
    for check in caught:
        assert records[check].max_deviation > records[check].tolerance, check


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
    assert len(read) == 10 * len(scn.frame.admissible())
    for op, cols in read:
        assert op.columns(cols).tobytes() == np.ascontiguousarray(op.to_dense()[:, cols]).tobytes()


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
            v1, v2 = rng.integer(1 << k), rng.integer(1 << k)
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
