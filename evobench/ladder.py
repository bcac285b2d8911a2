"""Scenario ladder and workload table shared by every benchmark workload.

A ladder rung T x g is a scenario with times "1".."T" over the algebra
M_2 + M_3, one `haar` grid of g maps per time, the demo's time-1 Lagrangian
term at every time, weight "0" on the last time and "0.5" on the others, and
a `haar` conjugator on N = g**T basis paths.

The workload seed picks the three seeds a rung needs.  The default seed
reproduces the reference ladder exactly: scenario seed 42, grid seed 100 + i
for time label i, conjugator seed 91.  Any other seed derives all three
from itself, so two seeds never share inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 42

# Check ids a fully passing report carries, per suite, at the default seed.
SUITE_CHECKS = {
    "algebra": (
        "automorphism-laws", "automorphism-counterexample", "compose-associativity",
        "cstar-norm", "weakstar-pairing", "grid-contraction", "index-roundtrip",
    ),
    "spectral": (
        "pvm-axioms", "pushforward", "pushforward-rank", "spectral-sum",
        "factorization", "diagonal-calculus", "injectivity-full", "injectivity-subsets",
        "embedding", "embedding-isometry", "embedding-measure", "matrix-elements",
        "singleton-rank", "singleton-conjugacy",
    ),
    "conjugation": ("conjugated-pvm", "conjugation-covariance", "conjugated-trace"),
    "dynamics": (
        "action-weight-laws", "unitary-evolution", "null-unitary", "group-law",
        "commutation", "conjugated-dynamics", "commutant-witness",
    ),
    "lagrangian": ("lagrangian-consistency", "action-additivity", "action-lipschitz", "null-action"),
}
ALL_SUITES = tuple(SUITE_CHECKS)


def _derived(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"evobench:{seed}:{label}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def scenario_seed(seed: int) -> int:
    return 42 if seed == DEFAULT_SEED else _derived(seed, "scenario")


def grid_seed(seed: int, i: int) -> int:
    """Seed of the haar grid at time label i (1-based)."""
    return 100 + i if seed == DEFAULT_SEED else _derived(seed, f"grid-{i}")


def conjugator_seed(seed: int) -> int:
    return 91 if seed == DEFAULT_SEED else _derived(seed, "conjugator")


def _demo_time1_term() -> dict:
    # the demo scenario's time-1 term: probe diag(1,-1) + diag(1,0,-1)
    # against a hermitian density, post map |.|^2, reference grid map 0
    def enc(rows):
        return [[[float(complex(z).real), float(complex(z).imag)] for z in row] for row in rows]

    return {
        "probe": {
            "pairs": [
                {
                    "element": [enc([[1, 0], [0, -1]]), enc([[1, 0, 0], [0, 0, 0], [0, 0, -1]])],
                    "density": [
                        enc([[0.5, 0.1j], [-0.1j, -0.25]]),
                        enc([[0.25, 0, 0], [0, 0.5, 0], [0, 0, -0.5]]),
                    ],
                }
            ]
        },
        "post_map": "abs2",
        "reference": {"grid_index": 0},
    }


def ladder_config(times: int, grid: int, seed: int = DEFAULT_SEED) -> dict:
    """Scenario config of ladder rung `times` x `grid` for a workload seed."""
    if times < 1 or grid < 1:
        raise ValueError("a ladder rung needs at least one time and one grid map")
    labels = [str(i) for i in range(1, times + 1)]
    return {
        "name": f"ladder-{times}x{grid}",
        "seed": scenario_seed(seed),
        "cap": 4096,
        "algebra": {"blocks": [2, 3]},
        "time_frame": {
            "times": labels,
            "weights": {t: ("0" if t == labels[-1] else "0.5") for t in labels},
            "sigma0": "all",
        },
        "grids": {t: {"haar": {"count": grid, "seed": grid_seed(seed, int(t))}} for t in labels},
        "dynamics": {"kind": "lagrangian", "terms": {t: _demo_time1_term() for t in labels}},
        "conjugator": {"haar": {"seed": conjugator_seed(seed)}},
    }


# (N, admissible-subset count) of the built-in scenarios
BUILTIN_SHAPES = {"demo": (12, 8), "witness": (2, 2)}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario source and the operation run on it."""

    name: str
    kind: str  # "verify" (load, run_suite, to_jsonl) or "compute" (cli.main compute)
    suites: tuple[str, ...]
    why: str
    rung: tuple[int, int] | None = None  # (T, g); None means the built-in scenario
    builtin: str = "demo"
    subsets: str = ""  # compute only: the --subsets argument

    def source(self, seed: int):
        """What `load_scenario` receives, and its seed override."""
        if self.rung is None:
            return self.builtin, scenario_seed(seed)
        return ladder_config(*self.rung, seed=seed), None

    def expected_checks(self) -> tuple[str, ...]:
        return tuple(c for s in self.suites for c in SUITE_CHECKS[s])

    def shape(self) -> tuple[int, int]:
        """N and the admissible-subset count; sigma0 is "all" on every rung."""
        if self.rung is None:
            return BUILTIN_SHAPES[self.builtin]
        times, grid = self.rung
        return grid ** times, 2 ** times


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "demo", "verify", ALL_SUITES,
            "the demo users and the acceptance gate run (N=12, 8 subsets), all suites: fixed per-call costs dominate, "
            "so set-up added per call shows as a loss",
        ),
        Workload(
            "geometry-5x2", "verify", ALL_SUITES,
            "rung 5x2 (N=32, 32 subsets), all suites: the largest subset family verified; subset-geometry label "
            "plumbing in evolution dominates, dense work is small",
            rung=(5, 2),
        ),
        Workload(
            "dense-3x5", "verify", ("conjugation", "dynamics"),
            "rung 3x5 (N=125, 8 subsets), conjugation+dynamics suites: dense conjugated products and norms dominate; "
            "spectral is left out as it fails for N>=64",
            rung=(3, 5),
        ),
        Workload(
            "compute-3x8", "compute", (),
            "evogrid compute of one conjugated operator on rung 3x8 (N=512): pure-Python Haar set-up and the dense "
            "JSON write path dominate, no law checking",
            rung=(3, 8), subsets="1,2",
        ),
    )
}
