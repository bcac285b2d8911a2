"""Scenario files: everything a verification run needs, in one JSON document.

A scenario pins down the algebra (block dimensions), the time frame (ordered
labels, decimal-string weights, admissible family), one grid of maps per
time, the dynamics (either a local Lagrangian built from duality probes or an
extensional action weight), an optional conjugator, tolerances, caps, and the
seed for suite sampling.  Matrices travel as row-major arrays of [re, im]
pairs; measure weights travel as decimal strings so that no JSON float
parsing is involved in defining the measure.

Loading produces a fully built object graph plus a fingerprint: the SHA-256
of the canonical JSON encoding of the effective config (sorted keys, compact
separators).  Identical config plus seed therefore means identical
fingerprint, and every downstream sample stream is keyed off the seed, which
is what makes verification reports reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Mapping

import numpy as np

from .algebra import Automorphism, ElementaryTensor, NormalFunctional, WStarAlgebra, weakstar_pairing
from .dynamics import ActionWeight, resolve_g
from .errors import ConfigError, EvogridError
from .evolution import GridEvolutionSpace, GridFunction, GridPointMap, TimeFrame, named_contraction
from .lagrangian import Lagrangian, weight_from_lagrangian
from .representation import DENSE_CAP_DEFAULT, PureRepresentation, RepresentationSpace, check_cap, conjugate
from .rng import SplitMix64

__all__ = [
    "Tolerances",
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
    "builtin_scenario",
    "BUILTIN_NAMES",
    "canonical_json",
    "encode_matrix",
    "decode_matrix",
    "CAP_ENV_VAR",
]

CAP_ENV_VAR = "EVOGRID_DENSE_CAP"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def encode_matrix(m) -> list:
    """A complex array as nested row-major [re, im] pairs of Python floats (-0.0 kept)."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def _number(obj, message: str) -> float:
    """float(obj), which keeps -0.0; what float() refuses or overflows on is ConfigError(message)."""
    try:
        return float(obj)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(message) from None


def _pairs(obj, message: str) -> list[complex]:
    """One complex per [re, im] entry of the list `obj`; anything else is ConfigError(message)."""
    if not isinstance(obj, list) or not all(isinstance(entry, list) and len(entry) == 2 for entry in obj):
        raise ConfigError(message)
    return [complex(_number(re, message), _number(im, message)) for re, im in obj]


def decode_matrix(obj, context: str) -> np.ndarray:
    message = f"{context}: matrices are row-major arrays of [re, im] pairs"
    try:
        a = np.array([_pairs(row, message) for row in obj], dtype=np.complex128)
    except (TypeError, ValueError):  # not a list of rows, or rows of different lengths
        raise ConfigError(message) from None
    if a.ndim != 2:
        raise ConfigError(f"{context}: expected a two-dimensional matrix")
    return a


@contextmanager
def _as_config_error(context: str):
    """Re-raise a library error from the block as ConfigError(f"{context}: {exc}"); a ConfigError passes."""
    try:
        yield
    except ConfigError:
        raise
    except EvogridError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _one_of(obj, keys: tuple, context: str) -> str:
    """The one key of `keys` that the mapping `obj` holds; other keys, none or several are a ConfigError."""
    present = [k for k in keys if k in _expect_object(obj, context, keys)]
    if len(present) != 1:
        raise ConfigError(f"{context}: exactly one of {'/'.join(keys)} is required")
    return present[0]


def _expect_mapping(obj, context: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{context}: expected an object")
    return obj


def _expect_object(obj, context: str, keys) -> Mapping:
    """A mapping whose keys all lie in `keys`; unknown keys are a ConfigError."""
    spec = _expect_mapping(obj, context)
    extra = set(spec) - set(keys)
    if extra:
        raise ConfigError(f"{context}: unknown keys {sorted(extra)}")
    return spec


def _expect_list(obj, context: str) -> list:
    if not isinstance(obj, list):
        raise ConfigError(f"{context}: expected a list")
    return obj


def _expect_int(obj, context: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{context}: expected an integer")
    return obj


def _finite_number(obj, context: str) -> float:
    """A finite number; booleans, NaN, infinities and integers past float range are a ConfigError."""
    message = f"{context}: expected a finite number, got {obj!r}"
    value = _number(obj, message)
    if isinstance(obj, bool) or not math.isfinite(value):
        raise ConfigError(message)
    return value


def _nonnegative_number(obj, context: str) -> float:
    """A finite number that is not negative; anything else is a ConfigError."""
    value = _finite_number(obj, context)
    if value < 0.0:
        raise ConfigError(f"{context}: expected a nonnegative number, got {obj!r}")
    return value


def _decode_block_element(obj, algebra: WStarAlgebra, context: str):
    blocks = _expect_list(obj, context)
    if len(blocks) != algebra.nblocks:
        raise ConfigError(f"{context}: expected {algebra.nblocks} blocks")
    mats = [decode_matrix(b, context) for b in blocks]
    for m, n in zip(mats, algebra.block_dims):
        if m.shape != (n, n):
            raise ConfigError(f"{context}: block shape {m.shape} does not match dimension {n}")
    return mats


@dataclass(frozen=True)
class Tolerances:
    """Default tolerances used by the suites, overridable per scenario."""

    exact: float = 0.0
    conjugated: float = 1e-12
    unitary: float = 1e-10
    dynamics: float = 1e-12

    @classmethod
    def from_config(cls, obj) -> "Tolerances":
        if obj is None:
            return cls()
        table = _expect_object(obj, "tolerances", ("exact", "conjugated", "unitary", "dynamics"))
        return cls(**{key: _nonnegative_number(val, f"tolerances.{key}") for key, val in table.items()})


@dataclass(frozen=True, eq=False)
class Scenario:
    """Loaded scenario: built objects plus the effective config and fingerprint."""

    name: str
    seed: int
    cap: int
    tolerances: Tolerances
    algebra: WStarAlgebra
    frame: TimeFrame
    space: GridEvolutionSpace
    rep_space: RepresentationSpace
    representation: PureRepresentation
    conjugated: PureRepresentation | None
    weight: ActionWeight
    lagrangian: Lagrangian | None
    witness_threshold: float | None
    config: dict
    fingerprint: str


def _parse_frame(cfg: Mapping, cap: int) -> TimeFrame:
    frame_cfg = _expect_object(cfg.get("time_frame"), "time_frame", ("times", "weights", "sigma0"))
    raw_times = _expect_list(frame_cfg.get("times"), "time_frame.times")
    times = tuple(str(t) for t in raw_times)
    if len(set(times)) != len(times) or not times:
        raise ConfigError("time_frame.times must be nonempty and distinct")
    weights_cfg = _expect_mapping(frame_cfg.get("weights"), "time_frame.weights")
    weights = []
    for t in times:
        if t not in weights_cfg:
            raise ConfigError(f"time_frame.weights: missing weight for time {t!r}")
        raw = weights_cfg[t]
        if not isinstance(raw, str):
            raise ConfigError(f"time_frame.weights[{t!r}]: weights are decimal strings, got {raw!r}")
        try:
            weights.append(float(Decimal(raw)))
        except InvalidOperation:
            raise ConfigError(f"time_frame.weights[{t!r}]: invalid decimal string {raw!r}") from None
    extra = set(weights_cfg) - set(times)
    if extra:
        raise ConfigError(f"time_frame.weights: unknown time labels {sorted(extra)}")
    sigma_cfg = frame_cfg.get("sigma0", "all")
    if sigma_cfg == "all":
        sigma0 = None
    else:
        subsets = _expect_list(sigma_cfg, "time_frame.sigma0")
        sigma0 = tuple(frozenset(str(t) for t in _expect_list(s, "time_frame.sigma0[]")) for s in subsets)
    # pair tables are m x m: bound m before the family is enumerated or checked for union closure
    check_cap(2 ** len(times) if sigma0 is None else len(sigma0), cap, "admissible family size")
    with _as_config_error("time_frame"):
        return TimeFrame(times, tuple(weights), sigma0)


def _grid_plan(entry, t: str) -> tuple[str, object, int]:
    """A grid's kind, its checked spec (the list, or the haar seed) and its number of maps; nothing is drawn."""
    context = f"grids[{t!r}]"
    kind = _one_of(entry, ("unitaries", "haar", "named"), context)
    if kind != "haar":
        items = _expect_list(entry[kind], f"{context}.{kind}")
        return kind, items, len(items)
    haar = _expect_object(entry["haar"], f"{context}.haar", ("count", "seed"))
    count = _expect_int(haar.get("count"), f"{context}.haar.count")
    seed = _expect_int(haar.get("seed"), f"{context}.haar.seed")
    if count < 1:
        raise ConfigError(f"{context}.haar.count must be at least 1")
    return kind, seed, count


def _build_grid(plan: tuple[str, object, int], algebra: WStarAlgebra, t: str) -> tuple[GridPointMap, ...]:
    kind, spec, count = plan
    context = f"grids[{t!r}].{kind}"
    if kind == "haar":
        # one draw for the grid: the stream and bits of `count` Automorphism.haar calls
        draws = algebra._haar_blocks(SplitMix64(spec), count)
        automorphisms = (Automorphism.conjugation(algebra, [u[k] for u in draws]) for k in range(count))
        return tuple(map(GridPointMap.from_automorphism, automorphisms))
    if kind == "named":
        with _as_config_error(context):
            return tuple(named_contraction(str(name), algebra) for name in spec)
    maps = []
    for i, entry_cfg in enumerate(spec):
        ctx = f"{context}[{i}]"
        if isinstance(entry_cfg, Mapping):
            _expect_object(entry_cfg, ctx, ("blocks", "perm"))
            blocks = _decode_block_element(entry_cfg.get("blocks"), algebra, ctx)
            perm = entry_cfg.get("perm")
            if perm is not None:
                perm = tuple(_expect_int(p, f"{ctx}.perm") for p in _expect_list(perm, f"{ctx}.perm"))
        else:
            blocks = _decode_block_element(entry_cfg, algebra, ctx)
            perm = None
        with _as_config_error(ctx):
            maps.append(GridPointMap.from_automorphism(Automorphism.conjugation(algebra, blocks, perm)))
    return tuple(maps)


def _parse_probe(obj, algebra: WStarAlgebra, context: str) -> ElementaryTensor:
    spec = _expect_object(obj, context, ("pairs",))
    pairs = []
    for i, pair_cfg in enumerate(_expect_list(spec.get("pairs"), f"{context}.pairs")):
        pair = _expect_object(pair_cfg, f"{context}.pairs[{i}]", ("element", "density"))
        element = algebra.element(_decode_block_element(pair.get("element"), algebra, f"{context}.pairs[{i}].element"))
        density = NormalFunctional(
            algebra,
            tuple(_decode_block_element(pair.get("density"), algebra, f"{context}.pairs[{i}].density")),
        )
        pairs.append((element, density))
    if not pairs:
        raise ConfigError(f"{context}.pairs must be nonempty")
    return ElementaryTensor(algebra, tuple(pairs))


def _parse_reference(obj, algebra: WStarAlgebra, space: GridEvolutionSpace, t: str, context: str) -> GridPointMap:
    kind = _one_of(obj, ("grid_index", "named", "unitary"), context)
    with _as_config_error(context):
        if kind == "grid_index":
            return space.map_at(t, _expect_int(obj["grid_index"], f"{context}.grid_index"))
        if kind == "named":
            return named_contraction(str(obj["named"]), algebra)
        blocks = _decode_block_element(obj["unitary"], algebra, f"{context}.unitary")
        return GridPointMap.from_automorphism(Automorphism.conjugation(algebra, blocks))


def _parse_dynamics(cfg: Mapping, algebra: WStarAlgebra, space: GridEvolutionSpace):
    dyn = _expect_mapping(cfg.get("dynamics"), "dynamics")
    kind = dyn.get("kind")
    if kind == "lagrangian":
        _expect_object(dyn, "dynamics", ("kind", "terms"))
        terms_cfg = _expect_mapping(dyn.get("terms"), "dynamics.terms")
        times = space.frame.times
        if set(terms_cfg) != set(times):
            raise ConfigError("dynamics.terms must name exactly the frame's time labels")
        probes, post_maps, references = {}, {}, {}
        for t in times:
            term = _expect_object(terms_cfg[t], f"dynamics.terms[{t!r}]", ("probe", "post_map", "reference"))
            probes[t] = _parse_probe(term.get("probe"), algebra, f"dynamics.terms[{t!r}].probe")
            with _as_config_error(f"dynamics.terms[{t!r}].post_map"):
                post_maps[t] = resolve_g(term.get("post_map"))
            references[t] = _parse_reference(
                term.get("reference"), algebra, space, t, f"dynamics.terms[{t!r}].reference"
            )
        bases = {t: weakstar_pairing(references[t], probes[t]) for t in times}

        def term_fn(t, index, grid_map):
            value = weakstar_pairing(grid_map, probes[t]) - bases[t]
            return post_maps[t](value)

        with _as_config_error("dynamics"):
            lagrangian = Lagrangian.from_local(space, term_fn)
            return weight_from_lagrangian(lagrangian), lagrangian
    if kind == "action_weight":
        _expect_object(dyn, "dynamics", ("kind", "weights"))
        entries = _expect_list(dyn.get("weights"), "dynamics.weights")
        functions = {}
        for i, entry in enumerate(entries):
            item = _expect_object(entry, f"dynamics.weights[{i}]", ("times", "values"))
            subset = frozenset(str(t) for t in _expect_list(item.get("times"), f"dynamics.weights[{i}].times"))
            context = f"dynamics.weights[{i}].values"
            values = _pairs(_expect_list(item.get("values"), context), f"{context}: expected [re, im] pairs")
            if subset in functions:
                raise ConfigError(f"dynamics.weights[{i}]: duplicate subset")
            with _as_config_error(f"dynamics.weights[{i}]"):
                functions[subset] = GridFunction(space, subset, np.array(values, dtype=np.complex128))
        with _as_config_error("dynamics.weights"):
            return ActionWeight(space, functions), None
    raise ConfigError("dynamics.kind must be 'lagrangian' or 'action_weight'")


def _parse_conjugator(cfg: Mapping, representation: PureRepresentation) -> PureRepresentation | None:
    obj = cfg.get("conjugator")
    if obj is None:
        return None
    dimension = representation.dimension
    if _one_of(obj, ("haar", "matrix"), "conjugator") == "haar":
        haar = _expect_object(obj["haar"], "conjugator.haar", ("seed",))
        seed = _expect_int(haar.get("seed"), "conjugator.haar.seed")
        u = SplitMix64(seed).haar_unitary(dimension)
    else:
        u = decode_matrix(obj["matrix"], "conjugator.matrix")
        if u.shape != (dimension, dimension):
            raise ConfigError(f"conjugator.matrix must be {dimension}x{dimension}")
    with _as_config_error("conjugator"):
        return conjugate(u, representation)


def scenario_from_dict(cfg: dict, seed_override: int | None = None) -> Scenario:
    """Build the object graph from a config dict; see the module docstring."""
    cfg = _expect_object(
        cfg,
        "scenario",
        ("name", "seed", "cap", "tolerances", "algebra", "time_frame",
         "grids", "dynamics", "conjugator", "witness_threshold"),
    )

    effective = json.loads(canonical_json(dict(cfg)))
    if seed_override is not None:
        effective["seed"] = int(seed_override)
    name = str(effective.get("name", "scenario"))
    seed = _expect_int(effective.get("seed", 0), "seed")

    cap = _expect_int(effective.get("cap", DENSE_CAP_DEFAULT), "cap")
    env_cap = os.environ.get(CAP_ENV_VAR)
    if env_cap is not None:
        try:
            cap = int(env_cap)
        except ValueError:
            raise ConfigError(f"{CAP_ENV_VAR} must be an integer, got {env_cap!r}") from None

    tolerances = Tolerances.from_config(effective.get("tolerances"))

    algebra_cfg = _expect_object(effective.get("algebra"), "algebra", ("blocks",))
    blocks = _expect_list(algebra_cfg.get("blocks"), "algebra.blocks")
    with _as_config_error("algebra"):
        algebra = WStarAlgebra(tuple(_expect_int(b, "algebra.blocks[]") for b in blocks))
    # the algebra suite holds d x d coordinate maps, d = sum n_i^2: bound d
    # before any frame, grid or probe is built
    check_cap(algebra.dimension, cap, "algebra coordinate dimension")

    frame = _parse_frame(effective, cap)

    grids_cfg = _expect_mapping(effective.get("grids"), "grids")
    if set(grids_cfg) != set(frame.times):
        raise ConfigError("grids must name exactly the frame's time labels")
    plans = [_grid_plan(grids_cfg[t], t) for t in frame.times]
    # the dimension is the product of the grid sizes: check it before any map
    # is drawn; an empty grid is rejected below and hides no other grid's size
    check_cap(math.prod(max(size, 1) for _, _, size in plans), cap)
    with _as_config_error("grids"):
        space = GridEvolutionSpace(frame, tuple(_build_grid(plan, algebra, t) for plan, t in zip(plans, frame.times)))

    rep_space = RepresentationSpace(space, cap=cap)
    representation = PureRepresentation(rep_space)

    weight, lagrangian = _parse_dynamics(effective, algebra, space)
    conjugated = _parse_conjugator(effective, representation)

    # every witness value is >= 0, so a negative threshold would pass any conjugator
    threshold = effective.get("witness_threshold")
    if threshold is not None:
        threshold = _nonnegative_number(threshold, "witness_threshold")

    return Scenario(
        name=name,
        seed=seed,
        cap=cap,
        tolerances=tolerances,
        algebra=algebra,
        frame=frame,
        space=space,
        rep_space=rep_space,
        representation=representation,
        conjugated=conjugated,
        weight=weight,
        lagrangian=lagrangian,
        witness_threshold=threshold,
        config=effective,
        fingerprint=hashlib.sha256(canonical_json(effective).encode("ascii")).hexdigest(),
    )


def load_scenario(source, seed_override: int | None = None) -> Scenario:
    """Load from a file path, a builtin name ('demo', 'witness'), or a dict."""
    if isinstance(source, dict):
        return scenario_from_dict(source, seed_override)
    text = str(source)
    if text in BUILTIN_NAMES:
        return scenario_from_dict(builtin_scenario(text), seed_override)
    try:
        with open(text, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from None
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from None
    return scenario_from_dict(cfg, seed_override)


# -- builtin scenarios ----------------------------------------------------


def _demo_scenario() -> dict:
    i2 = [[1, 0], [0, 1]]
    return {
        "name": "demo",
        "seed": 42,
        "cap": 4096,
        "algebra": {"blocks": [2, 3]},
        "time_frame": {
            "times": ["1", "2", "3"],
            "weights": {"1": "0.5", "2": "2.0", "3": "0"},
            "sigma0": "all",
        },
        "grids": {
            "1": {"haar": {"count": 2, "seed": 11}},
            "2": {"haar": {"count": 3, "seed": 22}},
            "3": {"named": ["identity", "trace_average"]},
        },
        "dynamics": {
            "kind": "lagrangian",
            "terms": {
                "1": {
                    "probe": {
                        "pairs": [
                            {
                                "element": [
                                    encode_matrix([[1, 0], [0, -1]]),
                                    encode_matrix([[1, 0, 0], [0, 0, 0], [0, 0, -1]]),
                                ],
                                "density": [
                                    encode_matrix([[0.5, 0.1j], [-0.1j, -0.25]]),
                                    encode_matrix([[0.25, 0, 0], [0, 0.5, 0], [0, 0, -0.5]]),
                                ],
                            }
                        ]
                    },
                    "post_map": "abs2",
                    "reference": {"grid_index": 0},
                },
                "2": {
                    "probe": {
                        "pairs": [
                            {
                                "element": [
                                    encode_matrix([[0, 1], [1, 0]]),
                                    encode_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
                                ],
                                "density": [
                                    encode_matrix([[0.25, 0], [0, 0.75]]),
                                    encode_matrix([[1 / 3, 0, 0], [0, 1 / 3, 0], [0, 0, 1 / 3]]),
                                ],
                            }
                        ]
                    },
                    "post_map": "re",
                    "reference": {"grid_index": 1},
                },
                "3": {
                    "probe": {
                        "pairs": [
                            {
                                "element": [
                                    encode_matrix([[1, 0], [0, 0]]),
                                    encode_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
                                ],
                                "density": [
                                    encode_matrix([[0.5, 0], [0, 0.5]]),
                                    encode_matrix([[0.2, 0, 0], [0, 0.3, 0], [0, 0, 0.5]]),
                                ],
                            }
                        ]
                    },
                    "post_map": "abs",
                    "reference": {"grid_index": 0},
                },
            },
        },
        "conjugator": {"haar": {"seed": 91}},
    }


def _witness_scenario() -> dict:
    s = 2.0 ** -0.5
    return {
        "name": "witness",
        "seed": 7,
        "cap": 4096,
        "algebra": {"blocks": [2]},
        "time_frame": {
            "times": ["1"],
            "weights": {"1": "1"},
            "sigma0": "all",
        },
        "grids": {"1": {"named": ["identity", "trace_average"]}},
        "dynamics": {
            "kind": "action_weight",
            "weights": [
                {"times": [], "values": [[1.0, 0.0]]},
                {"times": ["1"], "values": [[1.0, 0.0], [-1.0, 0.0]]},
            ],
        },
        "conjugator": {"matrix": [[[s, 0.0], [s, 0.0]], [[s, 0.0], [-s, 0.0]]]},
        "witness_threshold": 0.1,
    }


BUILTIN_NAMES = ("demo", "witness")


def builtin_scenario(name: str) -> dict:
    if name == "demo":
        return _demo_scenario()
    if name == "witness":
        return _witness_scenario()
    raise ConfigError(f"unknown builtin scenario {name!r}")
