"""Command line interface.

Subcommands:
  verify   load a scenario, run verification suites, emit a JSONL report
  compute  load a scenario, build evolution operators for chosen time subsets
  demo     print a built-in scenario config as JSON

Exit codes: 0 success, 1 at least one check failed, 2 config or schema
error, or an `--out` path that cannot be written, 3 representation
dimension, algebra coordinate dimension or admissible family size over
the dense cap, 4 domain error (unknown time label, inadmissible subset,
bad suite name), 5 verification aborted because a check's deviation is
not finite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .dynamics import evolution_unitary
from .errors import CapExceededError, ConfigError, DomainError, EvogridError
from .representation import DiagonalOperator
from .scenario import BUILTIN_NAMES, builtin_scenario, canonical_json, load_scenario
from .suites import SUITE_NAMES, run_suite

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evogrid",
        description="Finite-grid evolution spaces: verification and operator computation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites against a scenario")
    p_verify.add_argument("scenario", help=f"path to a scenario JSON file or one of {', '.join(BUILTIN_NAMES)}")
    p_verify.add_argument("--suite", action="append", default=None,
                          help=f"suite to run ({', '.join(SUITE_NAMES)} or all); repeatable")
    p_verify.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_verify.add_argument("--out", default=None, help="write the JSONL report here instead of stdout")
    p_verify.add_argument("--timings", action="store_true",
                          help="append a timings record (excluded from the deterministic body)")

    p_compute = sub.add_parser("compute", help="build evolution operators for time subsets")
    p_compute.add_argument("scenario", help="path to a scenario JSON file or a built-in name")
    p_compute.add_argument("--subsets", required=True,
                           help="semicolon-separated subsets of time labels, each a comma list of distinct labels; "
                                "'-' is the empty set")
    p_compute.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_compute.add_argument("--out", default=None, help="write the operator JSON here instead of stdout")

    p_demo = sub.add_parser("demo", help="print a built-in scenario config")
    p_demo.add_argument("name", nargs="?", default="demo", choices=list(BUILTIN_NAMES))
    p_demo.add_argument("--out", default=None, help="write the config JSON here instead of stdout")
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_subsets(raw: str) -> list[list[str]]:
    """One label list per `;`-separated group; `-` is the empty set.

    An empty group or label, or a label repeated within a group, is a
    DomainError: none names the subset it appears to.
    """
    groups = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if chunk == "-":
            groups.append([])
            continue
        labels = [part.strip() for part in chunk.split(",")]
        if "" in labels:
            raise DomainError(f"empty time label in subset group {chunk!r}; '-' names the empty set")
        if len(set(labels)) < len(labels):
            raise DomainError(f"time label repeated in subset group {chunk!r}")
        groups.append(labels)
    return groups


def _operator_payload(op) -> dict:
    if isinstance(op, DiagonalOperator):
        return {"kind": "diagonal", "diagonal": op.diag}
    return {"kind": "dense", "matrix": op.to_dense()}


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _array_json(a: np.ndarray, level: int) -> str:
    """A complex array as `encode_matrix` nests it, in `_indented_json`'s layout.

    Every float is formatted by `float.__repr__`, as json does; the texts are
    then joined innermost first: [re, im] pairs, then each axis of `a`.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    floats = a.view(np.float64).ravel()
    items = list(map(float.__repr__, floats.tolist()))
    if not np.isfinite(floats).all():
        items = [_NON_FINITE.get(text, text) for text in items]
    inner = "\n" + "  " * (level + a.ndim + 1)
    sep, close = "," + inner, "\n" + "  " * (level + a.ndim) + "]"
    items = [f"[{inner}{re}{sep}{im}{close}" for re, im in zip(items[0::2], items[1::2])]
    for axis in reversed(range(a.ndim)):
        n, count = a.shape[axis], math.prod(a.shape[:axis])
        if n == 0:
            items = ["[]"] * count
            continue
        inner = "\n" + "  " * (level + axis + 1)
        sep, close = "," + inner, "\n" + "  " * (level + axis) + "]"
        items = ["[" + inner + sep.join(items[i : i + n]) + close for i in range(0, count * n, n)]
    return items[0]


def _indented_json(obj, level: int = 0) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` at nesting `level`, byte for
    byte, with each ndarray written as its `encode_matrix` lists would be."""
    if isinstance(obj, np.ndarray):
        return _array_json(obj, level)
    if not obj or not isinstance(obj, (dict, list)):
        return json.dumps(obj)
    inner = "\n" + "  " * (level + 1)
    if isinstance(obj, dict):
        items = [f"{json.dumps(key)}: {_indented_json(obj[key], level + 1)}" for key in sorted(obj)]
        brackets = "{}"
    else:
        items = [_indented_json(item, level + 1) for item in obj]
        brackets = "[]"
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


def _cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario, seed_override=args.seed)
    suites = args.suite if args.suite else ["all"]
    flat: list[str] = []
    for entry in suites:
        flat.extend(s.strip() for s in entry.split(",") if s.strip())
    report = run_suite(scenario, flat)
    _emit(report.to_jsonl(include_timings=args.timings), args.out)
    failed = [r.check for r in report.records if not r.passed]
    status = "pass" if report.overall_pass else "FAIL: " + ", ".join(failed)
    print(f"{len(report.records)} checks, {len(failed)} failed ({status})", file=sys.stderr)
    return 0 if report.overall_pass else 1


def _cmd_compute(args) -> int:
    scenario = load_scenario(args.scenario, seed_override=args.seed)
    frame = scenario.frame
    rep = scenario.conjugated or scenario.representation
    operators = []
    for labels in _parse_subsets(args.subsets):
        for t in labels:
            if t not in frame.times:
                raise DomainError(f"unknown time label {t!r}; frame has {list(frame.times)}")
        subset = frozenset(labels)
        if not frame.is_admissible(subset):
            raise DomainError(f"subset {sorted(labels)} is not in the admissible family")
        payload = _operator_payload(evolution_unitary(scenario.weight, subset, rep))
        payload["times"] = sorted(labels, key=frame.position)
        operators.append(payload)
    doc = {
        "scenario": scenario.name,
        "fingerprint": scenario.fingerprint,
        "conjugated": scenario.conjugated is not None,
        "operators": operators,
    }
    _emit(_indented_json(doc), args.out)
    return 0


def _cmd_demo(args) -> int:
    cfg = builtin_scenario(args.name)
    _emit(canonical_json(cfg), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "compute":
            return _cmd_compute(args)
        return _cmd_demo(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # load_scenario reports its own as ConfigError, so this is the output's
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4
    except EvogridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
