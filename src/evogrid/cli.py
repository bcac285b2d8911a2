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
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .dynamics import evolution_unitary
from .errors import CapExceededError, ConfigError, DomainError, EvogridError
from .floattext import FloatJoiner
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
                                "'-' is the empty set (write --subsets=-;1 when the list starts with it)")
    p_compute.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_compute.add_argument("--out", default=None, help="write the operator JSON here instead of stdout")

    p_demo = sub.add_parser("demo", help="print a built-in scenario config")
    p_demo.add_argument("name", nargs="?", default="demo", choices=list(BUILTIN_NAMES))
    p_demo.add_argument("--out", default=None, help="write the config JSON here instead of stdout")
    return parser


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write each text chunk as it comes; stdout gets a final newline."""
    if out_path is None:
        last = ""
        for last in chunks:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


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


# floats formatted per chunk: the writer holds one chunk's text at a time
_CHUNK_FLOATS = 1 << 14


def _array_chunks(a: np.ndarray, level: int) -> Iterator[str]:
    """A complex array as `encode_matrix` nests it, in `_json_chunks`' layout.

    The text after a float depends only on how many trailing axes of the
    float array wrap there: `seps[k]` for k axes, which is `seps[depth]`, the
    closing brackets, after the last float.  Each chunk of `_CHUNK_FLOATS`
    floats is formatted by one `floattext.FloatJoiner`, repr's text for each
    float.  An array that holds no float is written as the list of its
    slices.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.size == 0:
        yield from _json_chunks(list(a), level)
        return
    shape = a.shape + (2,)
    depth = len(shape)
    pad = ["\n" + "  " * (level + d) for d in range(depth + 1)]
    opens = ["".join("[" + pad[d + 1] for d in range(depth - k, depth)) for k in range(depth + 1)]
    closes = ["".join(pad[depth - 1 - j] + "]" for j in range(k)) for k in range(depth + 1)]
    seps = [closes[k] + "," + pad[depth - k] + opens[k] for k in range(depth)] + [closes[depth]]
    wraps = np.cumprod(shape[::-1])  # float counts of the trailing 1, 2, ..., depth axes
    flat = a.reshape(-1).view(np.float64)
    join = FloatJoiner(seps)
    yield opens[depth]
    for lo in range(0, flat.size, _CHUNK_FLOATS):
        block = flat[lo : lo + _CHUNK_FLOATS]
        after = np.arange(lo + 1, lo + 1 + block.size)
        # a float's separator is the count of trailing axes that wrap after it
        yield join(block, sum(after % w == 0 for w in wraps))


def _json_chunks(obj, level: int = 0) -> Iterator[str]:
    """`json.dumps(obj, sort_keys=True, indent=2)` at nesting `level` as text
    chunks, byte for byte, with each ndarray written as its `encode_matrix`
    lists would be, and an iterator as the list of its items, each taken
    only once the text before it has been yielded."""
    if isinstance(obj, np.ndarray):
        yield from _array_chunks(obj, level)
        return
    if isinstance(obj, dict):
        items, brackets = ((json.dumps(key) + ": ", obj[key]) for key in sorted(obj)), "{}"
    elif isinstance(obj, (list, Iterator)):
        items, brackets = (("", item) for item in obj), "[]"
    else:
        yield json.dumps(obj)
        return
    inner = "\n" + "  " * (level + 1)
    empty = True
    for head, value in items:
        yield (brackets[0] if empty else ",") + inner + head
        empty = False
        yield from _json_chunks(value, level + 1)
    yield brackets if empty else "\n" + "  " * level + brackets[1]


def _cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario, seed_override=args.seed)
    suites = args.suite if args.suite else ["all"]
    flat: list[str] = []
    for entry in suites:
        flat.extend(s.strip() for s in entry.split(",") if s.strip())
    report = run_suite(scenario, flat)
    _emit([report.to_jsonl(include_timings=args.timings)], args.out)
    failed = [r.check for r in report.records if not r.passed]
    status = "pass" if report.overall_pass else "FAIL: " + ", ".join(failed)
    print(f"{len(report.records)} checks, {len(failed)} failed ({status})", file=sys.stderr)
    return 0 if report.overall_pass else 1


def _cmd_compute(args) -> int:
    scenario = load_scenario(args.scenario, seed_override=args.seed)
    frame = scenario.frame
    rep = scenario.conjugated or scenario.representation
    groups = _parse_subsets(args.subsets)
    for labels in groups:
        for t in labels:
            if t not in frame.times:
                raise DomainError(f"unknown time label {t!r}; frame has {list(frame.times)}")
        if not frame.is_admissible(frozenset(labels)):
            raise DomainError(f"subset {sorted(labels)} is not in the admissible family")

    def operator(labels: list[str]) -> dict:
        payload = _operator_payload(evolution_unitary(scenario.weight, frozenset(labels), rep))
        payload["times"] = sorted(labels, key=frame.position)
        return payload

    doc = {
        "scenario": scenario.name,
        "fingerprint": scenario.fingerprint,
        "conjugated": scenario.conjugated is not None,
        # built one at a time, as the writer reaches each
        "operators": map(operator, groups),
    }
    _emit(_json_chunks(doc), args.out)
    return 0


def _cmd_demo(args) -> int:
    cfg = builtin_scenario(args.name)
    _emit([canonical_json(cfg)], args.out)
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
