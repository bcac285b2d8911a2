"""evogrid benchmark runner.

    python3 evobench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; evogrid is imported from `src/`.
NAME is one of the workloads in `ladder.WORKLOADS`, or `all`, which runs
each workload in its own process, one after another, and prints every
metric by name with its unit.

Untraced (`--trace 0`): repeats the workload operation for S seconds and
reports per-operation medians of the end-to-end metrics, with every time
scaled to a fixed reference machine speed (`speed.py`).  Traced
(`--trace 1`): one untraced and one traced operation, plus one
`run_suite(scenario, [suite])` call per suite of the workload, and reports
the per-layer metrics.  Either way the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.

BLAS and OpenMP threads are pinned to 1 in this process before numpy loads.
Every operation goes through a correctness gate outside its timed span; see
`NOTES.md` for the gate, the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".evobench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Besides the load inside each operation, load_scenario is repeated between
# operations for this share of the run, so that set-up samples are many on
# small scenarios and spread over the whole run like the operations.
SETUP_SHARE = 0.08
UNITARY_TOL = 1e-10

END_TO_END = {"setup_s": "s", "run_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_calls") or metric == "rng.haar_entries":
        return "count"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_share") or metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    raise ValueError(f"no unit for metric {metric!r}")


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run prints, in a fixed order."""
    from evobench import ladder, tracer

    names = list(tracer.NAMED) + ["rng.haar_entries", "representation.dense_bytes"]
    names += [f"{layer}.{part}" for layer in tracer.LAYERS for part in ("self_s", "self_share")]
    names += ["representation.dense_share", "dynamics.commutant_witness_useful_ratio"]
    names += [f"suites.{suite}_s" for suite in ladder.ALL_SUITES]
    names += [f"check.{check}_s" for suite in ladder.ALL_SUITES for check in ladder.SUITE_CHECKS[suite]]
    names.append("trace.overhead_ratio")
    return names


class Failure(Exception):
    """An operation's output failed the correctness gate."""


class Runner:
    """One workload at one seed: the operation, its gate and its set-up."""

    def __init__(self, workload, seed: int, workdir: Path):
        import evogrid.cli
        import evogrid.scenario
        import evogrid.suites

        self.workload = workload
        self.seed = seed
        self.scenario_mod = evogrid.scenario
        self.suites_mod = evogrid.suites
        self.cli_mod = evogrid.cli
        self.source, self.override = workload.source(seed)
        self.digests: list[str] = []
        self.clock = time.perf_counter  # what every sample is timed with
        if workload.kind == "compute":
            # `evogrid compute` reads its scenario from a file
            workdir.mkdir(exist_ok=True)
            self.config_path = workdir / f"{workload.name}-{seed}.json"
            self.config_path.write_text(json.dumps(self.source, sort_keys=True), encoding="utf-8")
            self.source = str(self.config_path)

    def close(self) -> None:
        if self.workload.kind == "compute":
            self.config_path.unlink(missing_ok=True)

    def load(self):
        return self.scenario_mod.load_scenario(self.source, seed_override=self.override)

    def timed_load(self) -> tuple[float, object]:
        start = self.clock()
        scn = self.load()
        return self.clock() - start, scn

    def warm_up(self) -> None:
        # first-call costs (imports, LAPACK set-up) land here, not in a sample
        self.suites_mod.run_suite(self.scenario_mod.load_scenario("witness"), ["all"]).to_jsonl()

    def check_rung(self, scn) -> bool:
        """Print N, the admissible-subset count and the fingerprint; True if
        they are the workload's."""
        n, subsets = scn.rep_space.dimension, len(scn.frame.admissible())
        threads = ",".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
        print(f"workload={self.workload.name} seed={self.seed} N={n} admissible_subsets={subsets} "
              f"fingerprint={scn.fingerprint} threads={threads}")
        return (n, subsets) == self.workload.shape()

    def operation(self) -> dict[str, float]:
        """Run one operation, gate it, and return its times in seconds."""
        if self.workload.kind == "compute":
            return self._compute()
        clock = self.clock
        t0 = clock()
        scn = self.load()
        t1 = clock()
        report = self.suites_mod.run_suite(scn, self.workload.suites)
        t2 = clock()
        body = report.to_jsonl()
        t3 = clock()
        self.gate_report(body, self.workload.expected_checks())
        return {"setup_s": t1 - t0, "run_s": t2 - t1, "wall_s": t3 - t0}

    def gate_report(self, body: str, expected) -> None:
        """Fail unless the report passes and carries every expected check."""
        lines = body.splitlines()
        summary = json.loads(lines[-1])
        if summary.get("pass") is not True:
            raise Failure(f"report summary does not pass: {lines[-1]}")
        seen = {json.loads(line)["check"] for line in lines[:-1]}
        missing = [c for c in expected if c not in seen]
        if missing:
            raise Failure(f"report lacks checks {missing}")
        self.digests.append(hashlib.sha256(body.encode("utf-8")).hexdigest())

    def _compute(self) -> dict[str, float]:
        cli, clock = self.cli_mod, self.clock
        load = cli.load_scenario
        loads: list[float] = []

        def timed(*args, **kwargs):
            start = clock()
            try:
                return load(*args, **kwargs)
            finally:
                loads.append(clock() - start)

        # the operator JSON goes to standard output, captured in memory so
        # that disk writes do not add noise
        out = io.StringIO()
        cli.load_scenario = timed
        try:
            with contextlib.redirect_stdout(out):
                t0 = clock()
                code = cli.main(["compute", self.source, "--subsets", self.workload.subsets])
                t3 = clock()
        finally:
            cli.load_scenario = load
        if code != 0:
            raise Failure(f"evogrid compute exited with code {code}")
        self._gate_operator(out.getvalue())
        return {"setup_s": loads[0], "run_s": t3 - t0 - loads[0], "wall_s": t3 - t0}

    def _gate_operator(self, text: str) -> None:
        import numpy as np

        self.digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
        operators = json.loads(text)["operators"]
        if len(operators) != 1:
            raise Failure(f"expected one operator, got {len(operators)}")
        a = np.asarray(operators[0]["matrix"], dtype=np.float64)
        n = self.workload.shape()[0]
        if a.shape != (n, n, 2):
            raise Failure(f"operator has shape {a.shape[:2]}, expected {n}x{n}")
        u = a[..., 0] + 1j * a[..., 1]
        defect = float(np.linalg.norm(u.conj().T @ u - np.eye(n), 2))
        if not defect <= UNITARY_TOL:
            raise Failure(f"operator is not unitary within {UNITARY_TOL:g} (defect {defect:.3e})")


def _attempt(runner: Runner, counts: dict, samples: list) -> float:
    """One gated operation; returns its wall time, or 0.0 if it failed."""
    counts["attempted"] += 1
    try:
        sample = runner.operation()
    except Exception:  # a failing operation is counted, reported and survived
        counts["failed"] += 1
        traceback.print_exc(file=sys.stderr)
        return 0.0
    samples.append(sample)
    return sample["wall_s"]


def _median_line(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    return (f"{name}: median={statistics.median(values):.6g} {unit} min={min(values):.6g} "
            f"max={max(values):.6g} n={len(values)}")


def run_untraced(runner: Runner, seconds: int) -> dict:
    from evobench.speed import Speedometer

    runner.warm_up()
    _, scn = runner.timed_load()
    rung_ok = runner.check_rung(scn)
    del scn
    counts = {"attempted": 0, "failed": 0}
    samples: list[dict] = []  # as measured
    spans: list[tuple[float, float]] = []  # (start, end) of each sample
    loads: list[float] = []  # extra set-up samples
    load_spans: list[tuple[float, float]] = []
    with Speedometer() as speed:
        runner.clock = clock = speed.clock
        start = clock()
        extra = 0.0
        while True:
            t0 = clock()
            if _attempt(runner, counts, samples) > 0:
                spans.append((t0, clock()))
            while extra < SETUP_SHARE * (clock() - start):
                t0 = clock()
                elapsed, _ = runner.timed_load()
                load_spans.append((t0, clock()))
                loads.append(elapsed)
                extra += elapsed
            if clock() - start >= seconds:
                break
    runner.clock = time.perf_counter
    # scaled only now, so that a sample's last ticks include those just after it
    factors = [speed.factor(*span) for span in spans]
    scaled = [{k: v * f for k, v in s.items()} for s, f in zip(samples, factors)]
    setups = [v * speed.factor(*span) for v, span in zip(loads, load_spans)] + [s["setup_s"] for s in scaled]
    raw_setups = loads + [s["setup_s"] for s in samples]
    print(_median_line("speed factor", factors, "x"))
    metrics = {}
    for key in ("run_s", "wall_s"):
        values = [s[key] for s in scaled]
        print(_median_line(key, values, "s"))
        print(_median_line(f"{key} as measured", [s[key] for s in samples], "s"))
        metrics[key] = statistics.median(values) if values else 0.0
    print(_median_line("setup_s", setups, "s"))
    print(_median_line("setup_s as measured", raw_setups, "s"))
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"fail_rate={counts['failed'] / counts['attempted']:.6g} ({counts['failed']}/{counts['attempted']})")
    digests = sorted(set(runner.digests))
    print(f"report_sha256={','.join(digests) if digests else 'none'}")
    return {
        "correct": counts["failed"] == 0 and rung_ok,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": metrics[k], "unit": END_TO_END[k]} for k in END_TO_END},
    }


def run_traced(runner: Runner, workdir: Path) -> dict:
    from evobench import ladder
    from evobench.tracer import LAYERS, Tracer

    workload, seed = runner.workload, runner.seed
    runner.warm_up()
    _, scn = runner.timed_load()
    rung_ok = runner.check_rung(scn)
    counts = {"attempted": 0, "failed": 0}
    samples: list[dict] = []
    untraced = _attempt(runner, counts, samples)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation(1):
            traced = _attempt(runner, counts, samples)
    finally:
        tracer.restore()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced / untraced if untraced > 0 else 0.0
    for suite in ladder.ALL_SUITES:
        metrics[f"suites.{suite}_s"] = 0.0
        for check in ladder.SUITE_CHECKS[suite]:
            metrics[f"check.{check}_s"] = 0.0
    for suite in workload.suites:
        counts["attempted"] += 1
        try:
            start = time.perf_counter()
            report = runner.suites_mod.run_suite(scn, [suite])
            metrics[f"suites.{suite}_s"] = time.perf_counter() - start
            body, _, appendix = report.to_jsonl(include_timings=True).rstrip("\n").rpartition("\n")
            runner.gate_report(body + "\n", ladder.SUITE_CHECKS[suite])
            for check, seconds in json.loads(appendix)["timings"].items():
                metrics[f"check.{check}_s"] = seconds
        except Exception:  # counted as a failed operation, like the timed ones
            counts["failed"] += 1
            traceback.print_exc(file=sys.stderr)
    workdir.mkdir(exist_ok=True)
    spans_path = workdir / f"trace-{workload.name}-{seed}.npz"
    tracer.write(spans_path)
    print(f"spans={len(tracer.span_start)} written to {spans_path}")
    shares = sorted(((metrics[f"{layer}.self_share"], layer) for layer in LAYERS), reverse=True)
    print("layer self-time shares: " + " ".join(f"{layer}={share:.3f}" for share, layer in shares))
    # on compute every Haar draw happens inside the load, so the last ratio is
    # the sampler's share of set-up there; verify suites draw more elsewhere
    load = metrics["scenario.load_s"]
    print(f"split: largest layer={shares[0][1]} "
          f"evolution.self_share={metrics['evolution.self_share']:.3f} "
          f"representation.dense_share={metrics['representation.dense_share']:.3f} "
          f"haar_unitary_s/load_s={metrics['rng.haar_unitary_s'] / load if load > 0 else 0.0:.3f}")
    names = per_layer_names()
    return {
        "correct": counts["failed"] == 0 and rung_ok,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in names},
    }


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in a child process, one at a time; prints every metric."""
    from evobench import ladder

    status = 0
    for name in ladder.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              f"fail_rate={result['failed'] / result['attempted']:.6g}")
        for line in lines[:-1]:
            print(f"  {line}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return status


def use_checkout_sources() -> str | None:
    """Put the checkout's `src/` first on sys.path; the problem, or None."""
    src = ROOT / "src"
    if not (src / "evogrid" / "__init__.py").is_file():
        return f"no evogrid sources under {src}; run from the root of a source checkout"
    sys.path[:0] = [str(src), str(ROOT)]
    import evogrid

    if Path(evogrid.__file__).resolve().parent != (src / "evogrid").resolve():
        return f"imported evogrid from {evogrid.__file__}, not from {src}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before anything loads numpy
        os.environ[var] = "1"
    problem = use_checkout_sources()
    if problem is not None:
        print(f"evobench: {problem}", file=sys.stderr)
        return 2
    from evobench import ladder

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in ladder.WORKLOADS:
        print(f"evobench: unknown workload {args.workload!r}; choose from {list(ladder.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    runner = Runner(ladder.WORKLOADS[args.workload], args.seed, WORKDIR)
    try:
        result = run_traced(runner, WORKDIR) if args.trace else run_untraced(runner, args.seconds)
    finally:
        runner.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
