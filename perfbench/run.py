"""segalsim benchmark: fresh-process CLI runs, their output checks, and layer spans.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every run is a fresh process
(perfbench/worker.py) that does what ``segalsim run`` does, because a CLI
user pays interpreter start, import and per-model set-up on every run and
the set-up is cached inside a process.  Before the timed runs one
discarded warm-up pays the one-time costs of a checkout (bytecode
compile, page cache); it caps the event count at 10^4, since every
process pays the event volume afresh anyway.

``--trace 0`` repeats the scenario run for about ``--seconds``, at least
three times, checks every output, and prints the end-to-end metrics
(medians over the runs).
``--trace 1`` repeats traced scenario runs, then one probe process
re-runs each internal layer on the same inputs, and prints the
per-layer metrics; its spans go to
``.perfbench_out/<workload>/spans-seed<N>.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Provenance and every run's figures go to ``result-seed<N>-trace<T>.json``
beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().with_name("worker.py")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WARMUP_EVENTS = 10_000
MIN_RUNS = 3
BUDGET_S = 150          # per workload: later runs are not started, a running one is killed
NPROC = len(os.sched_getaffinity(0))


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Run:
    mode: str
    start: float
    wall_s: float
    stamps: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def setup_s(self) -> float:
        return self.stamps["ready"] - self.start

    @property
    def rss_mb(self) -> float:
        return self.stamps["peak_rss_mb"]


def spawn(mode: str, config: Path, out: Path, deadline: float) -> Run:
    """One worker process, timed from spawn to exit."""
    stamp_path = out.with_name(f"stamps-{mode}.json")
    stamp_path.unlink(missing_ok=True)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(NPROC)
    with open(out.with_name(f"stderr-{mode}.txt"), "wb") as err:
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), mode, str(config), str(out), str(stamp_path)],
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=env,
        )
        watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
        watchdog.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = clock()
    run = Run(mode=mode, start=start, wall_s=end - start)
    if proc.returncode != 0:
        tail = out.with_name(f"stderr-{mode}.txt").read_text(errors="replace").strip().splitlines()[-1:]
        run.error = f"{mode} run exited with {proc.returncode}: {' '.join(tail)}"
    else:
        run.stamps = json.loads(stamp_path.read_text(encoding="utf-8"))
    return run


class Checker:
    """Checks each scenario run's outputs; identical bytes are checked once."""

    def __init__(self, w: workloads.Workload, seed: int, config_sha: str) -> None:
        self.w, self.seed, self.config_sha = w, seed, config_sha
        self.first: dict[str, str] | None = None

    def __call__(self, out: Path) -> None:
        report = events = None
        if out.suffix == ".json":
            report = out.read_bytes()
            if self.w.has_events:
                events = out.with_name(out.stem + ".events.csv").read_bytes()
        else:
            events = out.read_bytes()
        hashes = {"config": self.config_sha}
        if report is not None:
            hashes["report"] = checks.sha256(report)
        if events is not None:
            hashes["events"] = checks.sha256(events)
        if self.first is None:
            checks.check_outputs(self.w, report, events)
            checks.check_golden(self.w, self.seed, hashes)
            self.first = hashes
        elif hashes != self.first:
            raise checks.CheckError("output bytes differ between runs of one (config, seed)")


def git_tree_sha(path: Path) -> str:
    """Git's tree id for ``path``, computed from the files (the checkout has no .git).

    Bytecode caches are skipped, as .gitignore skips them; on a clean
    checkout this equals ``git rev-parse HEAD:src``.
    """
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.suffix == ".pyc":
            continue
        if child.is_dir():
            sha, mode, key = git_tree_sha(child), b"40000", child.name + "/"
        else:
            data = child.read_bytes()
            sha = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            key = child.name
        entries.append((key.encode(), mode + b" " + child.name.encode() + b"\0" + bytes.fromhex(sha)))
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def provenance(seed: int, config_sha: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": NPROC,
        "nproc": NPROC,
        "src_tree_sha": git_tree_sha(ROOT / "src"),
        "workload_seed": seed,
        "config_sha256": config_sha,
    }


def self_times(spans: list[dict]) -> None:
    """Self time = duration minus the part of it that child spans cover."""
    by_id = {s["span_id"]: s for s in spans}
    children: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent_id"] in by_id:
            children.setdefault(s["parent_id"], []).append(s)
    for s in spans:
        covered, reach = 0.0, s["start_s"]
        for c in sorted(children.get(s["span_id"], []), key=lambda c: c["start_s"]):
            lo, hi = max(c["start_s"], reach), min(c["start_s"] + c["duration_s"], s["start_s"] + s["duration_s"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        s["self_s"] = s["duration_s"] - covered


def trace_spans(trace_id: str, root_name: str, run: Run, origin: float) -> list[dict]:
    """The root span (spawn to exit, measured here) and the worker's spans under it."""
    root_id = f"{trace_id}/{root_name}"
    out = [{
        "trace_id": trace_id, "span_id": root_id, "parent_id": None, "name": root_name,
        "start_s": run.start - origin, "duration_s": run.wall_s, "attrs": {"rss_mb": run.rss_mb},
    }]
    for s in run.stamps.get("spans", []):
        out.append({
            "trace_id": trace_id, "span_id": f"{root_id}/{s['name']}", "parent_id": root_id, "name": s["name"],
            "start_s": s["start"] - origin, "duration_s": s["end"] - s["start"], "attrs": s["attrs"],
        })
    return out


class WorkloadRuns:
    """The runs of one workload at one seed, and what they measured."""

    def __init__(self, name: str, seed: int) -> None:
        self.w = workloads.build(name, seed)
        self.seed = seed
        self.dir = OUT / name
        (self.dir / "run").mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "config.json"
        self.config.write_bytes(self.w.document)
        self.config_sha = checks.sha256(self.w.document)
        self.out = self.dir / "run" / self.w.out_name
        self.check = Checker(self.w, seed, self.config_sha)
        self.attempted = 0
        self.errors: list[str] = []
        self.runs: list[Run] = []
        self.deadline = clock() + BUDGET_S

    def warm_up(self) -> None:
        doc = json.loads(self.w.document)
        if "n_events" in doc:
            doc["n_events"] = min(doc["n_events"], WARMUP_EVENTS)
        warm_dir = self.dir / "warmup"
        warm_dir.mkdir(exist_ok=True)
        (warm_dir / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        run = spawn("run", warm_dir / "config.json", warm_dir / self.w.out_name, self.deadline)
        if run.error:
            print(f"{self.w.name}: warm-up failed: {run.error}", file=sys.stderr)

    def attempt(self, mode: str) -> Run | None:
        self.attempted += 1
        try:
            run = spawn(mode, self.config, self.out, self.deadline)
            if run.error is None and mode in ("run", "trace"):
                self.check(self.out)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            run = None
            self.errors.append(f"{mode}: {exc}")
        if run is not None and run.error:
            self.errors.append(run.error)
            run = None
        if run is not None:
            self.runs.append(run)
        return run

    def of(self, mode: str) -> list[Run]:
        return [r for r in self.runs if r.mode == mode]

    def measure(self, seconds: float) -> dict:
        start, run_s = clock(), []
        while True:
            t = clock()
            self.attempt("run")
            run_s.append(clock() - t)
            elapsed = clock() - start
            # Stop where the expected overshoot of one more run exceeds half of it.
            if len(run_s) >= MIN_RUNS and elapsed + statistics.median(run_s) / 2 > seconds:
                break
            if clock() > self.deadline:
                break
        runs = self.of("run")
        if not runs:
            return {}
        return {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "setup_s": statistics.median(r.setup_s for r in runs),
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        }

    def measure_layers(self, seconds: float) -> dict:
        start, run_s = clock(), []
        while True:
            t = clock()
            self.attempt("trace")
            run_s.append(clock() - t)
            elapsed = clock() - start
            # Start another run only if it and the probe (about one run) still fit.
            if elapsed + 2 * statistics.median(run_s) > seconds or clock() > self.deadline:
                break
        probe = self.attempt("probe")
        traced = self.of("trace")
        if not traced or probe is None:
            return {}

        spans = []
        origin = traced[0].start
        for k, run in enumerate(traced):
            spans += trace_spans(f"{self.w.name}/{self.seed}/trace{k}", "workload", run, origin)
        spans += trace_spans(f"{self.w.name}/{self.seed}/probe", "probe", probe, origin)
        self_times(spans)
        (self.dir / f"spans-seed{self.seed}.json").write_text(json.dumps(spans, indent=1), encoding="utf-8")

        def duration(name: str) -> float:
            """Median over the traced runs, else the probe's span."""
            values = [s["duration_s"] for s in spans if s["name"] == name and "/probe" not in s["span_id"]]
            if not values:
                values = [s["duration_s"] for s in spans if s["name"] == name]
            return statistics.median(values)

        emit_bytes = [s["attrs"]["bytes"] for s in spans if s["name"] == "scenarios.emit"]
        metrics = {
            "cli.import_s": duration("cli.import"),
            "scenarios.parse_s": duration("scenarios.parse"),
            "scenarios.run_s": duration("scenarios.run"),
            "scenarios.emit_s": duration("scenarios.emit"),
            "scenarios.emit_bytes": statistics.median(emit_bytes),
            "measurement.setup_s": duration("measurement.setup"),
            "measurement.run_ensemble_s": duration("measurement.run_ensemble"),
            "measurement.sample_self_s": duration("measurement.run_ensemble") - duration("philox.uniforms"),
            "measurement.histogram_s": duration("measurement.histogram"),
            "philox.uniforms_s": duration("philox.uniforms"),
            "algebra.closure_s": duration("algebra.closure"),
            "algebra.resolution_s": duration("algebra.resolution"),
            "restriction.character_probabilities_s": duration("restriction.character_probabilities"),
            "restriction.decompose_s": duration("restriction.decompose"),
            # The bookkeeping of the spans one traced run records.
            "trace.overhead_s": probe.stamps["span_cost_s"] * len(traced[0].stamps["spans"]),
        }
        metrics.update(probe.stamps["counts"])
        return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    bench = WorkloadRuns(name, seed)
    bench.warm_up()
    values = bench.measure_layers(seconds) if trace else bench.measure(seconds)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    result = {
        "correct": not bench.errors and bool(values),
        "attempted": bench.attempted,
        "failed": len(bench.errors),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    record = {
        "workload": name,
        "trace": int(trace),
        "provenance": provenance(seed, bench.config_sha),
        "errors": bench.errors,
        "runs": [
            {"mode": r.mode, "wall_s": r.wall_s, "rss_mb": r.rss_mb,
             "setup_s": r.setup_s if "ready" in r.stamps else None}
            for r in bench.runs
        ],
        "result": result,
    }
    (bench.dir / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    for error in bench.errors:
        print(f"{name}: FAILED {error}", file=sys.stderr)
    return result, record


def print_table(name: str, result: dict, record: dict) -> None:
    print(f"== {name}  seed {record['provenance']['workload_seed']}  "
          f"failure_ratio {result['failed']}/{result['attempted']}")
    for metric, v in result["metrics"].items():
        print(f"   {metric:40s} {v['value']:>16.6g} {v['unit']}")
    print("   provenance " + json.dumps(record["provenance"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "segalsim" / "__init__.py").is_file():
        print(f"error: no segalsim sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_table(args.workload, result, record)
        print(json.dumps(result))
        return 0 if result["metrics"] else 1

    results = {}
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(name, result, record)
        results[name] = result
    print(json.dumps(results))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
