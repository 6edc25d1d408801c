"""Tests of the benchmark itself (not collected by the package suite).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from segalsim import emit_report, parse_scenario, run_scenario  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRIC_MAP = json.loads((Path(__file__).with_name("metric_map.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_and_parses(name):
    first = workloads.build(name, 7)
    assert first.document == workloads.build(name, 7).document
    assert first.document != workloads.build(name, 8).document
    cfg = parse_scenario(first.document.decode("utf-8"))
    assert cfg.scenario == first.scenario
    if first.has_events:
        assert cfg.n_events == first.n_events


def test_algebra_truth_covers_the_layout():
    w = workloads.build("algebra-generic-d110", 3)
    assert sum(w.truth["projector_ranks"]) == 110
    assert len(w.truth["characters"]) == w.truth["dimension"] == 22


def test_workload_names_match_the_generators():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.GENERATORS)


def test_metric_names():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(METRIC_MAP["end_to_end"])
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(METRIC_MAP["per_layer"])
    for entry in METRIC_MAP["per_layer"].values():
        for metric, targets in entry["moves"].items():
            assert metric in METRIC_MAP["end_to_end"]
            assert set(targets) <= set(workloads.GENERATORS)


def _small_pure(tmp_path, n=2000):
    """The pure-250k workload at a small event count, run in-process."""
    w = workloads.build("pure-250k", 5)
    doc = json.loads(w.document)
    doc["n_events"] = n
    w = dataclasses.replace(w, document=json.dumps(doc).encode(), n_events=n)
    cfg = parse_scenario(w.document.decode())
    out = tmp_path / "report.json"
    emit_report(run_scenario(cfg), fmt="json", out=out)
    return w, out.read_bytes(), (tmp_path / "report.events.csv").read_bytes()


def _with_histogram(report: bytes, change) -> bytes:
    doc = json.loads(report)
    change(doc["summary"]["histogram"])
    return json.dumps(doc).encode()


def test_output_check_accepts_a_correct_run(tmp_path):
    w, report, events = _small_pure(tmp_path)
    checks.check_outputs(w, report, events)


def test_output_check_rejects_one_changed_histogram_count(tmp_path):
    w, report, events = _small_pure(tmp_path)

    def bump(hist):
        hist[1] += 1

    def move(hist):  # keeps the sum: only the event log disagrees
        hist[1] += 1
        hist[2] -= 1

    for change in (bump, move):
        with pytest.raises(checks.CheckError):
            checks.check_outputs(w, _with_histogram(report, change), events)


def test_output_check_rejects_non_json_constants(tmp_path):
    w, report, events = _small_pure(tmp_path)
    bad = report.replace(b'"b_expectation": ', b'"b_expectation": NaN, "x": ', 1)
    with pytest.raises(checks.CheckError):
        checks.check_outputs(w, bad, events)


def test_output_check_rejects_a_truncated_event_log(tmp_path):
    w, report, events = _small_pure(tmp_path)
    with pytest.raises(checks.CheckError):
        checks.check_outputs(w, report, events[: events.rindex(b"\n", 0, -1) + 1])


def test_golden_applies_at_the_default_seed_only():
    w = workloads.build("pure-250k", workloads.DEFAULT_SEED)
    golden = checks.GOLDEN["pure-250k"]
    assert golden["config"] == checks.sha256(w.document)
    checks.check_golden(w, workloads.DEFAULT_SEED + 1, {"config": "x"})
    with pytest.raises(checks.CheckError):
        checks.check_golden(w, workloads.DEFAULT_SEED, dict(golden, report="0" * 64))


def test_self_time_subtracts_child_coverage():
    spans = [
        {"span_id": "r", "parent_id": None, "start_s": 0.0, "duration_s": 10.0},
        {"span_id": "a", "parent_id": "r", "start_s": 1.0, "duration_s": 3.0},
        {"span_id": "b", "parent_id": "r", "start_s": 2.0, "duration_s": 4.0},
    ]
    run.self_times(spans)
    assert [s["self_s"] for s in spans] == [5.0, 3.0, 4.0]


def _spawn(tmp_path, name: str, mode: str) -> run.Run:
    w = workloads.build(name, workloads.DEFAULT_SEED)
    config = tmp_path / "config.json"
    config.write_bytes(w.document)
    result = run.spawn(mode, config, tmp_path / w.out_name, run.clock() + 170)
    assert result.error is None, result.error
    return result


def test_peak_rss_is_the_workers_own(tmp_path):
    held = bytearray(160 * 2**20)  # touched pages the worker must not count
    held[:: 4096] = b"\1" * len(held[:: 4096])
    r = _spawn(tmp_path, "algebra-generic-d110", "run")
    assert 0 < r.rss_mb < 150
    del held


def test_run_ensemble_rss_is_positive_on_setup_env(tmp_path):
    probe = _spawn(tmp_path, "setup-env-d336", "probe")
    assert probe.stamps["counts"]["measurement.run_ensemble_rss_mb"] > 0
    assert probe.stamps["span_cost_s"] > 0
