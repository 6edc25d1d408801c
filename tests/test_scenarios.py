import csv
import io
import json

import numpy as np
import pytest

from segalsim import scenarios
from segalsim.scenarios import (
    ConfigError,
    emit_report,
    parse_scenario,
    run_scenario,
)


def config_text(**overrides):
    base = {
        "scenario": "pure",
        "input": {"amplitudes": [[0.7071, 0], [0.7071, 0]]},
        "n_events": 500,
        "seed": 11,
    }
    base.update(overrides)
    return json.dumps(base)


class TestParseScenario:
    def test_defaults_applied(self):
        cfg = parse_scenario(config_text())
        assert cfg.model.s_dim == 2
        assert cfg.model.o_dim == 3
        assert cfg.model.qo_values == (0.0, 1.0, -1.0)
        assert cfg.output_format == "json"
        # rounded literals are renormalized exactly
        assert np.vdot(cfg.amplitudes, cfg.amplitudes).real == pytest.approx(1.0, abs=1e-12)

    def test_normalization_rejected(self):
        bad = config_text(input={"amplitudes": [[0.9, 0], [0.0, 0]]})
        with pytest.raises(ConfigError, match="normalization"):
            parse_scenario(bad)

    def test_gemenge_rows_parsed(self):
        text = config_text(
            scenario="gemenge",
            input={
                "gemenge": [
                    {"amplitudes": [[1, 0], [0, 0]], "probability": 0.3},
                    {"amplitudes": [[0, 0], [1, 0]], "probability": 0.7},
                ]
            },
        )
        cfg = parse_scenario(text)
        assert len(cfg.gemenge_rows) == 2
        assert cfg.gemenge_rows[0][1] == pytest.approx(0.3)
        assert cfg.gemenge_rows[1][1] == pytest.approx(0.7)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(config_text(surprise=1))

    def test_malformed_document(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_scenario("{not json")

    def test_bad_scenario_name(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_scenario(config_text(scenario="collapse-now"))

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_scenario(config_text(seed=-1))

    def test_decoherence_gets_default_environment(self):
        cfg = parse_scenario(config_text(scenario="decoherence", n_events=1))
        assert cfg.model.environment is not None
        assert cfg.model.environment.e_dim == 8


class TestRunScenario:
    def test_pure_summary(self):
        report = run_scenario(parse_scenario(config_text()))
        assert report.summary["b_expectation"] == pytest.approx(1.0, abs=1e-10)
        assert sum(report.summary["histogram"]) == 500
        assert report.summary["histogram"][0] == 0
        assert len(report.events) == 500

    def test_wigner_friend_summary(self):
        text = config_text(
            scenario="wigner-friend",
            n_events=100_000,
            seed=5,
            input={"amplitudes": [[0.70710678118, 0], [0.70710678118, 0]]},
        )
        report = run_scenario(parse_scenario(text))
        s = report.summary
        assert s["b_expectation"] == pytest.approx(1.0, abs=1e-10)
        assert abs(s["frequencies"][1] - 0.5) <= 3 * np.sqrt(0.25 / 100_000)
        assert s["breuer_pointer"]["indistinguishable"] is True
        assert s["breuer_with_interference"]["indistinguishable"] is False

    def test_erasure_summary(self):
        text = config_text(scenario="erasure", input={"amplitudes": [[0.5477, 0], [0.8367, 0]]})
        report = run_scenario(parse_scenario(text))
        s = report.summary
        assert s["recovered_initial_state_fidelity"] >= 1.0 - 1e-9
        assert np.allclose(s["information_initial"], [1, 0, 0], atol=1e-12)
        assert np.allclose(s["information_after_measurement"], [0, 0.3, 0.7], atol=1e-3)
        assert np.allclose(s["information_after_reversal"], [1, 0, 0], atol=1e-9)

    def test_algebra_probe_summary(self):
        text = config_text(scenario="algebra-probe", generators=["QO"], input=None)
        text = json.dumps({k: v for k, v in json.loads(text).items() if v is not None})
        report = run_scenario(parse_scenario(text))
        s = report.summary
        assert s["dimension"] == 3
        assert s["commutative"] is True
        values = sorted(v[0] for v in s["characters"])
        assert np.allclose(values, [-1.0, 0.0, 1.0], atol=1e-9)

    def test_algebra_probe_non_commutative(self):
        text = json.dumps(
            {"scenario": "algebra-probe", "generators": ["QO_MS", "B"], "n_events": 1, "seed": 0}
        )
        report = run_scenario(parse_scenario(text))
        assert report.summary["commutative"] is False
        assert report.summary["characters"] is None

    def test_decoherence_summary(self):
        text = json.dumps(
            {
                "scenario": "decoherence",
                "model": {"environment": {"e_overlap": 0.5}},
                "input": {"amplitudes": [[0.70710678118, 0], [0.70710678118, 0]]},
                "n_events": 1,
                "seed": 0,
            }
        )
        report = run_scenario(parse_scenario(text))
        s = report.summary
        assert s["offdiagonal_magnitude"] == pytest.approx(0.25, abs=1e-10)
        assert s["predicted_offdiagonal"] == pytest.approx(0.25, abs=1e-10)
        assert s["pointer_basis_flag"] == "UNIQUE"
        assert np.allclose(s["purity_pointer_state"], 1.0, atol=1e-9)
        assert s["purity_superposition"][-1] < 1.0 - 1e-6

    def test_gemenge_summary(self):
        text = config_text(
            scenario="gemenge",
            n_events=2000,
            input={
                "gemenge": [
                    {"amplitudes": [[1, 0], [0, 0]], "probability": 0.3},
                    {"amplitudes": [[0, 0], [1, 0]], "probability": 0.7},
                ]
            },
        )
        report = run_scenario(parse_scenario(text))
        s = report.summary
        assert sum(s["row_histogram"]) == 2000
        assert s["b_expectation"] == pytest.approx(0.0, abs=1e-12)
        # every event's pointer matches its sampled branch
        for r in report.events:
            assert r.pointer_index == r.gemenge_row + 1


class TestEmitReport:
    def test_byte_stable(self):
        report = run_scenario(parse_scenario(config_text()))
        assert emit_report(report) == emit_report(report)

    def test_determinism_across_runs(self):
        doc1 = emit_report(run_scenario(parse_scenario(config_text())))
        doc2 = emit_report(run_scenario(parse_scenario(config_text())))
        assert doc1 == doc2

    def test_seed_changes_document(self):
        doc1 = emit_report(run_scenario(parse_scenario(config_text(seed=1))))
        doc2 = emit_report(run_scenario(parse_scenario(config_text(seed=2))))
        assert doc1 != doc2

    def test_csv_row_count(self):
        report = run_scenario(parse_scenario(config_text(n_events=750)))
        text = emit_report(report, fmt="csv")
        lines = text.strip().splitlines()
        assert lines[0] == "event_index,gemenge_row,pointer_index,impression_value,probability_used"
        assert len(lines) == 751

    def test_event_log_matches_histogram_exactly(self):
        report = run_scenario(parse_scenario(config_text(n_events=800)))
        text = emit_report(report, fmt="csv")
        counts = [0, 0, 0]
        for line in text.strip().splitlines()[1:]:
            counts[int(line.split(",")[2])] += 1
        assert counts == report.summary["histogram"]

    def test_round_trip_summary(self):
        report = run_scenario(parse_scenario(config_text()))
        parsed = json.loads(emit_report(report))
        again = json.loads(emit_report(report))
        assert parsed["summary"] == again["summary"]

    def test_config_echo_reproduces_run(self):
        texts = [
            config_text(),
            config_text(
                scenario="gemenge",
                input={
                    "gemenge": [
                        {"amplitudes": [[1, 0], [0, 0]], "probability": 0.3},
                        {"amplitudes": [[0, 0], [1, 0]], "probability": 0.7},
                    ]
                },
            ),
        ]
        for text in texts:
            doc1 = emit_report(run_scenario(parse_scenario(text)))
            echo = json.loads(doc1)["config"]
            doc2 = emit_report(run_scenario(parse_scenario(json.dumps(echo))))
            assert doc1 == doc2

    def test_files_written(self, tmp_path):
        report = run_scenario(parse_scenario(config_text(n_events=50)))
        out = tmp_path / "report.json"
        text = emit_report(report, fmt="json", out=out)
        assert out.read_text(encoding="utf-8") == text
        events = tmp_path / "report.events.csv"
        assert events.exists()
        assert len(events.read_text(encoding="utf-8").strip().splitlines()) == 51
        assert json.loads(text)["event_log"] == "report.events.csv"

    def test_event_log_matches_row_writer(self, monkeypatch):
        # The table-driven log against csv.writer over the per-event
        # records, with blocks small enough that the log spans several.
        monkeypatch.setattr(scenarios, "_CSV_CHUNK", 7)
        texts = [
            config_text(n_events=50, input={"amplitudes": [[0.6, 0], [0, 0.8]]}),
            config_text(
                scenario="gemenge",
                n_events=50,
                model={"s_dim": 3, "o_dim": 5},
                input={
                    "gemenge": [
                        {"amplitudes": [[0.6, 0], [0.8, 0], [0, 0]], "probability": 0.4},
                        {"amplitudes": [[0, 0.6], [0, 0], [0.8, 0]], "probability": 0.6},
                    ]
                },
            ),
        ]
        for text in texts:
            events = run_scenario(parse_scenario(text)).events
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(scenarios._EVENT_COLUMNS)
            for r in events:
                writer.writerow(
                    [
                        r.event_index,
                        "" if r.gemenge_row is None else r.gemenge_row,
                        r.pointer_index,
                        f"{r.impression:.12g}",
                        f"{r.probability:.12g}",
                    ]
                )
            assert scenarios._events_csv(events) == buf.getvalue()

    def test_csv_refused_without_events(self):
        text = json.dumps(
            {"scenario": "algebra-probe", "generators": ["QO"], "n_events": 1, "seed": 0}
        )
        report = run_scenario(parse_scenario(text))
        with pytest.raises(ValueError, match="no event log"):
            emit_report(report, fmt="csv")
