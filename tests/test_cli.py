import json
import subprocess
import sys
import warnings

import pytest

from segalsim.cli import main


def write_config(tmp_path, **overrides):
    base = {
        "scenario": "pure",
        "input": {"amplitudes": [[0.7071, 0], [0.7071, 0]]},
        "n_events": 200,
        "seed": 3,
    }
    base.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(base), encoding="utf-8")
    return path


def test_run_to_stdout(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "pure"
    assert sum(doc["summary"]["histogram"]) == 200


def test_run_writes_report_and_event_log(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["event_log"] == "report.events.csv"
    assert (tmp_path / "report.events.csv").exists()


def test_determinism_across_directories(tmp_path):
    path = write_config(tmp_path)

    def run(sub):
        folder = tmp_path / sub
        folder.mkdir()
        out = folder / "report.json"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        return {
            "report": out.read_text(encoding="utf-8"),
            "events": (folder / "report.events.csv").read_text(encoding="utf-8"),
        }

    assert run("one") == run("two")


def test_overrides_reflected_in_echo(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--seed", "99", "--events", "321", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 99
    assert doc["config"]["n_events"] == 321
    assert sum(doc["summary"]["histogram"]) == 321


def test_csv_format(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--format", "csv", "--quiet"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("event_index,")
    assert len(lines) == 201


def test_validation_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, input={"amplitudes": [[0.9, 0], [0, 0]]})
    assert main(["run", str(path), "--quiet"]) == 1
    assert "normalization" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"), "--quiet"]) == 1


def test_numerical_invariant_exit_code(tmp_path, capsys):
    # An absurd closure tolerance makes Gram-Schmidt treat round-off as new
    # directions until the dimension bound trips.
    rows = [[0.11, 0.23, 0.0], [0.0, 0.31, 0.43], [0.0, 0.0, 0.53]]
    matrix = [[[v, 0.0] for v in row] for row in rows]
    path = tmp_path / "probe.json"
    path.write_text(
        json.dumps(
            {
                "scenario": "algebra-probe",
                "generators": [{"space": "O", "matrix": matrix}],
                "tolerances": {"algebra": 1e-30},
                "n_events": 1,
                "seed": 0,
            }
        ),
        encoding="utf-8",
    )
    assert main(["run", str(path), "--quiet"]) == 2
    assert "invariant" in capsys.readouterr().err


def test_console_script_smoke(tmp_path):
    path = write_config(tmp_path, n_events=20)
    proc = subprocess.run(
        [sys.executable, "-m", "segalsim.cli", "run", str(path), "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["scenario"] == "pure"


def _probe_config(tmp_path, entry="[2, 0]", tolerances=None):
    """An algebra-probe document on O written as raw text, so NaN/Infinity survive.

    ``entry`` is the [re, im] text of the last diagonal entry of the one
    inline generator.
    """
    matrix = f"[[[1, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], {entry}]]"
    extra = "" if tolerances is None else f', "tolerances": {tolerances}'
    path = tmp_path / "probe.json"
    path.write_text(
        '{"scenario": "algebra-probe", '
        f'"generators": [{{"space": "O", "matrix": {matrix}}}]{extra}}}',
        encoding="utf-8",
    )
    return path


def _assert_config_error(path, capsys, needle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
        assert main(["run", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize(
    "entry",
    ["[NaN, 0]", "[0, NaN]", "[Infinity, 0]", "[0, -Infinity]", "[1e400, 0]", "[" + "9" * 400 + ", 0]"],
)
def test_non_finite_generator_entry_rejected(tmp_path, capsys, entry):
    _assert_config_error(_probe_config(tmp_path, entry), capsys, "generators[0]: matrix entries")


@pytest.mark.parametrize(
    "tolerances, needle",
    [
        ('"x"', "tolerances: expected an object"),
        ("[1e-9]", "tolerances: expected an object"),
        ('{"algebra": NaN}', "tolerances.algebra: expected a finite positive number"),
        ('{"algebra": Infinity}', "tolerances.algebra"),
        ('{"algebra": 0}', "tolerances.algebra"),
        ('{"algebra": -1e-9}', "tolerances.algebra"),
        ('{"algebra": "1e-9"}', "tolerances.algebra"),
        ('{"breuer": true}', "tolerances.breuer"),
        ('{"breuer": NaN}', "tolerances.breuer"),
        ('{"algebra": 1e-9, "other": 1}', "tolerances: unknown keys"),
    ],
)
def test_bad_tolerances_rejected(tmp_path, capsys, tolerances, needle):
    _assert_config_error(_probe_config(tmp_path, tolerances=tolerances), capsys, needle)
