import ast
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from segalsim import cli, closure, scenarios, serialize
from segalsim.closure import _gram_schmidt_closure
from segalsim.cli import main
from segalsim.config import InvariantViolation
from segalsim.linalg import SpaceLayout
from segalsim.scenarios import RunReport

from test_algebra import CLUSTERED, clustered_generator
from test_byte_stability import CONFIGS, _rotated_pair


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


def test_pointer_values_closer_than_1e7_run(tmp_path, capsys):
    # Farther apart than the algebra's merge width: four pointer classes.
    path = write_config(tmp_path, model={"s_dim": 2, "o_dim": 4, "qo_values": [0, 1, -1, 1 + 5e-8]})
    assert main(["run", str(path), "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["summary"]["histogram"]) == 4 and sum(doc["summary"]["histogram"]) == 200


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


def test_csv_to_stdout_never_holds_the_log(tmp_path, monkeypatch):
    # Beyond the run's batch (one byte per event), what a csv run to
    # stdout allocates does not grow with the event count.
    batch_bytes = []

    def run(cfg):
        report = scenarios.run_scenario(cfg)
        batch_bytes.append(report.events.pointer_index.nbytes)
        return report

    monkeypatch.setattr(cli, "run_scenario", run)
    extra = []
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        for n in (2**16, 2**17):
            path = write_config(tmp_path, n_events=n)
            tracemalloc.start()
            assert main(["run", str(path), "--format", "csv", "--quiet"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            extra.append(peak - batch_bytes[-1])
    assert extra[1] - extra[0] < 2**16


def test_csv_to_a_closed_pipe(tmp_path):
    # The reader stops after the header while the log still streams:
    # exit 0 and no traceback, as for any consumer like head.
    path = write_config(tmp_path, n_events=10**5)
    proc = subprocess.Popen(
        [sys.executable, "-m", "segalsim.cli", "run", str(path), "--format", "csv", "--quiet"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"event_index,")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert stderr == b""


def test_one_event_log_on_three_routes(tmp_path, capsys, monkeypatch):
    # stdout of --format csv, its --out file and the json run's event log,
    # the files streamed from many small blocks
    monkeypatch.setattr(serialize, "_LOG_BLOCK", 7)
    path = write_config(
        tmp_path,
        scenario="gemenge",
        n_events=1234,
        seed=17,
        model={"s_dim": 3, "o_dim": 4},
        input={
            "gemenge": [
                {"amplitudes": [[0.6, 0], [0.8, 0], [0, 0]], "probability": 0.25},
                {"amplitudes": [[0, 0.6], [0, 0], [0.8, 0]], "probability": 0.75},
            ]
        },
    )
    assert main(["run", str(path), "--format", "csv", "--quiet"]) == 0
    stdout = capsys.readouterr().out.encode("ascii")
    csv_out = tmp_path / "events.csv"
    assert main(["run", str(path), "--format", "csv", "--out", str(csv_out), "--quiet"]) == 0
    json_out = tmp_path / "report.json"
    assert main(["run", str(path), "--format", "json", "--out", str(json_out), "--quiet"]) == 0
    assert stdout.count(b"\n") == 1235
    assert csv_out.read_bytes() == stdout
    assert (tmp_path / "report.events.csv").read_bytes() == stdout


def test_validation_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, input={"amplitudes": [[0.9, 0], [0, 0]]})
    assert main(["run", str(path), "--quiet"]) == 1
    assert "normalization" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["model", "generators"])
def test_deep_nesting_is_one_config_error(tmp_path, capsys, key):
    # 100,000 nested arrays (a 200 KB document) exhaust the JSON scanner's
    # recursion on both decoding routes: whole-document and row reader.
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"scenario": "pure", "' + key + '": ' + "[" * depth + "]" * depth + "}")
    assert main(["run", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config document nests too deeply: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["--events", "abc"], ["--format", "xml"], ["--bogus"], None],
    ids=["events-abc", "format-xml", "unknown-flag", "no-subcommand"],
)
def test_usage_error_exit_code(tmp_path, capsys, argv):
    # Usage errors are exit 1 with one line, not argparse's exit 2 (the
    # numerical-invariant code) and its usage block.
    args = [] if argv is None else ["run", str(write_config(tmp_path)), *argv]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: segalsim" in capsys.readouterr().out


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"), "--quiet"]) == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_exit_code(tmp_path, capsys, fmt, target):
    out = tmp_path / "absent" / "x.csv" if target == "missing-dir" else tmp_path
    path = write_config(tmp_path)
    assert main(["run", str(path), "--format", fmt, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1


def test_oversized_model_exit_code(tmp_path, capsys):
    # 16 * 600000**2 bytes for one dense operator: refused at parse.
    path = write_config(tmp_path, model={"environment": {"e_dim": 100000}})
    assert main(["run", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: model: dimension s_dim*o_dim*e_dim = 600000 ")
    assert err.count("\n") == 1


def test_numerical_invariant_exit_code(tmp_path, capsys):
    # An absurd closure tolerance on a non-diagonal generator is refused at
    # the round-off floor d * eps before any closure runs.
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
    # Below the floor, Gram-Schmidt treats round-off as new directions
    # until the dimension bound trips.
    g = np.array(rows, dtype=complex)
    with pytest.raises(InvariantViolation, match="dim\\^2 = 9 bound"):
        _gram_schmidt_closure((g,), [g, g.conj().T], SpaceLayout((("O", 3),)), 1e-30)


def _probe(tmp_path, generators, **extra):
    """Write an algebra-probe document; the run's exit code, report and stderr."""
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"scenario": "algebra-probe", "generators": generators, **extra}))
    out = tmp_path / "report.json"
    code = main(["run", str(path), "--out", str(out), "--quiet"])
    return code, json.loads(out.read_text()) if code == 0 else None


def _entries(*matrices, space="O"):
    return [
        {"space": space, "matrix": np.stack([m.real, m.imag], axis=-1).tolist()} for m in matrices
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_clustered_spectrum_probe(tmp_path, seed):
    # The Gram-Schmidt closure this replaced gave dimension 78 on seed 2.
    code, report = _probe(tmp_path, _entries(clustered_generator(seed)), model={"o_dim": 9})
    assert code == 0
    summary = report["summary"]
    assert summary["dimension"] == 9 and summary["commutative"]
    assert summary["projector_ranks"] == [1] * 9
    assert np.allclose([c[0] for c in summary["characters"]], CLUSTERED, atol=1e-9)


def test_rotated_pair_at_tight_tolerance(tmp_path):
    code, report = _probe(
        tmp_path, _rotated_pair(), model={"s_dim": 3, "o_dim": 4}, tolerances={"algebra": 1e-14}
    )
    assert code == 0
    assert report["summary"]["dimension"] == 6
    assert report["summary"]["projector_ranks"] == [2] * 6


def test_rotated_pair_below_round_off_floor(tmp_path, capsys):
    # 1e-16 is below 12 * eps: the letters' commutator is all round-off,
    # and the closure used to report dimension 144, non-commutative.
    code, _ = _probe(
        tmp_path, _rotated_pair(), model={"s_dim": 3, "o_dim": 4}, tolerances={"algebra": 1e-16}
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical invariant violated: tol 1.000e-16 is below the round-off")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "generators, extra",
    [
        (_entries(np.diag([1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9])), {}),
        (_rotated_pair(), {"model": {"s_dim": 3, "o_dim": 4}, "tolerances": {"algebra": 1e-30}}),
    ],
    ids=["chained-cluster", "rotated-pair-1e-30"],
)
def test_ambiguous_classes_exit_2(tmp_path, capsys, generators, extra):
    code, _ = _probe(tmp_path, generators, **extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical invariant violated: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("cap_rows, refused_rows", [(5, 6), (17, 18), (18, None)])
def test_closure_working_set_cap(tmp_path, capsys, monkeypatch, cap_rows, refused_rows):
    # ["QO_MS", "B"] at s_dim 2, o_dim 3 closes an o_dim + 4 = 7-element
    # basis on d = 6, 576 bytes a row: a first buffer of 6 rows, grown at 6
    # rows held by 12 more.  A cap below either request refuses the closure
    # with exit 1 and one line, before that buffer is allocated.
    row = 16 * 6 * 6
    monkeypatch.setattr(closure, "MAX_WORKING_SET_BYTES", cap_rows * row)
    buffers = []
    empty = np.empty

    def spy(shape, *args, **kwargs):
        if isinstance(shape, tuple) and shape[1:] == (36,):
            buffers.append(shape[0])
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(closure.np, "empty", spy)
    code, report = _probe(tmp_path, ["QO_MS", "B"], model={"s_dim": 2, "o_dim": 3})
    err = capsys.readouterr().err
    if refused_rows is None:
        assert code == 0 and report["summary"]["dimension"] == 7
        assert buffers == [6]  # then grown in place to 12
        return
    assert code == 1
    assert err == (
        f"error: algebra closure on d = 6 would hold {refused_rows * row} bytes of basis rows, "
        f"over the {cap_rows * row}-byte limit\n"
    )
    assert buffers == ([] if refused_rows == 6 else [6])


@pytest.mark.parametrize(
    "generators, o_dim, cap, need",
    [
        (["QO_MS", "B"], 3, 5759, 16 * 6**2 * 10),
        (["QO_MS", "B"], 3, 5760, None),
        (["B"], 3, 4031, 16 * 6**2 * 7),
        (["B"], 3, 4032, None),
        (["QO_MS", "QO_MS"], 3, 4799, 16 * 6 * 2 + 256 * 6 * 3),
        (["QO_MS", "QO_MS"], 3, 4800, None),
        (["QO_MS", "B"], 4096, None, 16 * 8192**2 * 10),
        (["B"], 4096, None, 16 * 8192**2 * 7),
        (["QO_MS"] * 8, 4096, None, None),
    ],
    ids=[
        "letter-check-over",
        "letter-check-at",
        "eigenbasis-over",
        "eigenbasis-at",
        "diagonal-over",
        "diagonal-at",
        "o4096",
        "eigenbasis-o4096",
        "diagonal-o4096",
    ],
)
def test_generator_working_set_estimate(tmp_path, capsys, monkeypatch, generators, o_dim, cap, need):
    # A list of diagonal generators alone counts 16 d bytes each and 256 d
    # bytes of class labelling per generator and once more.  Any other list
    # is dense: 3 n + 4 arrays of 16 d^2 bytes for n generators, each one
    # and its adjoint letter, then the letter check's three products or
    # the joint eigenbasis of commuting letters.  A list over the cap exits
    # 1 with one line at parse, before any named generator is built; at
    # o_dim = 4096 (d = 8192) that is the real cap, which ["B"] alone
    # exceeds only with its eigenbasis counted.
    from segalsim import generators as generators_module

    limit = 2**32
    if cap is not None:
        monkeypatch.setattr(generators_module, "MAX_WORKING_SET_BYTES", cap)
        limit = cap
    built = []
    named = generators_module._named_generator
    monkeypatch.setattr(
        generators_module,
        "_named_generator",
        lambda name, model: built.append(name) or named(name, model),
    )
    tracemalloc.start()
    try:
        code, report = _probe(tmp_path, generators, model={"s_dim": 2, "o_dim": o_dim})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    if need is None:
        assert code == 0 and report["summary"]["generators"] == generators
        assert built == generators
        return
    assert code == 1
    kind = "dense" if "B" in generators else "diagonal"
    assert err == (
        f"config error: generators: {len(generators)} {kind} generators on d = {2 * o_dim} "
        f"would hold about {need} bytes, over the {limit}-byte limit\n"
    )
    assert built == []
    assert peak < 2**22


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
    [
        "[NaN, 0]",
        "[0, NaN]",
        "[Infinity, 0]",
        "[0, -Infinity]",
        "[1e400, 0]",
        "[" + "9" * 400 + ", 0]",
        "[1, 0, 7]",
        '["2", 0]',
        "[true, 0]",
    ],
)
def test_non_finite_generator_entry_rejected(tmp_path, capsys, entry):
    _assert_config_error(_probe_config(tmp_path, entry), capsys, "generators[0]: matrix entries")


_FLOAT_ROW = "[[1.5, 0.0], [0.25, -0.5], [0.0, 0.0]]"
_BAD_ENTRY = "config error: generators[0]: matrix entries must be [re, im] pairs of finite numbers\n"
_GENERATOR = (
    '"scenario": "algebra-probe", "generators": [{"space": "O", "matrix": '
    f"[{_FLOAT_ROW}, {_FLOAT_ROW}, [[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]]}}]"
)


@pytest.mark.parametrize(
    "document, message",
    [
        (_GENERATOR.replace("[2.0, 0.0]", "[true, 0.0]"), _BAD_ENTRY),
        (_GENERATOR.replace("[2.0, 0.0]", '["2", 0.0]'), _BAD_ENTRY),
        (_GENERATOR.replace("[2.0, 0.0]", "[NaN, 0.0]"), _BAD_ENTRY),
        (_GENERATOR.replace("[2.0, 0.0]", "[0.0, -Infinity]"), _BAD_ENTRY),
        (_GENERATOR.replace("[0.0, 0.0], [2.0, 0.0]", "[2.0, 0.0]"), _BAD_ENTRY),
        (_GENERATOR.replace("[2.0, 0.0]", "[2.0]"), _BAD_ENTRY),
        (_GENERATOR.replace("[2.0, 0.0]", "[2.0, 0.0, 7.0]"), _BAD_ENTRY),
        (
            _GENERATOR + ', "model": {"matrix": [[[1.0, 0.0]]], "space": "O"}',
            "config error: model: unknown keys ['matrix', 'space']; allowed keys are "
            "['environment', 'interaction_duration', 'o_dim', 'q_values', 'qo_values', 's_dim']\n",
        ),
        (
            _GENERATOR + ', "seed": {"matrix": [[[1.0, -0.0]]]}',
            "config error: seed: expected an integer in [0, 18446744073709551616), "
            "got {'matrix': [[[1.0, -0.0]]]}\n",
        ),
    ],
    ids=["bool", "string", "nan", "infinity", "ragged", "pair-of-one", "pair-of-three", "model", "seed"],
)
def test_inline_matrix_errors_read_as_written(tmp_path, capsys, document, message):
    # Float pairs are made arrays while the document is decoded; an entry
    # that is not one, or an object shaped like an entry in another place,
    # is reported exactly as the document wrote it.
    path = tmp_path / "probe.json"
    path.write_text("{" + document + "}", encoding="utf-8")
    assert main(["run", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == message


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


_PURE = '"scenario": "pure", "input": {"amplitudes": [[0.6, 0], [0.8, 0]]}'
_DECOHERENCE = '"scenario": "decoherence", "input": {"amplitudes": [[0.6, 0], [0.8, 0]]}'
_GEMENGE = (
    '"scenario": "gemenge", "input": {"gemenge": [{"amplitudes": [[1, 0], [0, 0]], '
    '"probability": %s}, {"amplitudes": [[0, 0], [1, 0]], "probability": 0.5}]}'
)


_BAD_VALUES = {
    "amplitude-nan": ('"scenario": "pure", "input": {"amplitudes": [[NaN, 0], [0.8, 0]]}', "input.amplitudes[0][0]"),
    "amplitude-infinity": (
        '"scenario": "pure", "input": {"amplitudes": [[0.6, 0], [0.8, Infinity]]}',
        "input.amplitudes[1][1]",
    ),
    "amplitude-string": ('"scenario": "pure", "input": {"amplitudes": [["1", 0], [0, 0]]}', "input.amplitudes[0][0]"),
    "amplitude-bool": ('"scenario": "pure", "input": {"amplitudes": [[true, 0], [0, 0]]}', "input.amplitudes[0][0]"),
    "probability-nan": (_GEMENGE % "NaN", "input.gemenge[0].probability: expected a finite non-negative number"),
    "probability-negative": (_GEMENGE % "-0.5", "input.gemenge[0].probability"),
    "probability-string": (_GEMENGE % '"0.5"', "input.gemenge[0].probability"),
    "probability-bool": (_GEMENGE % "true", "input.gemenge[0].probability"),
    "t-grid-nan": (_DECOHERENCE + ', "t_grid": [0, NaN]', "t_grid[1]: expected a finite number"),
    "t-grid-string": (_DECOHERENCE + ', "t_grid": "12"', "t_grid: expected a list of numbers"),
    "coupling-infinity": (
        _DECOHERENCE + ', "model": {"environment": {"coupling_strength": Infinity}}',
        "model.environment.coupling_strength",
    ),
    "q-values-nan": (_PURE + ', "model": {"q_values": [NaN, -1]}', "model.q_values[0]"),
    "q-values-number": (_PURE + ', "model": {"q_values": 1}', "model.q_values: expected a list"),
    "qo-values-bool": (_PURE + ', "model": {"qo_values": [0, true, -1]}', "model.qo_values[1]"),
    "duration-nan": (_PURE + ', "model": {"interaction_duration": NaN}', "model.interaction_duration"),
    "model-list": (_PURE + ', "model": []', "model: expected an object"),
    "environment-list": (_PURE + ', "model": {"environment": []}', "model.environment: expected an object"),
    "n-events-bool": (_PURE + ', "n_events": true', "n_events: expected an integer"),
    "seed-bool": (_PURE + ', "seed": true', "seed: expected an integer"),
    "s-dim-string": (_PURE + ', "model": {"s_dim": "2"}', "model.s_dim: expected an integer"),
    "s-dim-float": (_PURE + ', "model": {"s_dim": 2.0}', "model.s_dim: expected an integer"),
    "o-dim-bool": (_PURE + ', "model": {"o_dim": true}', "model.o_dim: expected an integer"),
    "e-dim-float": (_PURE + ', "model": {"environment": {"e_dim": 4.5}}', "model.environment.e_dim"),
    "unused-keys-pure": (
        '"scenario": "pure", "input": {"amplitudes": [[0.6, 0], [0.8, 0]], "gemenge": "ignored"}, '
        '"generators": 5, "t_grid": [0, 1]',
        "config: unknown keys ['generators', 't_grid']",
    ),
    "generators-on-pure": (_PURE + ', "generators": ["QO"]', "config: unknown keys ['generators']"),
    "t-grid-on-erasure": (
        '"scenario": "erasure", "input": {"amplitudes": [[0.6, 0], [0.8, 0]]}, "t_grid": [0, 1]',
        "config: unknown keys ['t_grid']",
    ),
    "input-on-algebra-probe": (
        '"scenario": "algebra-probe", "generators": ["QO"], '
        '"input": {"amplitudes": [[1, 0], [0, 0]]}',
        "config: unknown keys ['input']",
    ),
    "gemenge-input-on-pure": (
        '"scenario": "pure", "input": {"amplitudes": [[0.6, 0], [0.8, 0]], "gemenge": "ignored"}',
        "input: unknown keys ['gemenge']",
    ),
    "amplitudes-input-on-gemenge": (
        '"scenario": "gemenge", "input": {"amplitudes": [[1, 0], [0, 0]], "gemenge": '
        '[{"amplitudes": [[1, 0], [0, 0]], "probability": 1}]}',
        "input: unknown keys ['amplitudes']",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_VALUES))
def test_bad_values_rejected(tmp_path, capsys, case):
    body, needle = _BAD_VALUES[case]
    path = tmp_path / "scenario.json"
    path.write_text("{" + body + "}", encoding="utf-8")
    _assert_config_error(path, capsys, needle)


def test_non_finite_report_is_an_invariant_violation(tmp_path, capsys, monkeypatch):
    def nan_report(cfg):
        return RunReport(cfg.scenario, cfg.echo, {"b_expectation": float("nan")}, None, 0.0)

    monkeypatch.setattr(cli, "run_scenario", nan_report)
    assert main(["run", str(write_config(tmp_path)), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical invariant violated: report is not strict JSON")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "message, line",
    [
        ("Unable to allocate 76.0 GiB for an array", "Unable to allocate 76.0 GiB for an array"),
        ("", "allocation failed"),
    ],
)
def test_memory_error_is_one_line(tmp_path, capsys, monkeypatch, message, line):
    # Raised, never provoked: the run is replaced, nothing large is allocated.
    def exhausted(cfg):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_scenario", exhausted)
    assert main(["run", str(write_config(tmp_path)), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of memory: {line}\n"


def test_no_cli_run_imports_numpy_random(tmp_path):
    # One fresh interpreter runs every scenario, the rotated commuting pair
    # taking the joint-eigenbasis path.  The package reads no numpy.random
    # (test_hygiene); event_rng and run_event, the per-event oracle in
    # _oracles, are its only users.
    names = [
        "pure",
        "gemenge-environment",
        "wigner-friend",
        "decoherence",
        "erasure",
        "algebra-probe-rotated-pair",
        "algebra-probe-qo-ms-b",
    ]
    assert {CONFIGS[name]["scenario"] for name in names} == set(scenarios.SCENARIOS)
    paths = []
    for name in names:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
        paths.append(str(path))
    script = (
        "import sys\n"
        "from segalsim.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    assert main(['run', path, '--out', path + '.out', '--quiet']) == 0, path\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *paths], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# Modules only some scenarios run; an event run compiles none of them.
_DEFERRED = ("closure", "decoherence", "document", "doublet", "eigenbasis", "generators", "wigner")


def _loaded_after_each(tmp_path, names):
    """The deferred modules loaded after each CLI run of the pinned configs
    ``names``, in order, in one fresh interpreter."""
    paths = []
    for name in names:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
        paths.append(str(path))
    script = (
        "import json, sys\n"
        "from segalsim.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    assert main(['run', path, '--out', path + '.out', '--quiet']) == 0, path\n"
        f"    print(json.dumps([m for m in {_DEFERRED!r} if 'segalsim.' + m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *paths], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_event_runs_load_no_scenario_specific_module(tmp_path):
    # pure and gemenge (with and without an environment) need the pipeline,
    # the pointer algebra and the sampler only; their documents never reach
    # the row-at-a-time reader in document, and their diagonal pointer
    # algebras never take the eigenbasis path.  Every other scenario's
    # runner imports its module when called; wigner-friend reads its
    # interference verdict from amplitudes and closes no algebra.
    names = [
        "pure",
        "pure-environment",
        "pure-overrides",
        "pure-signed-zero",
        "gemenge-csv",
        "gemenge-json",
        "gemenge-environment",
        "wigner-friend",
        "decoherence",
        "erasure",
    ]
    assert _loaded_after_each(tmp_path, names) == [
        [],
        [],
        [],
        [],
        [],
        [],
        [],
        ["wigner"],
        ["decoherence", "wigner"],
        ["decoherence", "doublet", "wigner"],
    ]


def test_document_reader_loads_for_generators_only():
    # load_document hands a document to document.read_document only when
    # it holds generators; every pinned event document is decoded whole.
    events = [json.dumps(doc) for name, doc in CONFIGS.items() if name.startswith(("pure", "gemenge"))]
    entry = {"matrix": [[[1.0, 0.0]] * 2] * 2}
    inline = json.dumps({"scenario": "algebra-probe", "model": {"o_dim": 2}, "generators": [entry]})
    script = (
        "import json, sys\n"
        "from segalsim.scenarios import load_document\n"
        "for text in json.loads(sys.stdin.read()):\n"
        "    load_document(text)\n"
        "    print('segalsim.document' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps([*events, inline]),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(events) == 7
    assert proc.stdout.split() == ["False"] * 7 + ["True"]


def test_algebra_probe_loads_the_closure_for_non_commuting_letters_only(tmp_path):
    # Diagonal generators take neither the eigenbasis nor the closure;
    # dense commuting ones take the eigenbasis alone.
    names = ["algebra-probe-qo", "algebra-probe-rotated-pair", "algebra-probe-qo-ms-b"]
    assert _loaded_after_each(tmp_path, names) == [
        ["document", "generators"],
        ["document", "eigenbasis", "generators"],
        ["closure", "document", "eigenbasis", "generators"],
    ]


def test_import_footprint(tmp_path):
    # With no bytecode cached, importing the package after numpy grew
    # VmHWM by about 3.2 MB while every module was compiled on each import;
    # with the scenario-specific modules deferred it grew by about 2.1 MB,
    # and with no module over 1,500 tokens it grows by about 1.5 MB.  The
    # child imports a copy of the package with no __pycache__, so stale
    # bytecode in the source tree is never read, and every module from
    # outside the package but numpy is loaded inside the measurement.
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    shutil.copytree(
        Path(cli.__file__).parent,
        tmp_path / "segalsim",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    script = (
        "import sys\n"
        "def hwm():\n"
        "    for line in open('/proc/self/status'):\n"
        "        if line.startswith('VmHWM:'):\n"
        "            return int(line.split()[1])\n"
        "import numpy\n"
        "before = hwm()\n"
        "import segalsim\n"
        "assert segalsim.__file__.startswith(sys.argv[1]), segalsim.__file__\n"
        "print(hwm() - before)\n"
    )
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 2600  # kB


def test_import_traced_peak(tmp_path):
    # The parser holds a module's tokens, memo and AST at once, about
    # 0.4 KiB per token under tracemalloc, so the largest module compiled
    # sets the import's traced peak: 1.58 MiB with a 3,148-token module,
    # 1.05 MiB with none over 1,500.  Every module the package imports
    # from outside it is loaded first, from its bytecode; the empty
    # pycache prefix then leaves no bytecode to read for the package.
    outside = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                outside.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module != "__future__":
                outside.add(node.module)
    script = (
        "import sys, tracemalloc\n"
        f"for name in {sorted(outside)!r}:\n"
        "    __import__(name)\n"
        "assert not [m for m in sys.modules if m.startswith('segalsim')]\n"
        f"sys.pycache_prefix = {str(tmp_path)!r}\n"
        "tracemalloc.start()\n"
        "import segalsim\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 1.5 * 2**20
