import csv
import hashlib
import io
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segalsim import scenarios, serialize
from segalsim.config import MAX_DENSE_BYTES, MAX_EVENTS
from segalsim.scenarios import (
    ConfigError,
    load_document,
    parse_scenario,
    run_scenario,
)
from segalsim.serialize import emit_report

from _oracles import load_document_reference
from test_byte_stability import CONFIGS


def config_text(**overrides):
    base = {
        "scenario": "pure",
        "input": {"amplitudes": [[0.7071, 0], [0.7071, 0]]},
        "n_events": 500,
        "seed": 11,
    }
    base.update(overrides)
    return json.dumps(base)


# A gemenge log whose row suffixes differ in length (pointer values 1,
# -2.5 and 31.25) and whose middle row is never drawn.
UNEVEN_GEMENGE = config_text(
    scenario="gemenge",
    n_events=120,
    model={"s_dim": 3, "o_dim": 4, "q_values": [1, -2.5, 31.25], "qo_values": [0, 1, -2.5, 31.25]},
    input={
        "gemenge": [
            {"amplitudes": [[0.6, 0], [0.8, 0], [0, 0]], "probability": 0.3},
            {"amplitudes": [[0, 0], [0, 0], [1, 0]], "probability": 0.0},
            {"amplitudes": [[0, 0.6], [0, 0], [0.8, 0]], "probability": 0.7},
        ]
    },
)


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

    def test_event_count_capped(self):
        assert parse_scenario(config_text(n_events=MAX_EVENTS)).n_events == MAX_EVENTS
        with pytest.raises(ConfigError, match="n_events: expected an integer in"):
            parse_scenario(config_text(n_events=MAX_EVENTS + 1))
        with pytest.raises(ConfigError, match="n_events"):
            parse_scenario(config_text(n_events=10**15))

    def test_dense_operator_budget(self):
        # Only the estimate runs: each refused model fails before anything
        # of its size is allocated.
        model = {"s_dim": 12, "o_dim": 13, "environment": {"e_dim": 14}}  # d = 2184
        amplitudes = [[1, 0]] + [[0, 0]] * 11
        cfg = parse_scenario(config_text(model=model, input={"amplitudes": amplitudes}))
        assert 16 * 2184**2 <= MAX_DENSE_BYTES < 16 * 8193**2
        assert cfg.model.environment.e_dim == 14
        refused = r"= 600000 needs 5760000000000 bytes .* over the 1073741824-byte limit"
        with pytest.raises(ConfigError, match=refused):
            parse_scenario(config_text(model={"environment": {"e_dim": 100000}}))
        with pytest.raises(ConfigError, match="over the"):
            parse_scenario(config_text(model={"s_dim": 10**8}))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(config_text(surprise=1))

    def test_decoded_document_parses_alike(self):
        text = config_text(model={"s_dim": 3, "o_dim": 4}, input={"amplitudes": [[0.6, 0], [0, 0.8], [0, 0]]})
        assert parse_scenario(json.loads(text)).echo == parse_scenario(text).echo

    def test_inline_generators_alike_from_text_and_dict(self):
        # The text goes through the decoder's matrix hook, the decoded dict
        # through _parse_generators; the arrays agree bit for bit, signed
        # zeros included.  The int entries keep the list path.
        floats = [[[0.5, -0.0], [-0.0, 0.25]], [[-0.0, -0.25], [-1.5, 0.0]]]
        mixed = [[[1, 0], [0.0, -0.0]], [[0.0, 0.0], [2, -0.0]]]
        text = json.dumps(
            {
                "scenario": "algebra-probe",
                "model": {"s_dim": 1, "o_dim": 2},
                "generators": [{"space": "O", "matrix": floats}, {"matrix": mixed}],
            }
        )
        from_text = parse_scenario(text).generators
        from_dict = parse_scenario(json.loads(text)).generators
        assert [name for name, _ in from_text] == [name for name, _ in from_dict]
        for (_, a), (_, b) in zip(from_text, from_dict):
            assert a.dtype == b.dtype == complex and a.shape == b.shape == (2, 2)
            assert a.tobytes() == b.tobytes()
        assert np.signbit(from_text[0][1].imag[0, 0]) and np.signbit(from_text[0][1].real[1, 0])

    def test_inline_generators_decoded_one_at_a_time(self):
        # One 110 x 110 inline generator: its list tree is about 1.6 MB, and
        # decoded whole it would peak at about 11.8 x 16 d^2.  Read a row at
        # a time it peaks at the row arrays, their stack and one row's lists.
        d = 110
        rng = np.random.default_rng(5)
        entry = {"space": "O", "matrix": rng.standard_normal((d, d, 2)).tolist()}
        text = json.dumps({"scenario": "algebra-probe", "model": {"o_dim": d}, "generators": [entry]})
        parse_scenario(text)  # first-call caches outside the trace
        tracemalloc.start()
        cfg = parse_scenario(text)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert cfg.generators[0][1].shape == (d, d)
        assert peak <= 3 * 16 * d * d + 136 * d  # one row's lists: 136 B a pair

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


def _same(a, b) -> bool:
    """Equal in type and structure, dict key order and every float bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


class _Obj(list):
    """A JSON object as written: (key text, value) pairs, keys may repeat."""


_FLOATS = st.floats(width=64, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -1.7976931348623157e308]
)
# How a matrix departs from a rectangle of finite float pairs.
_MATRIX_KINDS = [
    "floats",
    "int",
    "bool",
    "null",
    "string",
    "nan",
    "infinity",
    "overflow",
    "ragged",
    "pair-of-one",
    "pair-of-three",
    "empty",
    "empty-row",
    "nested-entry",
    "not-a-list",
]


@st.composite
def _matrices(draw):
    h, w = draw(st.sampled_from([2, 2, 1, 3])), draw(st.sampled_from([2, 2, 1, 3]))
    rows = [[[repr(draw(_FLOATS)), repr(draw(_FLOATS))] for _ in range(w)] for _ in range(h)]
    kind = draw(st.sampled_from(_MATRIX_KINDS[:1] * len(_MATRIX_KINDS) + _MATRIX_KINDS[1:]))
    i, j, part = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)), draw(st.integers(0, 1))
    leaf = {
        "int": draw(st.sampled_from(["0", "-0", "3", "123456789012345678901"])),
        "bool": draw(st.sampled_from(["true", "false"])),
        "null": "null",
        "string": '"2.0"',
        "nan": "NaN",
        "infinity": draw(st.sampled_from(["Infinity", "-Infinity"])),
        "overflow": "1e400",
    }
    if kind in leaf:
        rows[i][j][part] = leaf[kind]
    elif kind == "ragged":
        rows[i] = rows[i][1:]
    elif kind == "pair-of-one":
        rows[i][j] = rows[i][j][:1]
    elif kind == "pair-of-three":
        rows[i][j] = rows[i][j] + ["1.0"]
    elif kind == "empty":
        rows = []
    elif kind == "empty-row":
        rows[i] = []
    elif kind == "nested-entry":
        rows[i][j] = _Obj([('"matrix"', [[["1.0", "-0.0"]]])])
    elif kind == "not-a-list":
        rows = draw(st.sampled_from(['"rows"', "7", "{}"]))
    return rows


@st.composite
def _entries(draw):
    pairs = [('"space"', '"O"'), (draw(st.sampled_from(['"matrix"', '"m\\u0061trix"'])), draw(_matrices()))]
    if draw(st.booleans()):
        pairs.append(('"matrix"', draw(_matrices())))  # a repeated key
    if draw(st.integers(0, 7)) == 7:
        pairs.append(('"extra"', "1"))
    return _Obj(draw(st.permutations(pairs)))


@st.composite
def _documents(draw):
    """Scenario documents with generator entries, written with odd
    whitespace, repeated or escaped keys, and sometimes broken."""
    space = st.text(" \t\n\r", max_size=2)

    def write(value) -> str:
        if isinstance(value, _Obj):
            inner = ",".join(
                f"{draw(space)}{k}{draw(space)}:{draw(space)}{write(v)}{draw(space)}" for k, v in value
            )
            return "{" + (inner or draw(space)) + "}"
        if isinstance(value, list):
            inner = ",".join(f"{draw(space)}{write(v)}{draw(space)}" for v in value)
            return "[" + (inner or draw(space)) + "]"
        return value

    names = st.sampled_from(['"QO"', "7", "[]"])
    items = draw(st.lists(st.one_of(_entries(), _entries(), names), min_size=1, max_size=3))
    model = _Obj([('"s_dim"', "1"), ('"o_dim"', "2")])
    pairs = [('"scenario"', '"algebra-probe"'), ('"model"', model), ('"generators"', items)]
    if draw(st.booleans()):
        key = draw(st.sampled_from(['"generators"', '"gener\\u0061tors"']))
        pairs.append((key, draw(st.lists(_entries(), max_size=2))))
    if draw(st.integers(0, 7)) == 7:
        pairs.append(('"seed"', draw(_entries())))
    top = _Obj(draw(st.permutations(pairs)))
    if draw(st.integers(0, 19)) == 19:
        top = [top]  # not an object
    text = draw(st.sampled_from([""] * 19 + ["\ufeff"])) + draw(space) + write(top) + draw(space)
    damage = draw(st.sampled_from(["none"] * 9 + ["cut", "insert", "trailing"]))
    at = draw(st.integers(0, len(text)))
    if damage == "cut":
        text = text[:at]
    elif damage == "insert":
        text = text[:at] + draw(st.sampled_from(list(",:]}[{x\f\u00a0"))) + text[at:]
    elif damage == "trailing":
        text += draw(st.sampled_from(["x", "{}", ",", "]"]))
    return text


def _outcome(read, document):
    try:
        return True, read(document)
    except ConfigError as exc:
        return False, str(exc)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_documents())
def test_load_document_matches_one_json_loads(text):
    # The reader walks the generators a row at a time; the value, every
    # float bit and every message are those of one json.loads with the
    # same object hook, and so is what parse_scenario makes of it.
    ok, got = _outcome(load_document, text)
    ref_ok, want = _outcome(load_document_reference, text)
    assert ok == ref_ok
    if not ok:
        assert got == want
        return
    assert _same(got, want)
    parsed, ref_parsed = _outcome(parse_scenario, got), _outcome(parse_scenario, want)
    assert parsed[0] == ref_parsed[0]
    if parsed[0]:
        assert _same([m for _, m in parsed[1].generators], [m for _, m in ref_parsed[1].generators])
    else:
        assert parsed[1] == ref_parsed[1]


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

    def test_named_diagonal_generators_stay_diagonals(self):
        # QO and QO_MS are held as their diagonals and read by
        # diagonal_algebra: at s_dim 2, o_dim 1024 one dense generator on
        # MS (d = 2048) would be 64 MiB, and the run holds O(d).
        for names in (["QO"], ["QO_MS"], ["QO_MS", "QO_MS"]):
            text = json.dumps(
                {"scenario": "algebra-probe", "model": {"s_dim": 2, "o_dim": 1024}, "generators": names}
            )
            tracemalloc.start()
            cfg = parse_scenario(text)
            report = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert [m.ndim for _, m in cfg.generators] == [1] * len(names)
            assert report.summary["dimension"] == 1024
            assert peak < 2**20

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


def _equal_amplitudes(s_dim):
    return [[s_dim**-0.5, 0.0]] * s_dim


def _many_rows_gemenge(n_rows, o_dim):
    """``n_rows`` equal gemenge rows of amplitudes (0.6, 0.8i), 10 events."""
    row = {"amplitudes": [[0.6, 0.0], [0.0, 0.8]], "probability": 1 / n_rows}
    return {
        "scenario": "gemenge",
        "model": {"s_dim": 2, "o_dim": o_dim},
        "input": {"gemenge": [row] * n_rows},
        "n_events": 10,
    }


def _traced_run_and_emit(config):
    """tracemalloc peaks of ``run_scenario`` and of the csv ``emit_report``
    past what the run left held, the per-model setup outside both."""
    from segalsim.measurement import pointer_algebra

    cfg = parse_scenario(config)
    pointer_algebra(cfg.model)
    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        run_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        if report.events is not None:
            emit_report(report, "csv", io.BytesIO())
        emit_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return run_peak, emit_peak


class TestPureStatesStayVectors:
    """The scenarios whose post-measurement state is pure, or an ensemble of
    pure rows, read it from amplitudes: no density matrix is made, and what
    a run allocates does not grow with the square of its dimension."""

    CONFIGS = {
        "pure": {"scenario": "pure", "model": {"s_dim": 3, "o_dim": 5}, "input": {"amplitudes": _equal_amplitudes(3)}},
        "gemenge": json.loads(UNEVEN_GEMENGE),
        "decoherence": {
            "scenario": "decoherence",
            "model": {"s_dim": 3, "o_dim": 4, "environment": {"e_dim": 6}},
            "input": {"amplitudes": _equal_amplitudes(3)},
        },
        "erasure": {"scenario": "erasure", "model": {"s_dim": 3, "o_dim": 5}, "input": {"amplitudes": _equal_amplitudes(3)}},
        "wigner-friend": {
            "scenario": "wigner-friend",
            "model": {"s_dim": 2, "o_dim": 6},
            "input": {"amplitudes": [[0.6, 0.0], [0.0, 0.8]]},
        },
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_no_density_matrix_built(self, name, monkeypatch):
        from segalsim.states import DensityMatrix

        built = []
        check = DensityMatrix.__post_init__

        def counted(self):
            built.append(self.dim)
            check(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        cfg = parse_scenario(self.CONFIGS[name])
        run_scenario(cfg)
        assert built == []

    @pytest.mark.parametrize(
        "config",
        [
            {"scenario": "pure", "model": {"s_dim": 40, "o_dim": 41}, "input": {"amplitudes": _equal_amplitudes(40)}},
            {
                "scenario": "decoherence",
                "model": {"s_dim": 12, "o_dim": 13, "environment": {"e_dim": 14}},
                "input": {"amplitudes": _equal_amplitudes(12)},
            },
            {
                "scenario": "decoherence",
                "model": {"s_dim": 2, "o_dim": 1024, "environment": {"e_dim": 4}},
                "input": {"amplitudes": _equal_amplitudes(2)},
            },
            {
                "scenario": "wigner-friend",
                "model": {"s_dim": 2, "o_dim": 4096},
                "input": {"amplitudes": [[0.6, 0.0], [0.0, 0.8]]},
            },
            _many_rows_gemenge(2048, 4096),
        ],
        ids=["pure-d1640", "decoherence-d2184", "decoherence-o1024", "wigner-friend-o4096", "gemenge-rows2048-o4096"],
    )
    def test_run_peak_memory(self, config):
        # A dense d x d state is 43 MB at d = 1640 and 76 MB at d = 2184.
        # At o_dim = 1024 one o_dim x o_dim register block is 16 MiB, and
        # an (o_dim, o_dim, e_dim) traced block 64 MiB.  At o_dim = 4096
        # (d = 8192, the cap) one S (x) O density matrix is 1 GiB, and a
        # (rows, o_dim) float table at 2,048 rows 64 MiB.
        run_peak, emit_peak = _traced_run_and_emit(config)
        assert run_peak < 16 * 2**20
        assert emit_peak < 16 * 2**20

    def test_gemenge_size_law(self):
        # From 512 rows at o_dim 1024, twice the rows, then twice o_dim:
        # a gemenge holds O(rows * s_dim + o_dim), so each doubling adds
        # under 2 MiB to the traced run and to the traced emit.  Tables of
        # rows * o_dim entries added 12 MiB to the run and 84 MiB to the emit.
        base = _traced_run_and_emit(_many_rows_gemenge(512, 1024))
        for n_rows, o_dim in ((1024, 1024), (512, 2048)):
            grown = _traced_run_and_emit(_many_rows_gemenge(n_rows, o_dim))
            assert [g - b < 2 * 2**20 for g, b in zip(grown, base)] == [True, True]

    @pytest.mark.parametrize(
        "scenario, base, grown",
        [
            ("pure", {"o_dim": 1024, "n_events": 2**15}, {"o_dim": 2048, "n_events": 2**15}),
            ("pure", {"o_dim": 1024, "n_events": 2**15}, {"o_dim": 1024, "n_events": 2**16}),
            ("wigner-friend", {"o_dim": 1024}, {"o_dim": 2048}),
            ("decoherence", {"o_dim": 512, "e_dim": 4}, {"o_dim": 1024, "e_dim": 4}),
            ("decoherence", {"o_dim": 256, "e_dim": 8}, {"o_dim": 256, "e_dim": 16}),
            ("erasure", {"o_dim": 1024}, {"o_dim": 2048}),
        ],
        ids=["pure-o", "pure-events", "wigner-friend-o", "decoherence-o", "decoherence-e", "erasure-o"],
    )
    def test_size_law(self, scenario, base, grown):
        # At s_dim 2, doubling o_dim, e_dim or n_events adds under 2 MiB to
        # the traced run and to the traced emit: a run holds O(o_dim * e_dim)
        # and one byte or two per event, the emitted log O(n_events).  An
        # o_dim x o_dim float table is 8 MiB at o_dim 1024, an (o_dim e_dim)^2
        # one 32 MiB at o_dim e_dim 2048, and a tuple of two numbers per
        # event 2.8 MiB at 2**15 events.
        def config(o_dim, e_dim=None, n_events=10):
            model = {"s_dim": 2, "o_dim": o_dim}
            if e_dim is not None:
                model["environment"] = {"e_dim": e_dim}
            amplitudes = [[0.6, 0.0], [0.0, 0.8]]
            return {"scenario": scenario, "model": model, "input": {"amplitudes": amplitudes}, "n_events": n_events}

        peaks = [_traced_run_and_emit(config(**sizes)) for sizes in (base, grown)]
        assert [g - b < 2 * 2**20 for g, b in zip(peaks[1], peaks[0])] == [True, True]

    def test_characters_stay_class_indices(self):
        # k = 2,048 pointer classes.  A character is its class index, so
        # neither the characters nor a pure run (per-model setup included)
        # holds a k x k array, 32 MB in float64 at this k.
        from segalsim.algebra import diagonal_algebra
        from segalsim.linalg import SpaceLayout
        from segalsim.restriction import extremal_states

        k = 2048
        alg = diagonal_algebra(np.arange(k, dtype=float)[None], SpaceLayout((("O", k),)))
        config = {"scenario": "pure", "model": {"s_dim": 2, "o_dim": k}, "input": {"amplitudes": _equal_amplitudes(2)}}
        cfg = parse_scenario(config)
        tracemalloc.start()
        try:
            assert len(extremal_states(alg)) == k
            characters_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            run_scenario(cfg)
            run_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert characters_peak < 2**20
        assert run_peak < 4 * 2**20


def test_many_row_gemenge_hashes_no_model(monkeypatch):
    # 2,048 distinct rows at o_dim 4096.  The run reads the setup the model
    # holds, so it never hashes the model (o_dim floats a hash), and each
    # row's draw weights are one class-order read: the source is checked a
    # few times per run, not once per row.  The pins are the report and
    # event log recorded while a process-wide cache keyed by the model held
    # the setup.
    from segalsim import events, model, pointer
    from segalsim.model import MeasurementModel

    n = 2048
    rows = [
        {"amplitudes": [[(r + 1) / (n + 1), 0.0], [0.0, np.sqrt(1 - ((r + 1) / (n + 1)) ** 2)]], "probability": 1 / n}
        for r in range(n)
    ]
    cfg = parse_scenario({"scenario": "gemenge", "model": {"s_dim": 2, "o_dim": 4096}, "input": {"gemenge": rows}, "n_events": 1000})

    def unhashable(self):
        raise TypeError("the model was hashed")

    calls = []
    source_kind = model._source_kind

    def counted(*args):
        calls.append(args)
        return source_kind(*args)

    monkeypatch.setattr(MeasurementModel, "__hash__", unhashable)
    for module in (events, model, pointer):
        monkeypatch.setattr(module, "_source_kind", counted)
    report = run_scenario(cfg)
    log = io.BytesIO()
    emit_report(report, "csv", log)
    assert hashlib.sha256(emit_report(report).encode()).hexdigest() == (
        "9c200aa4ba98ff0e9c378041b9a26fb7188fdc0e8c4c4a9dc112393736493306"
    )
    assert hashlib.sha256(log.getvalue()).hexdigest() == (
        "48ca3b96a1ca1e20c83cef6b6b0227411273e6af21fc5069fc897a13229618ba"
    )
    assert len(calls) < 10


@pytest.mark.parametrize("hook", ["settrace", "setprofile"])
def test_wigner_friend_runs_under_a_tracer(hook):
    # A trace or profile hook (a debugger, a coverage run, a profiler)
    # holds a reference to each frame's locals; the closure's in-place
    # buffer resizes must not depend on reference counts.  ["QO_MS", "B"]
    # is the interference algebra wigner-friend's verdict reads: its
    # closure grows its first 6 rows to 12 and returns the spare 5.
    import sys

    cfg = parse_scenario(CONFIGS["algebra-probe-qo-ms-b"])
    expected = emit_report(run_scenario(cfg))
    install, previous = getattr(sys, hook), getattr(sys, hook.replace("set", "get"))()
    install(lambda *args: None)
    try:
        report = run_scenario(cfg)
    finally:
        install(previous)
    assert emit_report(report) == expected
    assert report.summary["dimension"] == 7


def _log_text(events) -> str:
    return b"".join(map(bytes, serialize._event_log(events))).decode("ascii")


def _row_writer_log(events) -> str:
    """The event log by csv.writer over the per-event records."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(serialize._EVENT_COLUMNS)
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
    return buf.getvalue()


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

    def test_csv_out_never_holds_the_log(self, tmp_path):
        # What writing the csv document allocates does not grow with it.
        peaks = []
        for n in (2**16, 2**17):
            report = run_scenario(parse_scenario(json.loads(UNEVEN_GEMENGE) | {"n_events": n}))
            tracemalloc.start()
            emit_report(report, "csv", out=tmp_path / "events.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**16

    def test_csv_out_working_set_is_a_few_small_blocks(self, tmp_path):
        # Sixteen blocks of the log: what writing it allocates, about
        # 0.3 MiB, is one block of 2**12 rows, its NUL mask and its bytes,
        # beside the digit and suffix tables.
        report = run_scenario(parse_scenario(json.loads(UNEVEN_GEMENGE) | {"n_events": 2**16}))
        tracemalloc.start()
        emit_report(report, "csv", out=tmp_path / "events.csv")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20

    def test_csv_out_streams_the_returned_document(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serialize, "_LOG_BLOCK", 7)
        for text in (config_text(n_events=120), UNEVEN_GEMENGE):
            report = run_scenario(parse_scenario(text))
            out = tmp_path / "events.csv"
            assert emit_report(report, "csv", out=out) == ""
            assert out.read_text(encoding="ascii") == emit_report(report, "csv")

    def test_event_log_matches_row_writer(self, monkeypatch):
        # The table-driven log against csv.writer over the per-event
        # records, with blocks small enough that the log spans several.
        monkeypatch.setattr(serialize, "_LOG_BLOCK", 7)
        texts = [
            config_text(n_events=50, input={"amplitudes": [[0.6, 0], [0, 0.8]]}),
            # every digit-count boundary, up to the second four-digit lookup
            *(config_text(n_events=n) for n in (1, 10, 11, 100, 101, 1001, 10001)),
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
            UNEVEN_GEMENGE,
        ]
        for text in texts:
            events = run_scenario(parse_scenario(text)).events
            assert _log_text(events) == _row_writer_log(events)

    @pytest.mark.parametrize("log_block", [7, None], ids=["block-7", "block-default"])
    def test_event_log_crosses_multiples_of_ten_thousand(self, monkeypatch, log_block):
        # Indices of five and six digits, whose digits above the last four
        # change inside a block at a multiple of 10**4 (unless a block
        # happens to start there), against the row writer.
        if log_block is not None:
            monkeypatch.setattr(serialize, "_LOG_BLOCK", log_block)
        texts = [
            config_text(n_events=20_010),
            config_text(n_events=100_010),
            json.dumps(json.loads(UNEVEN_GEMENGE) | {"n_events": 20_010}),
        ]
        for text in texts:
            events = run_scenario(parse_scenario(text)).events
            assert _log_text(events) == _row_writer_log(events)

    def test_uneven_gemenge_log_shape(self):
        report = run_scenario(parse_scenario(UNEVEN_GEMENGE))
        assert set(report.events.gemenge_row.tolist()) == {0, 2}
        lines = emit_report(report, fmt="csv").splitlines()
        assert len({len(line.split(",", 1)[1]) for line in lines[1:]}) > 1

    def test_csv_refused_without_events(self):
        text = json.dumps(
            {"scenario": "algebra-probe", "generators": ["QO"], "n_events": 1, "seed": 0}
        )
        report = run_scenario(parse_scenario(text))
        with pytest.raises(ValueError, match="no event log"):
            emit_report(report, fmt="csv")
