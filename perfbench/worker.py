"""One benchmark process: a CLI-equivalent scenario run, or the layer probes.

    python3 perfbench/worker.py MODE CONFIG OUT STAMPS

MODE is one of

``run``    what ``segalsim run CONFIG --out OUT`` does, through the public
           functions: parse_scenario, pointer_algebra(model, environment=True)
           (not for algebra-probe), run_scenario, emit_report;
``trace``  the same run with a span around each of those calls;
``probe``  each layer the scenario calls internally, re-run on the same
           inputs with a span around the public call.

STAMPS receives a JSON object: ``ready`` (the clock when the model is
ready to sample), ``spans`` (name, start, end, attrs), ``peak_rss_mb``
(VmHWM at exit) and, for ``probe``, a few computed counts and the cost
of one recorded span.  Times are CLOCK_MONOTONIC seconds, which is
system-wide, so the parent can compare them with its own spawn and exit
times.  Spans are kept in memory and written once at exit.

Memory is read from /proc/self/status.  VmHWM starts afresh at exec, so
it is this process's own peak; the ru_maxrss that wait4 reports keeps
the peak of the parent's memory that the child held before exec.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Spans:
    """Spans kept in memory; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        start = clock()
        yield attrs
        if self.enabled:
            self.spans.append({"name": name, "start": start, "end": clock(), "attrs": attrs})


def _import(spans: Spans):
    with spans.span("cli.import"):
        sys.path.insert(0, str(SRC))
        import segalsim
    if not Path(segalsim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"segalsim imported from {segalsim.__file__}, not from {SRC}")
    return segalsim


def scenario(mode: str, config: Path, out: Path, stamps: dict) -> None:
    spans = Spans(mode == "trace")
    sg = _import(spans)
    text = config.read_text(encoding="utf-8")
    with spans.span("scenarios.parse"):
        cfg = sg.parse_scenario(text)
    if cfg.scenario != "algebra-probe":
        with spans.span("measurement.setup"):
            sg.pointer_algebra(cfg.model, environment=True)
    stamps["ready"] = clock()
    with spans.span("scenarios.run"):
        report = sg.run_scenario(cfg)
    with spans.span("scenarios.emit") as emit:
        sg.emit_report(report, fmt=cfg.output_format, out=out)
    written = [out, out.with_name(out.stem + ".events.csv")]
    emit["bytes"] = sum(p.stat().st_size for p in written if p.exists())
    stamps["spans"] = spans.spans


def _status_mb(field: str) -> float:
    """A memory figure (VmRSS, VmHWM) of this process, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/self/status")


def span_cost_s(batches: int = 7, n: int = 1000) -> float:
    """Median cost of recording one span, from batches of empty spans."""
    costs = []
    for _ in range(batches):
        spans = Spans(True)
        start = clock()
        for _ in range(n):
            with spans.span("empty"):
                pass
        costs.append((clock() - start) / n)
    return statistics.median(costs)


def probe(config: Path, stamps: dict) -> None:
    """Re-run the layers a scenario calls internally, outside any scenario span.

    The memory run_ensemble adds is the growth of the resident set
    across the call, read while its records are still alive.
    On algebra-probe, which samples nothing, the pointer-pipeline probes
    run on the same model with an equal-weight input and the config's
    n_events: they are the control that an event-path change should
    move while the workload's own figures stay put.
    """
    sg = _import(Spans(False))
    import numpy as np
    from segalsim._philox import event_uniforms
    from segalsim.config import ALGEBRA_TOL
    from segalsim.measurement import full_layout, ms_layout, pointer_histogram, system_state

    spans = Spans(True)

    cfg = sg.parse_scenario(config.read_text(encoding="utf-8"))
    model = cfg.model
    with spans.span("measurement.setup"):
        sg.pointer_algebra(model, environment=True)

    if cfg.scenario == "gemenge":
        states = [(system_state(model, a), p) for a, p in cfg.gemenge_rows]
        source = sg.Gemenge(tuple(states))
        draws = 2
    else:
        amps = cfg.amplitudes if cfg.amplitudes is not None else np.full(model.s_dim, model.s_dim**-0.5)
        states = [(system_state(model, amps), 1.0)]
        source = states[0][0]
        draws = 1
    n, seed = cfg.n_events, cfg.seed

    rss0 = _status_mb("VmRSS")
    with spans.span("measurement.run_ensemble", n_events=n):
        records = sg.run_ensemble(model, source, n, seed)
    rss_growth = _status_mb("VmRSS") - rss0
    with spans.span("measurement.histogram"):
        pointer_histogram(model, records)
    del records
    with spans.span("philox.uniforms", n_events=n, draws=draws):
        event_uniforms(seed, n, draws)

    if cfg.scenario == "algebra-probe":
        layout = sg.SpaceLayout((("O", model.o_dim),)) if cfg.generator_space == "O" else ms_layout(model)
        jobs = [([m for _, m in cfg.generators], layout)]
        tol = cfg.tolerances.get("algebra", ALGEBRA_TOL)
    else:
        # The pointer generator tensor(I_S, diag(qo), I_E) on every layout
        # the per-model set-up closes over.
        qo = np.diag(np.asarray(model.qo_values, dtype=complex))
        jobs = []
        for layout in [full_layout(model)] + ([ms_layout(model)] if model.environment else []):
            ops = [qo if label == "O" else np.eye(dim) for label, dim in layout.factors]
            jobs.append(([sg.tensor(*ops)], layout))
        tol = ALGEBRA_TOL
    with spans.span("algebra.closure"):
        algebras = [sg.generate_algebra(gens, layout, tol=tol) for gens, layout in jobs]
    with spans.span("algebra.resolution"):
        for alg in algebras:
            if alg.commutative:
                sg.joint_spectral_resolution(alg)

    full_alg = sg.pointer_algebra(model, environment=True)
    ms_alg = sg.pointer_algebra(model, environment=False)
    ready_e = None
    if model.environment is not None:
        ready_e = np.zeros(model.environment.e_dim)
        ready_e[0] = 1.0
    premeasured = [(sg.premeasure(model, psi), p) for psi, p in states]
    # The environment starts ready; its coupling commutes with the pointer
    # projectors, so the call sees the pipeline's layout, cost and values.
    xis = [
        xi if ready_e is None else sg.StateVector(full_layout(model), np.kron(xi.amplitudes, ready_e))
        for xi, _ in premeasured
    ]
    with spans.span("restriction.character_probabilities"):
        for xi in xis:
            sg.character_probabilities(xi, full_alg)
    mix = sum(p * sg.density_from_vector(xi).matrix for xi, p in premeasured)
    rho = sg.DensityMatrix(ms_layout(model), mix)
    with spans.span("restriction.decompose"):
        sg.decompose_restricted(sg.restrict_state(rho, ms_alg), ms_alg)

    d = full_layout(model).dim
    stamps["spans"] = spans.spans
    stamps["span_cost_s"] = span_cost_s()
    stamps["counts"] = {
        "measurement.run_ensemble_rss_mb": rss_growth,
        "measurement.pipeline_bytes": 16 * d * d,
        "philox.uniform_bytes": 8 * n * draws,
        "algebra.dimension": algebras[0].dimension,
        "algebra.layout_dim": algebras[0].layout.dim,
        "algebra.basis_bytes": sum(16 * a.dimension * a.layout.dim**2 for a in algebras),
    }


def main(argv: list[str]) -> int:
    mode, config, out, stamp_path = argv
    stamps: dict = {}
    if mode == "probe":
        probe(Path(config), stamps)
    elif mode in ("run", "trace"):
        scenario(mode, Path(config), Path(out), stamps)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    stamps["peak_rss_mb"] = _status_mb("VmHWM")
    Path(stamp_path).write_text(json.dumps(stamps), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
