"""Output checks for one benchmark run.

A run passes when its report and event log are well formed and agree
with the workload's ground truth.  At the default workload seed their
sha256 must also equal the golden values in ``golden.json``, recorded
from the seed commit: reports are byte-stable for a fixed (config, seed).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from workloads import DEFAULT_SEED, Workload

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text(encoding="utf-8"))

# Largest |z| of any histogram bin against its Born probability.  At 6
# standard deviations a correct sampler fails about once in 10^8 bins.
Z_MAX = 6.0
EVENT_HEADER = b"event_index,gemenge_row,pointer_index,impression_value,probability_used"


class CheckError(Exception):
    """The program's output is wrong."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reject_constant(name: str):
    raise CheckError(f"report holds the non-JSON constant {name}")


def strict_json(data: bytes):
    try:
        return json.loads(data, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckError(f"report is not JSON: {exc}") from exc


def max_z(counts: list[int], probs: list[float], n: int) -> float:
    """Largest |z| of the counts against n draws from ``probs``."""
    if len(counts) != len(probs):
        raise CheckError(f"{len(counts)} histogram bins for {len(probs)} probabilities")
    worst = 0.0
    for k, (c, p) in enumerate(zip(counts, probs)):
        if p < 1e-12:
            if c:
                raise CheckError(f"bin {k} has probability 0 but {c} events")
            continue
        worst = max(worst, abs(c - n * p) / math.sqrt(n * p * (1.0 - p)))
    return worst


def _require_z(counts, probs, n, what: str) -> None:
    z = max_z(counts, probs, n)
    if z > Z_MAX:
        raise CheckError(f"{what}: max |z| = {z:.2f} against the Born probabilities (bound {Z_MAX})")


def event_columns(data: bytes, n: int) -> tuple[Counter, Counter]:
    """Per-value counts of the pointer_index and gemenge_row columns."""
    lines = data.split(b"\n")
    if lines[-1] != b"" or len(lines) != n + 2:
        raise CheckError(f"event log has {len(lines) - 1} lines, expected n_events + 1 = {n + 1}")
    if lines[0] != EVENT_HEADER:
        raise CheckError(f"event log header {lines[0][:80]!r}")
    pairs = Counter(tuple(line.split(b",", 3)[1:3]) for line in lines[1:-1])
    pointers: Counter = Counter()
    rows: Counter = Counter()
    for (row, pointer), c in pairs.items():
        pointers[int(pointer)] += c
        if row:
            rows[int(row)] += c
    return pointers, rows


def _dense(counter: Counter, size: int) -> list[int]:
    if any(not 0 <= k < size for k in counter):
        raise CheckError(f"index outside 0..{size - 1}: {sorted(counter)}")
    return [counter.get(k, 0) for k in range(size)]


def _check_pointer_report(w: Workload, report: bytes, events: bytes | None) -> None:
    doc = strict_json(report)
    summary = doc["summary"]
    n = w.n_events
    hist = summary["histogram"]
    if sum(hist) != n:
        raise CheckError(f"histogram sums to {sum(hist)}, expected n_events = {n}")
    if doc["n_events_logged"] != n or doc["event_log"] != "report.events.csv":
        raise CheckError("report does not point at a full event log")
    born = summary["born_probabilities"]
    if max(abs(a - b) for a, b in zip(born, w.truth["born"], strict=True)) > 1e-9:
        raise CheckError(f"born_probabilities {born} differ from {w.truth['born']}")
    _require_z(hist, w.truth["born"], n, "histogram")
    if events is None:
        raise CheckError("event log missing")
    pointers, _ = event_columns(events, n)
    if _dense(pointers, len(hist)) != hist:
        raise CheckError("event log pointer counts differ from the report histogram")


def _check_event_document(w: Workload, events: bytes) -> None:
    n = w.n_events
    pointers, rows = event_columns(events, n)
    born, row_p = w.truth["born"], w.truth["row_probabilities"]
    _require_z(_dense(pointers, len(born)), born, n, "histogram")
    _require_z(_dense(rows, len(row_p)), row_p, n, "row histogram")


def _check_algebra_report(w: Workload, report: bytes) -> None:
    summary = strict_json(report)["summary"]
    truth = w.truth
    if summary["dimension"] != truth["dimension"] or summary["commutative"] is not True:
        raise CheckError(
            f"algebra dimension {summary['dimension']}, commutative {summary['commutative']}; "
            f"expected {truth['dimension']}, true"
        )
    chars = summary["characters"]
    if len(chars) != len(truth["characters"]) or any(
        abs(a - b) > 1e-6 for got, want in zip(chars, truth["characters"]) for a, b in zip(got, want, strict=True)
    ):
        raise CheckError("character values differ from the generators' joint eigenvalues")
    if summary["projector_ranks"] != truth["projector_ranks"]:
        raise CheckError(f"projector ranks {summary['projector_ranks']} != {truth['projector_ranks']}")


def check_outputs(w: Workload, report: bytes | None, events: bytes | None) -> None:
    """Raise CheckError unless the run's outputs are right for the workload."""
    try:
        if w.scenario == "algebra-probe":
            _check_algebra_report(w, report)
        elif w.out_name.endswith(".csv"):
            _check_event_document(w, events)
        else:
            _check_pointer_report(w, report, events)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from exc


def check_golden(w: Workload, seed: int, hashes: dict[str, str]) -> None:
    """At the default seed the output bytes must equal the recorded ones."""
    if seed != DEFAULT_SEED:
        return
    want = GOLDEN[w.name]
    if hashes != want:
        raise CheckError(f"output sha256 {hashes} differs from the golden {want}")
