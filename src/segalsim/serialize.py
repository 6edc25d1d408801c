"""Report documents and event logs, byte-stable for a fixed (config, seed).

A report document is JSON with sorted keys and every float at 12
significant digits; nothing run-dependent goes in it (wall time is
surfaced on stderr by the CLI instead).  The event log is CSV, formatted
as bytes ``_LOG_BLOCK`` rows at a time and streamed on every route.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .config import InvariantViolation
from .measurement import EventBatch
from .scenarios import RunReport

__all__ = ["emit_report"]

_EVENT_COLUMNS = (
    "event_index",
    "gemenge_row",
    "pointer_index",
    "impression_value",
    "probability_used",
)

# Most rows per block of the event log, each formatted and written in turn;
# at most 10**4, so the digits above a block's last four change at most once.
_LOG_BLOCK = 2**12


def _canonical(value):
    """Round floats to 12 significant digits so serialization is byte-stable
    and emit/parse round-trips are exact."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    return value


def _format_float(value: float) -> str:
    return f"{float(value):.12g}"


def _event_log(events: EventBatch) -> Iterator[np.ndarray]:
    """The event log's bytes, ``_LOG_BLOCK`` rows at a time.

    Every row after its event index is fixed by the event's outcome code
    ``row * s + pointer - 1`` (row 0 for a pure input), its index in the
    (rows, s) ``outcome_probability``, so each outcome is formatted once
    and looked up per event as ``np.take(table, code, axis=0)`` in a flat
    (rows * s, width) table padded with NUL bytes, which no row holds.
    The codes are computed in intp: the uint8 columns would wrap at 256.
    A block never crosses a power of ten, so its indices share a digit
    count.  The indices are consecutive: a block's last four digits are
    one slice of a table that spells i mod 10**4 in row i, and the digits
    above them change at most once in a block, at a multiple of 10**4.
    Each block is laid out as one byte array, and its bytes other than
    NUL are the rows.
    """
    n = len(events)
    s = events.outcome_probability.shape[1]

    def code_of(start: int, stop: int) -> np.ndarray:
        code = np.subtract(events.pointer_index[start:stop], 1, dtype=np.intp)
        if events.gemenge_row is not None:
            code += np.multiply(events.gemenge_row[start:stop], s, dtype=np.intp)
        return code

    pure = events.gemenge_row is None
    suffixes = [
        f",{'' if pure else row},{pointer},{_format_float(events.pointer_values[pointer])},{_format_float(p)}\n"
        for row, weights in enumerate(events.outcome_probability.tolist())
        for pointer, p in enumerate(weights, 1)
    ]
    width = max(map(len, suffixes))
    table = np.frombuffer("".join(x.ljust(width, "\0") for x in suffixes).encode("ascii"), np.uint8).reshape(-1, width)
    digit = np.arange(48, 58, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), -1).reshape(-1, 4)
    quads = np.concatenate([quads, quads[:_LOG_BLOCK]])  # row i spells i mod 10**4

    def rows(start: int, stop: int) -> np.ndarray:  # its arrays die on return
        k = len(str(start))
        block = np.empty((stop - start, k + width), np.uint8)
        low = start % 10**4
        block[:, max(k - 4, 0) : k] = quads[low : low + stop - start, max(4 - k, 0) :]
        if k > 4:
            turn = 10**4 - low  # the first row whose high digits are one more
            block[:turn, : k - 4] = np.frombuffer(str(start // 10**4).encode("ascii"), np.uint8)
            if turn < len(block):
                block[turn:, : k - 4] = np.frombuffer(str(start // 10**4 + 1).encode("ascii"), np.uint8)
        block[:, k:] = np.take(table, code_of(start, stop), axis=0)
        return block[block != 0]

    yield np.frombuffer((",".join(_EVENT_COLUMNS) + "\n").encode("ascii"), np.uint8)
    start = 0
    while start < n:
        stop = min(n, start + _LOG_BLOCK, 10 ** len(str(start)))
        yield rows(start, stop)
        start = stop


def _write_log(out: str | Path | BinaryIO, events: EventBatch) -> None:
    """Stream the event log to ``out``, a path or a binary file, one block at a time."""
    if hasattr(out, "write"):
        out.writelines(_event_log(events))
        return
    with open(out, "wb") as fh:
        fh.writelines(_event_log(events))


def emit_report(
    report: RunReport,
    fmt: str = "json",
    out: str | Path | BinaryIO | None = None,
) -> str:
    """Serialize a report; returns the document text, or ``""`` for a csv
    document written to ``out``.

    ``json``: the summary document, with the event log written next to
    ``out`` (as ``<stem>.events.csv``) when a path is given and events
    exist.  ``csv``: the event log itself is the document; ``out`` may be
    a path or a binary file (such as ``sys.stdout.buffer``), and the log
    streams to it ``_LOG_BLOCK`` rows at a time, never held whole.  Output
    bytes depend only on (config, seed) and the output file names.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")

    if fmt == "csv":
        if report.events is None:
            raise ValueError(
                f"scenario {report.scenario!r} produces no event log; use the json format"
            )
        if out is None:
            return b"".join(_event_log(report.events)).decode("ascii")
        _write_log(out, report.events)
        return ""

    out_path = None if out is None else Path(out)
    event_log_name = None
    if report.events is not None and out_path is not None:
        event_log_name = out_path.stem + ".events.csv"
    doc = {
        "scenario": report.scenario,
        "config": _canonical(report.config),
        "summary": _canonical(report.summary),
        "n_events_logged": 0 if report.events is None else len(report.events),
        "event_log": event_log_name,
    }
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or an infinity in the report
        raise InvariantViolation(f"report is not strict JSON: {exc}") from exc
    if out_path is not None:
        out_path.write_text(text, encoding="utf-8")
        if event_log_name is not None:
            _write_log(out_path.parent / event_log_name, report.events)
    return text
