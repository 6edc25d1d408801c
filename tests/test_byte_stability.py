"""Emitted bytes are pinned: report and event-log sha256 for small configs.

The hashes were recorded from the row-at-a-time event path that the
columnar batch replaced; any change to sampling, formatting or file
naming shows up here as a hash mismatch.
"""

import hashlib
import json

import pytest

from segalsim.cli import main

_AMPS = [[0.6, 0.0], [0.0, 0.8]]

CONFIGS = {
    "pure": {
        "scenario": "pure",
        "input": {"amplitudes": _AMPS},
        "n_events": 2000,
        "seed": 11,
    },
    "gemenge-csv": {
        "scenario": "gemenge",
        "model": {"s_dim": 3, "o_dim": 5},
        "input": {
            "gemenge": [
                {"amplitudes": [[0.6, 0], [0.8, 0], [0, 0]], "probability": 0.25},
                {"amplitudes": [[1, 0], [0, 0], [0, 0]], "probability": 0.0},
                {"amplitudes": [[0, 0.5], [0.5, 0], [0, 0.70710678118]], "probability": 0.75},
            ]
        },
        "n_events": 2000,
        "seed": 12,
        "output_format": "csv",
    },
    "wigner-friend": {
        "scenario": "wigner-friend",
        "input": {"amplitudes": _AMPS},
        "n_events": 2000,
        "seed": 13,
    },
    "pure-environment": {
        "scenario": "pure",
        "model": {"environment": {"e_dim": 4, "coupling_strength": 0.5, "e_overlap": 0.25}},
        "input": {"amplitudes": _AMPS},
        "n_events": 2000,
        "seed": 14,
    },
}

EXPECTED = {
    "pure": {
        "report.events.csv": "017227f688550c7a8128fda37894f8518c5efae0a1097dca3379e319f00c5af5",
        "report.json": "2eca09c19dfc0fbaf8c348f2ad86508c5720c18d202af45b8073bf1e5a3dabf4",
    },
    "gemenge-csv": {
        "events.csv": "2602f417327642f7708997b8a79baaed219be07b4f81612f18b3afa7cf2d7e39",
    },
    "wigner-friend": {
        "report.events.csv": "67ec0f74cd8d52ec4f1b291f4af97637e4b909c04320d90c5279a8410ae8e7e1",
        "report.json": "7a47a957f96bde4c9b62a68bf6bbf2121515837a66f16871b96458db1831e186",
    },
    "pure-environment": {
        "report.events.csv": "dfc700a513003d4101dc4d8a428a7dbee0bc860846005dbf41745cb324b07778",
        "report.json": "10b85993126712e025564d2a9b02ca669387ee6a61758a5be94f515946c86e15",
    },
}


def emitted_hashes(name, folder):
    """Run one config through the CLI into ``folder``; sha256 per written file."""
    config = folder / "scenario.json"
    config.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    out = folder / ("events.csv" if name == "gemenge-csv" else "report.json")
    assert main(["run", str(config), "--out", str(out), "--quiet"]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(folder.iterdir())
        if p != config
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_emitted_bytes_unchanged(name, tmp_path):
    assert emitted_hashes(name, tmp_path) == EXPECTED[name]
