"""Emitted bytes are pinned: report and event-log sha256 for small configs.

The hashes were recorded from the row-at-a-time event path that the
columnar batch replaced; any change to sampling, formatting or file
naming shows up here as a hash mismatch.  The algebra-probe hashes were
recorded from the Gram-Schmidt closure before diagonal generators got
their own path; the ``B`` and rotated-pair hashes, which take the generic
path, from the all-pairs closure before it grew by generator letters.
The gemenge JSON, erasure, decoherence and command-line override hashes
were recorded before scenarios and the CLI started sharing the
measurement pipeline's steps.  The non-commutative ``["QO_MS", "B"]``
probe and the rotated pair at ``tolerances.algebra = 1e-6`` were
recorded before commutative algebras became one joint eigenbasis plus
class labels.  The environment runs with spare pointer states
(``gemenge-environment``, ``decoherence-spare``) were recorded while the
environment coupling was still a dense controlled-rotation unitary,
before it became one table of environment records.  The wigner-friend
report was re-recorded once, when its restricted probabilities started
zeroing weights at or below PROBABILITY_FLOOR (the ready pointer read
7.85e-17 before).  ``decoherence-degenerate`` (equal branch weights, so
the pointer basis is found through the S-conditioned register states),
``erasure-spare`` and ``pure-signed-zero`` (``-0.0`` input amplitudes)
were recorded while the scenarios still built dense density matrices and
the (s*o)^2 premeasurement unitary, before pure states stayed vectors.
"""

import hashlib
import json

import numpy as np
import pytest

from segalsim.cli import main

_AMPS = [[0.6, 0.0], [0.0, 0.8]]


def _rotated_pair():
    """Two commuting Hermitian 12x12 generators U diag(a) U^dag, U diag(b) U^dag.

    The joint values (a, b) fall into six classes of rank 2, spaced far
    apart, so the generic closure has dimension 6.
    """
    rng = np.random.default_rng(20)
    u, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    entries = []
    for values in (np.repeat([-2.0, 1.0, 3.0], 4), np.tile([-1.5, -1.5, 2.5, 2.5], 3)):
        h = (u * values) @ u.conj().T
        h = (h + h.conj().T) / 2.0  # exactly Hermitian entry by entry
        entries.append({"space": "MS", "matrix": np.stack([h.real, h.imag], axis=-1).tolist()})
    return entries

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
    "gemenge-json": {
        "scenario": "gemenge",
        "input": {
            "gemenge": [
                {"amplitudes": [[0.6, 0], [0, 0.8]], "probability": 0.4},
                {"amplitudes": [[0, 0], [1, 0]], "probability": 0.0},
                {"amplitudes": [[0.70710678118, 0], [-0.70710678118, 0]], "probability": 0.6},
            ]
        },
        "n_events": 2000,
        "seed": 15,
    },
    "erasure": {
        "scenario": "erasure",
        "model": {"s_dim": 3, "o_dim": 5},
        "input": {"amplitudes": [[0.6, 0], [0, 0.48], [0.64, 0]]},
    },
    "decoherence": {
        "scenario": "decoherence",
        "model": {"environment": {"e_dim": 5, "coupling_strength": 0.7, "e_overlap": 0.3}},
        "input": {"amplitudes": _AMPS},
        "t_grid": [0.0, 0.05, 0.2, 1.5],
    },
    "pure-overrides": {
        "scenario": "pure",
        "input": {"amplitudes": _AMPS},
        "n_events": 100,
        "seed": 1,
        "output_format": "csv",
    },
    "algebra-probe-qo": {"scenario": "algebra-probe", "generators": ["QO"]},
    "algebra-probe-qo-ms": {
        "scenario": "algebra-probe",
        "model": {"s_dim": 3, "o_dim": 4},
        "generators": ["QO_MS"],
    },
    "algebra-probe-b": {"scenario": "algebra-probe", "generators": ["B"]},
    "algebra-probe-rotated-pair": {
        "scenario": "algebra-probe",
        "model": {"s_dim": 3, "o_dim": 4},
        "generators": _rotated_pair(),
    },
    "algebra-probe-qo-ms-b": {"scenario": "algebra-probe", "generators": ["QO_MS", "B"]},
    "algebra-probe-rotated-pair-tol": {
        "scenario": "algebra-probe",
        "model": {"s_dim": 3, "o_dim": 4},
        "generators": _rotated_pair(),
        "tolerances": {"algebra": 1e-6},
    },
    "gemenge-environment": {
        "scenario": "gemenge",
        "model": {
            "s_dim": 3,
            "o_dim": 6,
            "environment": {"e_dim": 6, "coupling_strength": 0.8, "e_overlap": 0.5},
        },
        "input": {
            "gemenge": [
                {"amplitudes": [[0.6, 0], [0, 0.48], [0.64, 0]], "probability": 0.3},
                {"amplitudes": [[0, 0], [0, 0], [1, 0]], "probability": 0.2},
                {"amplitudes": [[0.5, 0.5], [-0.5, 0], [0, 0.5]], "probability": 0.5},
            ]
        },
        "n_events": 2000,
        "seed": 17,
    },
    "decoherence-spare": {
        "scenario": "decoherence",
        "model": {
            "s_dim": 2,
            "o_dim": 5,
            "environment": {"e_dim": 6, "coupling_strength": 0.4, "e_overlap": 0.6},
        },
        "input": {"amplitudes": [[0.8, 0], [0, 0.6]]},
        "t_grid": [0.0, 0.1, 0.7],
    },
    "decoherence-degenerate": {
        "scenario": "decoherence",
        "model": {
            "s_dim": 3,
            "o_dim": 4,
            "environment": {"e_dim": 6, "coupling_strength": 0.9, "e_overlap": 0.2},
        },
        "input": {"amplitudes": [[0.57735026919, 0], [0, 0.57735026919], [-0.57735026919, 0]]},
    },
    "erasure-spare": {
        "scenario": "erasure",
        "model": {"s_dim": 2, "o_dim": 5},
        "input": {"amplitudes": [[0.6, -0.0], [-0.0, -0.8]]},
    },
    "pure-signed-zero": {
        "scenario": "pure",
        "input": {"amplitudes": [[-0.0, -0.0], [1, 0]]},
        "n_events": 2000,
        "seed": 18,
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
        "report.json": "acfcfd93f3b4d1cd4d8cd3d91e34a9939629110dd7c66df1ca14dccfcd67a795",
    },
    "pure-environment": {
        "report.events.csv": "dfc700a513003d4101dc4d8a428a7dbee0bc860846005dbf41745cb324b07778",
        "report.json": "10b85993126712e025564d2a9b02ca669387ee6a61758a5be94f515946c86e15",
    },
    "gemenge-json": {
        "report.events.csv": "d99fdf0e65a583ef25f809fa19cc706f7d06eb71feeaf893c0cd55d4364bf789",
        "report.json": "32a397f86f36e13facbb619dc4b62092da35f001a632600a475a70a3739fa1f3",
    },
    "erasure": {
        "report.json": "934696e87e40ebe5d34f1e8fb3c64e63da4441111b9ddd2ff4bd6b49a7cfe02a",
    },
    "decoherence": {
        "report.json": "a016c7083416cc8b598e53c8cb56eeeb76efb2ea577ae6ff43bafb04cdc8f399",
    },
    "pure-overrides": {
        "report.events.csv": "f02d5d81fecca8e50b7a33d0107546ebc23cc165c891240fa0a08364f06f8d4b",
        "report.json": "c418014a83f0bff3938f9fc4dec4b85361fc14282b6ab18d08d0a9fa2f688b58",
    },
    "algebra-probe-qo": {
        "report.json": "22d49c6d7045c074764bc7229e25011f4811aa9539401bbd03294e463d357ea4",
    },
    "algebra-probe-qo-ms": {
        "report.json": "b0f0bd55312b177e46e4e9128c0dd76c5bda0048ac7bafaf6dd09103b3c2141c",
    },
    "algebra-probe-b": {
        "report.json": "da81a4e2698cdea41dd626fd2b64157856f8927b9464587c2a62858315f72346",
    },
    "algebra-probe-rotated-pair": {
        "report.json": "dd751aa58e7544083f2d8aaca0764d315bd87b884434573ca19edbe005153c5e",
    },
    "algebra-probe-qo-ms-b": {
        "report.json": "c408327d156557d22f6fb82304baafa7d0d9ee68866d79a450d241fa482b5c1b",
    },
    "algebra-probe-rotated-pair-tol": {
        "report.json": "b19cb730da4852a23681ff421aa18b3a9a4ec633cacd56952b81b1a373fab7f1",
    },
    "gemenge-environment": {
        "report.events.csv": "3c0e5b839e281116255dba81e30f392fd9fd8f3ec58ec31d8f493061206f9be1",
        "report.json": "214b495d851f51c876647e5896f2a1b666fe4652b01d76aa550a3f07b1a58cbe",
    },
    "decoherence-spare": {
        "report.json": "0d6c0728210bd0d641670fc9e157748573b10f89d1076d63344d3ffc99657574",
    },
    "decoherence-degenerate": {
        "report.json": "11cf260129b9abd7118eef388059d693d6304a267fed37b9fa12e38cac8c165f",
    },
    "erasure-spare": {
        "report.json": "3d7e32e40688a02fdecf326f7c3c40a754b9f85941cbd54482f0cd96cc58c98e",
    },
    "pure-signed-zero": {
        "report.events.csv": "f53f7dd035e33230f871e9ed3665974d0dd722b9d20a3e61bc298a23657c0bd0",
        "report.json": "29d3c23a63daf69ff213b2081bf8786002d8b556e64ec2c02c5538af685d8bb7",
    },
}

# Command-line overrides applied on top of a config document.
OVERRIDES = {"pure-overrides": ["--seed", "16", "--events", "2000", "--format", "json"]}


def emitted_hashes(name, folder):
    """Run one config through the CLI into ``folder``; sha256 per written file."""
    config = folder / "scenario.json"
    config.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    out = folder / ("events.csv" if name == "gemenge-csv" else "report.json")
    argv = ["run", str(config), "--out", str(out), "--quiet", *OVERRIDES.get(name, [])]
    assert main(argv) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(folder.iterdir())
        if p != config
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_emitted_bytes_unchanged(name, tmp_path):
    assert emitted_hashes(name, tmp_path) == EXPECTED[name]
