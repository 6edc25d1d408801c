"""Finite-dimensional operator algebras and a quantum measurement simulator.

Layers, bottom up:

- :mod:`segalsim.linalg`: dense complex kernel (tensor factors,
  Hermitian eigendecomposition, propagators).
- :mod:`segalsim.states`: pure states, density matrices, ensemble tables.
- :mod:`segalsim.algebra`: *-algebra closures, commutativity, joint
  spectral resolutions; :mod:`segalsim.classifier` groups joint values
  into classes, :mod:`segalsim.eigenbasis` resolves dense commuting
  generators and :mod:`segalsim.closure` closes non-commutative ones by
  Gram-Schmidt.
- :mod:`segalsim.restriction`: states as functionals on subalgebras,
  characters, observer indistinguishability.
- :mod:`segalsim.measurement`: the measurement pipeline, gathered from
  :mod:`segalsim.model` (model, layouts), :mod:`segalsim.pointer`
  (pointer algebra, premeasurement, restricted probabilities) and
  :mod:`segalsim.events` (event runs).  :mod:`segalsim.doublet` (doublet
  evolution, erasure), :mod:`segalsim.decoherence` (decoherence,
  pointer-basis extraction) and :mod:`segalsim.wigner` (the two-observer
  report) build on it.
- :mod:`segalsim.scenarios` / :mod:`segalsim.cli`: declarative scenario
  configs and their runs, gathered from :mod:`segalsim.readers`,
  :mod:`segalsim.parse` and :mod:`segalsim.runners`
  (:mod:`segalsim.generators`: the algebra-probe generator list;
  :mod:`segalsim.document`: the reader of documents that hold one);
  :mod:`segalsim.serialize`: deterministic reports and event logs.

The package root re-exports the names of the library quick start, the
scenario entry points and the two error types; everything else is
imported from its own module.  Importing the root loads what the
``pure`` and ``gemenge`` scenarios run and nothing more: the eigenbasis,
closure, doublet, decoherence, wigner, generators and document modules
are imported by the code that calls them.  No module is over 1,500
tokens, so none compiled from source leaves a large parser high-water.
"""

from .config import InvariantViolation
from .linalg import SpaceLayout, tensor
from .states import DensityMatrix, Gemenge, StateVector, density_from_vector, expectation
from .algebra import generate_algebra, joint_spectral_resolution
from .restriction import (
    breuer_indistinguishable,
    character_probabilities,
    decompose_restricted,
    restrict_state,
)
from .measurement import (
    branch_mixture,
    interference_observable,
    make_model,
    pointer_algebra,
    pointer_histogram,
    premeasure,
    run_ensemble,
    system_state,
)
from .scenarios import ConfigError, parse_scenario, run_scenario
from .serialize import emit_report

__all__ = [
    "ConfigError",
    "DensityMatrix",
    "Gemenge",
    "InvariantViolation",
    "SpaceLayout",
    "StateVector",
    "branch_mixture",
    "breuer_indistinguishable",
    "character_probabilities",
    "decompose_restricted",
    "density_from_vector",
    "emit_report",
    "expectation",
    "generate_algebra",
    "interference_observable",
    "joint_spectral_resolution",
    "make_model",
    "parse_scenario",
    "pointer_algebra",
    "pointer_histogram",
    "premeasure",
    "restrict_state",
    "run_ensemble",
    "run_scenario",
    "system_state",
    "tensor",
]

__version__ = "0.1.0"
