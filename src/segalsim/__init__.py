"""Finite-dimensional operator algebras and a quantum measurement simulator.

Layers, bottom up:

- :mod:`segalsim.linalg`: dense complex kernel (tensor factors, partial
  trace, Hermitian eigendecomposition, propagators).
- :mod:`segalsim.states`: pure states, density matrices, ensemble tables.
- :mod:`segalsim.algebra`: *-algebra closures, commutativity, joint
  spectral resolutions.
- :mod:`segalsim.restriction`: states as functionals on subalgebras,
  characters, observer indistinguishability, stochastic restriction.
- :mod:`segalsim.measurement`: the measurement pipeline (premeasurement,
  doublet evolution, decoherence, pointer-basis extraction, event runs).
- :mod:`segalsim.scenarios` / :mod:`segalsim.cli`: declarative scenario
  configs, deterministic reports and event logs.
"""

from .config import InvariantViolation
from .linalg import (
    SpaceLayout,
    hermitian_eig,
    hs_inner,
    partial_trace,
    tensor,
    unitary_from_hamiltonian,
)
from .states import (
    DensityMatrix,
    Gemenge,
    StateVector,
    basis_state,
    density_from_vector,
    expectation,
    purity,
    sample_gemenge,
)
from .algebra import (
    OperatorAlgebra,
    SpectralResolution,
    contains,
    generate_algebra,
    is_commutative,
    joint_spectral_resolution,
)
from .restriction import (
    AlgebraicState,
    BreuerReport,
    Character,
    EnsembleOverCharacters,
    breuer_indistinguishable,
    character_probabilities,
    decompose_restricted,
    extremal_states,
    restrict_state,
    sample_individual_restriction,
)
from .measurement import (
    DoubletState,
    EnvironmentSpec,
    EventBatch,
    EventRecord,
    MeasurementModel,
    PointerBasisReport,
    StatisticalDoublet,
    WignerFriendReport,
    branch_mixture,
    environment_coherence,
    environment_pointer_basis,
    event_rng,
    evolve_sle,
    evolve_unitary,
    interaction_hamiltonian,
    interference_expectation,
    interference_observable,
    make_model,
    pointer_algebra,
    pointer_basis,
    pointer_characters,
    pointer_histogram,
    pointer_state_stability,
    premeasure,
    record_erasure,
    restricted_pointer_probabilities,
    run_ensemble,
    run_event,
    system_state,
    wigner_friend_report,
)
from .scenarios import (
    ConfigError,
    RunReport,
    ScenarioConfig,
    emit_report,
    parse_scenario,
    run_scenario,
)

__all__ = [
    "AlgebraicState",
    "BreuerReport",
    "Character",
    "ConfigError",
    "DensityMatrix",
    "DoubletState",
    "EnsembleOverCharacters",
    "EnvironmentSpec",
    "EventBatch",
    "EventRecord",
    "Gemenge",
    "InvariantViolation",
    "MeasurementModel",
    "OperatorAlgebra",
    "PointerBasisReport",
    "RunReport",
    "ScenarioConfig",
    "SpaceLayout",
    "SpectralResolution",
    "StateVector",
    "StatisticalDoublet",
    "WignerFriendReport",
    "basis_state",
    "branch_mixture",
    "breuer_indistinguishable",
    "character_probabilities",
    "contains",
    "decompose_restricted",
    "density_from_vector",
    "emit_report",
    "environment_coherence",
    "environment_pointer_basis",
    "event_rng",
    "evolve_sle",
    "evolve_unitary",
    "expectation",
    "extremal_states",
    "generate_algebra",
    "hermitian_eig",
    "hs_inner",
    "interaction_hamiltonian",
    "interference_expectation",
    "interference_observable",
    "is_commutative",
    "joint_spectral_resolution",
    "make_model",
    "parse_scenario",
    "partial_trace",
    "pointer_algebra",
    "pointer_basis",
    "pointer_characters",
    "pointer_histogram",
    "pointer_state_stability",
    "premeasure",
    "purity",
    "record_erasure",
    "restrict_state",
    "restricted_pointer_probabilities",
    "run_ensemble",
    "run_event",
    "run_scenario",
    "sample_gemenge",
    "sample_individual_restriction",
    "system_state",
    "tensor",
    "unitary_from_hamiltonian",
    "wigner_friend_report",
]

__version__ = "0.1.0"
