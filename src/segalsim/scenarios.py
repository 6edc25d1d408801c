"""Declarative scenario configs and their runs.

Configs are JSON documents (the one human-editable nested key-value format
the standard library already speaks).  :func:`parse_scenario` validates a
document and applies its defaults; :func:`run_scenario` runs it into a
:class:`RunReport`, which :mod:`segalsim.serialize` writes byte-stably.
The value readers live in :mod:`segalsim.readers`, the config and its
parse in :mod:`segalsim.parse`, the runs in :mod:`segalsim.runners`;
this module gathers their public names.  The event scenarios need only
:mod:`segalsim.measurement`; every other scenario's runner lives in the
module it runs (``wigner``, ``decoherence``, ``doublet``,
``generators``), imported when the scenario runs.
"""

from .parse import SCENARIOS, ScenarioConfig, load_document, parse_scenario
from .readers import ConfigError
from .runners import RunReport, run_scenario

__all__ = [
    "ConfigError",
    "RunReport",
    "SCENARIOS",
    "ScenarioConfig",
    "load_document",
    "parse_scenario",
    "run_scenario",
]
