"""flexbench: lock-step coupling of an emulated HVAC plant with a simulated
building, plus the datastore and analyzers used to judge integration quality."""

__version__ = "0.1.0"

from .datastore import (RunLog, RunMeta, Source, StepStore, VariableKey,
                        export_run, import_run)
from .orchestrator import Engine
from .scenario import ScenarioError, apply_overrides, load_scenario, validate_scenario

__all__ = [
    "Engine",
    "RunLog",
    "RunMeta",
    "ScenarioError",
    "Source",
    "StepStore",
    "VariableKey",
    "apply_overrides",
    "export_run",
    "import_run",
    "load_scenario",
    "validate_scenario",
    "__version__",
]
