"""repro: reproduction of Parcerisa & González, *Reducing Wire Delay
Penalty through Value Prediction* (MICRO-33, 2000).

A clustered out-of-order superscalar timing simulator with dynamic
instruction steering and stride value prediction, a synthetic
Mediabench-like workload suite on a small RISC ISA, and experiment
drivers that regenerate every figure of the paper's evaluation.

Quickstart::

    from repro import make_config, simulate
    from repro.workloads import build_workload

    result = simulate(build_workload("cjpeg"),
                      make_config(4, predictor="stride", steering="vpb"))
    print(result.summary())
"""

from .core import (ProcessorConfig, Processor, SimResult, SimStats,
                   make_config, simulate)
from .errors import (ConfigError, DeadlockError, DivergenceError, ReproError,
                     SimulationError, WorkloadError)

__version__ = "1.1.0"

__all__ = ["ProcessorConfig", "Processor", "SimResult", "SimStats",
           "make_config", "simulate",
           "ReproError", "SimulationError", "ConfigError", "WorkloadError",
           "DivergenceError", "DeadlockError", "__version__"]
