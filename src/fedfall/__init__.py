"""Deterministic federated fall-detection simulator.

Modules:
  nn               sequence classifier with hand-written gradients
  data             dataset parsing, windowing, oversampling, caching
  aggregation      robust weighted model averaging
  federation       privacy boundary, local training, communication rounds
  simulate         scenario orchestration, validation, early stopping
  secure_transport additively homomorphic update encryption
  metrics          confusion counts and derived scores
  config           experiment configuration and fingerprints
  cli              command line entry points
"""

from fedfall.config import ExperimentConfig, load_config
from fedfall.metrics import MetricsReport
from fedfall.simulate import SCENARIOS, run_simulation, simulate_full

__version__ = "0.1.0"

__all__ = [
    "SCENARIOS",
    "ExperimentConfig",
    "MetricsReport",
    "load_config",
    "run_simulation",
    "simulate_full",
    "__version__",
]
