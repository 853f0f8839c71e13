"""Streaming estimation with online confidence intervals and a Monte Carlo
benchmark harness."""

__version__ = "0.1.0"

from .harness import ExperimentConfig, aggregate, expansion_residuals, run_grid

__all__ = ["ExperimentConfig", "aggregate", "expansion_residuals", "run_grid"]
