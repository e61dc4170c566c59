"""Conformal information geometry of curved exponential families and a
sequential-estimation Monte Carlo harness."""

from . import conformal, geometry, harness, models, sequential, tensorops
from .errors import SeqGeoError

__all__ = [
    "conformal",
    "geometry",
    "harness",
    "models",
    "sequential",
    "tensorops",
    "SeqGeoError",
]

__version__ = "0.1.0"
