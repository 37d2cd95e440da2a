"""Dimensionless transfer learning for car-like vehicle braking maneuvers."""

__version__ = "0.1.0"
