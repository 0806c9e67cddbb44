"""Exception types shared across the package.

Each maps to one CLI exit code; see cli.EXIT_CODES.
"""
from __future__ import annotations


class AdaptQsdError(Exception):
    """Base class for package errors."""


class ConfigError(AdaptQsdError):
    """Malformed or inconsistent run configuration."""


class DomainError(AdaptQsdError, ValueError):
    """Argument outside the mathematical domain (e.g. y <= 0, negative mass)."""


class HypothesisError(AdaptQsdError):
    """Requested run violates a required model hypothesis."""


class UnsupportedModelError(AdaptQsdError):
    """Operation not defined for this model family."""


class NumericError(AdaptQsdError):
    """Numerical failure (NaN state, non-convergent quadrature or solver).

    Carries an optional ``diagnostics`` dict and, for path simulation, the
    partial trajectory computed before the failure.
    """

    def __init__(self, message: str, diagnostics: dict | None = None, trajectory=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
        self.trajectory = trajectory


class MassExtinctionError(AdaptQsdError):
    """Every particle of an interacting ensemble (or of one of its groups)
    died in one step; group names that group."""

    def __init__(self, message: str, time: float | None = None, group: int | None = None):
        super().__init__(message)
        self.time = time
        self.group = group
