"""Shared exception types.

``InputError`` marks problems with user-supplied data (bad rays, malformed
files, out-of-envelope sizes); the CLI maps it to exit code 1.
``ConsistencyError`` marks a failed internal cross-check, i.e. two independent
computations that are guaranteed to agree did not.  It is never caught inside
the library: reaching it means a bug, and silent continuation would produce
wrong mathematics.
"""

__all__ = ["ConsistencyError", "InputError"]


class InputError(ValueError):
    """Invalid user input (validation failure, malformed file, bad options)."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""
