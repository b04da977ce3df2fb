"""Exception taxonomy shared by all sublex modules, sized to the command
line's two failure exit codes.

``CheckError``, a computed mathematical guarantee that failed, exits with
code 1.  Every other ``Error`` exits with code 2: ``ParameterError`` (also a
``ValueError``) for any invalid input, such as a configuration value, a
parameter out of its range, misaligned payoffs and grids, a state off its
lattice, an unmet precondition like mean certainty or an unstable solver
grid; and ``CapacityError`` for an instance past an operation's size budget.
"""


class Error(Exception):
    """Base class for all sublex errors."""


class ParameterError(Error, ValueError):
    """An input is invalid: out of its range, misaligned or off its domain."""


class CapacityError(Error):
    """The instance exceeds the operation's size budget."""


class CheckError(Error):
    """A computed mathematical guarantee failed to hold."""
