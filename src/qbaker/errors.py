"""Error types shared across the package; the CLI maps them onto exit codes."""


class ParameterError(ValueError):
    """An argument is malformed or out of range.

    Covers every argument check in the package, from a bit word with a stray
    character to a run geometry that breaks one of the standing inequalities
    (left < dot, right < qubits - dot, 1 <= steps < right).  Subclasses
    ValueError.
    """


class InvariantError(RuntimeError):
    """A numerical invariant that should hold to tolerance was violated."""


class ResourceLimitError(RuntimeError):
    """A projected allocation exceeds the configured memory budget."""
