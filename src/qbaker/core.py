"""Bit-string conventions and register geometry.

Bit strings are plain Python strings of '0'/'1', most significant bit first,
so that index("101") = 5.  Positions are 1-indexed when sliced: bits a..b
inclusive is ``bits[a - 1:b]``.  Every other module consumes these
conventions, with one stated exception: the dot-side labels 1..dot(+1) are
read in reversed significance, label 1 the low bit.  The map's kernel mixes
those labels in that order (bakermap.transfer_kernel), so histories._rev_int
turns window bits into kernel indices that way, and
bakermap.basis_state builds each momentum phase from the binary fraction of
bits t..1.
check_word is the package's one test of a bit word: CLI window flags,
grainings, path entries and the functions here all call it.  Every
malformed or out-of-range argument here raises ParameterError.

Each size bound has one job.  MAX_QUBITS keeps 2**qubits an int64 numpy
shape, so an absurd geometry is refused before anything of that size is built.
DEFAULT_BUDGET_BYTES bounds memory: a propagation's projected peak, the
CLI's table of every final word of a coarse run, and the one state built
from a shape alone (bakermap.basis_state).
bakermap.DENSE_LIMIT bounds the dense test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError

# 2**qubits must be an int64 numpy shape
MAX_QUBITS = 62
DEFAULT_BUDGET_BYTES = 2 << 30


def check_word(word: str, width: int | None = None, what: str = "bit string") -> str:
    """Return `word` if it is `width` characters of '0'/'1' (any length if None).

    Any other word raises ParameterError naming `what`.
    """
    bad = not isinstance(word, str) or any(ch not in "01" for ch in word)
    if width is None:
        if bad:
            raise ParameterError(f"{what} must contain only '0'/'1', got {word!r}")
    elif bad or len(word) != width:
        raise ParameterError(f"{what} must be {width} bits of '0'/'1', got {word!r}")
    return word


@dataclass(frozen=True)
class SystemShape:
    """Register geometry: `qubits` two-level systems with the symbol dot after position `dot`.

    The dot position selects which localized basis the register is read in;
    the map shifts it by one.  The dimension is 2**qubits.  (The physical
    scale, one Planck cell per basis state, never enters any computation.)
    """

    qubits: int
    dot: int

    def __post_init__(self) -> None:
        if not 1 <= self.qubits <= MAX_QUBITS:
            raise ParameterError(f"need 1 <= qubits <= {MAX_QUBITS}, got qubits={self.qubits}")
        if not 0 <= self.dot <= self.qubits:
            raise ParameterError(
                f"need 0 <= dot <= qubits, got dot={self.dot}, qubits={self.qubits}"
            )

    @property
    def dim(self) -> int:
        return 1 << self.qubits


def bits_to_index(bits: str) -> int:
    """Integer value of an MSB-first bit string; empty string maps to 0."""
    check_word(bits)
    return int(bits, 2) if bits else 0


def binary_fraction(bits: str, append_one: bool = False) -> float:
    """Value of the binary fraction 0.b1 b2 ... bm, optionally with a trailing 1 bit.

    Dyadic rationals of this depth are exact in double precision.
    """
    check_word(bits)
    digits = bits + "1" if append_one else bits
    if not digits:
        return 0.0
    return int(digits, 2) / (1 << len(digits))
