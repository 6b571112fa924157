"""Bit-string conventions and register geometry.

Bit strings are plain Python strings of '0'/'1', most significant bit first,
so that index("101") = 5.  Positions are 1-indexed when sliced: bits a..b
inclusive is ``bits[a - 1:b]``.  Every other module consumes these
conventions; nothing else in the package defines its own bit order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError

MAX_QUBITS = 24


def _check_bits(bits: str) -> None:
    if not isinstance(bits, str) or any(ch not in "01" for ch in bits):
        raise ValueError(f"bit string must contain only '0'/'1', got {bits!r}")


@dataclass(frozen=True)
class SystemShape:
    """Register geometry: `qubits` two-level systems with the symbol dot after position `dot`.

    The dot position selects which localized basis the register is read in;
    the map shifts it by one.  The dimension is 2**qubits.  (The physical
    scale, one Planck cell per basis state, never enters any computation.)
    """

    qubits: int
    dot: int
    max_qubits: int = MAX_QUBITS

    def __post_init__(self) -> None:
        if not 1 <= self.qubits <= self.max_qubits:
            raise ParameterError(
                f"need 1 <= qubits <= {self.max_qubits}, got qubits={self.qubits}"
            )
        if not 0 <= self.dot <= self.qubits:
            raise ParameterError(
                f"need 0 <= dot <= qubits, got dot={self.dot}, qubits={self.qubits}"
            )

    @property
    def dim(self) -> int:
        return 1 << self.qubits


def bits_to_index(bits: str) -> int:
    """Integer value of an MSB-first bit string; empty string maps to 0."""
    _check_bits(bits)
    if len(bits) > MAX_QUBITS:
        raise ValueError(f"bit string longer than {MAX_QUBITS}: {len(bits)}")
    return int(bits, 2) if bits else 0


def index_to_bits(index: int, length: int) -> str:
    """MSB-first bit string of `index`, zero-padded to `length` bits."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if not 0 <= index < (1 << length):
        raise ValueError(f"index {index} out of range for {length} bits")
    return format(index, f"0{length}b") if length else ""


def binary_fraction(bits: str, append_one: bool = False) -> float:
    """Value of the binary fraction 0.b1 b2 ... bm, optionally with a trailing 1 bit.

    Dyadic rationals of this depth are exact in double precision.
    """
    _check_bits(bits)
    digits = bits + "1" if append_one else bits
    if not digits:
        return 0.0
    return int(digits, 2) / (1 << len(digits))
