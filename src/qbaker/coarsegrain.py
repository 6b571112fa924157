"""Coarse-graining of dot-basis labels: a kept middle window, ignored edges.

A graining splits the label string into `left` ignored leading bits, a kept
window of width qubits - left - right, and `right` ignored trailing bits.
Projectors onto fixed window values are diagonal in the dot-basis, which is
why all history propagation happens in dot-basis coordinates.
run_graining is the one check of a run's geometry (validate_run applies it
to a built graining); core.check_word checks window words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SystemShape, check_word
from .errors import ParameterError


@dataclass(frozen=True)
class CoarseGraining:
    """Label split (left ignored | kept window | right ignored) for a given shape."""

    shape: SystemShape
    left: int
    right: int

    def __post_init__(self) -> None:
        # structural validity only; the standing inequalities against the dot
        # position are dynamical constraints checked by run_graining, so that
        # pure masking and enumeration stay usable for any split
        if self.left < 0:
            raise ParameterError(f"need left >= 0, got left={self.left}")
        if self.right < 0:
            raise ParameterError(f"need right >= 0, got right={self.right}")
        if self.kept < 1:
            raise ParameterError(
                f"need left + right < qubits, got left={self.left}, right={self.right}, "
                f"qubits={self.shape.qubits}"
            )

    @property
    def kept(self) -> int:
        return self.shape.qubits - self.left - self.right


def project(coeffs: np.ndarray, graining: CoarseGraining, window: str) -> np.ndarray:
    """Keep only dot-basis coefficients whose window bits equal `window`.

    Diagonal 0/1 mask; the surviving flat indices are those whose middle
    label bits (positions left+1 .. left+kept) spell the window string.
    """
    check_word(window, graining.kept, "window")
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.shape != (graining.shape.dim,):
        raise ParameterError(
            f"coefficients must have shape ({graining.shape.dim},), got {arr.shape}"
        )
    view = arr.reshape(1 << graining.left, 1 << graining.kept, 1 << graining.right)
    out = np.zeros_like(view)
    idx = int(window, 2)
    out[:, idx, :] = view[:, idx, :]
    return out.reshape(graining.shape.dim)


def run_graining(shape: SystemShape, left: int, right: int, steps: int) -> CoarseGraining:
    """The graining of a history run of `steps` iterations, checked.

    Propagation needs left < dot (some window bits are read from the live
    register), right < qubits - dot (spectator bits exist), and
    1 <= steps < right (no window reading ever reaches the injected fresh
    bits).  The graining constructor deliberately does not enforce these, so
    every dynamical entry point funnels through here first, and a split that
    also fails those structural checks names the inequality against the dot.
    """
    if left >= 0 and not left < shape.dot:
        raise ParameterError(f"need left < dot, got left={left}, dot={shape.dot}")
    if right >= 0 and not right < shape.qubits - shape.dot:
        raise ParameterError(
            f"need right < qubits - dot, got right={right}, "
            f"qubits={shape.qubits}, dot={shape.dot}"
        )
    graining = CoarseGraining(shape, left, right)
    if not 1 <= steps < right:
        raise ParameterError(f"need 1 <= steps < right, got steps={steps}, right={right}")
    return graining


def validate_run(graining: CoarseGraining, steps: int) -> None:
    """Check the standing inequalities (see run_graining) for an existing graining."""
    run_graining(graining.shape, graining.left, graining.right, steps)


@dataclass(frozen=True)
class BlockInitialState:
    """Uniform mixture over all labels sharing one kept-window value.

    Each of the 2**(left+right) labels carries weight 2**-(left+right).  The
    state is only this (graining, window) pair: propagation sweeps its labels
    in (group, a-chunk) units and never lists them, and no dense matrix of
    it is built outside tests.
    """

    graining: CoarseGraining
    window: str

    def __post_init__(self) -> None:
        check_word(self.window, self.graining.kept, "window")
