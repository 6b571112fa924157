"""Bit conventions, binary fractions, and register shapes."""

import numpy as np
import pytest

from qbaker import (
    ParameterError,
    SystemShape,
    binary_fraction,
    bits_to_index,
    index_to_bits,
)


@pytest.mark.parametrize(
    "bits,expected",
    [("101", 5), ("000", 0), ("0001", 1), ("", 0), ("1", 1), ("11111", 31)],
)
def test_bits_to_index(bits, expected):
    assert bits_to_index(bits) == expected


@pytest.mark.parametrize(
    "index,length,expected",
    [(5, 3, "101"), (0, 4, "0000"), (7, 3, "111"), (0, 0, "")],
)
def test_index_to_bits(index, length, expected):
    assert index_to_bits(index, length) == expected


@pytest.mark.parametrize("length", range(0, 13))
def test_round_trip_exhaustive(length):
    for j in range(1 << length):
        assert bits_to_index(index_to_bits(j, length)) == j


def test_round_trip_random_long():
    rng = np.random.default_rng(7)
    for length in range(13, 21):
        for j in rng.integers(0, 1 << length, size=200):
            j = int(j)
            assert bits_to_index(index_to_bits(j, length)) == j


@pytest.mark.parametrize(
    "index,length",
    [(-1, 3), (8, 3), (1, 0), (2, 1)],
)
def test_index_to_bits_range(index, length):
    with pytest.raises(ValueError):
        index_to_bits(index, length)


def test_bits_charset():
    with pytest.raises(ValueError):
        bits_to_index("10a")
    with pytest.raises(ValueError):
        binary_fraction("012")


@pytest.mark.parametrize(
    "bits,append,expected",
    [
        ("01", True, 0.375),
        ("", True, 0.5),
        ("1", False, 0.5),
        ("101", False, 0.625),
        ("", False, 0.0),
        ("0011", True, 0.21875),
    ],
)
def test_binary_fraction(bits, append, expected):
    assert binary_fraction(bits, append_one=append) == expected


@pytest.mark.parametrize("length", [1, 3, 6])
@pytest.mark.parametrize("append", [False, True])
def test_binary_fraction_monotone(length, append):
    values = [
        binary_fraction(index_to_bits(j, length), append_one=append)
        for j in range(1 << length)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(0 <= v < 1 for v in values)


def test_system_shape():
    shape = SystemShape(6, 3)
    assert shape.dim == 64
    assert SystemShape(1, 0).dim == 2
    assert SystemShape(6, 6).dot == 6
    with pytest.raises(ParameterError):
        SystemShape(0, 0)
    with pytest.raises(ParameterError):
        SystemShape(25, 0)
    with pytest.raises(ParameterError):
        SystemShape(6, 7)
    with pytest.raises(ParameterError):
        SystemShape(6, -1)
