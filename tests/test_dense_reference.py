"""The test oracle's own helpers in _dense_reference."""

import pytest

from _dense_reference import index_to_bits


@pytest.mark.parametrize(
    "index,length,expected",
    [(5, 3, "101"), (0, 4, "0000"), (7, 3, "111"), (0, 0, "")],
)
def test_index_to_bits(index, length, expected):
    assert index_to_bits(index, length) == expected


@pytest.mark.parametrize(
    "index,length",
    [(-1, 3), (8, 3), (1, 0), (2, 1)],
)
def test_index_to_bits_range(index, length):
    with pytest.raises(ValueError):
        index_to_bits(index, length)
