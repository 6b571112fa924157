"""The CLI's column tables and renderers against the per-row ones they replace.

_cli_reference keeps the per-row history table (ideal_full_value or
ideal_coarse_value per path) and the renderers that took one tuple per
row.  The CLI builds the same table as columns and must render it to the
same bytes.
"""

import math
import tracemalloc
from unittest import mock

import _cli_reference as ref
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbaker import cli, histories
from qbaker.coarsegrain import BlockInitialState, CoarseGraining
from qbaker.core import SystemShape
from qbaker.histories import history_distribution, propagate_branches

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan]
_FLOATS = st.floats() | st.sampled_from(_SPECIAL)
# text that CSV must quote, JSON must escape, and a row template must not read
_TEXT = st.text(st.sampled_from(',"\n\r;% aé€😀') | st.characters(), max_size=6)
_SCALARS = st.one_of(
    _TEXT, st.integers(-(10**20), 10**20), st.none(), _FLOATS, _FLOATS.map(np.float64)
)


@st.composite
def _tables(draw):
    """(echo, header, columns, summary): float64 arrays and lists of any scalar."""
    header = draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 7))
    columns = [
        np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=np.float64)
        if draw(st.booleans())
        else draw(st.lists(_SCALARS, min_size=n, max_size=n))
        for _ in header
    ]
    pairs = st.lists(st.tuples(_TEXT, _SCALARS), max_size=3)
    return draw(pairs), header, columns, draw(pairs)


_EVERY_SPECIAL = (
    [("experiment", "x,\"y\"\n"), ("n", None)],
    ["path", "p", "q"],
    [["a,b", 'c"d', "e\nf", "é€"] + [None] * 5,
     np.array(_SPECIAL),
     [np.float64(v) for v in _SPECIAL]],
    [("total", math.nan), ("n", 3)],
)


@settings(max_examples=300, deadline=None)
@given(table=_tables(), rows_at_once=st.sampled_from([1, 2, 3, cli._RENDER_ROWS]))
@example(table=_EVERY_SPECIAL, rows_at_once=2)
@example(table=([], ["p"], [np.zeros(0)], []), rows_at_once=1)
def test_column_renderers_write_the_per_row_bytes(table, rows_at_once):
    echo, header, columns, summary = table
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    with mock.patch.object(cli, "_RENDER_ROWS", rows_at_once):
        csv_text = cli._render_csv(echo, header, columns, summary)
    assert csv_text == ref.render_csv(echo, header, rows, summary)
    # ref.render_json is json.dumps({...}, indent=2, sort_keys=True) + "\n"
    assert cli._render_json(echo, header, columns, summary) == ref.render_json(
        echo, header, rows, summary
    )


def make_block(qubits, dot, left, right, window):
    return BlockInitialState(CoarseGraining(SystemShape(qubits, dot), left, right), window)


def _cells(columns):
    # a column table's rows, each float by repr so that -0.0 and nan stay apart
    path, *floats = columns
    assert all(isinstance(c, np.ndarray) and c.dtype == np.float64 for c in floats)
    return list(zip(path, *(map(repr, c.tolist()) for c in floats)))


def _assert_tables_match(ens, window, steps):
    """Every table the CLI makes of ens equals the per-row one, in values and bytes."""
    tables = [(ens.kind, history_distribution(ens))]
    if ens.kind == "full" and steps <= len(window):
        # sweep's coarse marginal of a full run
        tables.append(("coarse", history_distribution(ens, kind="coarse")))
    for kind, dist in tables:
        columns = cli._history_rows(dist, kind, window, steps)
        rows = ref.history_rows(dist, kind, window, steps)
        assert _cells(columns) == [(path, *map(repr, floats)) for path, *floats in rows]
        echo, summary = [("experiment", kind)], [("total_mass", dist.total())]
        assert cli._render_csv(echo, cli._ROW_HEADER, columns, summary) == ref.render_csv(
            echo, cli._ROW_HEADER, rows, summary
        )
        assert cli._render_json(echo, cli._ROW_HEADER, columns, summary) == ref.render_json(
            echo, cli._ROW_HEADER, rows, summary
        )


@st.composite
def _geometries(draw):
    qubits = draw(st.integers(5, 10))
    dot = draw(st.integers(1, qubits - 3))
    left = draw(st.integers(0, dot - 1))
    right = draw(st.integers(2, qubits - dot - 1))
    steps = draw(st.integers(1, right - 1))
    window = draw(st.text("01", min_size=qubits - left - right, max_size=qubits - left - right))
    return qubits, dot, left, right, steps, window


@settings(max_examples=40, deadline=None)
@given(
    geometry=_geometries(),
    kind=st.sampled_from(["full", "coarse"]),
    prune_eps=st.sampled_from([0.0, 0.01]),
    arm=st.sampled_from(["fft", "dense"]),
)
# more steps than window bits, so a continuation's fresh bits fill a word;
# and a coarse run that consumes its whole window
@example(geometry=(10, 5, 4, 4, 3, "01"), kind="full", prune_eps=0.0, arm="fft")
@example(geometry=(10, 5, 4, 4, 2, "10"), kind="coarse", prune_eps=0.01, arm="dense")
def test_column_table_equals_the_per_row_table(geometry, kind, prune_eps, arm):
    qubits, dot, left, right, steps, window = geometry
    # coarse-entropy needs a window core (steps <= kept)
    assume(kind == "full" or steps <= len(window))
    block = make_block(qubits, dot, left, right, window)
    with mock.patch.object(histories, "_FFT_MIN_WIDTH", 0 if arm == "fft" else 1 << 30):
        frame = histories._Frame(qubits, dot, left, len(window), steps, window, kind)
        assume(sum(size for _, size in histories._estimate_bytes(frame, 1)) <= 64 << 20)
        ens = propagate_branches(block, steps, prune_eps=prune_eps, kind=kind)
    # the per-row oracle is a Python loop over every path
    assume(len(ens.paths) <= 4096)
    _assert_tables_match(ens, window, steps)


@pytest.mark.parametrize("prune_eps", [0.0, 0.01])
@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,window,kind,arm",
    [
        # mirrored through the FFT at freeq 2
        (9, 4, 2, 4, 3, "011", "full", "mirrored"),
        (9, 4, 2, 4, 3, "011", "coarse", "mirrored"),
        # the dense arm, four groups of one a-chunk
        (12, 7, 5, 4, 3, "001", "full", "dense"),
        # a 13-bit window over five steps: a path's words span 65 bits
        (30, 2, 1, 16, 5, "0110100110010", "full", None),
        (30, 2, 1, 16, 5, "0000000110010", "coarse", None),
    ],
)
def test_column_table_equals_the_per_row_table_on_each_arm(
    qubits, dot, left, right, steps, window, kind, arm, prune_eps
):
    block = make_block(qubits, dot, left, right, window)
    with mock.patch.object(histories, "_FFT_MIN_WIDTH", 0 if arm == "mirrored" else 256):
        frame = histories._Frame(qubits, dot, left, len(window), steps, window, kind)
        if arm is not None:
            assert (frame.dense, bool(frame.mirror)) == (arm == "dense", arm == "mirrored")
        ens = propagate_branches(block, steps, prune_eps=prune_eps, kind=kind)
    _assert_tables_match(ens, window, steps)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,window,kind,rows",
    [
        (14, 3, 1, 3, 2, "0000000000", "coarse", 1 << 10),
        # a wide-window benchmark geometry
        (14, 5, 2, 6, 3, "110111", "full", 4096),
        # a 13-bit window over five steps: a path of five words
        (30, 2, 1, 16, 5, "0110100110010", "full", 1024),
    ],
)
def test_row_bytes_bound_the_traced_peak_of_a_table(
    qubits, dot, left, right, steps, window, kind, rows, fmt
):
    # _check_coarse_table's per-row figure, a path counted by its window words,
    # taken from building the columns to the rendered text
    ens = propagate_branches(make_block(qubits, dot, left, right, window), steps, kind=kind)
    dist = history_distribution(ens)
    render = cli._render_csv if fmt == "csv" else cli._render_json
    tracemalloc.start()
    try:
        columns = cli._history_rows(dist, kind, window, steps)
        render([("experiment", kind)], cli._ROW_HEADER, columns, [("total_mass", dist.total())])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(columns[0]) == rows
    assert peak <= rows * cli._row_bytes(len(window), 1 if kind == "coarse" else steps, fmt)
