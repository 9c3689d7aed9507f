"""A batch's JSONL spells each distinct value of a column once.

``EventColumns.to_jsonl`` writes its rows' lines without building the
rows. A column whose values repeat (every client of one device class
and shard count finishes with the same seconds and Joules) has each
distinct value spelled once and the string reused; the reuse must give
the bytes the rows' own encoder gives. Equal is not enough to share a
spelling: ``0.0 == -0.0`` and ``1 == 1.0``, and each pair is spelled
apart. Floats where ``repr`` changes form (``5e-324``, ``1e16``,
``1e22``), integer columns, and a mostly distinct column beside the
repeated ones are all in the mix.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.events import (
    ClientsDispatched,
    ClientsFinished,
    _HEAD,
    _REUSE_EVERY,
    _spelled,
)

#: floats whose spelling is easy to get wrong, and any other finite one
_FLOAT = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e16, 1e22, 1e-7, 0.1, 2.5, 1e308, -3.5, 123456789.0]
) | st.floats(allow_nan=False, allow_infinity=False)
_INT = st.integers(-(2**70), 2**70)


def _repeated(draw, cells, n):
    """``n`` cells drawn from few enough values that the column takes
    the reuse branch (its leading cells included)."""
    most = min(n, _HEAD) // _REUSE_EVERY
    pool = draw(st.lists(cells, min_size=1, max_size=most))
    return tuple(draw(st.sampled_from(pool)) for _ in range(n))


def _takes_reuse(column):
    head = column[:_HEAD]
    return (
        len(set(head)) * _REUSE_EVERY <= len(head)
        and len(set(column)) * _REUSE_EVERY <= len(column)
        and len(set(map(type, column))) == 1
    )


def _distinct(draw, n):
    return tuple(
        draw(st.lists(_FLOAT, min_size=n, max_size=n, unique_by=float.hex))
    )


@st.composite
def finished(draw):
    n = draw(st.integers(2, 3 * _HEAD))
    soc = _distinct(draw, n) if draw(st.booleans()) else None
    return ClientsFinished(
        draw(st.integers(0, 10)),
        _repeated(draw, _INT, n),
        _repeated(draw, _FLOAT, n),
        _repeated(draw, _FLOAT, n),
        _repeated(draw, _FLOAT, n),
        _repeated(draw, _FLOAT, n),
        _repeated(draw, _FLOAT, n),
        soc if soc is not None else _repeated(draw, _FLOAT, n),
    )


@st.composite
def dispatched(draw):
    n = draw(st.integers(2, 3 * _HEAD))
    return ClientsDispatched(
        draw(st.integers(0, 10)),
        _repeated(draw, _INT, n),
        _repeated(draw, _INT, n),
        draw(_FLOAT),
    )


def _rows_lines(batch):
    return "".join(row.to_jsonl() for row in batch.rows())


def _finished(n, **columns):
    cells = dict(
        client_ids=tuple(range(n)),
        compute_s=(1.5,) * n,
        comm_s=(0.25,) * n,
        total_s=(1.75,) * n,
        finish_s=(11.75,) * n,
        energy_j=(2.0,) * n,
        battery_soc=tuple(0.5 + i / 1024 for i in range(n)),
    )
    cells.update(columns)
    return ClientsFinished(3, **cells)


_ZEROS = (0.0, 0.0, 0.0, -0.0, 0.0, 0.0)


class TestReuseIsTheRowsBytes:
    @settings(max_examples=400, deadline=None)
    @given(batch=finished() | dispatched())
    @example(batch=_finished(6, compute_s=_ZEROS))
    @example(batch=_finished(6, comm_s=(-0.0,) + (0.0,) * 5))
    @example(batch=_finished(6, total_s=(5e-324, 1e16, 1e22) * 2))
    @example(batch=_finished(6, energy_j=(1e16, 1e16, 1e22, 1e22, 1e16, 1e22)))
    @example(batch=_finished(4, client_ids=(7, 7, 7, 7)))
    def test_to_jsonl_is_the_rows_lines(self, batch):
        repeated = [
            c for c in batch.cells() if isinstance(c, tuple) and _takes_reuse(c)
        ]
        assert repeated
        for column in repeated:
            # the branch under test: strings, not the cells
            assert _spelled(column) is not column
        assert batch.to_jsonl() == _rows_lines(batch)

    def test_a_zero_of_each_sign_keeps_its_sign(self):
        text = _finished(6, compute_s=_ZEROS).to_jsonl()
        assert text.count('"compute_s": -0.0,') == 1
        assert text.count('"compute_s": 0.0,') == 5

    def test_equal_values_of_two_types_are_spelled_apart(self):
        batch = _finished(4, energy_j=(1, 1.0, 1, 1.0))
        assert batch.to_jsonl() == _rows_lines(batch)
        assert batch.to_jsonl().count('"energy_j": 1,') == 2

    def test_a_mostly_distinct_column_is_spelled_cell_by_cell(self):
        batch = _finished(8)
        soc = batch.battery_soc
        assert _spelled(soc) is soc
        assert batch.to_jsonl() == _rows_lines(batch)

    def test_distinct_leading_cells_decide_before_the_rest(self):
        n = 4 * _HEAD
        head = tuple(float(i) for i in range(_HEAD))
        column = head + (0.5,) * (n - _HEAD)
        assert len(set(column)) * _REUSE_EVERY <= n  # repeats overall
        assert _spelled(column) is column
        batch = _finished(n, comm_s=column)
        assert batch.to_jsonl() == _rows_lines(batch)
