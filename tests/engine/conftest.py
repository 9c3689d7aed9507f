"""Shared hypothesis strategy: engine events built from their declared
field types (the same declarations the codec in ``engine/events.py`` is
driven by)."""

from dataclasses import fields
from typing import Optional, Tuple, get_type_hints

from hypothesis import strategies as st


def events_of(
    cls,
    ints=st.integers(),
    floats=st.floats(allow_nan=False),
    texts=st.text(),
):
    """Instances of the event class ``cls``; every field drawn from the
    strategy of its declared type."""
    by_type = {
        int: ints,
        float: floats,
        Optional[float]: st.none() | floats,
        str: texts,
        Tuple[int, ...]: st.lists(ints, max_size=4).map(tuple),
    }
    hints = get_type_hints(cls)
    return st.builds(
        cls, **{f.name: by_type[hints[f.name]] for f in fields(cls)}
    )
