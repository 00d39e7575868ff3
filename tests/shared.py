"""Helpers that more than one test module draws on: a hypothesis strategy
for windowed indices, a partition generator and the cell key of a tuple.

Like tests/oracles.py these import nothing from the package's internals;
cell_key is the tests' own statement of the cell format that the chain
walk and the recurrence key their tables by.
"""

from hypothesis import strategies as st

from quotdeg.indices import CompositeIndex


@st.composite
def windowed_indices(draw, max_base, max_n=6):
    # a first entry up to max_base and m - 1 distinct gaps under n after it
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    base = draw(st.integers(1, max_base))
    gaps = draw(
        st.lists(st.integers(1, n - 1), min_size=m - 1, max_size=m - 1, unique=True)
    )
    return CompositeIndex((base,) + tuple(base + g for g in sorted(gaps)), n)


def partitions(weight, max_parts, max_size):
    """Partitions of `weight` into exactly max_parts parts of at most
    max_size each, zeros padding the end, in reverse lexicographic order."""
    if max_parts == 0:
        if weight == 0:
            yield ()
        return
    for first in range(min(weight, max_size), -1, -1):
        if first == 0:
            if weight == 0:
                yield (0,) * max_parts
            return
        for rest in partitions(weight - first, max_parts - 1, first):
            yield (first,) + rest


def cell_key(entries, n):
    # a tuple as one int: its first entry above n offset bits
    return (entries[0] << n) + sum(1 << (a - entries[0]) for a in entries)
