"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from igasolve.bspline import KnotVector


@st.composite
def open_knot_vectors(draw, extra_multiplicity=0):
    """Open knot vectors with non-uniform interior breakpoints of
    multiplicity up to p + ``extra_multiplicity`` on a random interval."""
    p = draw(st.integers(1, 6))
    lo = draw(st.integers(-4, 4))
    width = draw(st.integers(1, 8))
    cuts = sorted(draw(st.lists(st.integers(1, 999), unique=True, max_size=10)))
    interior = []
    for c in cuts:
        interior += [lo + width * c / 1000] * draw(st.integers(1, p + extra_multiplicity))
    return KnotVector(p, [lo] * (p + 1) + interior + [lo + width] * (p + 1))
