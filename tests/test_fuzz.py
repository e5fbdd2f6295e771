"""Fuzzing of the three JSON parsers: malformed input is refused with
an AlgebraicError (InputError, or an axiom error for a well-formed but
invalid structure), never with any other exception."""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from leibniz_quiver.algebra import LeibnizAlgebra, algebra_from_spec, trivial_algebra
from leibniz_quiver.bimodule import bimodule_from_spec
from leibniz_quiver.errors import AlgebraicError
from leibniz_quiver.quiver import quiver_from_json

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Leaves a JSON document can hold, plus literals that probe the rational
# grammar: exponent and decimal notation, zero denominators, junk.
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=3),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["1/2", "-3", "+2/4", "1e5000", "0.5", "1/0", " 1", "1_0", "x/y"]),
)
trees = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=5), kids,
                                                              max_size=3),
    max_leaves=10,
)


def small_lists(elements, max_size=3):
    return st.lists(elements, max_size=max_size)


def refuses_cleanly(parse, *args):
    """Run a parser; an accepted input or an AlgebraicError both pass."""
    try:
        parse(*args)
    except AlgebraicError:
        pass


# Near-valid documents reach the checks behind the field lookups.
dims = st.integers(min_value=-1, max_value=3) | leaves
triples = small_lists(st.integers(min_value=-1, max_value=3) | leaves, max_size=4) | trees
algebra_specs = st.fixed_dictionaries(
    {"dim": dims, "bracket": small_lists(small_lists(small_lists(triples, 2)) | trees) | trees},
    optional={"labels": trees},
)

entries = st.integers(min_value=-2, max_value=2) | leaves
matrices = small_lists(small_lists(entries, 2) | trees, 2) | trees
bimodule_specs = st.fixed_dictionaries(
    {"dim": st.integers(min_value=-1, max_value=2) | leaves,
     "left": small_lists(matrices, 2) | trees,
     "right": small_lists(matrices, 2) | trees},
)

# The two-dimensional algebra [x, x] = y: its left multiplications do
# not commute with the right ones, so random actions mostly fail the
# bimodule axioms rather than the shape checks.
NILPOTENT = LeibnizAlgebra(2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])

kinds = st.sampled_from(["trivial", "symmetric", "antisymmetric"]) | leaves
weights = st.integers(min_value=-1, max_value=3) | leaves
vertex_records = st.fixed_dictionaries(
    {"label": leaves, "kind": kinds, "weight": weights}) | trees
indices = st.integers(min_value=-1, max_value=2) | leaves
edge_records = st.fixed_dictionaries(
    {"src": indices, "dst": indices, "mult": indices}) | trees
quiver_docs = st.fixed_dictionaries(
    {"vertices": small_lists(vertex_records) | trees,
     "edges": small_lists(edge_records) | trees}) | trees


@FUZZ
@given(spec=algebra_specs | trees)
def test_algebra_from_spec_refuses_cleanly(spec):
    refuses_cleanly(algebra_from_spec, spec)


@FUZZ
@given(spec=bimodule_specs | trees, over=st.sampled_from([trivial_algebra(), NILPOTENT]))
def test_bimodule_from_spec_refuses_cleanly(spec, over):
    refuses_cleanly(bimodule_from_spec, over, spec)


@FUZZ
@given(doc=quiver_docs)
def test_quiver_from_json_refuses_cleanly(doc):
    refuses_cleanly(quiver_from_json, json.dumps(doc))


@FUZZ
@given(text=st.text(max_size=40))
def test_quiver_from_json_refuses_arbitrary_text(text):
    refuses_cleanly(quiver_from_json, text)
