"""Gabriel quivers: construction, closed-form edges, DOT and JSON output."""

from fractions import Fraction
from itertools import product

import pytest

from leibniz_quiver.bimodule import (
    KIND_ANTISYMMETRIC,
    KIND_SYMMETRIC,
    KIND_TRIVIAL,
)
from leibniz_quiver.errors import InputError, VerificationError
from leibniz_quiver.ext import SimpleDescriptor, ext_simple_closed, ext_trivial_closed
from leibniz_quiver.quiver import (
    Quiver,
    quiver_from_json,
    quiver_hemi,
    quiver_trivial,
    to_dot,
    to_json,
)


def edge_multiplicity(q: Quiver, src: int, dst: int) -> int:
    """The multiplicity of the arrow src -> dst, 0 when there is none."""
    return next((k for s, d, k in q.edges if (s, d) == (src, dst)), 0)


def edge_labels(q: Quiver) -> dict:
    return {(q.vertices[s].label(), q.vertices[d].label()): k
            for s, d, k in q.edges}


# ------------------------------------------------------------------- vertices

def test_quiver_merges_parallel_edge_records():
    vs = [SimpleDescriptor(KIND_SYMMETRIC, 1), SimpleDescriptor(KIND_ANTISYMMETRIC, 1)]
    q = Quiver(vs, [(0, 1, 1), (0, 1, 2)])
    assert q.edges == ((0, 1, 3),)
    assert edge_multiplicity(q, 0, 1) == 3
    assert edge_multiplicity(q, 1, 0) == 0
    with pytest.raises(InputError):
        Quiver(vs, [(0, 5, 1)])
    with pytest.raises(InputError):
        Quiver(vs, [(0, 1, 0)])


def test_quiver_refuses_non_integer_edges():
    # int() would truncate 1.5 and 0.9 and parse "1"; a bool is no int.
    vs = [SimpleDescriptor(KIND_SYMMETRIC, 1), SimpleDescriptor(KIND_ANTISYMMETRIC, 1)]
    for edge in ((0, 1, 1.5), (0.9, 1, 2), ("1", 1, 1), (1, 1, True), (0, Fraction(1), 1)):
        with pytest.raises(InputError, match="^edge src, dst and mult must be integers$"):
            Quiver(vs, [(0, 1, 1), edge])


# ------------------------------------------------------------- trivial algebra

def test_quiver_trivial_single_eigenvalue():
    q = quiver_trivial([1])
    assert [v.label() for v in q.vertices] == ["K", "M^a(1)", "M^s(1)"]
    assert q.edges == ((0, 0, 2), (1, 1, 1), (2, 2, 1))


def test_quiver_trivial_two_eigenvalues():
    q = quiver_trivial([1, Fraction(1, 2)])
    assert [v.label() for v in q.vertices] == [
        "K", "M^a(1)", "M^s(1)", "M^a(1/2)", "M^s(1/2)",
    ]
    assert q.edges == ((0, 0, 2), (1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1))


def test_quiver_trivial_rejects_bad_eigenvalues():
    with pytest.raises(InputError):
        quiver_trivial([])
    with pytest.raises(InputError):
        quiver_trivial([0])
    with pytest.raises(InputError):
        quiver_trivial([1, 1])


# ------------------------------------------------------------------- hemi case

def test_quiver_hemi_window_two():
    q = quiver_hemi(2, 3, verify=True)
    labels = [v.label() for v in q.vertices]
    assert labels == ["V_0", "V_1^s", "V_1^a", "V_2^s", "V_2^a", "V_3^s", "V_3^a"]
    got = edge_labels(q)
    assert got == {
        ("V_2^s", "V_0"): 2,
        ("V_1^s", "V_1^a"): 1,
        ("V_3^s", "V_1^a"): 2,
        ("V_0", "V_2^a"): 2,
        ("V_2^s", "V_2^a"): 1,
        ("V_1^s", "V_3^a"): 2,
        ("V_3^s", "V_3^a"): 1,
    }


def test_quiver_hemi_edges_match_closed_form():
    for n in (1, 2):
        q = quiver_hemi(n, 4)
        by_label = {v.label(): v for v in q.vertices}
        for s, d, k in q.edges:
            vs, vd = q.vertices[s], q.vertices[d]
            src = (SimpleDescriptor(KIND_TRIVIAL) if vs.kind == KIND_TRIVIAL
                   else SimpleDescriptor(vs.kind, vs.weight))
            dst = (SimpleDescriptor(KIND_TRIVIAL) if vd.kind == KIND_TRIVIAL
                   else SimpleDescriptor(vd.kind, vd.weight))
            assert k == ext_simple_closed(n, src, dst, 1)
        assert by_label["V_0"].kind == KIND_TRIVIAL


def test_every_vertex_pair_has_the_closed_form_multiplicity():
    # an absent edge counts as 0, so missing arrows are caught as well
    q = quiver_trivial([1, Fraction(1, 2), -3])
    for (i, s), (j, d) in product(enumerate(q.vertices), repeat=2):
        assert edge_multiplicity(q, i, j) == ext_trivial_closed(s, d, 1)[1], (s, d)
    for n in (1, 2, 3):
        q = quiver_hemi(n, 6)
        for (i, s), (j, d) in product(enumerate(q.vertices), repeat=2):
            assert edge_multiplicity(q, i, j) == ext_simple_closed(n, s, d, 1), (n, s, d)


def test_quiver_hemi_edge_directions():
    # arrows only run trivial/symmetric -> trivial/antisymmetric
    q = quiver_hemi(1, 5)
    for s, d, _ in q.edges:
        assert q.vertices[s].kind in (KIND_TRIVIAL, KIND_SYMMETRIC)
        assert q.vertices[d].kind in (KIND_TRIVIAL, KIND_ANTISYMMETRIC)


def test_quiver_hemi_truncation_monotone():
    # enlarging the window never changes multiplicities between kept vertices
    small = quiver_hemi(1, 3)
    large = quiver_hemi(1, 5)
    small_map = edge_labels(small)
    large_map = edge_labels(large)
    for pair, k in small_map.items():
        assert large_map.get(pair) == k


def test_quiver_hemi_input_validation():
    with pytest.raises(InputError):
        quiver_hemi(0, 3)
    with pytest.raises(InputError):
        quiver_hemi(1, -1)


def test_quiver_hemi_window_counts_against_the_budget():
    # 224^2 = 50 176 source-target pairs are above COCHAIN_BUDGET; 223^2 fit
    with pytest.raises(InputError, match="0..223 has 50176 source-target pairs"):
        quiver_hemi(1, 223)


def test_quiver_hemi_verify_catches_wrong_closed_form(monkeypatch):
    import leibniz_quiver.quiver as qmod

    real = qmod.ext1_hemi_closed

    def wrong(n, p, m):
        k = real(n, p, m)
        return k + 1 if (p, m) == (2, 0) else k

    monkeypatch.setattr(qmod, "ext1_hemi_closed", wrong)
    assert edge_multiplicity(quiver_hemi(1, 2, verify=False), 3, 0) == 2
    with pytest.raises(VerificationError) as exc:
        quiver_hemi(1, 2, verify=True)
    assert "V_2^s" in str(exc.value) and "V_0" in str(exc.value)


# ---------------------------------------------------------------------- output

def test_to_dot_exact_text():
    q = quiver_trivial([1])
    expect = (
        "digraph G {\n"
        '  "K";\n'
        '  "M^a(1)";\n'
        '  "M^s(1)";\n'
        '  "K" -> "K";\n'
        '  "K" -> "K";\n'
        '  "M^a(1)" -> "M^a(1)";\n'
        '  "M^s(1)" -> "M^s(1)";\n'
        "}\n"
    )
    assert to_dot(q) == expect


def test_to_dot_empty_quiver():
    assert to_dot(Quiver([], [])) == "digraph G { }\n"
    assert to_json(Quiver([], [])) == '{"vertices": [], "edges": []}'


def test_json_roundtrip_trivial_and_hemi():
    for q in (quiver_trivial([1, Fraction(2, 3)]), quiver_hemi(2, 3)):
        back = quiver_from_json(to_json(q))
        assert back.vertices == q.vertices
        assert back.edges == q.edges
        # serialization is stable after a round trip
        assert to_json(back) == to_json(q)


def test_json_field_types_disambiguate():
    q = quiver_trivial([Fraction(1, 2)])
    text = to_json(q)
    assert '"weight": "1/2"' in text
    hemi_text = to_json(quiver_hemi(1, 1))
    assert '"weight": 1' in hemi_text


def test_json_rejects_malformed_documents():
    with pytest.raises(InputError):
        quiver_from_json("not json")
    with pytest.raises(InputError):
        quiver_from_json('{"vertices": [{"label": "x"}], "edges": []}')
    with pytest.raises(InputError):
        quiver_from_json('{"vertices": [], "edges": [{"src": 0, "dst": 0, "mult": 1}]}')
    with pytest.raises(InputError):
        quiver_from_json(
            '{"vertices": [{"label": "x", "kind": "symmetric", "weight": true}],'
            ' "edges": []}'
        )
    with pytest.raises(InputError):
        quiver_from_json(
            '{"vertices": [{"label": "x", "kind": "symmetric", "weight": "1e5000"}],'
            ' "edges": []}'
        )
    # A record must name a descriptor, with that descriptor's label and kind.
    for record in (
            '{"label": "K", "kind": "trivial", "weight": 1}',
            '{"label": "V_0", "kind": "symmetric", "weight": 0}',  # neither weight nor scalar
            '{"label": "K", "kind": "symmetric", "weight": 0}',
            '{"label": "x", "kind": "symmetric", "weight": 2.7}',
            '{"label": "V_2^s", "kind": "symmetric", "weight": "2"}',  # names M^s(2)
            '{"label": "x", "kind": "symmetric", "weight": 2}',
            '{"label": "V_2^s", "kind": "antisymmetric", "weight": 2}',
            '{"label": "M^s(2)", "kind": "antisymmetric", "weight": "2"}',
            '{"label": "V_1^s", "kind": "other", "weight": 1}'):
        with pytest.raises(InputError):
            quiver_from_json('{"vertices": [' + record + '], "edges": []}')
    one_vertex = '{"vertices": [{"label": "K", "kind": "trivial", "weight": 0}], '
    with pytest.raises(InputError):
        quiver_from_json(one_vertex + '"edges": [{"src": Infinity, "dst": 0, "mult": 1}]}')
    with pytest.raises(InputError):
        quiver_from_json(one_vertex + '"edges": [{"src": 0, "dst": 0, "mult": NaN}]}')


def test_json_nested_past_the_decoder_depth_is_refused():
    # json.loads raises RecursionError, not a ValueError, on deep nesting.
    with pytest.raises(InputError, match="malformed quiver JSON"):
        quiver_from_json("[" * 200_000 + "]" * 200_000)


def test_to_dot_counts_edge_statements_against_the_budget():
    # one loop of multiplicity 10^10 parses, and to_json writes it as it
    # came; to_dot, one statement per unit, refuses before any line
    text = ('{"vertices": [{"label": "V_0", "kind": "trivial", "weight": 0}], '
            '"edges": [{"src": 0, "dst": 0, "mult": 10000000000}]}')
    q = quiver_from_json(text)
    assert to_json(q) == text
    with pytest.raises(InputError) as exc:
        to_dot(q)
    assert str(exc.value) == ("the DOT text of the quiver has 10000000000 edge statements, "
                              "above the budget of 50000")
    # the multiplicities are summed over edges
    v = SimpleDescriptor(KIND_TRIVIAL)
    w = SimpleDescriptor(KIND_SYMMETRIC, 2)
    with pytest.raises(InputError, match="has 50001 edge statements"):
        to_dot(Quiver([v, w], [(0, 1, 25000), (1, 0, 25001)]))
    assert to_dot(Quiver([v, w], [(0, 1, 25000), (1, 0, 25000)])).count("->") == 50000
