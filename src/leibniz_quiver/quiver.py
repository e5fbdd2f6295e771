"""Gabriel quivers of simple-bimodule categories.

Vertices are isomorphism classes of simple bimodules, held as their
descriptors (``OneDimBimodule``, ``SimpleDescriptor``, each with its
``label()``); an arrow S1 -> S2 has multiplicity dim Ext^1(S1, S2).
Two families are built here: the one-dimensional algebra (vertices K
and M^a/M^s per nonzero weight) and the hemi-semidirect products
V_n x_hs sl2, whose quiver is infinite and is truncated to a finite
window of highest weights.  Serializers (DOT and JSON) are
byte-deterministic.
"""

from __future__ import annotations

import json
from typing import Sequence

from .errors import InputError, VerificationError
from .linear import _Frozen, as_scalar, parse_rational
from .algebra import _is_int
from .bimodule import KIND_ANTISYMMETRIC, KIND_SYMMETRIC, KIND_TRIVIAL, OneDimBimodule
from .ext import (EXT1_SOURCE_KINDS, EXT1_TARGET_KINDS, SimpleDescriptor, ext1_hemi_closed,
                  ext1_hemi_oracle, ext_trivial_closed)
from .cohomology import _check_budget


class Quiver(_Frozen):
    """A finite directed multigraph with multiplicity-weighted edges.

    Edges are stored as (source index, target index, multiplicity >= 1),
    sorted by (source, target) with at most one record per ordered pair.
    Each field of an edge must be an int (InputError otherwise): a float
    or a string is refused, not truncated or parsed.
    """

    __slots__ = ("vertices", "edges")
    _fields = __slots__

    def __init__(self, vertices: Sequence, edges: Sequence[tuple]):
        vertices = tuple(vertices)
        merged = {}
        for s, d, k in edges:
            if not (_is_int(s) and _is_int(d) and _is_int(k)):
                raise InputError("edge src, dst and mult must be integers")
            if not (0 <= s < len(vertices) and 0 <= d < len(vertices)):
                raise InputError("edge endpoint out of range")
            if k < 1:
                raise InputError("edge multiplicity must be >= 1")
            merged[(s, d)] = merged.get((s, d), 0) + k
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges",
                           tuple((s, d, merged[(s, d)]) for s, d in sorted(merged)))


def quiver_trivial(lambdas: Sequence) -> Quiver:
    """Quiver of the one-dimensional algebra restricted to the simples
    K and M^a(lam), M^s(lam) for the given nonzero scalars: a loop of
    multiplicity ``ext_trivial_closed(v, v, 1)[1]`` at each vertex v and
    no other arrow, as ``ext_trivial_closed`` vanishes between different
    simples."""
    lams = [as_scalar(x) for x in lambdas]
    if not lams:
        raise InputError("need at least one scalar")
    if any(x == 0 for x in lams):
        raise InputError("scalars must be nonzero")
    if len(set(lams)) != len(lams):
        raise InputError("scalars must be distinct")
    vertices = [OneDimBimodule(KIND_TRIVIAL)]
    for lam in lams:
        vertices += [OneDimBimodule(KIND_ANTISYMMETRIC, lam), OneDimBimodule(KIND_SYMMETRIC, lam)]
    return Quiver(vertices, [(i, i, ext_trivial_closed(v, v, 1)[1])
                             for i, v in enumerate(vertices)])


def quiver_hemi(n: int, max_weight: int, verify: bool = False) -> Quiver:
    """Quiver of V_n x_hs sl2 in the window of highest weights up to
    max_weight.

    Edges run from ``EXT1_SOURCE_KINDS`` to ``EXT1_TARGET_KINDS`` with
    the closed-form degree-1 multiplicity; arrows touching weights
    beyond the window are dropped, not extrapolated.  With verify, every
    in-window multiplicity is recomputed from the cokernel module oracle
    and a disagreement raises VerificationError.  The window's
    (max_weight + 1)^2 source-target pairs count against
    ``cohomology.COCHAIN_BUDGET`` before any vertex is built.
    """
    if n < 1:
        raise InputError("the hemi-semidirect module weight n must be >= 1")
    if max_weight < 0:
        raise InputError("max_weight must be nonnegative")
    _check_budget(f"the weight window 0..{max_weight}", (max_weight + 1) ** 2,
                  "source-target pairs")
    vertices = [SimpleDescriptor(KIND_TRIVIAL)]
    for m in range(1, max_weight + 1):
        vertices += [SimpleDescriptor(KIND_SYMMETRIC, m), SimpleDescriptor(KIND_ANTISYMMETRIC, m)]
    sources = [i for i, v in enumerate(vertices) if v.kind in EXT1_SOURCE_KINDS]
    targets = [i for i, v in enumerate(vertices) if v.kind in EXT1_TARGET_KINDS]
    oracle = None
    if verify:
        oracle = {vertices[j].weight: ext1_hemi_oracle(n, vertices[j].weight)
                  for j in targets}
    edges = []
    for i in sources:
        for j in targets:
            p, m = vertices[i].weight, vertices[j].weight
            k = ext1_hemi_closed(n, p, m)
            if verify:
                k_oracle = oracle[m].multiplicity(p)
                if k_oracle != k:
                    raise VerificationError(
                        f"closed form gives {k} but the cokernel oracle gives "
                        f"{k_oracle} for Ext^1({vertices[i].label()}, {vertices[j].label()})")
            if k:
                edges.append((i, j, k))
    return Quiver(vertices, edges)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def to_dot(q: Quiver) -> str:
    """DOT text: one node statement per vertex, one edge statement per
    unit of multiplicity, edges sorted by (src, dst); InputError, before
    any line is built, when those exceed ``cohomology.COCHAIN_BUDGET``."""
    if not q.vertices and not q.edges:
        return "digraph G { }\n"
    _check_budget("the DOT text of the quiver", sum(k for _, _, k in q.edges), "edge statements")
    lines = ["digraph G {"]
    for v in q.vertices:
        lines.append(f'  "{v.label()}";')
    for s, d, k in q.edges:
        stmt = f'  "{q.vertices[s].label()}" -> "{q.vertices[d].label()}";'
        lines.extend([stmt] * k)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _vertex_record(v) -> dict:
    if isinstance(v, OneDimBimodule):
        weight = str(v.lam) if v.lam else 0
    else:
        weight = v.weight
    return {"label": v.label(), "kind": v.kind, "weight": weight}


def _vertex_from_record(rec: dict):
    """The descriptor a vertex record names (``to_json``), refused
    unless the record's label and kind are the descriptor's."""
    label, kind, w = rec["label"], rec["kind"], rec["weight"]
    if isinstance(w, str):
        v = OneDimBimodule(kind, parse_rational(w))
    elif not _is_int(w):
        raise InputError("vertex weight must be an int or a rational string")
    else:
        v = (OneDimBimodule if label == "K" else SimpleDescriptor)(kind, w)
    if (v.label(), v.kind) != (label, kind):
        raise InputError(f"vertex record ({label!r}, {kind!r}) names {v.label()!r}, "
                         f"a {v.kind} simple")
    return v


def to_json(q: Quiver) -> str:
    """JSON text with stable key order; scalars serialize as strings
    (``"2"``, ``"1/2"``) and highest weights as integers, which is also
    how the parser tells the two vertex families apart.  The trivial
    vertex K of the one-dimensional family has the integer weight 0,
    like V_0, and is told apart by its label."""
    doc = {
        "vertices": [_vertex_record(v) for v in q.vertices],
        "edges": [{"src": s, "dst": d, "mult": k} for s, d, k in q.edges],
    }
    return json.dumps(doc)


def quiver_from_json(text: str) -> Quiver:
    """Inverse of to_json."""
    try:
        doc = json.loads(text)
        vertices = [_vertex_from_record(rec) for rec in doc["vertices"]]
        edges = [(rec["src"], rec["dst"], rec["mult"]) for rec in doc["edges"]]
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        raise InputError(f"malformed quiver JSON: {exc}") from exc
    return Quiver(vertices, edges)
