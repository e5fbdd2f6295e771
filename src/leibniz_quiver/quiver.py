"""Gabriel quivers of simple-bimodule categories.

Vertices are isomorphism classes of simple bimodules; an arrow S1 -> S2
is drawn with multiplicity dim Ext^1(S1, S2).  Two families are built
here: the one-dimensional algebra (vertices K and M^a/M^s per nonzero
weight) and the hemi-semidirect products V_n x_hs sl2, whose quiver is
infinite and is truncated to a finite window of highest weights.
Serializers (DOT and JSON) are byte-deterministic.
"""

from __future__ import annotations

import json
from typing import Sequence

from .errors import InputError, VerificationError
from .linear import as_scalar, parse_rational
from .algebra import _is_int
from .bimodule import (
    KIND_ANTISYMMETRIC,
    KIND_SYMMETRIC,
    KIND_TRIVIAL,
    OneDimBimodule,
)
from .ext import SimpleDescriptor, ext1_hemi_closed, ext1_hemi_oracle


class Vertex:
    """A quiver vertex: a simple bimodule up to isomorphism.

    Hemi-semidirect simples carry a highest weight; simples of the
    one-dimensional algebra carry a nonzero scalar lam.  The trivial
    bimodule carries neither.
    """

    __slots__ = ("label", "kind", "weight", "lam")

    def __init__(self, label: str, kind: str, weight: int = 0, lam=None):
        if kind not in (KIND_TRIVIAL, KIND_SYMMETRIC, KIND_ANTISYMMETRIC):
            raise InputError(f"unknown vertex kind {kind!r}")
        if not _is_int(weight):
            raise InputError(f"weight must be an int, not {weight!r}")
        if lam is not None:
            lam = as_scalar(lam)
        if kind == KIND_TRIVIAL:
            if weight != 0 or lam:
                raise InputError("the trivial vertex carries no weight or scalar")
            lam = None
        else:
            if (weight > 0) == (lam is not None):
                raise InputError("nontrivial vertices carry a positive weight "
                                 "or a nonzero scalar, not both")
            if weight < 0 or (lam is not None and lam == 0):
                raise InputError("weight must be positive / scalar nonzero")
        object.__setattr__(self, "label", str(label))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "lam", lam)

    def __setattr__(self, name, value):
        raise AttributeError("Vertex is immutable")

    def __eq__(self, other):
        return (isinstance(other, Vertex)
                and (self.label, self.kind, self.weight, self.lam)
                == (other.label, other.kind, other.weight, other.lam))

    def __hash__(self):
        return hash((self.label, self.kind, self.weight, self.lam))

    def __repr__(self):
        return f"Vertex({self.label!r}, {self.kind!r}, {self.weight}, {self.lam!r})"


class Quiver:
    """A finite directed multigraph with multiplicity-weighted edges.

    Edges are stored as (source index, target index, multiplicity >= 1),
    sorted by (source, target) with at most one record per ordered pair.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Sequence[Vertex], edges: Sequence[tuple]):
        vertices = tuple(vertices)
        merged = {}
        for s, d, k in edges:
            s, d, k = int(s), int(d), int(k)
            if not (0 <= s < len(vertices) and 0 <= d < len(vertices)):
                raise InputError("edge endpoint out of range")
            if k < 1:
                raise InputError("edge multiplicity must be >= 1")
            merged[(s, d)] = merged.get((s, d), 0) + k
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges",
                           tuple((s, d, merged[(s, d)]) for s, d in sorted(merged)))

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def edge_multiplicity(self, src: int, dst: int) -> int:
        for s, d, k in self.edges:
            if (s, d) == (src, dst):
                return k
        return 0


def quiver_trivial(lambdas: Sequence) -> Quiver:
    """Quiver of the one-dimensional algebra restricted to the simples
    K and M^a(lam), M^s(lam) for the given nonzero scalars: a double
    loop at K and a single loop at every other vertex."""
    lams = [as_scalar(x) for x in lambdas]
    if not lams:
        raise InputError("need at least one scalar")
    if any(x == 0 for x in lams):
        raise InputError("scalars must be nonzero")
    if len(set(lams)) != len(lams):
        raise InputError("scalars must be distinct")
    vertices = [Vertex("K", KIND_TRIVIAL)]
    for lam in lams:
        for kind in (KIND_ANTISYMMETRIC, KIND_SYMMETRIC):
            vertices.append(Vertex(OneDimBimodule(kind, lam).label(), kind, lam=lam))
    edges = [(0, 0, 2)] + [(i, i, 1) for i in range(1, len(vertices))]
    return Quiver(vertices, edges)


def quiver_hemi(n: int, max_weight: int, verify: bool = False) -> Quiver:
    """Quiver of V_n x_hs sl2 in the window of highest weights up to
    max_weight.

    Edges run from trivial/symmetric sources to trivial/antisymmetric
    targets with the closed-form degree-1 multiplicity; arrows touching
    weights beyond the window are dropped, not extrapolated.  With
    verify, every in-window multiplicity is recomputed from the cokernel
    module oracle and a disagreement raises VerificationError.
    """
    if n < 1:
        raise InputError("the hemi-semidirect module weight n must be >= 1")
    if max_weight < 0:
        raise InputError("max_weight must be nonnegative")
    simples = [SimpleDescriptor(KIND_TRIVIAL)] + [
        SimpleDescriptor(kind, m) for m in range(1, max_weight + 1)
        for kind in (KIND_SYMMETRIC, KIND_ANTISYMMETRIC)]
    vertices = [Vertex(d.label(), d.kind, weight=d.weight) for d in simples]
    sources = [i for i, v in enumerate(vertices)
               if v.kind in (KIND_TRIVIAL, KIND_SYMMETRIC)]
    targets = [i for i, v in enumerate(vertices)
               if v.kind in (KIND_TRIVIAL, KIND_ANTISYMMETRIC)]
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
                        f"{k_oracle} for Ext^1({vertices[i].label}, {vertices[j].label})")
            if k:
                edges.append((i, j, k))
    return Quiver(vertices, edges)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def to_dot(q: Quiver) -> str:
    """DOT text: one node statement per vertex, one edge statement per
    unit of multiplicity, edges sorted by (src, dst)."""
    if not q.vertices and not q.edges:
        return "digraph G { }\n"
    lines = ["digraph G {"]
    for v in q.vertices:
        lines.append(f'  "{v.label}";')
    for s, d, k in q.edges:
        stmt = f'  "{q.vertices[s].label}" -> "{q.vertices[d].label}";'
        lines.extend([stmt] * k)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _vertex_record(v: Vertex) -> dict:
    weight = str(v.lam) if v.lam is not None else v.weight
    return {"label": v.label, "kind": v.kind, "weight": weight}


def to_json(q: Quiver) -> str:
    """JSON text with stable key order; scalars serialize as strings
    (``"2"``, ``"1/2"``) and highest weights as integers, which is also
    how the parser tells the two vertex families apart."""
    doc = {
        "vertices": [_vertex_record(v) for v in q.vertices],
        "edges": [{"src": s, "dst": d, "mult": k} for s, d, k in q.edges],
    }
    return json.dumps(doc)


def quiver_from_json(text: str) -> Quiver:
    """Inverse of to_json."""
    try:
        doc = json.loads(text)
        vertices = []
        for rec in doc["vertices"]:
            w = rec["weight"]
            if isinstance(w, str):
                vertices.append(Vertex(rec["label"], rec["kind"], lam=parse_rational(w)))
            elif _is_int(w):
                vertices.append(Vertex(rec["label"], rec["kind"], weight=w))
            else:
                raise InputError("vertex weight must be an int or a rational string")
        edges = [(rec["src"], rec["dst"], rec["mult"]) for rec in doc["edges"]]
        if not all(_is_int(x) for edge in edges for x in edge):
            raise InputError("edge src, dst and mult must be integers")
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed quiver JSON: {exc}") from exc
    return Quiver(vertices, edges)
