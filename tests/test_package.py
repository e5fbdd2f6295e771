"""Package-wide checks: immutable value classes and their equality,
imports that are read, matrix storage read only inside ``linear.py``,
the one validation rule, and the library names the benchmark in
``bench/`` calls or wraps."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import leibniz_quiver
from leibniz_quiver.algebra import (LeftModule, LeibnizAlgebra, LieAlgebra, hemi_semidirect,
                                    quotient_data, trivial_algebra)
from leibniz_quiver.bimodule import Bimodule, OneDimBimodule, trivial_bimodule
from leibniz_quiver.cohomology import CochainComplex, CohomologyResult, DegreeGroup
from leibniz_quiver.errors import AlgebraAxiomError, ModuleAxiomError
from leibniz_quiver.ext import CollapseCertificate, E2Page, ExtResult, SimpleDescriptor
from leibniz_quiver.linear import Mat, SubspaceBasis
from leibniz_quiver.quiver import Quiver
from leibniz_quiver.repsl2 import SL2Module, WeightMultiset, simple_module, sl2

PACKAGE = Path(leibniz_quiver.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


def value_objects():
    empty = SubspaceBasis.empty(0)
    page = E2Page(0, 0, [[0]])
    yield from [
        Mat.identity(1), SubspaceBasis.full(1), trivial_algebra(), sl2(),
        quotient_data(sl2()), simple_module(1).underlying, trivial_bimodule(trivial_algebra()),
        OneDimBimodule("trivial"), CochainComplex([0], []), DegreeGroup(0, empty, empty),
        CohomologyResult([]), page, CollapseCertificate(), ExtResult([0], CollapseCertificate(), page),
        SimpleDescriptor("trivial"), Quiver([], []), simple_module(1), WeightMultiset({}),
    ]


@pytest.mark.parametrize("obj", value_objects(), ids=lambda obj: type(obj).__name__)
def test_value_objects_refuse_assignment_by_their_class_name(obj):
    with pytest.raises(AttributeError) as info:
        obj.dim = 5
    assert str(info.value) == f"{type(obj).__name__} is immutable"


def _v1():
    return LeftModule(sl2(), 2, simple_module(1).underlying.action)


# (an instance, an equal one built separately, one with a field changed)
VALUE_CLASSES = {
    "LeftModule": lambda: (simple_module(1).underlying, _v1(),
                           LeftModule(sl2(), 2, [Mat.zero(2, 2)] * 3)),
    "Bimodule": lambda: (trivial_bimodule(trivial_algebra()), trivial_bimodule(trivial_algebra()),
                         Bimodule(trivial_algebra(), 1, [Mat.identity(1)], [Mat.zero(1, 1)])),
    "OneDimBimodule": lambda: (OneDimBimodule("symmetric", 1), OneDimBimodule("symmetric", 1),
                               OneDimBimodule("symmetric", 2)),
    "SimpleDescriptor": lambda: (SimpleDescriptor("symmetric", 1),
                                 SimpleDescriptor("symmetric", 1),
                                 SimpleDescriptor("antisymmetric", 1)),
    "SL2Module": lambda: (simple_module(1), SL2Module(_v1()), simple_module(2)),
    "Quiver": lambda: (Quiver("ab", [(0, 1, 1)]), Quiver(["a", "b"], [(0, 1, 1)]),
                       Quiver("ab", [(0, 1, 2)])),
    "SubspaceBasis": lambda: (SubspaceBasis(2, [[1, 0]]), SubspaceBasis(2, [(1, 0)]),
                              SubspaceBasis(2, [[0, 1]])),
}


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_value_classes_compare_by_their_fields(name):
    obj, same, changed = VALUE_CLASSES[name]()
    assert type(obj).__name__ == name and obj is not same
    assert obj == same and hash(obj) == hash(same)
    assert obj != changed and type(changed) is type(obj)
    assert len({obj, same, changed}) == 2


def test_equal_fields_of_different_classes_are_unequal():
    # Both trivial descriptors have the fields ("trivial", 0).
    s, o = SimpleDescriptor("trivial"), OneDimBimodule("trivial")
    assert s != o and o != s and len({s, o}) == 2


def test_classes_without_fields_compare_by_identity():
    page = E2Page(0, 0, [[0]])
    for make in (lambda: CochainComplex([0], []), lambda: E2Page(0, 0, [[0]]),
                 lambda: ExtResult([0], CollapseCertificate(), page)):
        a, b = make(), make()
        assert a == a and hash(a) == hash(a) and a != b


def unread_imports(source: str) -> list:
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for _, name in sorted(imported) if name not in read]


def test_unread_imports_are_found():
    assert unread_imports("import os\nfrom math import gcd, lcm\nprint(gcd)\n") == ["os", "lcm"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_read(path):
    # __init__.py is left out: it imports to re-export.
    assert unread_imports((PACKAGE / path).read_text()) == []


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "linear.py"))
def test_only_linear_reads_matrix_storage(path):
    # Mat keeps its rows in the private _rows; every other module goes
    # through linear.py, so the storage format can change in one place.
    tree = ast.parse((PACKAGE / path).read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "_rows"] == []


def test_ext_leaves_the_route_rule_to_cohomology():
    # One predicate in cohomology.py picks the route of every E2 row and
    # column; ext.py builds the Hom coefficients and assembles the pages,
    # so patching cohomology._killing_form_nondegenerate forces both.
    tree = ast.parse((PACKAGE / "ext.py").read_text())
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    named |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    route = {"_killing_form_nondegenerate", "ce_cohomology", "ce_dims_via_invariants"}
    assert named & route == set()


def unchecked_sites(source: str) -> list:
    """The enclosing function of each call that passes ``check=False``,
    as a dotted name within the module."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and any(
                    k.arg == "check" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in child.keywords):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_unchecked_sites_are_found():
    source = ("def f():\n    return g(h(check=False), check=True)\n"
              "class C:\n    def m(self):\n        return g(check=False)\n")
    assert unchecked_sites(source) == ["f", "C.m"]


# Every construction that the library builds with check=False, each with
# the proof in its docstring that the result satisfies the axioms.  A new
# unchecked construction is named here and proved there.
UNCHECKED = sorted([
    "algebra.trivial_algebra", "algebra.QuotientData.__init__", "algebra._zero_module",
    "algebra.adjoint_module", "algebra.lift_module", "algebra.hemi_semidirect",
    "bimodule.symmetric", "bimodule.antisymmetric", "bimodule.trivial_bimodule",
    "bimodule.sym_quotient", "bimodule.hom_module_action",
    "bimodule.OneDimBimodule.underlying_module",
    "cohomology.induced_module", "cohomology.h_as_lie_module", "ext._cokernel_module",
    "repsl2.sl2", "repsl2.simple_module", "repsl2.direct_sum",
    "toral._transport", "toral._transport",
])


def test_every_unchecked_construction_is_listed():
    got = [f"{path.stem}.{site}" for path in sorted(PACKAGE.glob("*.py"))
           for site in unchecked_sites(path.read_text())]
    assert sorted(got) == UNCHECKED


def test_outside_input_is_refused_by_each_value_class():
    one, two = Mat.identity(1), Mat.from_rows([[2]])
    jacobi_fails = [[[0] * 3 for _ in range(3)] for _ in range(3)]  # [b0, b1] = b2, [b0, b2] = b0
    jacobi_fails[0][1][2], jacobi_fails[1][0][2] = 1, -1
    jacobi_fails[0][2][0], jacobi_fails[2][0][0] = 1, -1
    squares = LeibnizAlgebra(2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])  # [b0, b0] = b1, not Lie
    cases = [
        (lambda: LeibnizAlgebra(1, [[[1]]]), AlgebraAxiomError,
         "structure constants violate the left Leibniz identity"),
        (lambda: LieAlgebra(3, jacobi_fails), AlgebraAxiomError,
         "structure constants violate the left Leibniz identity"),
        (lambda: LeftModule(sl2(), 1, [one] * 3), ModuleAxiomError,
         "rho([b0, b1]) differs from the commutator"),
        (lambda: Bimodule(trivial_algebra(), 1, [two], [one]), ModuleAxiomError,
         "(MLL) fails at basis pair (0, 0)"),
        (lambda: hemi_semidirect(squares, LeftModule(squares, 1, [Mat.zero(1, 1)] * 2)),
         AlgebraAxiomError, "square escapes the module summand"),
    ]
    for build, error, text in cases:
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == text


def test_benchmark_names_resolve_and_its_first_jobs_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no __pycache__ in bench/
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    rank = leibniz_quiver.linear.rank
    t = tracer.Tracer()
    t.install()  # resolves every attribute that Tracer._layers names
    t.uninstall()
    assert leibniz_quiver.linear.rank is rank
    for name in workloads.WORKLOADS:
        w = workloads.build(name, 1)
        job = w.jobs[0]
        assert job.check(job.run()) is None, (name, job.name)
        assert isinstance(w.describe(), dict)
