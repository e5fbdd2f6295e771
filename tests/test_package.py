"""Package-wide checks: immutable value classes, imports that are read,
and the library names the benchmark in ``bench/`` calls or wraps."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import leibniz_quiver
from leibniz_quiver.algebra import quotient_data, trivial_algebra
from leibniz_quiver.bimodule import OneDimBimodule, trivial_bimodule
from leibniz_quiver.cohomology import CochainComplex, CohomologyResult, DegreeGroup
from leibniz_quiver.ext import CollapseCertificate, E2Page, ExtResult, SimpleDescriptor
from leibniz_quiver.linear import Mat, SubspaceBasis
from leibniz_quiver.quiver import Quiver
from leibniz_quiver.repsl2 import WeightMultiset, simple_module, sl2

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
