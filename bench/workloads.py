"""The benchmark's four workloads: seeded inputs, job batches and the
second route every answer is checked against.

The seed only reorders jobs and flips the signs of basis vectors.  Both
leave the work identical, so a run on any seed measures the same cost;
rescaling by magnitudes other than 1 changed the cost of an Ext row by
about 25% at the commit that introduced this benchmark.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

import leibniz_quiver as lq
from leibniz_quiver import cli
from leibniz_quiver.cohomology import leibniz_differential

from tracer import mat_stats


class Job:
    """One library call: ``run()`` returns its answer and ``check(answer)``
    returns None when the answer passes, or a reason when it does not."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Workload:
    """The seeded job batch plus ``describe()``, which reports the input
    properties that make runs on different seeds comparable."""

    def __init__(self, jobs, describe=dict):
        self.jobs = jobs
        self.describe = describe


def _signs(rng: random.Random, n: int) -> lq.Mat:
    return lq.Mat.diagonal([rng.choice((1, -1)) for _ in range(n)])


# ---------------------------------------------------------------------------
# ext_rows: the module-structure route of Ext over hemi_sl2(1).
# ---------------------------------------------------------------------------

EXT_N = 1
EXT_NMAX = 3
# (source kind, weight, target kind, weight).  Trivial and antisymmetric
# sources go through e2_first, symmetric ones through e2_second.
EXT_ROWS = (
    ("trivial", 0, "antisymmetric", 1),
    ("antisymmetric", 1, "antisymmetric", 1),
    ("trivial", 0, "symmetric", 1),
    ("symmetric", 1, "antisymmetric", 1),
    ("symmetric", 2, "antisymmetric", 2),
    ("symmetric", 1, "symmetric", 2),
)
# Ext^3 of each row as computed at the commit that introduced this
# benchmark; closed forms stop at degree 2, so degree 3 is checked
# against these recorded values.
EXT3_GOLDEN = {
    "V_0->V_1^a": 0,
    "V_1^a->V_1^a": 1,
    "V_0->V_1^s": 0,
    "V_1^s->V_1^a": 0,
    "V_2^s->V_2^a": 0,
    "V_1^s->V_2^s": 0,
}


def _ext_job(h, src, dst, target) -> Job:
    name = f"{src.label()}->{dst.label()}"

    def check(res):
        if not res.certificate.certified:
            return f"collapse not certified: witness {res.certificate.witness}"
        want = [lq.ext_simple_closed(EXT_N, src, dst, q) for q in range(3)]
        want.append(EXT3_GOLDEN[name])
        if list(res.dims) != want:
            return f"dims {list(res.dims)} != {want}"
        return None

    return Job(name, lambda: lq.ext_dims(h, src, target, EXT_NMAX, fast=True), check)


def ext_rows(rng: random.Random) -> Workload:
    h = lq.hemi_sl2(EXT_N)
    jobs = []
    for skind, sw, dkind, dw in EXT_ROWS:
        src = lq.SimpleDescriptor(skind, sw)
        dst = lq.SimpleDescriptor(dkind, dw)
        x = dst.realize(h)
        d = _signs(rng, x.dim)  # its own inverse; preserves every weight line
        target = lq.Bimodule(h, x.dim, [d * m * d for m in x.left],
                             [d * m * d for m in x.right])
        jobs.append(_ext_job(h, src, dst, target))
    rng.shuffle(jobs)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# hl_weight and hl_dense: cochain complexes and elimination.
# ---------------------------------------------------------------------------

HL_QMAX = 3
_KINDS = (("a", lq.antisymmetric), ("s", lq.symmetric))


def _hl_job(name, h, b, check) -> Job:
    return Job(name, lambda: lq.leibniz_cohomology(h, b, HL_QMAX), check)


def hl_weight(rng: random.Random) -> Workload:
    jobs = []
    for n in (1, 2):
        h = lq.hemi_sl2(n)
        v = lq.simple_module(n).underlying
        for tag, make in _KINDS:
            b = make(h, v)

            def check(res, b=b):
                invariants = lq.right_invariants(b).dim
                if res.dims[0] != invariants:
                    return f"HL^0 = {res.dims[0]} but right invariants have dim {invariants}"
                return None

            jobs.append(_hl_job(f"hemi{n}:V_{n}^{tag}", h, b, check))
    rng.shuffle(jobs)
    return Workload(jobs)


def _shear_chain(n: int) -> lq.Mat:
    """Unimodular change of basis from n - 1 shears b_(k+1) += b_k with
    coefficient 1: every coordinate is touched and the fill is fixed."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n - 1):
        rows[k + 1] = [a + b for a, b in zip(rows[k + 1], rows[k])]
    return lq.Mat.from_rows(rows)


def _change_basis(h, b, p: lq.Mat, q: lq.Mat):
    """The algebra and bimodule in the bases given by the columns of p
    (for h) and q (for the module)."""
    n = h.dim
    p_inv = lq.solve(p, lq.Mat.identity(n))
    q_inv = lq.solve(q, lq.Mat.identity(q.rows))
    c = [[p_inv.apply(h.bracket(p.col(i), p.col(j))) for j in range(n)] for i in range(n)]
    h2 = lq.LeibnizAlgebra(n, c)
    left = [q_inv * b.left_by(p.col(i)) * q for i in range(n)]
    right = [q_inv * b.right_by(p.col(i)) * q for i in range(n)]
    return h2, lq.Bimodule(h2, b.dim, left, right)


def hl_dense(rng: random.Random) -> Workload:
    h = lq.hemi_sl2(1)
    v = lq.simple_module(1).underlying
    p = _shear_chain(h.dim) * _signs(rng, h.dim)
    q = _shear_chain(v.dim) * _signs(rng, v.dim)
    jobs, problems = [], []
    for tag, make in _KINDS:
        canonical = make(h, v)
        h2, b2 = _change_basis(h, canonical, p, q)
        reference = []

        def check(res, h=h, canonical=canonical, reference=reference):
            if not reference:  # the same problem in the weight basis
                reference.extend(lq.leibniz_cohomology(h, canonical, HL_QMAX).dims)
            if res.dims != reference:
                return f"dims {res.dims} != weight-basis dims {reference}"
            return None

        name = f"hemi1:V_1^{tag}"
        jobs.append(_hl_job(name, h2, b2, check))
        problems.append((name, h2, b2))
    rng.shuffle(jobs)

    def describe():
        out = {}
        for name, h2, b2 in problems:
            d2 = leibniz_differential(h2, b2, 2)
            nnz, bits = mat_stats(d2)
            out[name] = {"d2_nnz": nnz, "d2_cells": d2.rows * d2.cols, "d2_max_bits": bits}
        return out

    return Workload(jobs, describe)


# ---------------------------------------------------------------------------
# sl2_quiver: sl2 arithmetic and the CLI, no cochain complexes.
# ---------------------------------------------------------------------------

QUIVER_CASES = ((1, 8), (2, 6))  # (n, max weight) of `quiver hemi --verify`
DECOMPOSE_MAX = 5  # decompose(V_m x V_n) for 1 <= m <= n <= DECOMPOSE_MAX


def _cli_job(n: int, w: int) -> Job:
    argv = ["quiver", "hemi", "--n", str(n), "--max-weight", str(w),
            "--verify", "--format", "json"]
    reference = []

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        return status, out.getvalue()

    def check(answer):
        status, text = answer
        if status != 0:
            return f"exit status {status}"
        if not reference:
            reference.append(lq.to_json(lq.quiver_hemi(n, w)) + "\n")
        if text != reference[0]:
            return "CLI JSON differs from to_json(quiver_hemi(n, W))"
        return None

    return Job(" ".join(argv), run, check)


def _decompose_job(m: int) -> Job:
    """decompose(V_m x V_n) for n = m .. DECOMPOSE_MAX."""
    window = range(m, DECOMPOSE_MAX + 1)

    def run():
        return [lq.decompose(lq.tensor(lq.simple_module(m), lq.simple_module(n)))
                for n in window]

    def check(answers):
        for n, res in zip(window, answers):
            want = lq.clebsch_gordan(m, n)
            if res != want:
                return f"V_{m} x V_{n}: {res} != {want}"
        return None

    return Job(f"decompose V_{m} x V_{m}..V_{DECOMPOSE_MAX}", run, check)


def sl2_quiver(rng: random.Random) -> Workload:
    for n, w in QUIVER_CASES:
        lq.hemi_sl2(n)
    for m in range(max(DECOMPOSE_MAX, max(w for _, w in QUIVER_CASES)) + 1):
        lq.simple_module(m)
    jobs = [_cli_job(n, w) for n, w in QUIVER_CASES]
    jobs += [_decompose_job(m) for m in range(1, DECOMPOSE_MAX + 1)]
    rng.shuffle(jobs)
    return Workload(jobs)


WORKLOADS = {
    "ext_rows": ext_rows,
    "hl_weight": hl_weight,
    "hl_dense": hl_dense,
    "sl2_quiver": sl2_quiver,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
