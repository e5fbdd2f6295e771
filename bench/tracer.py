"""Outside-in span tracer for the benchmark's traced run.

Nothing in the library is edited.  ``Tracer.install`` rebinds each
public function listed in ``Tracer._layers`` in every ``leibniz_quiver``
module namespace that imported it, and replaces the listed methods on
their classes, with wrappers that record one span per call:
``[name, start, end, parent index, excluded seconds]``.  Spans are kept
in memory and reduced to per-layer metrics when a round ends;
``uninstall`` puts every original back.

A layer's self time is its span's duration minus its child spans and
minus the tracer's own bookkeeping (counting nonzeros and bit lengths),
which is recorded per span as excluded time.  That bookkeeping still
shows in the traced round's wall time, and so in ``trace.overhead_frac``.
"""

from __future__ import annotations

import importlib
import io
import sys
import time
from collections import Counter
from operator import attrgetter

_NUM = attrgetter("numerator")

# The library's modules, which are the layers; ``errors`` does no work.
MODULES = ("linear", "algebra", "bimodule", "repsl2", "cohomology", "ext", "quiver", "cli")

# (metric name, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("linear.elim_calls", "count", "lower"),
    ("linear.elim_self_s", "s", "lower"),
    ("linear.elim_cells", "count", "lower"),
    ("linear.elim_nnz_frac", "ratio", "lower"),
    ("linear.elim_max_bits", "bits", "lower"),
    ("linear.restrict_project_calls", "count", "lower"),
    ("linear.restrict_project_self_s", "s", "lower"),
    ("linear.matmul_calls", "count", "lower"),
    ("linear.matmul_self_s", "s", "lower"),
    ("linear.mat_init_calls", "count", "lower"),
    ("linear.mat_init_self_s", "s", "lower"),
    ("algebra.quotient_data_calls", "count", "lower"),
    ("algebra.quotient_data_useful_frac", "ratio", "higher"),
    ("algebra.module_check_calls", "count", "lower"),
    ("algebra.module_check_self_s", "s", "lower"),
    ("bimodule.check_self_s", "s", "lower"),
    ("bimodule.hom_module_self_s", "s", "lower"),
    ("repsl2.decompose_calls", "count", "lower"),
    ("repsl2.decompose_self_s", "s", "lower"),
    ("repsl2.decompose_rank_calls", "count", "lower"),
    ("repsl2.decompose_useful_frac", "ratio", "higher"),
    ("repsl2.tensor_self_s", "s", "lower"),
    ("cohomology.differential_calls", "count", "lower"),
    ("cohomology.differential_self_s", "s", "lower"),
    ("cohomology.differential_cells", "count", "lower"),
    ("cohomology.differential_nnz", "count", "lower"),
    ("cohomology.complex_check_self_s", "s", "lower"),
    ("cohomology.cochain_action_self_s", "s", "lower"),
    ("cohomology.module_structure_self_s", "s", "lower"),
    ("cohomology.ce_self_s", "s", "lower"),
    ("ext.page_self_s", "s", "lower"),
    ("ext.base_sym_self_s", "s", "lower"),
    ("ext.certify_calls", "count", "lower"),
    ("ext.nhat_self_s", "s", "lower"),
    ("quiver.build_self_s", "s", "lower"),
    ("quiver.verified_edges", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def mat_stats(m) -> tuple:
    """(nonzero entries, largest bit length of a numerator or
    denominator) of a ``Mat``, read through its public row access."""
    nnz = bits = 0
    for i in range(m.rows):
        row = m.row(i)
        nums = list(map(_NUM, row))
        nz = len(nums) - nums.count(0)
        if nz:
            nnz += nz
            bits = max(bits, max(map(int.bit_length, nums)),
                       *(x.denominator.bit_length() for x, n in zip(row, nums) if n))
    return nnz, bits


class Tracer:
    """Records spans and counts for one round at a time."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._stats = {}
        self._algebras = set()

    # -- recording ----------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            rec = [name, t0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            state = before(args, kwargs) if before else None
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
            if after:
                after(args, kwargs, result, state)
            t3 = clock()
            rec[2] = t3
            rec[4] = (t1 - t0) + (t3 - t2)
            return result

        traced.__wrapped__ = fn
        return traced

    def job(self, name, fn):
        """Run one benchmark job inside a top-level ``bench.job`` span."""
        self._stats.clear()
        try:
            return self._wrap("bench.job:" + name, fn)()
        finally:
            self._stats.clear()

    def _matrix(self, m) -> tuple:
        """Cached ``mat_stats``: a differential is counted when it is
        built and again when it is eliminated, but scanned once."""
        hit = self._stats.get(id(m))
        if hit is None or hit[0] is not m:
            hit = (m, mat_stats(m))
            self._stats[id(m)] = hit
        return hit[1]

    # -- hooks --------------------------------------------------------

    def _elim_one(self, args, kwargs):
        m = args[0]
        nnz, bits = self._matrix(m)
        self._elim_count(m.rows * m.cols, nnz, bits)

    def _elim_solve(self, args, kwargs):
        a, b = args[0], args[1]
        na, ba = self._matrix(a)
        nb, bb = self._matrix(b)
        self._elim_count(a.rows * (a.cols + b.cols), na + nb, max(ba, bb))

    def _elim_count(self, cells, nnz, bits):
        c = self.counts
        c["linear.elim_cells"] += cells
        c["linear.elim_nnz"] += nnz
        if bits > c["linear.elim_max_bits"]:
            c["linear.elim_max_bits"] = bits

    def _quotient(self, args, kwargs):
        self._algebras.add(args[0])

    def _differential(self, args, kwargs, result, state):
        self.counts["cohomology.differential_cells"] += result.rows * result.cols
        self.counts["cohomology.differential_nnz"] += self._matrix(result)[0]

    def _decompose(self, args, kwargs, result, state):
        present = {m - 2 * k for m in result.mults for k in range(m + 1)}
        self.counts["repsl2.decompose_weights_present"] += len(present)

    def _quiver(self, args, kwargs, result, state):
        verify = args[2] if len(args) > 2 else kwargs.get("verify", False)
        if verify:
            kinds = [v.kind for v in result.vertices]
            sources = sum(k in ("trivial", "symmetric") for k in kinds)
            targets = sum(k in ("trivial", "antisymmetric") for k in kinds)
            self.counts["quiver.verified_edges"] += sources * targets

    def _cli_before(self, args, kwargs):
        return sys.stdout.tell() if isinstance(sys.stdout, io.StringIO) else None

    def _cli_after(self, args, kwargs, result, start):
        if start is not None:
            written = sys.stdout.getvalue()[start:]
            self.counts["cli.out_bytes"] += len(written.encode("utf-8"))

    # -- installation -------------------------------------------------

    def _layers(self):
        """(span name, module, attribute, class name or None, before, after)."""
        elim = [("linear.elim:" + f, "linear", f, None, self._elim_one, None)
                for f in ("rank", "kernel_basis", "image_basis")]
        return elim + [
            ("linear.elim:solve", "linear", "solve", None, self._elim_solve, None),
            ("linear.restrict_project", "linear", "restrict_and_project", None, None, None),
            ("linear.matmul", "linear", "__mul__", "Mat", None, None),
            ("linear.mat_init", "linear", "__init__", "Mat", None, None),
            ("algebra.quotient_data", "algebra", "quotient_data", None, self._quotient, None),
            ("algebra.module_check", "algebra", "__init__", "LeftModule", None, None),
            ("bimodule.check", "bimodule", "__init__", "Bimodule", None, None),
            ("bimodule.hom_module", "bimodule", "hom_module_action", None, None, None),
            ("repsl2.decompose", "repsl2", "decompose", None, None, self._decompose),
            ("repsl2.tensor", "repsl2", "tensor", None, None, None),
            ("cohomology.differential", "cohomology", "leibniz_differential", None, None,
             self._differential),
            ("cohomology.complex_check", "cohomology", "__init__", "CochainComplex", None, None),
            ("cohomology.cochain_action", "cohomology", "cochain_action", None, None, None),
            ("cohomology.module_structure", "cohomology", "hl_module_structure", None, None, None),
            ("cohomology.ce:ce_cohomology", "cohomology", "ce_cohomology", None, None, None),
            ("cohomology.ce:ce_dims_via_invariants", "cohomology", "ce_dims_via_invariants",
             None, None, None),
            ("ext.page:e2_first", "ext", "e2_first", None, None, None),
            ("ext.page:e2_second", "ext", "e2_second", None, None, None),
            ("ext.base_sym", "ext", "ext_base_sym", None, None, None),
            ("ext.certify", "ext", "certify_collapse", None, None, None),
            ("ext.nhat", "ext", "nhat", None, None, None),
            ("quiver.build", "quiver", "quiver_hemi", None, None, self._quiver),
            ("cli", "cli", "main", None, self._cli_before, self._cli_after),
        ]

    def install(self):
        """Wrap every layer entry point; ``uninstall`` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("leibniz_quiver")] + [
            importlib.import_module("leibniz_quiver." + name) for name in MODULES]
        for name, modname, attr, clsname, before, after in self._layers():
            home = importlib.import_module("leibniz_quiver." + modname)
            if clsname is not None:
                cls = getattr(home, clsname)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original, before, after))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, before, after)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------

    def take_round(self) -> tuple:
        """Reduce and clear the recorded round.

        Returns (per-span-name {calls, self_s}, per-layer counts, self
        seconds per layer prefix).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, excluded in spans:
            if parent >= 0:
                child[parent] += end - start
        per_name = {}
        decompose_ranks = 0
        for i, (name, start, end, parent, excluded) in enumerate(spans):
            entry = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - excluded - child[i]
            if name == "linear.elim:rank" and parent >= 0 \
                    and spans[parent][0] == "repsl2.decompose":
                decompose_ranks += 1
        layer_calls = Counter()
        layer_self = Counter()
        for name, entry in per_name.items():
            layer = name.split(":", 1)[0]
            layer_calls[layer] += entry["calls"]
            layer_self[layer] += entry["self_s"]
        counts = Counter(self.counts)
        for layer in ("linear.elim", "linear.restrict_project", "linear.matmul",
                      "linear.mat_init", "algebra.quotient_data", "algebra.module_check",
                      "repsl2.decompose", "cohomology.differential", "ext.certify"):
            counts[layer + "_calls"] = layer_calls[layer]
        counts["repsl2.decompose_rank_calls"] = decompose_ranks
        counts["algebra.quotient_data_distinct"] = len(self._algebras)
        spans.clear()
        self.counts.clear()
        self._algebras.clear()
        self._stats.clear()
        return per_name, dict(counts), dict(layer_self)


def layer_metrics(counts: dict, layer_self: dict, overhead_frac: float) -> dict:
    """The ``PER_LAYER`` metrics from one round's counts and self times."""
    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "linear.elim_nnz_frac": ratio(counts.get("linear.elim_nnz", 0),
                                      counts.get("linear.elim_cells", 0)),
        "algebra.quotient_data_useful_frac": ratio(
            counts.get("algebra.quotient_data_distinct", 0),
            counts.get("algebra.quotient_data_calls", 0)),
        "repsl2.decompose_useful_frac": ratio(
            counts.get("repsl2.decompose_weights_present", 0),
            counts.get("repsl2.decompose_rank_calls", 0)),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith("self_s"):
            value = layer_self.get(name[: -len("self_s")].rstrip("_."), 0.0)
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
