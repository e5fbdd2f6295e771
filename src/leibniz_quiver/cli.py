"""Command-line front end.

Subcommands mirror the library: ``check`` (algebra sanity report),
``cohomology`` (Leibniz cohomology of an algebra/bimodule pair from
JSON specs), ``ce`` (Chevalley-Eilenberg cohomology of sl2 with a
weight module), ``ext trivial`` / ``ext hemi`` (Ext dimensions between
simple bimodules, with independent methods that can be cross-checked),
and ``quiver trivial`` / ``quiver hemi`` (DOT or JSON quivers).

Exit codes: 0 success, 1 invalid input or usage, 2 internal
consistency failure (uncertified collapse, oracle mismatch, divergent
--method both results), with a diagnostic on standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .errors import (
    AlgebraAxiomError,
    AlgebraicError,
    CollapseNotCertifiedError,
    InputError,
    VerificationError,
)
from .algebra import algebra_from_spec, quotient_data, trivial_algebra
from .bimodule import OneDimBimodule, bimodule_from_spec
from .cohomology import ce_cohomology, cohomology_of_complex, leibniz_cohomology, leibniz_complex
from .ext import (EXT1_SOURCE_KINDS, EXT1_TARGET_KINDS, SimpleDescriptor, ext1_hemi_oracle,
                  ext_dims, ext_simple_closed, ext_trivial_closed)
from .linear import parse_rational
from .quiver import quiver_hemi, quiver_trivial, to_dot, to_json
from .repsl2 import simple_module, sl2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; we reserve 2 for
    consistency failures, so route them through an exception instead."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_scalar(text: str) -> Fraction:
    try:
        return parse_rational(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def _parse_one_dim_kind(text: str) -> OneDimBimodule:
    """K, M^a:LAMBDA or M^s:LAMBDA."""
    head, sep, lam = text.partition(":")
    if head == "K":
        if sep:
            raise InputError("the trivial bimodule takes no scalar")
        return OneDimBimodule("trivial")
    kinds = {"M^a": "antisymmetric", "M^s": "symmetric"}
    if head not in kinds:
        raise InputError(f"unknown bimodule descriptor {text!r}")
    if not sep or not lam:
        raise InputError(f"{head} needs a nonzero scalar, e.g. {head}:1")
    return OneDimBimodule(kinds[head], _parse_scalar(lam))


_WEIGHT_RX = re.compile(r"V_?([0-9]+)(?:\^([sa]))?")


def _parse_weight_descriptor(text: str) -> SimpleDescriptor:
    """V0 / Vm^s / Vm^a (an underscore after V is accepted)."""
    if text == "K":
        return SimpleDescriptor("trivial")
    m = _WEIGHT_RX.fullmatch(text)
    if not m:
        raise InputError(f"unknown simple-module descriptor {text!r}")
    weight = int(m.group(1))
    tag = m.group(2)
    if tag is None:
        if weight != 0:
            raise InputError(f"{text!r} needs a symmetrization tag ^s or ^a")
        return SimpleDescriptor("trivial")
    return SimpleDescriptor("symmetric" if tag == "s" else "antisymmetric", weight)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # decoding, digit limit, nesting depth
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _print_dim_table(name: str, dims, out) -> None:
    width = max(len(str(len(dims) - 1)), 1)
    dwidth = max(len(str(d)) for d in dims)
    for q, d in enumerate(dims):
        out.write(f"{name}^{q:<{width}} = {d:>{dwidth}}\n")


def _print_bases(result, out) -> None:
    for q, group in enumerate(_bases_doc(result)):
        for kind, vectors in group.items():
            out.write(f"degree {q} {kind}:\n")
            for v in vectors:
                out.write("  [" + ", ".join(v) + "]\n")


def _bases_doc(result) -> list:
    """Per degree, the cocycle and coboundary bases as strings, in that
    order: the one rendering of both output formats."""
    return [
        {
            "cocycles": [[str(x) for x in v] for v in g.cocycles.vectors],
            "coboundaries": [[str(x) for x in v] for v in g.coboundaries.vectors],
        }
        for g in result.groups
    ]


def _print_cohomology(args, out, name: str, result) -> int:
    """The dims of ``result`` (and with --bases its witness bases) as a
    text table or one JSON document keyed by ``name``."""
    if args.format == "json":
        doc = {name: result.dims}
        if args.bases:
            doc["bases"] = _bases_doc(result)
        out.write(json.dumps(doc) + "\n")
    else:
        _print_dim_table(name, result.dims, out)
        if args.bases:
            _print_bases(result, out)
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns an exit status.
# ---------------------------------------------------------------------------


def _cmd_check(args, out) -> int:
    spec = _load_json(args.algebra)
    try:
        a = algebra_from_spec(spec)
    except AlgebraAxiomError:
        out.write(f"dim: {spec['dim']}\nleibniz identity: FAIL\n")
        return 1
    out.write(f"dim: {a.dim}\nleibniz identity: OK\n")
    data = quotient_data(a)
    out.write(f"leibniz kernel dim: {data.kernel.dim}\n")
    out.write(f"lie quotient dim: {data.lie.dim}\n")
    return 0


def _cmd_cohomology(args, out) -> int:
    h = algebra_from_spec(_load_json(args.algebra))
    b = bimodule_from_spec(h, _load_json(args.bimodule))
    if args.bases:  # bases of all of Z^q and B^q, not weight-0 representatives
        return _print_cohomology(args, out, "HL",
                                 cohomology_of_complex(leibniz_complex(h, b, args.qmax)))
    return _print_cohomology(args, out, "HL", leibniz_cohomology(h, b, args.qmax))


def _cmd_ce(args, out) -> int:
    weight = 0
    if args.module != "K":
        m = _WEIGHT_RX.fullmatch(args.module)
        if not m or m.group(2):  # sl2 modules carry no ^s / ^a tag
            raise InputError(f"expected a plain weight module such as V2, got {args.module!r}")
        weight = int(m.group(1))
    result = ce_cohomology(sl2(), simple_module(weight).underlying, args.pmax)
    return _print_cohomology(args, out, "H", result)


def _report(args, out, src, dst, results: dict, as_dims) -> int:
    """Print one line per method (text) or one JSON pair, the methods in
    the order computed; ``as_dims`` turns a result into its list of
    dimensions.  When two methods disagree, raise VerificationError,
    which ``main`` reports with exit 2 (JSON mode then prints nothing).
    JSON ``certified`` is true for an answer from a certified spectral
    page, else null."""
    (first, value), *others = results.items()
    diverged = any(v != value for _, v in others)
    if args.format == "json":
        if not diverged:
            certified = True if "spectral" in results else None
            doc = {"ext": {"pairs": [{"src": src.label(), "dst": dst.label(),
                                      "dims": as_dims(value), "certified": certified}]}}
            out.write(json.dumps(doc) + "\n")
    else:
        for v in results.values():
            out.write(" ".join(str(d) for d in as_dims(v)) + "\n")
    if diverged:
        [(second, other)] = others
        raise VerificationError(f"{first} {value} != {second} {other}")
    return 0


def _cmd_ext_trivial(args, out) -> int:
    src = _parse_one_dim_kind(args.src)
    dst = _parse_one_dim_kind(args.dst)
    if args.nmax < 0:
        raise InputError("nmax must be nonnegative")
    results = {}
    if args.method in ("closed", "both"):
        results["closed"] = ext_trivial_closed(src, dst, args.nmax)
    if args.method in ("spectral", "both"):
        res = ext_dims(trivial_algebra(), src, dst.realize(), args.nmax)
        results["spectral"] = list(res.dims)
    return _report(args, out, src, dst, results, list)


def _cmd_ext_hemi(args, out) -> int:
    if args.n < 1:
        raise InputError("--n must be >= 1")
    src = _parse_weight_descriptor(args.src)
    dst = _parse_weight_descriptor(args.dst)
    results = {}
    if args.method in ("closed", "both"):
        results["closed"] = ext_simple_closed(args.n, src, dst, 1)
    if args.method in ("oracle", "both"):
        if src.kind in EXT1_SOURCE_KINDS and dst.kind in EXT1_TARGET_KINDS:
            results["oracle"] = ext1_hemi_oracle(args.n, dst.weight).multiplicity(src.weight)
        else:
            results["oracle"] = 0
    return _report(args, out, src, dst, results, lambda k: [k])


def _cmd_quiver_trivial(args, out) -> int:
    lams = [_parse_scalar(x) for x in args.lambdas.split(",") if x.strip()]
    q = quiver_trivial(lams)
    out.write(to_dot(q) if args.format == "dot" else to_json(q) + "\n")
    return 0


def _cmd_quiver_hemi(args, out) -> int:
    q = quiver_hemi(args.n, args.max_weight, verify=args.verify)
    out.write(to_dot(q) if args.format == "dot" else to_json(q) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry points.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves it as it is, and a discarded
    parser is a web of reference cycles left to the cycle collector."""
    p = _Parser(prog="leibniz-quiver",
                description="Leibniz-algebra cohomology, Ext groups and Gabriel quivers")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate an algebra JSON spec")
    c.add_argument("algebra")
    c.set_defaults(func=_cmd_check)

    c = sub.add_parser("cohomology", help="Leibniz cohomology of a bimodule")
    c.add_argument("--algebra", required=True)
    c.add_argument("--bimodule", required=True)
    c.add_argument("--qmax", type=int, required=True)
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--bases", action="store_true")
    c.set_defaults(func=_cmd_cohomology)

    c = sub.add_parser("ce", help="Chevalley-Eilenberg cohomology of sl2")
    c.add_argument("--module", required=True, metavar="Vm")
    c.add_argument("--pmax", type=int, required=True)
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--bases", action="store_true")
    c.set_defaults(func=_cmd_ce)

    e = sub.add_parser("ext", help="Ext dimensions between simple bimodules")
    esub = e.add_subparsers(dest="family", required=True)

    c = esub.add_parser("trivial", help="over the one-dimensional algebra")
    c.add_argument("--src", required=True, metavar="KIND[:l]")
    c.add_argument("--dst", required=True, metavar="KIND[:l]")
    c.add_argument("--nmax", type=int, required=True)
    c.add_argument("--method", choices=("closed", "spectral", "both"), default="closed")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.set_defaults(func=_cmd_ext_trivial)

    c = esub.add_parser("hemi", help="over V_n x_hs sl2 (degree 1)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--src", required=True, metavar="Vp^s")
    c.add_argument("--dst", required=True, metavar="Vm^a")
    c.add_argument("--method", choices=("closed", "oracle", "both"), default="closed")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.set_defaults(func=_cmd_ext_hemi)

    qq = sub.add_parser("quiver", help="Gabriel quivers")
    qsub = qq.add_subparsers(dest="family", required=True)

    c = qsub.add_parser("trivial", help="one-dimensional algebra")
    c.add_argument("--lambdas", required=True, metavar="l1[,l2...]")
    c.add_argument("--format", choices=("dot", "json"), default="dot")
    c.set_defaults(func=_cmd_quiver_trivial)

    c = qsub.add_parser("hemi", help="V_n x_hs sl2 in a weight window")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--max-weight", type=int, required=True)
    c.add_argument("--verify", action="store_true")
    c.add_argument("--format", choices=("dot", "json"), default="dot")
    c.set_defaults(func=_cmd_quiver_hemi)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args, sys.stdout)
    except (CollapseNotCertifiedError, VerificationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AlgebraicError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
