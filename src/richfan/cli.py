"""Batch command line front end.

One verb per invocation; inputs are JSON documents, outputs are canonical JSON
(sorted keys, no spaces) or SVG for cross-sections.  Exit codes: 0 success,
1 domain error (error JSON on stderr), 2 malformed input or usage, 3 for a
boolean check whose answer is no.
"""

import argparse
import json
import math
import os
import sys
from typing import Callable

# each handler imports the modules its verb runs, so a request loads no more
from .errors import DomainError, SchemaError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SCHEMA = 2
EXIT_FALSE = 3


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".richfan-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load(path: str):
    with open(path, "r") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise SchemaError("input document is nested too deeply") from None


def _parse_r(text: str):
    if text == "inf":
        return math.inf
    return int(text)


def _edge_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t != ""]


def _bool_exit(value: bool) -> int:
    return EXIT_OK if value else EXIT_FALSE


def _run_cuts(args) -> int:
    from .graphs import Graph

    g = Graph.from_obj(_load(args.input))
    _emit(_canonical({"cuts": [list(c) for c in g.cuts()]}), args.out)
    return EXIT_OK


def _run_blocks(args) -> int:
    from .graphs import Graph

    g = Graph.from_obj(_load(args.input))
    _emit(_canonical({"blocks": [list(b) for b in g.blocks()]}), args.out)
    return EXIT_OK


def _run_contract(args) -> int:
    from .graphs import Graph

    g = Graph.from_obj(_load(args.input))
    h = g.contract(_edge_list(args.contract))
    _emit(_canonical(h.to_obj()), args.out)
    return EXIT_OK


def _run_check_rich(args) -> int:
    from .curves import TropicalCurve

    c = TropicalCurve.from_obj(_load(args.input))
    return _bool_exit(c.is_r_rich(_parse_r(args.r)))


def _run_check_weakly_rich(args) -> int:
    from .curves import TropicalCurve

    c = TropicalCurve.from_obj(_load(args.input))
    return _bool_exit(c.is_weakly_r_rich(_parse_r(args.r)))


def _run_basic_model(args) -> int:
    from .curves import TropicalCurve

    c = TropicalCurve.from_obj(_load(args.input))
    m = c.basic_model(_parse_r(args.r))
    obj = {
        "components": [list(t) for t in m.components],
        "is_basic": m.is_basic,
        "multipliers": {str(e): v for e, v in m.multipliers},
        "roots": [list(v) for v in m.roots],
    }
    _emit(_canonical(obj), args.out)
    return EXIT_OK


def _run_ideal(args) -> int:
    from .graphs import Graph
    from .subdivision import richness_ideal

    g = Graph.from_obj(_load(args.input))
    i = richness_ideal(g, _parse_r(args.r))
    _emit(_canonical(i.to_obj()), args.out)
    return EXIT_OK


def _run_subdivide(args) -> int:
    from .graphs import Graph
    from .subdivision import weakly_rich_fan

    g = Graph.from_obj(_load(args.input))
    fan = weakly_rich_fan(g, _parse_r(args.r))
    _emit(_canonical(fan.to_obj()), args.out)
    return EXIT_OK


def _run_verify_fan(args) -> int:
    from .cones import Fan

    fan = Fan.from_obj(_load(args.input))
    complete = fan.is_complete_on_orthant()
    valid = complete or fan.is_valid()
    _emit(_canonical({"complete_on_orthant": complete, "valid": valid}), args.out)
    return _bool_exit(valid and complete)


def _run_smoothness(args) -> int:
    from .graphs import Graph
    from .subdivision import smoothness_report, weakly_rich_fan

    g = Graph.from_obj(_load(args.input))
    fan = weakly_rich_fan(g, _parse_r(args.r))
    rep = smoothness_report(fan)
    obj = {"cones": list(rep.verdicts), "smooth": rep.smooth}
    _emit(_canonical(obj), args.out)
    return EXIT_OK


def _run_factors(args) -> int:
    from .curves import RealFamily
    from .subdivision import factors_through, weakly_rich_fan

    fam = RealFamily.from_obj(_load(args.input))
    fan = weakly_rich_fan(fam.graph, _parse_r(args.r))
    return _bool_exit(factors_through(fam, fan))


def _run_cross_section(args) -> int:
    from .cones import Fan
    from .drawing import cross_section, render_svg

    fan = Fan.from_obj(_load(args.input))
    if args.format == "json":
        polys = cross_section(fan)
        obj = {
            "polygons": [
                [[f"{c.numerator}/{c.denominator}" for c in p] for p in poly]
                for poly in polys
            ]
        }
        _emit(_canonical(obj), args.out)
    else:
        _emit(render_svg(fan), args.out)
    return EXIT_OK


_HANDLERS: dict[str, Callable] = {
    "cuts": _run_cuts,
    "blocks": _run_blocks,
    "contract": _run_contract,
    "check-rich": _run_check_rich,
    "check-weakly-rich": _run_check_weakly_rich,
    "basic-model": _run_basic_model,
    "ideal": _run_ideal,
    "subdivide": _run_subdivide,
    "verify-fan": _run_verify_fan,
    "smoothness": _run_smoothness,
    "factors": _run_factors,
    "cross-section": _run_cross_section,
}

_NEEDS_R = {
    "check-rich",
    "check-weakly-rich",
    "basic-model",
    "ideal",
    "subdivide",
    "smoothness",
    "factors",
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="richfan", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)
    for verb in _HANDLERS:
        p = sub.add_parser(verb)
        p.add_argument("input", help="path to the JSON input document")
        p.add_argument("--out", default=None, help="write output atomically here")
        if verb in _NEEDS_R:
            p.add_argument("--r", required=True, help="richness level (integer or inf)")
        if verb == "contract":
            p.add_argument(
                "--contract", required=True, help="comma separated edge ids"
            )
        if verb == "cross-section":
            p.add_argument(
                "--format", choices=("json", "svg"), default="svg"
            )
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_SCHEMA if e.code not in (0,) else 0
    try:
        return _HANDLERS[args.verb](args)
    except DomainError as e:
        sys.stderr.write(
            _canonical({"error": type(e).__name__, "message": str(e)})
        )
        return EXIT_DOMAIN
    except SchemaError as e:
        sys.stderr.write(_canonical({"error": "SchemaError", "message": str(e)}))
        return EXIT_SCHEMA
    except (json.JSONDecodeError, OSError, ValueError, OverflowError) as e:
        sys.stderr.write(
            _canonical({"error": type(e).__name__, "message": str(e)})
        )
        return EXIT_SCHEMA


def entry() -> None:
    sys.exit(main())
