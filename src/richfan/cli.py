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


def _graph(args):
    from .graphs import Graph

    return Graph.from_obj(_load(args.input))


def _curve(args):
    from .curves import TropicalCurve

    return TropicalCurve.from_obj(_load(args.input))


def _fan(args):
    from .cones import Fan

    return Fan.from_obj(_load(args.input))


# A handler returns (output, verdict): output is the JSON value to write
# canonically, SVG text, or None; verdict is false when a check answers no.


def _run_cuts(args):
    return {"cuts": [list(c) for c in _graph(args).cuts()]}, True


def _run_blocks(args):
    return {"blocks": [list(b) for b in _graph(args).blocks()]}, True


def _run_contract(args):
    return _graph(args).contract(_edge_list(args.contract)).to_obj(), True


def _run_check_rich(args):
    return None, _curve(args).is_r_rich(_parse_r(args.r))


def _run_check_weakly_rich(args):
    return None, _curve(args).is_weakly_r_rich(_parse_r(args.r))


def _run_basic_model(args):
    m = _curve(args).basic_model(_parse_r(args.r))
    return {
        "components": [list(t) for t in m.components],
        "is_basic": m.is_basic,
        "multipliers": {str(e): v for e, v in m.multipliers},
        "roots": [list(v) for v in m.roots],
    }, True


def _run_ideal(args):
    from .subdivision import richness_ideal

    return richness_ideal(_graph(args), _parse_r(args.r)).to_obj(), True


def _run_subdivide(args):
    from .subdivision import weakly_rich_fan

    return weakly_rich_fan(_graph(args), _parse_r(args.r)).to_obj(), True


def _run_verify_fan(args):
    fan = _fan(args)
    complete = fan.is_complete_on_orthant()
    valid = fan.is_valid()
    return {"complete_on_orthant": complete, "valid": valid}, valid and complete


def _run_smoothness(args):
    from .subdivision import smoothness_report, weakly_rich_fan

    rep = smoothness_report(weakly_rich_fan(_graph(args), _parse_r(args.r)))
    return {"cones": list(rep.verdicts), "smooth": rep.smooth}, True


def _run_factors(args):
    """Whether the image of sigma lies in one chamber of weakly_rich_fan(g,
    r), decided as family_is_weakly_r_rich(fam, r), without the fan.

    A wall w = (cut c, lam / gcd lam) has a universal minimizer h on the
    image when lam_h x_h <= lam_e x_e for every e in c and x in the image.
    family_is_weakly_r_rich asks for one for every cut and divisor tuple
    lam, and lam and lam / gcd lam have the same minimizers.

    If the image lies in a chamber, the chamber's argmin on each wall is a
    universal minimizer.

    Conversely, let h_w be a universal minimizer of each wall w.  The image
    lies in C = {x >= 0 : lam_{h_w} x_{h_w} <= lam_e x_e for all w, e}.
    Take q in the relative interior of C.  A linear form that is >= 0 on C
    and 0 at q is 0 on all of C, so a tie that holds at q holds on C.  With
    the walk's start point p > 0, which lies on no wall, q + eps p for small
    eps > 0 is > 0 and has one strict argmin g_w on each wall: among the
    edges tied with h_w at q, the one with least lam_e p_e.  So it lies in
    the interior of the cone D of the pattern (g_w), and D is a chamber of
    the fan, since the walk reaches every chamber.  Each x in C is >= 0 and
    satisfies lam_{g_w} x_{g_w} = lam_{h_w} x_{h_w} <= lam_e x_e, as g_w
    ties with h_w on C; so C, and with it the image, lies in D.
    """
    from .curves import RealFamily, family_is_weakly_r_rich

    fam = RealFamily.from_obj(_load(args.input))
    return None, family_is_weakly_r_rich(fam, _parse_r(args.r))


def _run_cross_section(args):
    from .drawing import cross_section, render_svg

    fan = _fan(args)
    if args.format == "svg":
        return render_svg(fan), True
    polys = cross_section(fan)
    return {
        "polygons": [
            [[f"{c.numerator}/{c.denominator}" for c in p] for p in poly]
            for poly in polys
        ]
    }, True


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
        output, verdict = _HANDLERS[args.verb](args)
        if output is not None:
            _emit(output if isinstance(output, str) else _canonical(output), args.out)
    except (DomainError, SchemaError, OSError, ValueError, OverflowError) as e:
        sys.stderr.write(_canonical({"error": type(e).__name__, "message": str(e)}))
        return EXIT_DOMAIN if isinstance(e, DomainError) else EXIT_SCHEMA
    return EXIT_OK if verdict else EXIT_FALSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
