"""The lazy `richfan` namespace: the same public names as eager imports."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import richfan

SRC = os.path.dirname(os.path.dirname(os.path.abspath(richfan.__file__)))

# the public names, by the submodule that defines them
PUBLIC = {
    "cones": ["Cone", "Fan", "hilbert_basis", "is_unimodular"],
    "curves": ["BasicModel", "PLFunction", "RealFamily", "TropicalCurve", "family_is_weakly_r_rich"],
    "graphs": ["Graph"],
    "monoids": ["INF", "SharpMonoid", "divisors"],
    "subdivision": [
        "ChoiceFunction",
        "CutOrder",
        "MonomialIdeal",
        "SmoothnessReport",
        "all_choice_functions",
        "choice_cone",
        "choice_function_fan",
        "choice_monoid",
        "cut_order_from_choice",
        "factors_through",
        "ideal_product",
        "ideal_product_many",
        "newton_subdivision",
        "pullback_to_contraction",
        "richness_ideal",
        "smoothness_report",
        "weakly_rich_fan",
    ],
}
NAMES = sorted(n for names in PUBLIC.values() for n in names)


def fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_lists_the_public_names():
    assert len(NAMES) == 30
    assert richfan.__all__ == NAMES


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_the_submodule_object(module):
    mod = importlib.import_module(f"richfan.{module}")
    for name in PUBLIC[module]:
        assert getattr(richfan, name) is getattr(mod, name), name


def test_star_import_and_dir():
    ns: dict = {}
    exec("from richfan import *", ns)
    assert sorted(k for k in ns if k != "__builtins__") == NAMES
    assert set(NAMES) <= set(dir(richfan))


def test_unknown_names_fail():
    with pytest.raises(AttributeError, match="nope"):
        richfan.nope
    with pytest.raises(ImportError, match="nope"):
        exec("from richfan import nope", {})


def test_import_runs_no_submodule():
    out = fresh(
        "import sys, richfan\n"
        "print(sorted(m for m in sys.modules if m.startswith('richfan.')))\n"
        "richfan.Graph\n"
        "print(sorted(m for m in sys.modules if m.startswith('richfan.')))\n"
    )
    assert out == "[]\n['richfan.errors', 'richfan.graphs']\n"


def test_submodules_resolve_as_attributes():
    # `import richfan` once imported these eagerly, so richfan.cones worked
    out = fresh(
        "import sys, richfan\n"
        "mods = [getattr(richfan, m) for m in ('cones', 'curves', 'errors', 'graphs',"
        " 'intlinalg', 'monoids', 'subdivision')]\n"
        "print(all(m is sys.modules[m.__name__] for m in mods))\n"
    )
    assert out == "True\n"


def test_subdivision_imports_curves_cones_graphs_and_monoids():
    # perfbench's Tracer.install() imports richfan.subdivision and then reads
    # sys.modules["richfan.curves"] (and cones, graphs, monoids) to wrap their
    # methods; moving subdivision's curves import under TYPE_CHECKING would
    # make every traced CLI request fail with a KeyError
    out = fresh(
        "import json, sys, richfan.subdivision\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('richfan.')]))\n"
    )
    loaded = set(json.loads(out))
    assert {f"richfan.{m}" for m in ("curves", "cones", "graphs", "monoids")} <= loaded


RECORD_FIELDS = {
    "Edge": ("id", "u", "v"),
    "Graph": ("vertices", "edges"),
    "TropicalCurve": ("graph", "monoid", "lengths"),
    "PLFunction": ("vertex_values", "slopes"),
    "RealFamily": ("graph", "cone", "length_map"),
    "BasicModel": ("components", "multipliers", "roots", "is_basic", "model"),
    "ChoiceFunction": ("choices",),
    "CutOrder": ("minima", "pred"),
    "SmoothnessReport": ("verdicts", "smooth"),
}


def build_records() -> dict:
    """One record of each kind, from the triangle with lengths 1, 2, 1 in N."""
    tri = richfan.Graph.build([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
    curve = richfan.TropicalCurve.build(tri, richfan.SharpMonoid.orthant(1), {0: (1,), 1: (2,), 2: (1,)})
    choice = richfan.ChoiceFunction.build(tri, {(0, 1): 0, (0, 2): 0, (1, 2): 1})
    return {
        "Edge": tri.edges[0],
        "Graph": tri,
        "TropicalCurve": curve,
        "PLFunction": curve.pl_witness((0, 1), 2),
        "RealFamily": curve.to_real_family(),
        "BasicModel": curve.basic_model(2),
        "ChoiceFunction": choice,
        "CutOrder": richfan.cut_order_from_choice(tri, choice),
        "SmoothnessReport": richfan.smoothness_report(richfan.weakly_rich_fan(tri, 1)),
    }


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_records_are_immutable_tuples_of_their_fields(name):
    a, b = build_records()[name], build_records()[name]
    assert type(a).__name__ == name and a._fields == RECORD_FIELDS[name]
    assert a == b and hash(a) == hash(b)
    # a record iterates and equals the plain tuple of its fields
    assert a == tuple(getattr(a, f) for f in a._fields) == tuple(a)
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], None)
