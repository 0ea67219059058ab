"""Command line driver: exit codes, canonical output, atomic writes."""

import contextlib
import copy
import importlib.util
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import richfan
from richfan.cli import _NEEDS_R, main
from richfan.graphs import MAX_CUT_VERTICES


TRIANGLE = {
    "vertices": [0, 1, 2],
    "edges": [
        {"id": 0, "ends": [0, 1]},
        {"id": 1, "ends": [1, 2]},
        {"id": 2, "ends": [2, 0]},
    ],
}
NN3 = {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def triangle_path(tmp_path):
    return write(tmp_path, "triangle.json", TRIANGLE)


@pytest.fixture
def nested_path(tmp_path):
    obj = dict(TRIANGLE)
    obj["monoid"] = NN3
    obj["lengths"] = {"0": [1, 0, 0], "1": [1, 1, 0], "2": [1, 1, 1]}
    return write(tmp_path, "nested.json", obj)


@pytest.fixture
def basis_path(tmp_path):
    obj = dict(TRIANGLE)
    obj["monoid"] = NN3
    obj["lengths"] = {"0": [1, 0, 0], "1": [0, 1, 0], "2": [0, 0, 1]}
    return write(tmp_path, "basis.json", obj)


class TestExitCodes:
    def test_weakly_rich_curve_passes(self, nested_path):
        assert main(["check-weakly-rich", "--r", "1", nested_path]) == 0

    def test_basis_curve_fails(self, basis_path):
        assert main(["check-weakly-rich", "--r", "1", basis_path]) == 3

    def test_nested_curve_not_rich(self, nested_path):
        assert main(["check-rich", "--r", "1", nested_path]) == 3

    def test_rich_with_infinite_r(self, tmp_path):
        obj = {
            "vertices": [0, 1],
            "edges": [{"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [0, 1]}],
            "monoid": {"rank": 1, "rays": [[1]]},
            "lengths": {"0": [1], "1": [2]},
        }
        p = write(tmp_path, "gon.json", obj)
        assert main(["check-rich", "--r", "inf", p]) == 0
        assert main(["check-rich", "--r", "1", p]) == 3

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["cuts", str(p)]) == 2
        capsys.readouterr()

    def test_missing_file(self, tmp_path):
        assert main(["cuts", str(tmp_path / "absent.json")]) == 2

    def test_schema_violation(self, tmp_path, capsys):
        p = write(tmp_path, "bad.json", {"vertices": "zap", "edges": []})
        assert main(["cuts", p]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"

    @pytest.mark.parametrize(
        "verb, doc",
        [
            ("cuts", {"vertices": [0, 1], "edges": [{"id": True, "ends": [0, 1]}]}),
            ("cuts", {"vertices": [0, 1], "edges": [{"id": 0, "ends": [False, 1]}]}),
            ("subdivide", {"vertices": [True, 2], "edges": []}),
            ("check-rich", dict(TRIANGLE, monoid={"rank": 1, "rays": [[True]]},
                                lengths={"0": [1], "1": [1], "2": [1]})),
            ("check-rich", dict(TRIANGLE, monoid={"rank": 1, "rays": [[1]]},
                                lengths={"0": [True], "1": [1], "2": [1]})),
            ("factors", dict(TRIANGLE, sigma_rays=[[1]], length_map=[[True], [1], [1]])),
        ],
    )
    def test_bool_is_not_an_integer(self, tmp_path, capsys, verb, doc):
        # JSON true must not read as 1 in any reader
        p = write(tmp_path, "bool.json", doc)
        args = [verb, p] if verb == "cuts" else [verb, "--r", "1", p]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "SchemaError"
        assert err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["subdivide", "smoothness"])
    def test_divisor_tuple_limit_fails_fast(self, tmp_path, capsys, verb):
        # 240 divisors of 720720 on the theta graph's 3-edge cut: 240^3 tuples
        theta = {"vertices": [0, 1], "edges": [{"id": i, "ends": [0, 1]} for i in range(3)]}
        p = write(tmp_path, "theta.json", theta)
        t0 = time.process_time()
        assert main([verb, p, "--r", "720720"]) == 2
        assert time.process_time() - t0 < 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == '{"error":"ValueError","message":"cut sizes [3] too large for r=720720"}\n'

    @pytest.mark.parametrize(
        "ids, lengths, key",
        [
            ((1, 2), {"1": [1], "01": [5], "2": [1]}, "01"),
            ((1, 2), {"2": [1], "01": [5], "1": [1]}, "01"),
            ((10, 2), {"1_0": [1], "2": [1]}, "1_0"),
            ((1, 2), {"+1": [1], "2": [1]}, "+1"),
            ((1, 2), {"1": [1], " 2 ": [1]}, " 2 "),
        ],
    )
    def test_length_keys_are_canonical_edge_ids(self, tmp_path, capsys, ids, lengths, key):
        # int() also reads "01" as edge 1, so a second key for one edge would
        # overwrite the first and the verdict would hang on the key order
        doc = {
            "vertices": [0, 1],
            "edges": [{"id": i, "ends": [0, 1]} for i in ids],
            "monoid": {"rank": 1, "rays": [[1]]},
            "lengths": lengths,
        }
        assert main(["check-rich", "--r", "1", write(tmp_path, "banana.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "SchemaError",
            "message": f"length key {key!r} is not an edge id",
        }

    def test_factors_checks_every_cut_before_the_first(self, tmp_path, capsys):
        # the 2-edge cut comes first and has no universal minimum, yet the
        # 240^3 divisor tuples of the 3-edge cut at r=720720 are refused
        # before it is tested
        doc = {
            "vertices": [0, 1, 2],
            "edges": [{"id": i, "ends": [0, 1] if i < 2 else [1, 2]} for i in range(5)],
            "sigma_rays": [[1, 0], [0, 1]],
            "length_map": [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]],
        }
        p = write(tmp_path, "pair_theta.json", doc)
        assert main(["factors", p, "--r", "1"]) == 3
        capsys.readouterr()
        assert main(["factors", p, "--r", "720720"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            '{"error":"ValueError","message":"too many divisor tuples to enumerate:'
            ' 240^3 for r=720720"}\n'
        )

    @pytest.mark.parametrize(
        "lengths, code, err",
        [
            (
                [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]],
                2,
                '{"error":"ValueError","message":"too many divisor tuples to enumerate:'
                ' 240^3 for r=720720"}\n',
            ),
            ([[1, 0], [1, 0], [1, 1], [1, 1], [1, 1]], 0, ""),
        ],
    )
    def test_weak_richness_verbs_agree_at_the_tuple_cap(self, tmp_path, capsys, lengths, code, err):
        # a 2-gon and a theta in series over N^2, as a curve and as its
        # orthant family: both verbs test each cut on its distinct lengths,
        # the cut with the most first, so the 3-edge cut over the cap is
        # refused before the incomparable 2-edge cut is tested, and three
        # equal lengths make 240 tuples, not 240^3
        graph = {
            "vertices": [0, 1, 2],
            "edges": [{"id": i, "ends": [0, 1] if i < 2 else [1, 2]} for i in range(5)],
        }
        curve = dict(
            graph,
            monoid={"rank": 2, "rays": [[1, 0], [0, 1]]},
            lengths={str(i): v for i, v in enumerate(lengths)},
        )
        family = dict(graph, sigma_rays=[[1, 0], [0, 1]], length_map=lengths)
        for verb, doc in (("check-weakly-rich", curve), ("factors", family)):
            assert main([verb, write(tmp_path, "doc.json", doc), "--r", "720720"]) == code, verb
            assert capsys.readouterr() == ("", err), verb

    @pytest.mark.parametrize("verb", ["subdivide", "smoothness"])
    def test_wall_limit_fails_fast(self, tmp_path, capsys, verb):
        # 30 divisors of 720 on the theta graph's 3-edge cut: 27,000 tuples,
        # under the divisor-tuple cap, but 8,113 distinct walls
        theta = {"vertices": [0, 1], "edges": [{"id": i, "ends": [0, 1]} for i in range(3)]}
        p = write(tmp_path, "theta.json", theta)
        t0 = time.process_time()
        assert main([verb, p, "--r", "720"]) == 2
        assert time.process_time() - t0 < 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == '{"error":"ValueError","message":"8113 walls exceed the limit of 4096 for r=720"}\n'

    def test_chamber_limit(self, tmp_path, capsys, monkeypatch):
        # the 336 chambers of the 4-cycle at r=2 fall in orbits of 24 under
        # S_4, so the walk stops at the fifth orbit, 120 chambers
        monkeypatch.setattr(richfan.subdivision, "MAX_CHAMBERS", 100)
        square = {"vertices": list(range(4)), "edges": [{"id": i, "ends": [i, (i + 1) % 4]} for i in range(4)]}
        p = write(tmp_path, "square.json", square)
        assert main(["subdivide", p, "--r", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            '{"error":"ValueError","message":"the walk reached 120 chambers,'
            ' above the limit of 100"}\n'
        )

    @pytest.mark.parametrize(
        "verb, doc, message",
        [
            (
                "check-rich",
                {**TRIANGLE, "monoid": {"rank": 3000, "rays": []}, "lengths": {}},
                "monoid.rank 3000 exceeds the limit of 64",
            ),
            ("verify-fan", {"rank": 3000, "cones": [{"rays": []}]}, "fan.rank 3000 exceeds the limit of 64"),
            (
                "factors",
                {**TRIANGLE, "sigma_rays": [], "sigma_rank": 3000, "length_map": [[0] * 3000] * 3},
                "family sigma rank 3000 exceeds the limit of 64",
            ),
            (
                "factors",
                {**TRIANGLE, "sigma_rays": [[1] * 65], "length_map": [[1] * 65] * 3},
                "family sigma rank 65 exceeds the limit of 64",
            ),
        ],
    )
    def test_rank_limit_fails_fast(self, tmp_path, capsys, verb, doc, message):
        # a cone with few rays in rank 3000 took more than 100 s to build
        p = write(tmp_path, "doc.json", doc)
        args = [verb, p] + (["--r", "1"] if verb in _NEEDS_R else [])
        t0 = time.process_time()
        assert main(args) == 2
        assert time.process_time() - t0 < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == json.dumps({"error": "SchemaError", "message": message}, separators=(",", ":")) + "\n"

    def test_cut_vertex_limit_fails_fast(self, tmp_path, capsys):
        n = MAX_CUT_VERTICES + 1
        path = {
            "vertices": list(range(n)),
            "edges": [{"id": i, "ends": [i, i + 1]} for i in range(n - 1)],
        }
        p = write(tmp_path, "path.json", path)
        t0 = time.process_time()
        assert main(["cuts", p]) == 2
        assert time.process_time() - t0 < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == '{"error":"ValueError","message":"too many vertices for cut enumeration"}\n'

    def test_factors_builds_no_fan(self, tmp_path, capsys):
        # the orthant family of the 6-cycle lies in no chamber; the walk of
        # its 95,040 chambers at r=2 took seconds
        n = 6
        fam = {
            "vertices": list(range(n)),
            "edges": [{"id": i, "ends": [i, (i + 1) % n]} for i in range(n)],
            "sigma_rays": [[int(i == j) for j in range(n)] for i in range(n)],
            "length_map": [[int(i == j) for j in range(n)] for i in range(n)],
        }
        p = write(tmp_path, "cycle6.json", fam)
        t0 = time.process_time()
        assert main(["factors", p, "--r", "2"]) == 3
        assert time.process_time() - t0 < 1
        assert capsys.readouterr() == ("", "")

    def test_factors_past_the_wall_limit(self, tmp_path, capsys):
        # 60 divisors of 5040 give the theta graph 56,791 walls, above
        # MAX_WALLS; a one-parameter family is weakly rich at every r
        theta = {"vertices": [0, 1], "edges": [{"id": i, "ends": [0, 1]} for i in range(3)]}
        p = write(tmp_path, "theta.json", {**theta, "sigma_rays": [[1]], "length_map": [[1], [2], [3]]})
        assert main(["factors", p, "--r", "5040"]) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("r, code", [("1", 3), ("2", 0), ("inf", 0)])
    def test_curve_verbs_past_the_cut_vertex_limit(self, tmp_path, capsys, r, code):
        # richness reads the one circuit block of the 30-cycle, no bonds
        n = 30
        cycle = {
            "vertices": list(range(n)),
            "edges": [{"id": i, "ends": [i, (i + 1) % n]} for i in range(n)],
            "monoid": {"rank": 1, "rays": [[1]]},
            "lengths": {str(i): [1 + i % 2] for i in range(n)},
        }
        assert n > MAX_CUT_VERTICES
        p = write(tmp_path, "cycle30.json", cycle)
        assert main(["check-rich", p, "--r", r]) == code
        assert capsys.readouterr() == ("", "")
        if code == 0:
            assert main(["basic-model", p, "--r", r]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["components"] == [list(range(n))]
            assert out["multipliers"] == {str(i): 1 + i % 2 for i in range(n)}

    def test_product_limit_fails_fast(self, tmp_path, capsys):
        # K4 at r=2: the third cut multiplies 63,371 generators by the
        # 1,240-row template of a 3-edge cut, 78,580,040 sums
        k4 = {
            "vertices": [0, 1, 2, 3],
            "edges": [{"id": i, "ends": list(uv)} for i, uv in
                      enumerate([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])],
        }
        p = write(tmp_path, "k4.json", k4)
        t0 = time.process_time()
        assert main(["ideal", "--r", "2", p]) == 2
        assert time.process_time() - t0 < 10
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            '{"error":"ValueError","message":"product of 63371 by 1240 generators'
            ' needs 78580040 sums, above the limit of 20000000"}\n'
        )

    def test_deeply_nested_json(self, tmp_path, capsys):
        # json.load raises RecursionError on this; it is malformed input
        p = tmp_path / "deep.json"
        p.write_text("[" * 200_000)
        assert main(["cuts", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == '{"error":"SchemaError","message":"input document is nested too deeply"}\n'

    def test_unknown_verb(self):
        assert main(["frobnicate", "x.json"]) == 2

    def test_missing_r_flag(self, triangle_path):
        assert main(["ideal", triangle_path]) == 2

    def test_domain_error_json(self, triangle_path, capsys):
        assert main(["contract", "--contract", "9", triangle_path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnknownEdge"

    @pytest.mark.parametrize("verb", ["check-rich", "check-weakly-rich", "basic-model"])
    def test_disconnected_curve(self, tmp_path, capsys, verb):
        doc = {"vertices": [0, 1], "edges": [], "monoid": {"rank": 1, "rays": [[1]]}, "lengths": {}}
        assert main([verb, write(tmp_path, "two.json", doc), "--r", "1"]) == 1
        assert capsys.readouterr() == (
            "",
            '{"error":"DisconnectedGraph","message":"operation needs a connected graph"}\n',
        )

    @pytest.mark.parametrize("verb", ["ideal", "subdivide", "smoothness"])
    def test_disconnected_graph(self, tmp_path, capsys, verb):
        p = write(tmp_path, "two.json", {"vertices": [0, 1], "edges": []})
        assert main([verb, p, "--r", "1"]) == 1
        assert capsys.readouterr() == (
            "",
            '{"error":"DisconnectedGraph","message":"operation needs a connected graph"}\n',
        )

    def test_infinite_r_where_finite_needed(self, triangle_path, capsys):
        assert main(["ideal", "--r", "inf", triangle_path]) == 2
        capsys.readouterr()


class TestGraphVerbs:
    def test_cuts(self, triangle_path, capsys):
        assert main(["cuts", triangle_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"cuts": [[0, 1], [0, 2], [1, 2]]}

    def test_blocks(self, triangle_path, capsys):
        assert main(["blocks", triangle_path]) == 0
        assert json.loads(capsys.readouterr().out) == {"blocks": [[0, 1, 2]]}

    def test_contract(self, triangle_path, capsys):
        assert main(["contract", "--contract", "0", triangle_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [e["id"] for e in out["edges"]] == [1, 2]

    def test_loop_graph_has_no_cuts(self, tmp_path, capsys):
        p = write(
            tmp_path,
            "loop.json",
            {"vertices": [0], "edges": [{"id": 0, "ends": [0, 0]}]},
        )
        assert main(["cuts", p]) == 0
        assert json.loads(capsys.readouterr().out) == {"cuts": []}


class TestIdealAndFan:
    def test_ideal_triangle(self, triangle_path, capsys):
        assert main(["ideal", "--r", "1", triangle_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rank"] == 3
        assert len(out["generators"]) == 7

    def test_subdivide_then_verify(self, triangle_path, tmp_path, capsys):
        fan_path = str(tmp_path / "fan.json")
        assert main(["subdivide", "--r", "1", triangle_path, "--out", fan_path]) == 0
        fan = json.loads(open(fan_path).read())
        assert len(fan["cones"]) == 6
        assert main(["verify-fan", fan_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"complete_on_orthant": True, "valid": True}

    def test_verify_rejects_overlap(self, tmp_path, capsys):
        bad = {
            "rank": 2,
            "cones": [
                {"rays": [[1, 0], [1, 2]], "lines": []},
                {"rays": [[2, 1], [0, 1]], "lines": []},
            ],
        }
        p = write(tmp_path, "bad_fan.json", bad)
        assert main(["verify-fan", p]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False

    def test_verify_rejects_fan_off_the_orthant(self, tmp_path, capsys):
        doc = {"rank": 2, "cones": [{"rays": [[1, 0], [0, 1]]}, {"rays": [[-1, 0], [0, -1]]}]}
        assert main(["verify-fan", write(tmp_path, "fan.json", doc)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out == {"complete_on_orthant": False, "valid": True}

    @pytest.mark.parametrize(
        "doc",
        [
            {"rank": 3},
            {"rank": -1, "cones": []},
            {"rank": 2, "cones": [{"rays": [[1, 0], [True, 1]]}]},
            {"rank": 2, "cones": [{"rays": [[1, 0, 0]]}]},
        ],
    )
    def test_verify_rejects_malformed_fan(self, tmp_path, capsys, doc):
        p = write(tmp_path, "fan.json", doc)
        assert main(["verify-fan", p]) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "SchemaError"
        assert err.count("\n") == 1

    def test_smoothness_r1(self, triangle_path, capsys):
        assert main(["smoothness", "--r", "1", triangle_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["smooth"] is True
        assert out["cones"] == [True] * 6

    def test_smoothness_r2(self, triangle_path, capsys):
        assert main(["smoothness", "--r", "2", triangle_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["smooth"] is False

    def test_basic_model(self, tmp_path, capsys):
        obj = {
            "vertices": [0, 1],
            "edges": [{"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [0, 1]}],
            "monoid": {"rank": 1, "rays": [[1]]},
            "lengths": {"0": [1], "1": [1]},
        }
        p = write(tmp_path, "gon.json", obj)
        assert main(["basic-model", "--r", "1", p]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_basic"] is True
        assert out["multipliers"] == {"0": 1, "1": 1}

    def test_factors(self, tmp_path):
        fam = dict(TRIANGLE)
        fam["sigma_rays"] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        fam["length_map"] = [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
        p = write(tmp_path, "fam.json", fam)
        assert main(["factors", "--r", "1", p]) == 0

    def test_factors_false(self, tmp_path):
        fam = dict(TRIANGLE)
        fam["sigma_rays"] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        fam["length_map"] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        p = write(tmp_path, "fam.json", fam)
        assert main(["factors", "--r", "1", p]) == 3


class TestCrossSection:
    @pytest.fixture
    def fan_path(self, triangle_path, tmp_path):
        p = str(tmp_path / "fan.json")
        main(["subdivide", "--r", "1", triangle_path, "--out", p])
        return p

    def test_svg_default(self, fan_path, capsys):
        assert main(["cross-section", fan_path]) == 0
        svg = capsys.readouterr().out
        assert svg.startswith("<svg ")
        assert svg.count("<polygon") == 6

    def test_json_format(self, fan_path, capsys):
        assert main(["cross-section", "--format", "json", fan_path]) == 0
        out = json.loads(capsys.readouterr().out)
        polys = out["polygons"]
        assert len(polys) == 6
        verts = {tuple(v) for p in polys for v in p}
        assert len(verts) == 7

    def test_rank_mismatch(self, tmp_path, capsys):
        fan = {"rank": 2, "cones": [{"rays": [[1, 0], [0, 1]], "lines": []}]}
        p = write(tmp_path, "flat.json", fan)
        assert main(["cross-section", p]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RankNotThree"


class TestOutputDiscipline:
    def test_canonical_bytes(self, triangle_path, capsys):
        main(["cuts", triangle_path])
        first = capsys.readouterr().out
        main(["cuts", triangle_path])
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")
        # canonical form: no spaces, sorted keys
        assert ": " not in first and ", " not in first

    def test_out_file_written_atomically(self, triangle_path, tmp_path):
        out = tmp_path / "cuts.json"
        assert main(["cuts", triangle_path, "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"cuts": [[0, 1], [0, 2], [1, 2]]}
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".richfan-")]
        assert leftovers == []

    def test_round_trip_graph_through_contract(self, triangle_path, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        main(["contract", "--contract", "", triangle_path, "--out", out])
        assert main(["cuts", out]) == 0
        assert json.loads(capsys.readouterr().out)["cuts"] == [[0, 1], [0, 2], [1, 2]]


CURVE = dict(TRIANGLE, monoid=NN3, lengths={"0": [1, 0, 0], "1": [1, 1, 0], "2": [1, 1, 1]})
FAN = {
    "rank": 3,
    "cones": [
        {"rays": [[1, 0, 0], [1, 1, 0], [0, 0, 1]]},
        {"rays": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]},
    ],
}
FAMILY = dict(TRIANGLE, sigma_rays=[[1, 0], [1, 1]], length_map=[[1, 0], [1, 1], [2, 1]])
# each verb with a valid document and the arguments besides --r
FUZZ_SEEDS = {
    "cuts": (TRIANGLE, []),
    "blocks": (TRIANGLE, []),
    "contract": (TRIANGLE, ["--contract", "0"]),
    "check-rich": (CURVE, []),
    "check-weakly-rich": (CURVE, []),
    "basic-model": (CURVE, []),
    "ideal": (TRIANGLE, []),
    "subdivide": (TRIANGLE, []),
    "verify-fan": (FAN, []),
    "smoothness": (TRIANGLE, []),
    "factors": (FAMILY, []),
    "cross-section": (FAN, ["--format", "json"]),
}
DROP = object()
ATOMS = [DROP, True, None, "x", "0", 1.5, [], 10**20]


def _paths(doc, at=()):
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, at + (k,))


@st.composite
def mutated(draw, doc):
    """doc with up to three nodes dropped or replaced by JSON atoms."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(list(_paths(doc))))
        atom = draw(st.sampled_from(ATOMS))
        if not at:
            doc = doc if atom is DROP else copy.deepcopy(atom)
            continue
        parent = doc
        for k in at[:-1]:
            parent = parent[k]
        if atom is DROP:
            del parent[at[-1]]
        else:
            parent[at[-1]] = copy.deepcopy(atom)
    return doc


def fuzz_case(verb: str):
    doc = FUZZ_SEEDS[verb][0]
    return st.tuples(st.just(verb), mutated(doc), st.sampled_from(["1", "2", "0", "x", "inf"]))


class TestFuzz:
    @given(st.sampled_from(sorted(FUZZ_SEEDS)).flatmap(fuzz_case))
    # a rank no list can hold once ran out of memory in the double description
    @example(("verify-fan", {"rank": 10**20, "cones": []}, "1"))
    @example(("cross-section", {"rank": 10**20, "cones": [{"rays": []}]}, "1"))
    @example(("check-rich", dict(CURVE, monoid={"rank": 10**20, "rays": []}), "1"))
    @settings(max_examples=500, deadline=None)
    def test_mutated_documents_keep_the_exit_contract(self, tmp_path_factory, case):
        verb, doc, r = case
        path = tmp_path_factory.getbasetemp() / "fuzz-doc.json"
        path.write_text(json.dumps(doc))
        args = [verb, str(path), *FUZZ_SEEDS[verb][1]] + (["--r", r] if verb in _NEEDS_R else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in (0, 1, 2, 3)
        text = err.getvalue()
        if code in (1, 2):
            obj = json.loads(text)
            assert isinstance(obj, dict)
            assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        else:
            assert text == ""


class TestOutContract:
    @pytest.mark.parametrize("verb", sorted(FUZZ_SEEDS))
    def test_out_holds_the_stdout_bytes(self, tmp_path, capsys, verb):
        doc, extra = FUZZ_SEEDS[verb]
        argv = [verb, write(tmp_path, "doc.json", doc), *extra]
        argv += ["--r", "2"] if verb in _NEEDS_R else []
        code = main(argv)
        out, err = capsys.readouterr()
        target = tmp_path / "out.txt"
        assert main(argv + ["--out", str(target)]) == code
        assert capsys.readouterr() == ("", err)
        # the check verbs answer by exit code alone, and a failing exit
        # (basic-model: the curve is not 2-rich) writes nothing either
        assert (out == "") == (verb in ("check-rich", "check-weakly-rich", "factors") or code == 1)
        if out:
            assert target.read_text() == out
        else:
            assert not target.exists()


SRC = os.path.dirname(os.path.dirname(os.path.abspath(richfan.__file__)))
NUMPY_PROBE = """
import json, sys
if sys.argv[3:] == ["numpy-first"]:
    import numpy
from richfan.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "numpy": loaded}, fh)
"""


def run_fresh(argvs, report, numpy_first=False):
    """Run main on each argv in one new interpreter (which imports numpy
    before richfan when numpy_first is set); its exit codes, the numpy
    submodules it loaded, and its stdout bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(argvs), report]
        + (["numpy-first"] if numpy_first else []),
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(report) as fh:
        rep = json.load(fh)
    return rep["codes"], rep["numpy"], proc.stdout


# -S keeps site hooks (.pth files may import tempfile) from preloading what a
# verb loads; numpy's directory then goes on the path by hand
BOUNDARY_PATH = os.pathsep.join(
    [SRC, os.path.dirname(importlib.util.find_spec("numpy").submodule_search_locations[0])]
)
BOUNDARY_PROBE = """
import json, os, sys
before = set(sys.modules)
if sys.argv[3:] == ["eager"]:
    import richfan.catalog, richfan.drawing, richfan.subdivision
from richfan.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    codes.append(main(argv))
    sys.stdout.flush()
    os.write(1, b"\\0")
watched = {"tempfile", "dataclasses", "fractions"}
loaded = sorted(m for m in set(sys.modules) - before if m.startswith("richfan") or m in watched)
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "loaded": loaded}, fh)
"""
GRAPH_MODULES = {"richfan", "richfan.cli", "richfan.errors", "richfan.graphs"}


def run_boundary(argvs, report, eager=False):
    """Run main on each argv in one new interpreter, which imports every
    richfan module first when eager is set; the exit codes, the richfan
    modules and tempfile, dataclasses and fractions when it loaded them, and
    each argv's stdout bytes."""
    env = dict(os.environ, PYTHONPATH=BOUNDARY_PATH)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", BOUNDARY_PROBE, json.dumps(argvs), report]
        + (["eager"] if eager else []),
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(report) as fh:
        rep = json.load(fh)
    return rep["codes"], set(rep["loaded"]), proc.stdout.split(b"\0")[:-1]


class TestModuleEntry:
    def test_python_m_runs_main(self, triangle_path, tmp_path, capsys):
        # python -m richfan.cli VERB ... answers like the console script
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "richfan.cli", *argv],
                env=env,
                capture_output=True,
                timeout=60,
            )

        proc = run("cuts", str(bad))
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.count(b"\n") == 1
        assert json.loads(proc.stderr)["error"] == "JSONDecodeError"
        proc = run("cuts", triangle_path)
        assert main(["cuts", triangle_path]) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, capsys.readouterr().out.encode(), b""
        )


class TestImportBoundary:
    """Only building an ideal loads numpy, and each verb loads only the
    richfan modules it runs, with the same output as eager imports."""

    def test_graph_fan_and_curve_verbs_load_no_numpy(
        self, triangle_path, nested_path, tmp_path
    ):
        fan_path = str(tmp_path / "fan.json")
        argvs = [
            ["cuts", triangle_path],
            ["subdivide", "--r", "2", triangle_path, "--out", fan_path],
            ["verify-fan", fan_path],
            ["check-rich", "--r", "1", nested_path],
        ]
        codes, numpy_modules, _ = run_fresh(argvs, str(tmp_path / "report.json"))
        assert codes == [0, 0, 0, 3]
        assert numpy_modules == []

    def test_ideal_loads_numpy_with_the_same_output(self, triangle_path, tmp_path, capsys):
        argv = ["ideal", "--r", "2", triangle_path]
        report = str(tmp_path / "report.json")
        codes, numpy_modules, out = run_fresh([argv], report)
        assert codes == [0]
        assert numpy_modules
        eager_codes, _, eager_out = run_fresh([argv], report, numpy_first=True)
        assert (eager_codes, eager_out) == (codes, out)
        assert main(argv) == 0
        assert out == capsys.readouterr().out.encode()

    def test_missing_numpy_fails_at_import(self):
        # -S leaves site-packages, and with it numpy, off the path
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "try:\n    import richfan.cli\n"
            "except ModuleNotFoundError as e:\n    print(e.name)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe, SRC], capture_output=True, text=True, timeout=60
        )
        assert proc.stdout == "numpy\n", proc.stderr

    def test_numpy_is_looked_up_once(self, triangle_path):
        probe = (
            "import importlib.util, sys\n"
            "find_spec, names = importlib.util.find_spec, []\n"
            "def counted(name, *a):\n"
            "    names.append(name)\n"
            "    return find_spec(name, *a)\n"
            "importlib.util.find_spec = counted\n"
            "from richfan.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, names.count('numpy'), file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", probe, "ideal", "--r", "1", triangle_path],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.stderr == "0 1\n"

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("verbs")
        argvs = {}
        for verb, (doc, extra) in FUZZ_SEEDS.items():
            path = tmp / f"{verb}.json"
            path.write_text(json.dumps(doc))
            args = extra + (["--r", "2"] if verb in _NEEDS_R else [])
            argvs[verb] = [verb, str(path), *args]
        lazy = {v: run_boundary([a], str(tmp / "report.json")) for v, a in argvs.items()}
        eager = run_boundary(list(argvs.values()), str(tmp / "report.json"), eager=True)
        return argvs, lazy, eager

    def test_graph_verbs_load_graphs_and_errors(self, runs):
        _, lazy, _ = runs
        for verb in ("cuts", "blocks", "contract"):
            assert lazy[verb][1] == GRAPH_MODULES, verb

    def test_fan_verbs_load_no_graph_curve_or_ideal_modules(self, runs):
        _, lazy, _ = runs
        for verb in ("verify-fan", "cross-section"):
            assert "richfan.cones" in lazy[verb][1]
            for mod in ("graphs", "curves", "monoids", "subdivision"):
                assert f"richfan.{mod}" not in lazy[verb][1], (verb, mod)
        assert "richfan.drawing" not in lazy["verify-fan"][1]

    def test_curve_verbs_load_no_subdivision_or_drawing(self, runs):
        _, lazy, _ = runs
        for verb in ("check-rich", "check-weakly-rich", "basic-model"):
            assert "richfan.curves" in lazy[verb][1]
            assert not lazy[verb][1] & {"richfan.subdivision", "richfan.drawing"}, verb

    def test_only_ideal_and_fan_building_verbs_load_subdivision(self, runs):
        _, lazy, _ = runs
        builds = {v for v in lazy if "richfan.subdivision" in lazy[v][1]}
        assert builds == {"ideal", "subdivide", "smoothness"}
        assert "richfan.drawing" not in lazy["subdivide"][1]

    def test_tempfile_only_with_out(self, runs, tmp_path):
        _, lazy, _ = runs
        assert not any("tempfile" in modules for _, modules, _ in lazy.values())
        out = str(tmp_path / "cuts.json")
        argv = ["cuts", write(tmp_path, "triangle.json", TRIANGLE), "--out", out]
        codes, modules, _ = run_boundary([argv], str(tmp_path / "report.json"))
        assert codes == [0] and "tempfile" in modules
        assert json.loads(open(out).read()) == {"cuts": [[0, 1], [0, 2], [1, 2]]}

    def test_no_verb_loads_dataclasses_and_only_cross_section_fractions(self, runs):
        _, lazy, _ = runs
        assert not any("dataclasses" in modules for _, modules, _ in lazy.values())
        assert {v for v in lazy if "fractions" in lazy[v][1]} == {"cross-section"}

    def test_same_exit_codes_and_stdout_as_eager_imports(self, runs):
        argvs, lazy, (eager_codes, eager_modules, eager_outs) = runs
        assert len({m for m in eager_modules if m.startswith("richfan")}) == 11
        assert eager_codes == [lazy[v][0][0] for v in argvs]
        assert eager_outs == [lazy[v][2][0] for v in argvs]
        assert all(lazy[v][0] == [0] for v in ("cuts", "ideal", "subdivide", "cross-section"))
