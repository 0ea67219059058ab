"""The scripts under scripts/ run to completion and print what they claim."""

import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(*argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    p = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert p.returncode == 0, p.stderr
    return p.stdout


def test_fan_census():
    lines = run_script("fan_census.py", "--max-edges", "3", "--r", "1").splitlines()
    assert lines[0].split() == ["edges", "cuts", "gens", "cones", "simpl", "smooth"]
    assert set(lines[1]) == {"-"}
    rows = [line.split() for line in lines[2:-1]]
    # one row per census graph with 1-3 edges; at r=1 every fan is smooth
    assert len(rows) == 17
    assert all(len(row) == 6 and row[-2:] == ["True", "True"] for row in rows)
    assert [int(row[0]) for row in rows] == sorted(int(row[0]) for row in rows)
    assert re.fullmatch(r"17 graphs in \d+\.\ds \(r=1\)", lines[-1])


def test_triangle_figures(tmp_path):
    out = run_script("triangle_figures.py", "--r", "1", "--out-dir", str(tmp_path))
    assert out.splitlines()[0] == (
        "r=1: 6 maximal cones, section polygon sizes [3, 3, 3, 3, 3, 3], "
        "smooth=True, complete=True"
    )
    assert len(json.loads((tmp_path / "triangle_r1.json").read_text())["cones"]) == 6
    assert (tmp_path / "triangle_r1.svg").read_text().startswith("<svg")


def test_code_lines():
    lines = [line.split() for line in run_script("code_lines.py").splitlines()]
    modules = {name for name, _ in lines[:-1]}
    assert modules == {p.name for p in (ROOT / "src" / "richfan").glob("*.py")}
    assert lines[-1][0] == "total"
    assert int(lines[-1][1]) == sum(int(n) for _, n in lines[:-1])


def test_cli_digest():
    # the digest pins the bytes of every pool request; the pool's stderr holds
    # richfan's own messages and two messages of the json decoder
    lines = run_script("cli_digest.py").splitlines()
    assert lines == [
        "requests 748",
        "exit codes {0: 707, 1: 8, 2: 9, 3: 24}",
        "digest 0e75d4762003f6e5",
    ]
