import json
import subprocess
import sys

import pytest

import limshape.cli
from limshape import GradedFamily, MonomialIdeal
from limshape.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_planar_vertices(capsys):
    code, out, _ = run_cli(capsys, "planar-vertices", "--counts", "10,8,5,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == [
        ["0", "0"],
        ["4", "4"],
        ["189/40", "69/40"],
        ["47/8", "7/8"],
        ["41/5", "1/5"],
        ["10", "0"],
    ]


def test_planar_vertices_shared(capsys):
    code, out, _ = run_cli(capsys, "planar-vertices", "--counts", "3,2", "--shared")
    assert code == 0
    assert json.loads(out)["vertices"][2] == ["11/5", "1"]


def test_waldschmidt_shape(capsys):
    code, out, _ = run_cli(capsys, "waldschmidt", "--family", "halfplane", "--q1", "2", "--q2", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2" and payload["method"] == "shape"


def test_waldschmidt_estimate_path(capsys):
    code, out, _ = run_cli(
        capsys, "waldschmidt", "--family", "oscillating", "--a", "1", "--b", "2",
        "--d", "2", "--max-m", "12",
    )
    assert code == 0
    assert json.loads(out)["method"] == "estimate"


def test_check_graded(capsys):
    code, out, _ = run_cli(capsys, "check-graded", "--family", "doubling", "--max-m", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["violations"] == []


def test_family_eval_round_trip(capsys):
    from limshape import MonomialIdeal

    code, out, _ = run_cli(
        capsys, "family-eval", "--family", "chain",
        "--breakpoints", "4,0;3,1;1,4;0,7", "--m", "2",
    )
    assert code == 0
    ideal = MonomialIdeal.from_json(json.loads(out)["ideal"])
    assert ideal.contains((8, 0)) and not ideal.contains((7, 0))


def test_hf_and_shape_and_ahf(capsys):
    code, out, _ = run_cli(capsys, "hf", "--family", "doubling", "--m", "1", "--t", "3", "--hp")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1 and payload["regularity_index"] == 3

    code, out, _ = run_cli(
        capsys, "shape", "--family", "chain",
        "--breakpoints", "4,0;3,1;1,4;0,7", "--t", "12",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["waldschmidt"] == "4" and payload["areg"] == "7"
    assert ["3", "1"] in payload["staircase_vertices"]

    code, out, _ = run_cli(capsys, "ahf", "--family", "halfplane", "--q1", "2",
                           "--q2", "3", "--t", "4", "--max-m", "6")
    payload = json.loads(out)
    assert payload["value"] == "3" and payload["exact"] is True


def test_planar_reduce(capsys):
    code, out, _ = run_cli(capsys, "planar-reduce", "--counts", "4", "--m", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [16, 12, 8, 4, 0]
    assert payload["envelope"] == [["0", "0"], ["1", "1"], ["4", "0"]]


def test_family_json_input(tmp_path, capsys):
    family_json = {"kind": "halfplane", "params": {"q1": "7/5", "q2": "9/4"}}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_json))
    code, out, _ = run_cli(capsys, "waldschmidt", "--input", str(path))
    assert code == 0
    assert json.loads(out)["value"] == "7/5"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, "planar-vertices", "--counts", "5", "--output", str(target))
    assert code == 0
    assert json.loads(target.read_text())["vertices"][-1] == ["5", "0"]


def test_exit_code_validation_error(capsys):
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 1 and "invalid choice" in err
    code, _, err = run_cli(capsys, "waldschmidt", "--family", "halfplane", "--q1", "3", "--q2", "2")
    assert code == 1 and "q1" in err
    code, _, err = run_cli(capsys, "planar-vertices", "--counts", "3,3")
    assert code == 1 and "decreasing" in err
    code, _, err = run_cli(capsys, "hf", "--ideal", "{not json", "--degree", "2")
    assert code == 1 and "JSON" in err


def test_exit_code_computation_error(monkeypatch, capsys):
    monkeypatch.setenv("LIMSHAPE_MAX_DEGREE", "6")
    code, _, err = run_cli(
        capsys, "hf", "--ideal", '{"vars":2,"gens":[[2,0],[1,16]]}',
        "--degree", "3", "--hp",
    )
    assert code == 2 and "computation error" in err


def test_exit_code_family_rule_violation(monkeypatch, capsys):
    def bad_doubling(extra_vars):
        rule = lambda m: MonomialIdeal.from_gens(2, [(0, m)])  # noqa: E731
        return GradedFamily(2, rule, "not Borel", claims_borel=True)

    monkeypatch.setattr(limshape.cli, "make_doubling_family", bad_doubling)
    code, _, err = run_cli(capsys, "family-eval", "--family", "doubling", "--m", "1")
    assert code == 2 and "Borel" in err


def test_unexpected_error_is_not_a_computation_error(monkeypatch):
    def broken(args):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(limshape.cli, "_cmd_planar_vertices", broken)
    with pytest.raises(ZeroDivisionError):
        main(["planar-vertices", "--counts", "3"])


def test_hf_doubling_at_large_m(capsys):
    code, out, _ = run_cli(capsys, "hf", "--family", "doubling", "--m", "40", "--t", "3", "--hp")
    assert code == 0
    payload = json.loads(out)
    assert payload["regularity_index"] == 2**40 + 1
    assert payload["hilbert_polynomial"] == "1"


def test_determinism(capsys):
    args = ("shape", "--family", "halfplane", "--q1", "2", "--q2", "3", "--t", "8")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_render_svg_deterministic(capsys):
    args = (
        "render", "--kind", "staircase",
        "--ideal", '{"vars":3,"gens":[[1,6,0],[3,5,1],[2,1,3],[4,0,1]]}',
        "--m", "1", "--t", "9",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert first.startswith("<?xml")
    assert "url(#hatch)" in first and "viewBox" in first
    assert first.count("<polygon") == 4  # one hatched triangle per corner


def test_render_graph_and_gamma(capsys):
    code, out, _ = run_cli(capsys, "render", "--kind", "graph", "--counts", "10,8,5,3")
    assert code == 0 and "polyline" in out
    code, out, _ = run_cli(
        capsys, "render", "--kind", "gamma", "--counts", "10,8,5,3", "--t", "10"
    )
    assert code == 0 and "url(#hatch)" in out
    code, out, _ = run_cli(
        capsys, "render", "--kind", "shape", "--family", "halfplane",
        "--q1", "2", "--q2", "3", "--t", "8",
    )
    assert code == 0 and "<svg" in out


def test_cli_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "limshape.cli", "planar-vertices", "--counts", "7,4,2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["vertices"][0] == ["0", "0"]
    assert payload["vertices"][-1] == ["7", "0"]
