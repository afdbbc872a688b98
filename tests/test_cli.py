import argparse
import contextlib
import io
import json
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limshape.cli
import limshape.families
from limshape import (
    GradedFamily,
    MonomialIdeal,
    ahf,
    areg_from_shape,
    dhf_vertices_closed_form,
    family_from_json,
    format_rational,
    limiting_shape,
    two_line_vertices,
    verify_graded,
    waldschmidt_from_shape,
)
from limshape.cli import main
from limshape.svgfig import _dec_nd, _svg, render_staircase

from conftest import _rationals, cyclic_gens, family_specs, fraction_decimal, fraction_svg

README = Path(__file__).resolve().parent.parent / "README.md"
# stdout (or the --output file) of every README CLI example, captured before
# the CLI mapped its family flags onto family_from_json
README_GOLDEN = json.loads((Path(__file__).parent / "golden" / "readme_cli.json").read_text())


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


# each family kind as --family flags and as the equivalent --input spec
FAMILY_FLAGS_AND_SPECS = [
    (["--family", "power", "--ideal", '{"vars":2,"gens":[[2,0],[1,2]]}'],
     {"kind": "power", "params": {"ideal": {"vars": 2, "gens": [[2, 0], [1, 2]]}}}),
    (["--family", "doubling", "--extra-vars", "1"],
     {"kind": "doubling", "params": {"extra_vars": 1}}),
    (["--family", "halfplane", "--q1", "7/5", "--q2", "9/4"],
     {"kind": "halfplane", "params": {"q1": "7/5", "q2": "9/4"}}),
    (["--family", "ceiling", "--q", "22/7"],
     {"kind": "ceiling", "params": {"q": "22/7"}}),
    (["--family", "chain", "--breakpoints", "4,0;3,1;1,4;0,7"],
     {"kind": "chain", "params": {"breakpoints": [[4, 0], [3, 1], [1, 4], [0, 7]]}}),
    (["--family", "oscillating", "--a", "1", "--b", "2", "--d", "2"],
     {"kind": "oscillating", "params": {"a": 1, "b": 2, "d": 2}}),
]


def test_family_json_input(tmp_path, capsys):
    for flags, spec in FAMILY_FLAGS_AND_SPECS:
        path = tmp_path / f"{spec['kind']}.json"
        path.write_text(json.dumps(spec))
        family = family_from_json(spec)
        for command in (["family-eval", "--m", "2"], ["waldschmidt", "--max-m", "6"],
                        ["areg", "--max-m", "6"]):
            code, by_flags, _ = run_cli(capsys, *command, *flags)
            assert code == 0, (command, spec)
            code, by_input, _ = run_cli(capsys, *command, "--input", str(path))
            assert code == 0 and by_input == by_flags, (command, spec)
            if family.exact_shape is not None and command[0] != "family-eval":
                shape = limiting_shape(family, 12)
                invariant = {"waldschmidt": waldschmidt_from_shape, "areg": areg_from_shape}
                expected = format_rational(invariant[command[0]](shape))
                assert json.loads(by_flags)["value"] == expected, (command, spec)
    code, out, _ = run_cli(capsys, "waldschmidt", "--input", str(tmp_path / "halfplane.json"))
    assert json.loads(out)["value"] == "7/5"


MALFORMED_SPECS = [
    {"kind": "chain", "params": {"breakpoints": 5}},
    {"kind": "chain", "params": {"breakpoints": [[5]]}},
    {"kind": ["x"]},
    {"kind": "power", "params": {"ideal": 5}},
    {"kind": "oscillating", "params": {"a": [1], "b": 2, "d": 2}},
    {"kind": "halfplane", "params": {"q1": "1", "q2": "2", "q": "3"}},
    {"kind": "oscillating", "params": {"a": 1.9, "b": "3", "d": 2.5}},
    {"kind": "doubling", "params": {"extra_vars": 0.5}},
    {"kind": "power", "params": {"ideal": {"vars": 2.7, "gens": [[1, 0]]}}},
    # a JSON true is not the rational 1
    {"kind": "halfplane", "params": {"q1": True, "q2": 2}},
    {"kind": "ceiling", "params": {"q": True}},
    {"kind": "chain", "params": {"breakpoints": [[4, 0], [3, True], [1, 4], [0, 7]]}},
]
MALFORMED_FLAGS = [
    ["hf", "--degree", "2", "--ideal", "5"],
    ["hf", "--degree", "2", "--ideal", '"vars gens"'],
    ["hf", "--degree", "2", "--ideal", '{"vars":2,"gens":5}'],
    ["hf", "--degree", "2", "--ideal", '{"vars":2,"gens":[[[1],0]]}'],
    ["hf", "--degree", "2", "--ideal", '{"vars":true,"gens":[[1]]}'],
    ["family-eval", "--m", "1", "--family", "power", "--ideal", "5"],
    ["family-eval", "--m", "1", "--family", "power", "--ideal", '"vars gens"'],
    ["family-eval", "--m", "1", "--family", "chain", "--breakpoints", "5"],
    ["family-eval", "--m", "1", "--family", "halfplane", "--q1", "1", "--q2", "2", "--a", "3"],
    # max_m below 1, closed form or not
    *([command, *flags, "--t", "3", "--max-m", "0"]
      for command in ("shape", "ahf") for flags, _ in FAMILY_FLAGS_AND_SPECS),
    *([command, *flags, "--max-m", "0"]
      for command in ("waldschmidt", "areg") for flags, _ in FAMILY_FLAGS_AND_SPECS),
]


def test_chain_refusal_prints_the_chain_as_given(capsys):
    code, out, err = run_cli(capsys, "family-eval", "--family", "chain", "--breakpoints", "4,1;0,7", "--m", "1")
    assert (code, out) == (1, "")
    assert err == "error: chain must start on the x-axis, x strictly decreasing: [(4,1);(0,7)]\n"


@pytest.mark.parametrize(
    "argv",
    [["family-eval", "--m", "1", "--input", spec] for spec in MALFORMED_SPECS] + MALFORMED_FLAGS,
    ids=[json.dumps(spec) for spec in MALFORMED_SPECS] + [" ".join(a) for a in MALFORMED_FLAGS],
)
def test_malformed_family_or_ideal_is_a_validation_error(tmp_path, capsys, argv):
    if isinstance(argv[-1], dict):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ")


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
    # a non-integer exponent is refused, not truncated
    code, out, err = run_cli(capsys, "hf", "--ideal", '{"vars":2,"gens":[[1.5,0]]}', "--t", "3")
    assert code == 1 and out == "" and "1.5" in err


def test_exit_code_computation_error(capsys):
    code, _, err = run_cli(capsys, "family-eval", "--family", "doubling", "--m", "10001")
    assert code == 2 and "computation error" in err


def test_hilbert_data_ignore_the_retired_degree_cap_variable(monkeypatch, capsys):
    # the plateau HF = 2 lasts to degree 16, past the cap of 6 the variable names
    monkeypatch.setenv("LIMSHAPE_MAX_DEGREE", "6")
    code, out, _ = run_cli(
        capsys, "hf", "--ideal", '{"vars":2,"gens":[[2,0],[1,16]]}',
        "--degree", "3", "--hp",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["hilbert_polynomial"], payload["regularity_index"]) == ("1", 17)


def test_hf_in_too_many_variables_exits_2(capsys):
    ideal = json.dumps({"vars": 1200, "gens": [[1] * 1200]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "hf", "--ideal", ideal, "--degree", "1300")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "computation error: Hilbert series in 1200 variables, over 500\n"


def test_exit_code_family_rule_violation(monkeypatch, capsys):
    def bad_doubling(extra_vars):
        rule = lambda m: MonomialIdeal.from_gens(2, [(0, m)])  # noqa: E731
        return GradedFamily(2, rule, "not Borel", claims_borel=True)

    monkeypatch.setattr(limshape.families, "make_doubling_family", bad_doubling)
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


def test_hf_and_render_evaluate_the_power_family(capsys):
    # with --family, --ideal is the power family's base ideal: hf and render
    # read I^m, as family-eval does; --ideal alone is still the ideal itself
    base = '{"vars":2,"gens":[[1,0],[0,1]]}'
    ideal = MonomialIdeal.from_json(json.loads(base))
    cube = json.dumps(ideal.product(ideal).product(ideal).to_json())
    family = ("--family", "power", "--ideal", base, "--m", "3")
    _, out, _ = run_cli(capsys, "hf", *family, "--degree", "1")
    assert json.loads(out) == {"ideal": json.loads(cube), "degree": 1, "value": 2}
    _, out, _ = run_cli(capsys, "hf", "--ideal", base, "--degree", "1")
    assert json.loads(out)["value"] == 0
    renders = [
        run_cli(capsys, "render", "--kind", "staircase", *flags, "--m", "3", "--t", "4")
        for flags in (family[:4], ("--ideal", cube), ("--ideal", base))
    ]
    assert all(code == 0 for code, _, _ in renders)
    assert renders[0][1] == renders[1][1] != renders[2][1]


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


# `tools/cli_replay.py` over the 2400 cli-mix calls of seeds 11 and 12345: one
# sha256 over every call's argv, exit code, stdout and stderr
CLI_REPLAY = ("calls: 2400\nexit 0: 2000\nexit 1: 400\n"
              "sha256: c9e65636e2b82a23109b663e787e38006cc10f27d5334393babb4a08ac9be984\n")


def test_cli_replay_digest_is_pinned():
    # a change to any byte the CLI prints on those calls changes the digest
    proc = subprocess.run([sys.executable, str(README.parent / "tools" / "cli_replay.py")],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, CLI_REPLAY, "")


def test_readme_cli_examples_match_golden():
    section = README.read_text().split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    assert [g["example"] for g in README_GOLDEN] == block.strip().splitlines()


@pytest.mark.parametrize("golden", README_GOLDEN, ids=[g["example"].split()[1] for g in README_GOLDEN])
def test_readme_cli_example_output(tmp_path, capsys, golden):
    argv = shlex.split(golden["example"])[1:]
    target = None
    if "--output" in argv:
        i = argv.index("--output") + 1
        target = tmp_path / argv[i]
        argv[i] = str(target)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if target is not None:
        assert out == ""
        out = target.read_text(encoding="utf-8")
    assert out == golden["output"]


# pairs of calls differing only in optional flags, with a refused call (exit 1)
# between valid ones: a flag or default leaking from one call into the next
# would change what the later call prints
LEAK_SEQUENCE = [
    ["planar-reduce", "--counts", "3,2", "--m", "6", "--shared"],
    ["planar-reduce", "--counts", "3,2", "--m", "6"],
    ["planar-reduce", "--counts", "3,2", "--m", "5", "--approximate"],
    ["planar-reduce", "--counts", "3,2", "--m", "5"],
    ["planar-reduce", "--counts", "3,2", "--m", "5", "--shared", "--approximate"],
    ["hf", "--family", "doubling", "--m", "2", "--t", "3", "--hp"],
    ["hf", "--family", "doubling", "--m", "2", "--t", "3"],
    ["waldschmidt", "--family", "halfplane", "--q1", "3", "--q2", "2"],
    ["shape", "--family", "doubling", "--t", "3", "--max-m", "3"],
    ["shape", "--family", "doubling", "--t", "3", "--max-m", "5"],
]


def test_calls_in_one_process_do_not_leak(capsys):
    alone = {}
    for argv in LEAK_SEQUENCE:
        limshape.cli._build_parser.cache_clear()  # as if it were the only call
        alone[tuple(argv)] = run_cli(capsys, *argv)
    assert len(set(alone.values())) == len(LEAK_SEQUENCE)
    assert [alone[tuple(a)][0] for a in LEAK_SEQUENCE].count(1) == 2
    for argv in LEAK_SEQUENCE + LEAK_SEQUENCE[::-1] + LEAK_SEQUENCE:
        assert run_cli(capsys, *argv) == alone[tuple(argv)], argv


def test_readme_cli_examples_repeat_in_reverse(tmp_path, capsys):
    for golden in README_GOLDEN[::-1] * 2:
        test_readme_cli_example_output(tmp_path, capsys, golden)


def test_parser_built_once_and_every_subcommand_has_a_handler(capsys):
    limshape.cli._build_parser.cache_clear()
    for argv in LEAK_SEQUENCE * 2:
        main(argv)
    capsys.readouterr()
    assert limshape.cli._build_parser.cache_info().misses == 1
    parser = limshape.cli._build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    handlers = {"_cmd_" + name.replace("-", "_") for name in subcommands.choices}
    assert all(callable(getattr(limshape.cli, h, None)) for h in handlers), handlers
    assert handlers == {name for name in vars(limshape.cli) if name.startswith("_cmd_")}


# refused before any handler runs, or help: argparse's own errors and exits;
# `_read` declines each of them, so argparse alone answers
DISPATCH_REFUSED = [
    [],
    ["nonsense"],
    ["shape", "--family", "halfplane", "--q1", "1", "--q2", "2"],
    ["planar-vertices", "--counts", "5", "trailing"],
    ["hf", "--ideal", '{"vars":2,"gens":[[1,0]]}', "--degree", "x"],
    ["render", "--kind", "bogus"],
    ["shape", "-h"],
    ["-h"],
    *([command, "-h"] for command in limshape.cli._build_parser().commands),
    ["waldschmidt", "--family", "halfplane", "--q1=2", "--q2", "3"],
    ["check-graded", "--family", "doubling", "--max", "5"],  # an abbreviation of --max-m
    ["family-eval", "--family", "doubling", "--m", "2", "--m", "3"],
    ["shape", "--family", "ceiling", "--q", "-3", "--t", "3"],
    ["planar-vertices", "--counts", "5", "--"],
    ["planar-vertices", "--", "--counts", "5"],
    ["ahf", "--family", "halfplane", "--q1", "1", "--q2", "2", "--max-m", "4"],
    ["family-eval", "--family", "doubling", "--m", "x"],
    ["render", "--kind", "bogus", "--counts", "5"],
]


@pytest.mark.parametrize("argv, read", [
    *(pytest.param(shlex.split(g["example"])[1:], True, id=f"readme-{i}") for i, g in enumerate(README_GOLDEN)),
    *(pytest.param(a, True, id=f"leak-{i}") for i, a in enumerate(LEAK_SEQUENCE)),
    *(pytest.param(a, False, id=f"refused-{i}") for i, a in enumerate(DISPATCH_REFUSED)),
])
def test_dispatch_equals_the_full_parser(monkeypatch, tmp_path, capsys, argv, read):
    # main reads a plain argv of a known subcommand through `_read`, and
    # hands any other argv of one to that subcommand's parser alone; with an
    # empty subcommand map every argv goes through _build_parser().parse_args
    argv = list(argv)
    target = None
    if "--output" in argv:
        i = argv.index("--output") + 1
        target = argv[i] = str(tmp_path / argv[i])
    parser = limshape.cli._build_parser()
    full_parses, sub_parses = [], []
    parse_args = limshape.cli._Parser.parse_args

    def counted(self, *a, **kw):
        (full_parses if self is parser else sub_parses).append(self)
        return parse_args(self, *a, **kw)

    def call():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out, err = capsys.readouterr()
        written = Path(target).read_text(encoding="utf-8") if target else None
        return code, out, err, written

    monkeypatch.setattr(limshape.cli._Parser, "parse_args", counted)
    known = bool(argv) and argv[0] in parser.commands
    dispatched = call()
    assert len(full_parses) == (not known)
    # the README and LEAK_SEQUENCE calls are all read without argparse: a
    # table that declined every argv would fail here
    assert len(sub_parses) == (known and not read)
    monkeypatch.setattr(parser, "commands", {})
    assert call() == dispatched
    assert len(full_parses) == 1 + (not known)


def test_every_flag_is_a_store_or_a_switch():
    # `_read` knows plain stores and store_true switches only: a flag of any
    # other kind, a positional, a str default that argparse would pass
    # through `type`, parser-level defaults or an exclusive group fail here
    # instead of letting the reader drift from argparse
    for command, sub in limshape.cli._build_parser().commands.items():
        assert (sub._defaults, sub._mutually_exclusive_groups) == ({}, []), command
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert action.option_strings, (command, action.dest)
            if type(action) is argparse._StoreTrueAction:
                assert (action.const, action.default, action.type) == (True, False, None)
            else:
                assert type(action) is argparse._StoreAction, (command, action)
                assert action.nargs is None and action.const is None, (command, action.dest)
                assert action.type is None or not isinstance(action.default, str), (command, action.dest)


_SUBPARSERS = limshape.cli._build_parser().commands
_ODD_OPTIONS = ["-h", "--help", "--max", "--q1=2", "--", "-", "--hp=1", "--kind=shape",
                *sorted({option for sub in _SUBPARSERS.values() for option in sub.table[0]})]
_argv_values = st.sampled_from(
    ["1", "0", "-3", " 7", "007", "1_0", "x", "", "5/2", "bogus", "halfplane", "--m", "-h", "--",
     '{"vars":2,"gens":[[1,0]]}']
) | st.text(max_size=3)


@st.composite
def _argvs(draw):
    """A subcommand with distinct flags of its own, its required ones
    mostly among them, and values mostly of each flag's type and choices;
    then, half the time, one odd token put anywhere after the subcommand."""
    command = draw(st.sampled_from(sorted(_SUBPARSERS)))
    flags, _, required = _SUBPARSERS[command].table
    options = [o for o in sorted(flags) if flags[o][0] in required and draw(st.integers(0, 9))]
    options += draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4))
    argv = [command]
    for option in dict.fromkeys(options):
        dest, switch, kind, choices = flags[option]
        argv.append(option)
        if not switch:
            good = ["12", "0"] if kind is int else sorted(choices) if choices else ["5/2", "halfplane"]
            argv.append(draw(st.sampled_from(good)) if draw(st.integers(0, 9)) else draw(_argv_values))
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_ODD_OPTIONS) | _argv_values))
    return argv


@settings(max_examples=400)
@given(_argvs())
def test_reader_equals_argparse_or_declines(argv):
    sub = limshape.cli._build_parser().commands[argv[0]]
    read = limshape.cli._read(sub, argv)
    if read is not None:  # argparse must accept the same argv, with the same values
        assert vars(read) == vars(sub.parse_args(argv[1:], argparse.Namespace(command=argv[0])))


def test_planar_reduce_over_work_budget_exits_2(capsys):
    code, out, err = run_cli(capsys, "planar-reduce", "--counts", "3,2", "--m", "600000000000")
    assert code == 2 and out == ""
    assert err.startswith("computation error: ")


@pytest.mark.parametrize("argv", [
    # the Hilbert series' slices are charged as they are cut, so a series
    # exponential in its 20 variables is refused mid-series
    ["hf", "--ideal", json.dumps({"vars": 20, "gens": cyclic_gens(20)}), "--degree", "60"],
    # the walk over the members is charged before the shape
    ["ahf", "--family", "halfplane", "--q1", "1", "--q2", "2", "--t", "5/2", "--max-m", "5000"],
    ["family-eval", "--family", "doubling", "--m", "20000"],
    # a power chain whose lower bound |G(I^j)| >= j + 1 passes the budget builds nothing
    ["family-eval", "--family", "power", "--ideal", '{"vars":2,"gens":[[1,0],[0,1]]}', "--m", "10000"],
    ["check-graded", "--family", "halfplane", "--q1", "1", "--q2", "2", "--max-m", "400"],
    ["check-graded", "--family", "ceiling", "--q", "5/3", "--max-m", "1000000000"],
    # a staircase member is charged its columns before its loop
    ["family-eval", "--family", "chain", "--breakpoints", "1000000,0;0,1000000", "--m", "1000"],
    ["family-eval", "--family", "halfplane", "--q1", "1000000", "--q2", "1000000", "--m", "1000"],
    # the number of lines is charged before any count is read
    ["planar-vertices", "--counts", ",".join(map(str, range(2000, 0, -1)))],
    ["planar-vertices", "--counts", ",".join(map(str, range(20000, 0, -1)))],
    ["planar-reduce", "--counts", ",".join(map(str, range(2000, 0, -1))), "--m", "1", "--approximate"],
    # a staircase figure is charged one triangle per generator before its region
    ["render", "--kind", "staircase", "--family", "halfplane", "--q1", "1", "--q2", "2", "--t", "3",
     "--m", "100000"],
    # a closed-form member is charged its ceil(m * x-intercept) + 1 generators before it is built
    ["render", "--kind", "staircase", "--family", "halfplane", "--q1", "1", "--q2", "2", "--t", "3",
     "--m", "900000"],
    # a walk over the members up to max_m is charged before the first member or lcm(1..max_m)
    ["shape", "--family", "oscillating", "--a", "2", "--b", "3", "--d", "2", "--t", "3", "--max-m", "5000"],
    ["shape", "--family", "oscillating", "--a", "2", "--b", "3", "--d", "2", "--t", "3", "--max-m", "20000"],
    ["waldschmidt", "--family", "oscillating", "--a", "2", "--b", "3", "--d", "2", "--max-m", "100000"],
    ["areg", "--family", "oscillating", "--a", "2", "--b", "3", "--d", "2", "--max-m", "100000"],
    # the walk, and a closed form's sum of columns(m) generators, are charged before any member
    ["ahf", "--family", "halfplane", "--q1", "1", "--q2", "2", "--t", "0", "--max-m", "8000"],
    ["ahf", "--family", "halfplane", "--q1", "400", "--q2", "400", "--t", "0", "--max-m", "100"],
])
def test_work_over_budget_exits_2(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("computation error: ")


def test_render_staircase_charges_a_closed_form_member_before_building_it(capsys, monkeypatch):
    # the chain (3,0);(0,4) has ceil(3m) + 1 generators at m: 15001 at m = 5000
    built = []
    monkeypatch.setattr(GradedFamily, "ideal", lambda self, m: built.append(m))
    code, out, err = run_cli(capsys, "render", "--kind", "staircase", "--family", "chain",
                             "--breakpoints", "3,0;0,4", "--t", "3", "--m", "5000")
    assert (code, out, built) == (2, "", [])
    assert err == "computation error: 15001 generators to draw, over 10000\n"


@pytest.mark.parametrize("argv, message", [
    (["hf", "--family", "power", "--ideal", '{"vars":3,"gens":[[2,0,0],[1,1,1],[0,2,0],[0,0,3]]}',
      "--m", "60"], "hf: provide --degree or --t"),
    (["hf", "--family", "halfplane", "--q1", "1", "--q2", "2", "--m", "200000"],
     "hf: provide --degree or --t"),
    (["hf", "--family", "doubling", "--m", "3", "--t", "x"], "rational"),
    (["render", "--kind", "staircase", "--family", "power", "--ideal",
      '{"vars":2,"gens":[[3,0],[1,1],[0,5]]}', "--m", "300"], "render staircase needs --m and --t"),
    (["hf", "--family", "halfplane", "--q1", "1", "--q2", "2", "--m", "200000", "--degree", "-1"],
     "degree must be non-negative"),
    (["hf", "--family", "halfplane", "--q1", "1", "--q2", "2", "--m", "200000", "--t=-1/2"],
     "extended Hilbert function needs t >= 0"),
    # an empty --counts was given: its value is refused, not reported missing
    *(([*argv, "--counts", ""], "error: counts: expected comma-separated integers, got ''\n")
      for argv in (["planar-vertices"], ["planar-reduce", "--m", "6"], ["render", "--kind", "graph"])),
    (["hf", "--degree", "2", "--ideal", "@no-such-dir/ideal.json"], "error: ideal: [Errno 2] "),
    (["waldschmidt"], "error: family: provide --family KIND or --input FILE\n"),
    (["hf", "--family", "doubling", "--degree", "2"], "error: --m required to evaluate a family to an ideal\n"),
    (["hf", "--degree", "2"], "error: provide --ideal JSON or a family plus --m\n"),
    (["planar-vertices", "--counts", "5", "--output", "."], "error: output: "),  # a directory
    (["family-eval", "--family", "doubling"], "error: --m is required\n"),
    (["render", "--kind", "graph"], "error: --counts is required\n"),
    (["planar-reduce", "--counts", "3"], "error: --m is required\n"),
    (["render", "--kind", "staircase", "--ideal", '{"vars":3,"gens":[[1,0,0]]}', "--t", "1"],
     "error: render staircase needs --m and --t\n"),
    # a family without --m: the flag check comes before the family is read
    (["render", "--kind", "staircase", "--family", "doubling", "--t", "1"],
     "error: render staircase needs --m and --t\n"),
    (["render", "--kind", "shape", "--family", "halfplane", "--q1", "1", "--q2", "2"],
     "error: render shape needs --t\n"),
])
def test_missing_flags_are_refused_before_any_member_is_built(capsys, monkeypatch, argv, message):
    built = []
    monkeypatch.setattr(GradedFamily, "ideal", lambda self, m: built.append(m))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, built) == (1, "", [])
    assert err.startswith("error: ") and message in err


def test_render_staircase_refuses_more_than_three_variables():
    wide = MonomialIdeal.from_gens(4, [(1, 0, 0, 0)])
    with pytest.raises(ValueError, match="^staircase rendering needs a two-dimensional region$"):
        render_staircase(wide, 1, 2)


def test_top_level_help_is_one_sentence(capsys):
    # the module docstring's implementation notes are not part of the help
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("usage: limshape")
    assert "may be called repeatedly" not in out and "LIMSHAPE_MAX_DEGREE" not in out


@pytest.mark.parametrize("argv", [
    ["hf", "--family", "power", "--ideal", '{"vars":3,"gens":[[2,0,0],[1,1,1],[0,2,0],[0,0,3]]}',
     "--hp", "--degree", "3", "--m", "200"],
])
def test_power_chain_over_budget_exits_2(capsys, argv):
    # the lower bound on the chain's pairs stays under the budget here, so the
    # products below it run before the refusal: 1.9 s measured on a 2-CPU
    # Linux container
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert err.startswith("computation error: ") and "generator pairs" in err


@pytest.mark.parametrize("argv, graph", [
    (["planar-vertices", "--counts", "10,8,5,3"], lambda: dhf_vertices_closed_form((10, 8, 5, 3))),
    (["planar-vertices", "--counts", "5,3", "--shared"], lambda: two_line_vertices(5, 3)),
])
def test_planar_vertices_print_the_graphs_own_json(capsys, argv, graph):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["vertices"] == graph().to_json()


def test_ahf_and_check_graded_print_the_library_payload_after_the_label(capsys):
    spec = {"kind": "oscillating", "params": {"a": 1, "b": 2, "d": 2}}
    family = family_from_json(spec)
    code, out, _ = run_cli(capsys, "ahf", "--family", "oscillating", "--a", "1", "--b", "2",
                           "--d", "2", "--t", "5/2", "--max-m", "6")
    assert code == 0 and json.loads(out) == {"label": family.label,
                                             **ahf(family, Fraction(5, 2), 6).to_json()}
    code, out, _ = run_cli(capsys, "check-graded", "--family", "oscillating", "--a", "1", "--b", "2",
                           "--d", "2", "--max-m", "5")
    assert code == 0 and json.loads(out) == {"label": family.label, **verify_graded(family, 5).to_json()}


def test_shared_planar_flags_are_checked_by_the_library_once(capsys):
    # the configuration's own message, exit 1, for the graph and its figures alike
    for argv in (["planar-vertices", "--counts", "5,4,3", "--shared"],
                 ["render", "--kind", "graph", "--counts", "5", "--shared"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: shared-intersection variant needs exactly two lines\n"


@pytest.mark.parametrize("argv", [
    ["hf", "--ideal", '{"vars":2,"gens":[[1,1]]}', "--t", "1e100000000"],
    ["hf", "--ideal", '{"vars":2,"gens":[[1,1]]}', "--t", "1e-10000000"],
    ["hf", "--ideal", '{"vars":2,"gens":[[1,1]]}', "--t", "1e10000000"],
    ["shape", "--family", "halfplane", "--q1", "1e100000000", "--q2", "2", "--t", "3"],
])
def test_exponent_notation_is_refused_at_once(capsys, argv):
    # Fraction would build 10^exponent first: 8-10 s at 10^7, unbounded at 10^8
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "exponent above 4300 in magnitude" in err


@settings(max_examples=500)
@given(st.fractions(max_denominator=10**15) | st.fractions(-1, 1, max_denominator=10**20))
def test_svg_decimals_match_the_fraction_formula(q):
    assert _dec_nd(q.numerator, q.denominator) == fraction_decimal(q)


@pytest.mark.parametrize("q, text", [
    (Fraction(1, 2), "0.5"),
    (Fraction(-7, 2), "-3.5"),
    (Fraction(1, 2 * 10**12), "0.000000000001"),  # an exact half rounds away from zero
    (Fraction(-1, 2 * 10**12), "-0.000000000001"),
    (Fraction(1, 3 * 10**12), "0"),  # below 10^-12
    (Fraction(-1, 3 * 10**12), "-0"),  # tiny negatives keep their sign
    (Fraction(2, 3), "0.666666666667"),
    (0, "0"),
    (12, "12"),
])
def test_svg_decimals_pinned(q, text):
    assert _dec_nd(q.numerator, q.denominator) == fraction_decimal(q) == text


_svg_coords = st.integers(-2, 60) | st.fractions(-2, 60, max_denominator=10**6)
_svg_points = st.tuples(_svg_coords, _svg_coords)
_svg_items = st.one_of(
    st.tuples(st.just("polyline"), st.lists(_svg_points, min_size=1, max_size=6), st.booleans()),
    st.tuples(st.just("polygon"), st.lists(_svg_points, max_size=6), st.booleans()),
    st.tuples(st.just("point"), _svg_points, st.none() | st.text("(),/-0123456789", max_size=9)),
)


@settings(max_examples=200)
@given(st.lists(_svg_items, max_size=6))
def test_svg_scene_equals_fraction_oracle(items):
    assert _svg(items) == fraction_svg(items)


def _family_flags(spec) -> list:
    """`--family` flags of a JSON family spec."""
    flags = ["--family", spec["kind"]]
    for name, value in spec["params"].items():
        if name == "breakpoints":
            value = ";".join(",".join(point) for point in value)
        elif name == "ideal":
            value = json.dumps(value)
        flags += ["--" + name.replace("_", "-"), str(value)]
    return flags


@st.composite
def _render_argvs(draw):
    """`render` argvs of every kind: staircases of 1-3-variable ideals, graph
    and gamma figures of planar configurations, and exact (halfplane,
    ceiling, chain) and inner (oscillating, doubling, power) shapes."""
    kind = draw(st.sampled_from(["staircase", "graph", "gamma", "shape"]))
    argv = ["render", "--kind", kind]
    if kind == "staircase":
        nvars = draw(st.integers(1, 3))
        gens = draw(st.lists(st.lists(st.integers(0, 6), min_size=nvars, max_size=nvars),
                             min_size=1, max_size=5))
        return argv + ["--ideal", json.dumps({"vars": nvars, "gens": gens}),
                       "--m", str(draw(st.integers(1, 3))), "--t", format_rational(draw(_rationals(40, 4)))]
    if kind in ("graph", "gamma"):
        counts = sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=4)), reverse=True)
        argv += ["--counts", ",".join(map(str, counts))]
        if len(counts) == 2 and counts[0] * counts[1] > sum(counts) and draw(st.booleans()):
            argv.append("--shared")
        if kind == "gamma" and draw(st.booleans()):
            argv += ["--t", format_rational(draw(_rationals(40, 4)))]
        return argv
    spec = draw(family_specs(("halfplane", "ceiling", "chain", "oscillating", "doubling", "power")))
    return argv + _family_flags(spec) + ["--t", format_rational(draw(_rationals(40, 4))),
                                         "--max-m", str(draw(st.integers(1, 6)))]


@settings(max_examples=300)
@given(_render_argvs())
def test_render_svg_is_well_formed_and_inside_its_view_box(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:  # the one refusal: a gamma cut of a graph that turns back
        assert (code, err.getvalue()) == (1, "error: graph is not x-monotone\n"), argv
        return
    root = ElementTree.fromstring(out.getvalue().encode())
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    width, height = Fraction(root.get("width")), Fraction(root.get("height"))
    assert root.get("viewBox") == f"0 0 {root.get('width')} {root.get('height')}"
    xs, ys = [], []
    for element in root.iter():
        for pair in element.get("points", "").split():
            x, y = pair.split(",")
            xs.append(x)
            ys.append(y)
        xs += [element.get(name) for name in ("x", "x1", "x2", "cx") if element.get(name)]
        ys += [element.get(name) for name in ("y", "y1", "y2", "cy") if element.get(name)]
    assert xs and ys
    assert all(0 <= Fraction(x) <= width for x in xs), argv
    assert all(0 <= Fraction(y) <= height for y in ys), argv


# strings with quotes, backslashes, control characters and non-ASCII text
_json_text = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f') | st.characters(), max_size=8)
_json_ints = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
_json_payloads = st.recursive(
    st.none() | st.booleans() | _json_ints | _json_text,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.lists(_json_ints, max_size=5),  # the one-join int list
        st.lists(_json_text, max_size=5),  # the one-join str list
        st.dictionaries(_json_text, kids, max_size=5),
    ),
    max_leaves=20,
)


@settings(max_examples=200)
@given(_json_payloads)
def test_json_writer_equals_json_dumps(payload):
    assert limshape.cli._json(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("payload", [
    {1: "a"},
    {"a": {(1, 2): 3}},
    Fraction(1, 2),
    [1, 2, Fraction(3)],
    {"value": {1, 2}},
    frozenset(),
    b"bytes",
    ["a", object()],
])
def test_json_writer_refuses_types_no_payload_holds(payload):
    with pytest.raises(TypeError):
        limshape.cli._json(payload)


def test_large_planar_reduce_prints_exactly_json_dumps(capsys):
    args = argparse.Namespace(counts="5,3,2", shared=False, m=34020, approximate=False)
    payload = limshape.cli._cmd_planar_reduce(args)
    assert len(payload["entries"]) >= 10**5
    code, out, err = run_cli(capsys, "planar-reduce", "--counts", "5,3,2", "--m", "34020")
    assert code == 0 and err == ""
    assert out == json.dumps(payload, indent=2) + "\n"
