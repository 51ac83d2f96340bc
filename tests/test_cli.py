import contextlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import finsplice
from finsplice import POSET_WARNING, build_pipeline, cli, from_preorder, preorder_from_relation, random_space
from finsplice import smith_normal_form
from finsplice.cli import main
from finsplice.io import space_from_dict, space_to_dict
from oracles import dense_diagonals

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_dup(capsys):
    code, out, _ = run(capsys, "decompose", "--fixture", "PSEUDO_S1_DUP")
    assert code == 0
    assert "representatives: a, b, c, d" in out
    assert "complementary: c'" in out


def test_decompose_poset_warns(capsys):
    code, out, _ = run(capsys, "decompose", "--fixture", "SIERP")
    assert code == 0
    assert "warning: input is already a poset" in out
    assert "complementary: (none)" in out


def test_decompose_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"points": ["a", "b"], "opens": [[], ["a"]]}', encoding="utf-8")
    code, _, err = run(capsys, "decompose", "--input", str(path))
    assert code == 2
    assert "input error" in err


def test_decompose_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "decompose", "--input", str(tmp_path / "absent.json"))
    assert code == 2


def test_homology_ambient(capsys):
    code, out, _ = run(capsys, "homology", "--fixture", "PSEUDO_S1", "--complex", "ambient")
    assert code == 0
    assert "     0  Z" in out
    assert "     1  Z" in out


def test_homology_relative_cohomology(capsys):
    code, out, _ = run(
        capsys,
        "homology", "--fixture", "PSEUDO_S1_DUP", "--complex", "relative", "--theory", "cohomology",
    )
    assert code == 0
    assert "     0  0" in out
    assert "     1  Z" in out


def test_homology_poset_indisc(capsys):
    code, out, _ = run(capsys, "homology", "--fixture", "INDISC2", "--complex", "poset")
    assert code == 0
    assert "     0  Z" in out


def test_homology_bad_flag_value(capsys):
    code, _, err = run(capsys, "homology", "--fixture", "SIERP", "--complex", "bogus")
    assert code == 3


def test_spliced_with_verification(capsys):
    code, out, _ = run(
        capsys,
        "spliced", "--fixture", "PSEUDO_S1_DUP", "--length", "3", "--max-degree", "5", "--verify-theorem",
    )
    assert code == 0
    for row in ("0  Z", "1  Z", "4  Z"):
        assert row in out
    assert "summary: 4 match / 2 mismatch / 0 uncovered" in out


def test_spliced_poset_input(capsys):
    code, out, _ = run(capsys, "spliced", "--fixture", "SIERP", "--length", "3", "--max-degree", "5")
    assert code == 0
    assert "warning: input is already a poset" in out
    groups = [line.split()[-1] for line in out.splitlines() if line.strip() and line.split()[0].isdigit()]
    assert groups == ["Z", "0", "0", "0", "0", "0"]


def test_spliced_zero_length(capsys):
    code, _, err = run(capsys, "spliced", "--fixture", "PSEUDO_S1_DUP", "--length", "0")
    assert code == 3


def test_spliced_negative_length(capsys):
    code, out, _ = run(capsys, "spliced", "--fixture", "PSEUDO_S1_DUP", "--length", "-3", "--max-degree", "5")
    assert code == 0


@pytest.mark.parametrize("sign", [1, -1])
def test_spliced_huge_length_costs_no_more_than_a_short_one(capsys, sign):
    # Degrees 0..5 all lie in the first block once the length is at least 7,
    # so the groups cannot depend on how much longer it is.
    reports = []
    for length in (7, 10**9):
        code, out, _ = run(
            capsys,
            "spliced", "--fixture", "PSEUDO_S1_DUP", "--max-degree", "5", "--verify-theorem",
            "--format", "json", "--length", str(sign * length),
        )
        assert code == 0
        report = json.loads(out)
        reports.append((report["groups"], report["theorem"]))
    assert reports[0] == reports[1]


def test_missing_input_source(capsys):
    code, _, _ = run(capsys, "decompose")
    assert code == 3


def test_two_input_sources(capsys):
    code, _, _ = run(capsys, "decompose", "--fixture", "SIERP", "--random", "3")
    assert code == 3


def test_unknown_fixture(capsys):
    code, _, _ = run(capsys, "decompose", "--fixture", "NOPE")
    assert code == 3


def test_fixtures_list(capsys):
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == 0
    assert out.splitlines() == ["SIERP", "INDISC2", "PSEUDO_S1", "PSEUDO_S1_DUP"]


def test_fixtures_show_unknown(capsys):
    code, _, _ = run(capsys, "fixtures", "show", "NOPE")
    assert code == 3


def test_fixtures_show(capsys):
    code, out, _ = run(capsys, "fixtures", "show", "SIERP")
    assert code == 0
    assert json.loads(out)["points"] == ["a", "b"]


FIXTURE_OPENS = {
    "SIERP": [[], ["a", "b"], ["b"]],
    "INDISC2": [[], ["x", "y"]],
    "PSEUDO_S1": [[], ["a"], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"], ["a", "b", "d"], ["b"]],
    "PSEUDO_S1_DUP": [
        [], ["a"], ["a", "b"], ["a", "b", "c", "c'"], ["a", "b", "c", "c'", "d"], ["a", "b", "d"], ["b"]
    ],
}


@pytest.mark.parametrize("name", sorted(FIXTURE_OPENS))
def test_fixtures_show_and_export_print_the_opens(capsys, tmp_path, name):
    points = sorted({p for o in FIXTURE_OPENS[name] for p in o})
    expected = {"format": "finsplice-space/1", "points": points, "opens": FIXTURE_OPENS[name]}
    code, out, _ = run(capsys, "fixtures", "show", name)
    assert code == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    path = tmp_path / "space.json"
    code, _, _ = run(capsys, "fixtures", "export", name, str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == out


def test_export_then_input_matches_fixture(capsys, tmp_path):
    path = tmp_path / "sierp.json"
    code, _, _ = run(capsys, "fixtures", "export", "SIERP", str(path))
    assert code == 0
    code, from_file, _ = run(capsys, "decompose", "--input", str(path), "--format", "json")
    assert code == 0
    code, from_fixture, _ = run(capsys, "decompose", "--fixture", "SIERP", "--format", "json")
    assert code == 0
    assert from_file == from_fixture


def test_random_is_reproducible(capsys):
    code, first, _ = run(capsys, "decompose", "--random", "6", "--seed", "11", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "decompose", "--random", "6", "--seed", "11", "--format", "json")
    assert code == 0
    assert first == second


@pytest.mark.parametrize("points", ["27", "60"])
def test_random_space_on_many_points_finishes(capsys, points):
    code, out, _ = run(capsys, "decompose", "--random", points, "--seed", "1")
    assert code == 0
    assert out.startswith(f"points: {points} ")


REPORT_COMMANDS = [["decompose"], ["homology"], ["spliced", "--verify-theorem"]]


def _write(path, document):
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


# The 6-vertex real projective plane.  Its face poset (31 points, x <= y when
# face x lies in face y) has the barycentric subdivision as order complex, so
# H = (Z, Z/2, 0) and, by universal coefficients, H^* = (Z, 0, Z/2).  The
# relative groups follow H_k(amb, poset) = sum over complementary F of
# H~_{k-|F|}(lk F), with lk F the strict-order link of F in the ambient.
#   12-doubled: a twin of the edge 12 has as link the 4-cycle 1, 123, 2, 126,
#   so H_2(amb, poset) = H~_1(circle) = Z: relative homology (0, 0, Z) and
#   cohomology (0, 0, Z).
#   cone-doubled: a point o below every face and its twin o'.  The poset part
#   is the cone from o, so its groups are (Z, 0, 0, 0); the link of o' is the
#   whole subdivided plane, so H_k(amb, poset) = H~_{k-1}(RP2) = (0, 0, Z/2, 0)
#   and, by universal coefficients, relative cohomology (0, 0, 0, Z/2).
# The length-3 splice reads degrees 0-2 from the poset cochain (kernel H^0,
# H^1, then the cokernel C^2 / B^2, which is H^2 when degree 2 is the top) and
# degrees 3-5 from the relative one the same way.  In the cone the cokernel
# C^2 / B^2 = C^2 / Z^2 (H^2 = 0) is free of rank rank(d^2) = 60, the 60 flags
# vertex < edge < triangle that span degree 3 (H^3 = 0 in the poset part, Z/2
# relatively), on both sides.
RP2_TRIANGLES = ("123", "126", "134", "145", "156", "235", "245", "246", "346", "356")
RP2_GROUPS = {
    "homology": ["Z", "Z/2", "0"],
    "cohomology": ["Z", "0", "Z/2"],
    "relative-homology": [],
    "relative-cohomology": [],
    "spliced": ["Z", "0", "Z/2", "0", "0", "0"],
}
RP2_VARIANTS = {
    "plain": (31, RP2_GROUPS),
    "12-doubled": (
        32,
        {
            **RP2_GROUPS,
            "relative-homology": ["0", "0", "Z"],
            "relative-cohomology": ["0", "0", "Z"],
            "spliced": ["Z", "0", "Z/2", "0", "0", "Z"],
        },
    ),
    "cone-doubled": (
        33,
        {
            "homology": ["Z", "0", "0", "0"],
            "cohomology": ["Z", "0", "0", "0"],
            "relative-homology": ["0", "0", "Z/2", "0"],
            "relative-cohomology": ["0", "0", "0", "Z/2"],
            "spliced": ["Z", "0", "Z^60", "0", "0", "Z^60"],
        },
    ),
}
RP2_COMMANDS = {
    "homology": ["homology"],
    "cohomology": ["homology", "--theory", "cohomology"],
    "relative-homology": ["homology", "--complex", "relative"],
    "relative-cohomology": ["homology", "--complex", "relative", "--theory", "cohomology"],
    "spliced": ["spliced", "--length", "3", "--max-degree", "5"],
}


def _rp2_face_poset(variant):
    points = sorted({"".join(face) for t in RP2_TRIANGLES for k in (1, 2, 3) for face in itertools.combinations(t, k)})
    leq = [[x, y] for x in points for y in points if x != y and set(x) <= set(y)]
    if variant == "12-doubled":
        points.append("12'")
        leq += [["12", "12'"], ["12'", "12"]]
    elif variant == "cone-doubled":
        leq += [[o, face] for o in ("o", "o'") for face in points] + [["o", "o'"], ["o'", "o"]]
        points += ["o", "o'"]
    return {"points": points, "leq": leq}


@pytest.mark.parametrize("variant", list(RP2_VARIANTS))
@pytest.mark.parametrize("report", sorted(RP2_COMMANDS))
def test_projective_plane_torsion_reaches_the_report(capsys, tmp_path, variant, report):
    path = _write(tmp_path / "rp2.json", _rp2_face_poset(variant))
    code, out, _ = run(capsys, *RP2_COMMANDS[report], "--input", path, "--format", "json")
    assert code == 0
    document = json.loads(out)
    point_count, groups = RP2_VARIANTS[variant]
    assert document["space"]["point_count"] == point_count
    assert [g["pretty"] for g in document["groups"]] == groups[report]


def test_projective_plane_cone_relative_torsion_matches_the_dense_oracle():
    # Of the space files the tests run, only the cone variant has relative
    # torsion, so its relative maps leave a block for the dense finish.
    data = build_pipeline(space_from_dict(_rp2_face_poset("cone-doubled")))
    relative = data.relative_chain
    assert relative.smith.diagonals == dense_diagonals(relative)
    diagonal, lows = smith_normal_form(relative.maps[2])
    assert diagonal == relative.smith.diagonals[2]
    assert diagonal[-1] == 2
    assert len(lows) < len(diagonal)


COMMA_POINTS = ["a", "b,c", "a,b", "c"]
COMMA_LEQ = {
    "T0": [["a", "b,c"], ["a,b", "c"]],
    "not-T0": [["a", "b,c"], ["a,b", "c"], ["a,b", "b,c"], ["b,c", "a,b"]],
    "twin-a": [["a", "b,c"], ["b,c", "a"], ["a,b", "c"]],
}
# The decompose table escapes names as face labels do; unescaped, "twin-a"
# would read "{a, b,c} {a,b} {c}" and "representatives: a, a,b, c".
COMMA_TABLES = {
    "T0": [
        "points: 4 (T0: yes)",
        f"warning: {POSET_WARNING}",
        "classes: {a} {a\\,b} {b\\,c} {c}",
        "representatives: a, a\\,b, b\\,c, c",
        "complementary: (none)",
    ],
    "not-T0": [
        "points: 4 (T0: no)",
        "classes: {a} {a\\,b, b\\,c} {c}",
        "representatives: a, a\\,b, c",
        "complementary: b\\,c",
    ],
    "twin-a": [
        "points: 4 (T0: no)",
        "classes: {a, b\\,c} {a\\,b} {c}",
        "representatives: a, a\\,b, c",
        "complementary: b\\,c",
    ],
}


@pytest.mark.parametrize("variant", sorted(COMMA_LEQ))
@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_point_names_with_commas_label_faces_injectively(capsys, tmp_path, variant, command):
    # The faces (a, "b,c") and ("a,b", c) would share the label "a,b,c".
    # Dropping the commas keeps the order of the points, so the reports agree.
    renamed = {p: p.replace(",", "") for p in COMMA_POINTS}
    leq = COMMA_LEQ[variant]
    with_commas = _write(tmp_path / "commas.json", {"points": COMMA_POINTS, "leq": leq})
    plain = _write(
        tmp_path / "plain.json",
        {"points": [renamed[p] for p in COMMA_POINTS], "leq": [[renamed[x], renamed[y]] for x, y in leq]},
    )
    code, out, err = run(capsys, *command, "--input", with_commas, "--format", "json")
    assert (code, err) == (0, "")
    code, expected, _ = run(capsys, *command, "--input", plain, "--format", "json")
    assert code == 0
    report, expected = json.loads(out), json.loads(expected)
    assert report["space"]["t0"] is (variant == "T0")
    assert report["complex_sizes"] == expected["complex_sizes"]
    assert report.get("groups") == expected.get("groups")
    if command == ["decompose"]:
        code, out, _ = run(capsys, "decompose", "--input", with_commas)
        assert (code, out.splitlines()) == (0, COMMA_TABLES[variant])


LARGE_INPUTS = {
    "discrete-200": (
        {"points": [f"p{i:03d}" for i in range(200)], "leq": []},
        {"poset": [200], "ambient": [200], "relative": []},
    ),
    "doubled-pairs-100": (
        {
            "points": [f"p{i:03d}" for i in range(200)],
            "leq": [[f"p{i:03d}", f"p{i ^ 1:03d}"] for i in range(200)],
        },
        {"poset": [100], "ambient": [200], "relative": [100]},
    ),
}


@pytest.mark.parametrize("name", sorted(LARGE_INPUTS))
@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_large_leq_inputs_finish_in_under_a_second(capsys, tmp_path, name, command):
    document, sizes = LARGE_INPUTS[name]
    path = _write(tmp_path / "space.json", document)
    start = time.perf_counter()
    code, out, _ = run(capsys, *command, "--input", path, "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["complex_sizes"] == sizes
    assert elapsed < 1.0


MIN_OPENS_DOCUMENT = {
    "points": ["a", "b", "c", "d", "e"],
    "min_opens": {"a": ["a", "b"], "b": ["a", "b"], "c": ["c", "d"], "d": ["d"], "e": ["e"]},
}
SPACE_SOURCES = {
    "leq": lambda tmp_path: ["--input", _write(tmp_path / "space.json", LARGE_INPUTS["doubled-pairs-100"][0])],
    "min_opens": lambda tmp_path: ["--input", _write(tmp_path / "space.json", MIN_OPENS_DOCUMENT)],
    "random": lambda tmp_path: ["--random", "12", "--seed", "3"],
}


@pytest.mark.parametrize("source", sorted(SPACE_SOURCES))
@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_commands_never_list_the_opens(monkeypatch, capsys, tmp_path, source, command):
    """Only the writers of space files list the opens; a space is its preorder."""
    spaces = []

    def keep(make):
        def made(*args, **kwargs):
            spaces.append(make(*args, **kwargs))
            return spaces[-1]
        return made

    monkeypatch.setattr(cli, "load_space", keep(cli.load_space))
    monkeypatch.setattr(cli, "random_space", keep(cli.random_space))
    code, out, _ = run(capsys, *command, *SPACE_SOURCES[source](tmp_path), "--format", "json")
    assert code == 0 and out
    assert len(spaces) == 1
    assert "opens" not in vars(spaces[0])


def test_random_space_with_ten_thousand_opens_is_validated_quickly(capsys, tmp_path):
    # 20 points and 10,500 opens read from a file: validation must not compare every pair of opens.
    document = space_to_dict(random_space(20, seed=31))
    assert len(document["opens"]) == 10_500
    path = _write(tmp_path / "space.json", document)
    start = time.perf_counter()
    code, out, _ = run(capsys, "decompose", "--input", path)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.startswith("points: 20 ")
    assert elapsed < 1.0


def test_reused_parser_leaks_no_state(capsys, tmp_path):
    calls = [
        ("spliced", "--fixture", "PSEUDO_S1_DUP", "--max-degree", "5", "--format", "json"),
        ("spliced", "--fixture", "PSEUDO_S1_DUP", "--length", "0"),
        ("decompose", "--fixture", "SIERP", "--no-such-flag"),
        ("decompose", "--input", str(tmp_path / "absent.json")),
        ("--help",),
    ]

    def round_of_calls():
        return [run(capsys, *argv) for argv in calls]

    first = round_of_calls()
    assert [code for code, _, _ in first] == [0, 3, 3, 2, 0]
    assert round_of_calls() == first
    cli.build_parser.cache_clear()
    assert round_of_calls() == first
    assert cli.build_parser() is cli.build_parser()


def test_internal_error_is_one_line_and_code_4(capsys, monkeypatch):
    def broken(space):
        raise RuntimeError("broken\nstate")

    monkeypatch.setattr(cli, "build_pipeline", broken)
    code, out, err = run(capsys, "decompose", "--fixture", "SIERP")
    assert code == cli.INTERNAL_ERROR == 4
    assert out == ""
    assert err == "finsplice: internal error: RuntimeError: broken state\n"


def _run_cli_subprocess(args, hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "finsplice", *args],
        capture_output=True,
        env=env,
        check=True,
    ).stdout


def _loaded_by_cli_import(modules):
    """Those of the named modules that a fresh interpreter holds after importing finsplice.cli."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = f"import sys, finsplice.cli; print(sorted({set(modules)!r} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True, text=True)
    return result.stdout


def test_cli_import_loads_no_oracle_library():
    """numpy, scipy and sympy are installed for the test oracles only; the program stays pure Python."""
    assert _loaded_by_cli_import({"numpy", "scipy", "sympy"}) == "[]\n"


def test_cli_import_loads_no_library_a_command_does_not_need():
    """Every run starts a fresh interpreter, so what `import finsplice.cli` loads is start-up time.

    `dataclasses` pulls in `inspect` (and with it `ast`, `dis` and
    `tokenize`); `fractions` pulls in `decimal`.  No command needs either:
    the records are named tuples and `__slots__` classes, and only the
    test oracle `rational_rank` uses fractions.  `string` would serve only
    for its lowercase alphabet.
    """
    assert _loaded_by_cli_import({"dataclasses", "inspect", "fractions", "decimal", "string"}) == "[]\n"


def test_every_name_the_benchmark_tracer_wraps_exists():
    """perfbench's traced run wraps program functions by (owner, attribute) and skips missing ones.

    A product change that drops or renames such a name (`cli.splice_negative`,
    `complexes.strictify`, `pipeline.specialisation_preorder`, ...) would only
    thin out the traced spans, so the bindings are checked here.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = tracing.Instrumentation(finsplice).bindings()
    assert bindings
    assert [f"{owner.__name__}.{attr}" for owner, attr, *_ in bindings if not hasattr(owner, attr)] == []


@pytest.mark.parametrize(
    "args",
    [
        ("decompose", "--fixture", "PSEUDO_S1_DUP", "--format", "json"),
        ("homology", "--fixture", "PSEUDO_S1_DUP", "--complex", "relative", "--format", "json"),
        (
            "spliced", "--fixture", "PSEUDO_S1_DUP", "--length", "3",
            "--max-degree", "5", "--verify-theorem", "--format", "json",
        ),
    ],
)
def test_json_reports_are_byte_identical_across_processes(args):
    first = _run_cli_subprocess(args, "0")
    second = _run_cli_subprocess(args, "424242")
    assert first == second


def test_spliced_report_golden_file(capsys):
    code, out, _ = run(
        capsys,
        "spliced", "--fixture", "PSEUDO_S1_DUP", "--length", "3",
        "--max-degree", "5", "--verify-theorem", "--format", "json",
    )
    assert code == 0
    golden = (GOLDEN / "dup_spliced_report.json").read_text(encoding="utf-8")
    assert out == golden


@pytest.mark.parametrize(
    "document",
    [
        {"points": ["a", "b"], "min_opens": {"a": None, "b": ["b"]}},
        {"points": ["a", "b"], "min_opens": {"a": 5, "b": ["b"]}},
        {"points": ["a", "b"], "min_opens": {"a": "ab", "b": ["b"]}},
        {"points": ["a", "b"], "opens": [[], ["a", "b"], [["a"]]]},
        {"points": ["a", "b"], "leq": [["a", ["b"]]]},
    ],
    ids=["min_opens-null", "min_opens-number", "min_opens-string", "opens-nested", "leq-nested"],
)
def test_malformed_members_are_input_errors(capsys, tmp_path, document):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, _, err = run(capsys, "decompose", "--input", str(path))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100000], ids=["not-utf8", "deep-nesting"])
def test_unreadable_json_is_an_input_error(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "decompose", "--input", str(path))
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "document,message",
    [
        ({"points": ["a", "a"], "min_opens": {"a": ["z"]}}, "unknown point 'z'"),
        ({"points": ["a", "a"], "leq": [["a", "z"]]}, "unknown point 'z'"),
        ({"points": ["a", "a"], "min_opens": {"a": ["a"]}}, "point identifiers must be distinct"),
        ({"points": ["a", "a"], "leq": [["a", "a"]]}, "point identifiers must be distinct"),
        ({"points": ["a", "a"], "opens": [[], ["z"]]}, "point identifiers must be distinct"),
        ({"points": [], "min_opens": {}}, "point set must be nonempty"),
    ],
    ids=[
        "min_opens-unknown-before-duplicate",
        "leq-unknown-before-duplicate",
        "min_opens-duplicate",
        "leq-duplicate",
        "opens-duplicate-before-unknown",
        "min_opens-no-points",
    ],
)
def test_input_errors_keep_their_precedence(capsys, tmp_path, document, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "decompose", "--input", str(path))
    assert (code, out, err) == (2, "", f"finsplice: input error: {message}\n")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_lone_surrogate_point_is_an_input_error_in_a_real_process(tmp_path, fmt):
    # A StringIO accepts lone surrogates, so only a real stdout shows the
    # table form failing to encode one.
    path = tmp_path / "surrogate.json"
    path.write_text('{"points": ["\\ud800", "b"], "leq": [["b", "\\ud800"]]}', encoding="ascii")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "finsplice", "decompose", "--input", str(path), "--format", fmt],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr == b"finsplice: input error: string '\\ud800' cannot be encoded as UTF-8\n"


POINT_NAMES = ("a", "b", "c", "d")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(POINT_NAMES + ("", "z")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(POINT_NAMES), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def space_documents(draw):
    """A small space in one of the three file forms, sometimes with a field broken."""
    points = list(POINT_NAMES[: draw(st.integers(1, 4))])
    pairs = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)), max_size=5))
    space = from_preorder(preorder_from_relation(points, pairs))
    form = draw(st.sampled_from(("opens", "min_opens", "leq")))
    document = {"points": points}
    if form == "opens":
        document["opens"] = [list(o) for o in space.opens]
    elif form == "min_opens":
        document["min_opens"] = {
            p: [q for q in points if all(q in o for o in space.opens if p in o)] for p in points
        }
    else:
        document["leq"] = [list(pair) for pair in pairs]
    if draw(st.booleans()):
        field = draw(st.sampled_from(("points", form, "format")))
        document[field] = draw(json_values)
    return document


file_contents = st.one_of(
    space_documents().map(json.dumps),
    json_values.map(json.dumps),
    st.text(alphabet='{}[]":,ab 0', max_size=20),
).map(str.encode) | st.binary(max_size=8)


@settings(max_examples=120, deadline=None)
@given(
    file_contents,
    st.sampled_from(("decompose", "homology", "spliced")),
    st.integers(-4, 4),
    st.integers(-2, 8),
    st.booleans(),
)
def test_cli_is_total(tmp_path_factory, content, command, length, max_degree, verify):
    path = tmp_path_factory.getbasetemp() / "totality.json"
    path.write_bytes(content)
    argv = [command, "--input", str(path), "--format", "json"]
    if command == "spliced":
        argv += ["--length", str(length), "--max-degree", str(max_degree)]
        if verify:
            argv.append("--verify-theorem")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3)
