import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from finsplice import FIXTURES, PSEUDO_S1, build_pipeline, cli, specialisation_preorder, validate_topology
from finsplice import io as io_module
from finsplice.io import (
    SpaceFormatError,
    dump_space,
    dumps,
    load_space,
    space_from_dict,
    space_to_dict,
)
from oracles import complex_to_dict, is_leq, relation_pairs


def oracle_dumps(payload):
    """The canonical text by the standard library's indenting encoder."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_space_round_trip(name):
    space = FIXTURES[name]
    assert space_from_dict(space_to_dict(space)) == space


def _file_forms(space):
    """The space written in each of the three file forms."""
    points = list(space.points)
    return {
        "opens": {"points": points, "opens": [list(o) for o in space.opens]},
        "min_opens": {"points": points, "min_opens": dict(zip(points, map(space.unmask, space.up)))},
        "leq": {"points": points, "leq": [list(pair) for pair in sorted(relation_pairs(space))]},
    }


def test_equal_topologies_are_equal_spaces(corpus):
    spaces = [*FIXTURES.values(), *corpus[0]]
    for space in spaces:
        rebuilt = validate_topology(space.points, space.opens)
        assert rebuilt == space
        assert hash(rebuilt) == hash(space)
        for form, document in _file_forms(space).items():
            loaded = space_from_dict(json.loads(json.dumps(document)))
            assert (form, loaded) == (form, space)
            assert hash(loaded) == hash(space)
    # Spaces are equal exactly when their points and opens are.
    assert len(set(spaces)) == len({(s.points, s.opens) for s in spaces})


def test_space_file_round_trip(tmp_path):
    path = tmp_path / "space.json"
    dump_space(PSEUDO_S1, path)
    assert load_space(path) == PSEUDO_S1


def test_min_opens_input():
    space = space_from_dict(
        {
            "points": ["a", "b", "c", "d"],
            "min_opens": {"a": ["a"], "b": ["b"], "c": ["a", "b", "c"], "d": ["a", "b", "d"]},
        }
    )
    assert space == PSEUDO_S1


def test_leq_input_closes_the_relation():
    space = space_from_dict({"points": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]]})
    preorder = specialisation_preorder(space)
    assert is_leq(preorder, "a", "c")


def test_rejects_multiple_bodies():
    with pytest.raises(SpaceFormatError):
        space_from_dict({"points": ["a"], "opens": [[], ["a"]], "leq": []})


def test_rejects_missing_body():
    with pytest.raises(SpaceFormatError):
        space_from_dict({"points": ["a"]})


def test_rejects_unknown_format():
    with pytest.raises(SpaceFormatError):
        space_from_dict({"format": "finsplice-space/99", "points": ["a"], "opens": [[], ["a"]]})


def test_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpaceFormatError):
        load_space(path)


def test_complex_golden_file():
    golden_path = Path(__file__).parent / "golden" / "dup_relative_cochain.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    data = build_pipeline(FIXTURES["PSEUDO_S1_DUP"])
    assert complex_to_dict(data.relative_cochain) == golden


# Every code point, lone surrogates, quotes, backslashes and controls included.
any_text = st.text(st.characters(codec=None, categories=None), max_size=12) | st.sampled_from(
    ["", '"', "\\", "\ud800", "\udfff", "\x00\x1f\x7f", "\u2028", "\U0001f600", "c'"]
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.sampled_from([0, -1, 2**64, -(2**64) - 1, 10**40])
    | any_text
)
payloads = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(any_text, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_dumps_matches_the_indenting_encoder(payload):
    assert dumps(payload) == oracle_dumps(payload)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(), max_size=6) | st.lists(any_text, max_size=6) | st.lists(st.booleans(), max_size=6))
def test_dumps_matches_the_indenting_encoder_on_flat_lists(items):
    assert dumps({"items": items}) == oracle_dumps({"items": items})


@pytest.mark.parametrize(
    "payload",
    [1.5, {"x": [1, 2.0]}, {1, 2}, {"x": frozenset()}, {1: "a"}, {"a": {("b",): 1}}, {"a": b"bytes"}],
    ids=["float", "nested-float", "set", "nested-set", "int-key", "tuple-key", "bytes"],
)
def test_dumps_rejects_other_types(payload):
    with pytest.raises(TypeError):
        dumps(payload)


def test_dumps_leaves_no_cyclic_garbage():
    payload = {"groups": [{"rank": 1, "torsion": [2, 2]}], "points": ["a", "b"], "t0": None, "x": {}}
    gc.collect()
    gc.disable()
    try:
        dumps(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dumps_writes_a_dict_shared_at_two_depths():
    group = {"rank": 1, "torsion": [2, 2], "pretty": "Z + Z/2 + Z/2"}
    payload = {"groups": [group, group], "theorem": {"rows": [{"direct": group, "claimed": group}]}, "last": group}
    assert dumps(payload) == oracle_dumps(payload)


def test_dumps_writes_a_list_repeated_inside_a_list():
    row = [1, "a", None, [True, "b"]]
    payload = [row, row, [row, row], {"row": row}]
    assert dumps(payload) == oracle_dumps(payload)


def test_dumps_writes_a_shared_empty_list_and_a_shared_tuple():
    empty, pair = [], ("c'", [0, -1])
    payload = {"a": empty, "b": [empty, pair, empty, pair], "c": {"d": pair, "e": [[empty]]}}
    assert dumps(payload) == oracle_dumps(payload)


def test_dumps_writes_each_shared_container_once_per_indent(monkeypatch):
    # Keys go through the module's `encode_basestring_ascii`, values do not,
    # so its calls count the dicts written: one group at two indents.
    written = []
    monkeypatch.setattr(io_module, "encode_basestring_ascii", lambda key: written.append(key) or json.dumps(key))
    group = {"pretty": "0", "rank": 0, "torsion": []}
    payload = {"groups": [group] * 12, "theorem": {"rows": [{"claimed": group, "direct": group}] * 6}}
    assert dumps(payload) == oracle_dumps(payload)
    assert written.count("pretty") == 2


@st.composite
def sharing_payloads(draw):
    """Payloads built from a few drawn sub-payloads, each placed by reference wherever it is picked."""
    parts = draw(st.lists(payloads, min_size=1, max_size=4))
    return draw(
        st.recursive(
            st.sampled_from(parts),
            lambda inner: st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(any_text, inner, max_size=4),
            max_leaves=12,
        )
    )


@settings(max_examples=200, deadline=None)
@given(sharing_payloads())
def test_dumps_matches_the_indenting_encoder_on_shared_sub_payloads(payload):
    assert dumps(payload) == oracle_dumps(payload)


def test_dumps_rejects_a_shared_value_of_another_type():
    bad = {"x": [1, 2.5]}
    with pytest.raises(TypeError):
        dumps({"a": bad, "b": [bad, bad]})
    with pytest.raises(TypeError):
        dumps({"a": [{}], "b": {"c": {1, 2}}, "d": [{}]})


def _reports(monkeypatch, argvs):
    """The payloads `cli.main` hands to `dumps` for each argv, with the text written."""
    written = []

    def recording(payload):
        text = dumps(payload)
        written.append((payload, text))
        return text

    monkeypatch.setattr(cli, "dumps", recording)
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    return written


FIXTURE_COMMANDS = [
    ["decompose"],
    *(
        ["homology", "--complex", c, "--theory", t]
        for c in ("poset", "ambient", "relative")
        for t in ("homology", "cohomology")
    ),
    ["spliced", "--length", "3", "--max-degree", "11", "--verify-theorem"],
    ["spliced", "--length", "-2", "--max-degree", "7", "--verify-theorem"],
]


def test_dumps_matches_the_indenting_encoder_on_fixture_reports(monkeypatch):
    argvs = [[*cmd, "--fixture", name, "--format", "json"] for name in FIXTURES for cmd in FIXTURE_COMMANDS]
    argvs += [["fixtures", "show", name] for name in FIXTURES]
    written = _reports(monkeypatch, argvs)
    assert len(written) == len(argvs)
    for payload, text in written:
        assert text == oracle_dumps(payload)


def test_dumps_matches_the_indenting_encoder_on_corpus_reports(monkeypatch, tmp_path, pipelines):
    argvs = []
    for i, data in enumerate(pipelines[:250]):
        path = tmp_path / f"space{i}.json"
        dump_space(data.preorder, path)
        argvs.append(["spliced", "--input", str(path), "--max-degree", "7", "--verify-theorem", "--format", "json"])
    written = _reports(monkeypatch, argvs)
    assert len(written) == 250
    for payload, text in written:
        assert text == oracle_dumps(payload)


SPLICED_DUP = ["spliced", "--fixture", "PSEUDO_S1_DUP", "--max-degree", "11", "--verify-theorem", "--format", "json"]


def _containers(value):
    """Every dict, list and tuple in a payload, itself included, once per place."""
    if isinstance(value, dict):
        return [value, *(c for item in value.values() for c in _containers(item))]
    if isinstance(value, (list, tuple)):
        return [value, *(c for item in value for c in _containers(item))]
    return []


def test_each_report_block_holds_one_dict_per_distinct_group(monkeypatch):
    [(payload, text)] = _reports(monkeypatch, [SPLICED_DUP])
    blocks = {
        "groups": payload["groups"],
        "theorem.rows": [row[side] for row in payload["theorem"]["rows"] for side in ("direct", "claimed")],
    }
    assert (len(blocks["groups"]), len(blocks["theorem.rows"])) == (12, 24)
    # A direct group in `groups` and in `theorem.rows` is one dict too.
    blocks["whole report"] = blocks["groups"] + blocks["theorem.rows"]
    for name, dicts in blocks.items():
        by_value = {}
        for d in dicts:
            assert by_value.setdefault(json.dumps(d, sort_keys=True), d) is d, name
        assert len({id(d) for d in dicts}) == len(by_value) < len(dicts), name
    assert text == oracle_dumps(payload)


def test_no_report_object_is_shared_between_two_calls(monkeypatch):
    (first, _), (second, _) = _reports(monkeypatch, [SPLICED_DUP, SPLICED_DUP])
    # Both payloads are alive, so equal ids would be one object.
    assert not {id(c) for c in _containers(first)} & {id(c) for c in _containers(second)}


def test_interleaved_spliced_reports_match_each_run_alone(monkeypatch):
    argvs = [[*SPLICED_DUP[:2], name, *SPLICED_DUP[3:]] for name in ("PSEUDO_S1_DUP", "INDISC2")]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    alone = [
        subprocess.run([sys.executable, "-m", "finsplice", *argv], capture_output=True, env=env, check=True).stdout
        for argv in argvs
    ]
    written = _reports(monkeypatch, [argvs[0], argvs[1], argvs[0], argvs[1], argvs[1], argvs[0]])
    assert [text.encode() for _, text in written] == [alone[i] for i in (0, 1, 0, 1, 1, 0)]


@pytest.mark.parametrize("field", ["points", "leq", "opens", "min_opens"])
def test_strings_that_cannot_be_utf8_are_input_errors(field):
    bad = "\ud800"
    documents = {
        "points": {"points": [bad, "b"], "leq": []},
        "leq": {"points": ["a", "b"], "leq": [["b", bad]]},
        "opens": {"points": ["a"], "opens": [[], ["a"], [bad]]},
        "min_opens": {"points": ["a"], "min_opens": {"a": ["a", bad]}},
    }
    with pytest.raises(SpaceFormatError, match="cannot be encoded as UTF-8"):
        space_from_dict(documents[field])
