"""Tests of the benchmark itself: generators, oracle, traced run, digest.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import oracle
import run
import tracing
import workloads

SEEDS = (1, 2)


def documents(workload, seed):
    return [(op.input_id, op.args, op.document) for op in workloads.WORKLOADS[workload](seed)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    assert documents(workload, 1) == documents(workload, 1)
    assert documents(workload, 1) != documents(workload, 2)


def test_corpus_is_the_acceptance_corpus(fs):
    from finsplice.fixtures import random_corpus

    program = random_corpus(workloads.CORPUS_SIZE, workloads.CORPUS_MAX_POINTS, workloads.CORPUS_SEED)
    mine = workloads.corpus_spaces()
    assert [s.points for s in mine] == [s.points for s in program]
    assert [tuple(sorted(tuple(o) for o in s.opens())) for s in mine] == [s.opens for s in program]


@pytest.mark.parametrize("name", sorted(workloads.BASES))
def test_bases_are_the_fixtures(fs, name):
    from finsplice.fixtures import FIXTURES

    space = workloads.make_space(name, *workloads.BASES[name])
    assert tuple(sorted(tuple(o) for o in space.opens())) == FIXTURES[name].opens


@pytest.mark.parametrize("workload", ["layered", "blowup"])
@pytest.mark.parametrize("seed", SEEDS)
def test_heavy_inputs_are_not_t0(fs, workload, seed):
    ops = workloads.WORKLOADS[workload](seed)
    ladder = workloads.LAYERED_LADDER if workload == "layered" else workloads.BLOWUP_LADDER
    assert len(ops) == len(ladder)
    for op in ops:
        preorder = fs.spaces.preorder_from_relation(op.document["points"], op.document["leq"])
        assert not fs.orders.is_poset(preorder), op.input_id
        assert not oracle.expect(op.space).t0, op.input_id


def test_sizes_do_not_depend_on_the_seed():
    for workload in ("layered", "blowup"):
        sizes = [
            sorted((op.input_id, oracle.expect(op.space).sizes()["ambient"]) for op in workloads.WORKLOADS[workload](seed))
            for seed in SEEDS
        ]
        assert sizes[0] == sizes[1]


def traced_sample():
    corpus = workloads.corpus(1)[:60]
    layered = [op for op in workloads.layered(1) if op.input_id.startswith("layered-5x2x1")]
    blowup = [op for op in workloads.blowup(1) if len(op.space.points) == 16]
    assert len(layered) == 1 and len(blowup) == 1
    return corpus + layered + blowup


def test_traced_run_equals_cli_report_and_restores_the_program(fs, tmp_path):
    instrumentation = tracing.Instrumentation(fs)
    bindings = instrumentation.bindings()
    originals = [(owner, attr, vars(owner).get(attr)) for owner, attr, *_ in bindings]
    for i, op in enumerate(traced_sample()):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(op.document), encoding="utf-8")
        argv = op.argv(str(path))
        report, failure, _ = run.call_cli(fs.cli.main, argv)
        tracer = instrumentation.tracer = tracing.Tracer()
        with instrumentation.instrumented():
            traced, traced_failure, _ = run.call_cli(fs.cli.main, argv)
        assert (traced, traced_failure) == (report, failure), op.input_id
        assert tracer.spans and tracer.spans[0][0] == "cli"
    assert instrumentation.missing == []
    assert [(owner, attr, vars(owner).get(attr)) for owner, attr, *_ in bindings] == originals


def test_traced_run_sees_the_program_calls(fs, tmp_path):
    op = next(op for op in workloads.layered(1) if op.input_id.startswith("layered-5x2x1"))
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op.document), encoding="utf-8")
    instrumentation = tracing.Instrumentation(fs)
    tracer = instrumentation.tracer = tracing.Tracer()
    with instrumentation.instrumented():
        run.call_cli(fs.cli.main, op.argv(str(path)))
    calls = Counter(name for name, *_ in tracer.spans)
    assert calls["complexes.order_complex"] == 3
    assert calls["complexes.chain_complex"] == 3
    assert calls["orders.strictify"] == tracer.counts["orders.strictify_calls"] > 0
    assert calls["matrices.mul"] == tracer.counts["matrices.mul_calls"] > 0
    assert calls["homology.snf"] == tracer.counts["homology.snf_calls"] > 0
    metrics = tracer.metrics()
    for span, metric in tracing.TIME_SPANS.items():
        if span not in ("spaces.from_min_opens", "homology.groups"):
            assert metrics[metric] > 0, metric


def test_tracer_self_times_subtract_children():
    tracer = tracing.Tracer()
    with tracer.span("cli"):
        with tracer.span("io.load"):
            pass
    (_, _, s0, e0), (_, _, s1, e1) = tracer.spans
    times = tracer.self_times()
    assert times["cli"] == pytest.approx((e0 - s0) - (e1 - s1))
    assert times["io.load"] == pytest.approx(e1 - s1)


def test_oracle_accepts_cli_reports_and_rejects_wrong_ones(fs, tmp_path):
    checked = 0
    for i, op in enumerate(workloads.corpus(2)[:80]):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(op.document), encoding="utf-8")
        report, failure, _ = run.call_cli(fs.cli.main, op.argv(str(path)))
        if failure is not None:
            continue
        exp = oracle.expect(op.space)
        assert oracle.check(op.args, report, exp) is None, op.input_id
        tampered = json.loads(report)
        if tampered.get("groups"):
            tampered["groups"][-1]["rank"] += 1
        else:
            tampered["complex_sizes"]["ambient"].append(1)
        assert oracle.check(op.args, json.dumps(tampered).encode(), exp) is not None, op.input_id
        checked += 1
    assert checked > 40


def test_oracle_ranks_match_rational_rank(fs):
    from finsplice.homology import rational_rank

    compared = 0
    for space in workloads.corpus_spaces()[:150]:
        program = fs.io.space_from_dict({"points": list(space.points), "leq": [list(p) for p in space.relation]})
        try:
            data = fs.pipeline.build_pipeline(program)
        except ValueError:
            continue
        exp = oracle.expect(space)
        for name, chain in (("poset", data.poset_chain), ("ambient", data.ambient_chain), ("relative", data.relative_chain)):
            assert exp.complexes[name].ranks == tuple(rational_rank(m) for m in chain.maps), (space.name, name)
            compared += 1
    assert compared > 200


def test_canary(fs, tmp_path):
    space = workloads.make_space("canary", *workloads.BASES["PSEUDO_S1_DUP"])
    path = tmp_path / "canary.json"
    path.write_text(json.dumps(workloads.document(space, "min_opens", random.Random(0))))
    report, failure, _ = run.call_cli(fs.cli.main, [oracle.CANARY_ARGS[0], "--input", str(path), *oracle.CANARY_ARGS[1:]])
    assert failure is None and oracle.check_canary(report)
    assert not oracle.check_canary(report.replace(b'"rank": 1', b'"rank": 2'))


def test_tail_quantile_keeps_ten_samples_beyond():
    assert run.tail_quantile(1000) == 0.9
    assert run.tail_quantile(40) == 0.75
    assert run.tail_quantile(12) == 0.5


def bench(*args, env=None, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


def test_digest_does_not_depend_on_hash_seed():
    digests = set()
    for hash_seed in ("0", "4242"):
        proc = bench("--workload", "corpus", "--seed", "3", "--seconds", "0", "--trace", "0",
                     env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        assert proc.returncode == 0, proc.stderr
        details, result = [json.loads(line) for line in proc.stdout.strip().splitlines()[-2:]]
        assert result["correct"] and details["passes"] == 1
        assert result["failed"] == sum(f["count"] for f in details["failures"]) > 0
        digests.add(details["digest_sha256"])
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
