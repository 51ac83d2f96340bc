"""Acceptance suite: one test and one printed pass/fail line per criterion.

Exact assertions throughout; the corpus is 500 reproducible random spaces
on at most 7 points (see conftest).  Criterion 5's second clause (every
input that is already a poset must match the claimed table at all degrees)
is asserted as stated and is expected to fail: the four-point circle model
is itself a poset and its direct degree-1 group is Z while the claimed
table gives 0 there, exactly the same disagreement the first clause pins
down for its doubled variant.  The failure is intentional and documented.
"""

import itertools
import time

import pytest

from finsplice import (
    FIXTURES,
    GroupPresentation,
    IntMatrix,
    all_groups,
    build_pipeline,
    chain_complex,
    cochain,
    compare,
    decompose,
    is_poset,
    order_complex,
    rational_rank,
    specialisation_preorder,
    splice,
    spliced_cohomology,
    theorem_claimed_groups,
)
from oracles import all_match, is_leq, is_subcomplex, limit_check, smith_transforms

Z = GroupPresentation(1)
Z2 = GroupPresentation(2)
TRIVIAL = GroupPresentation()


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {status}{suffix}")


def test_criterion_1_decomposition(corpus):
    spaces, build_seconds = corpus
    start = time.perf_counter()
    failures = []
    for space in spaces:
        preorder = specialisation_preorder(space)
        dec = decompose(preorder)
        if sorted(dec.representatives + dec.complementary) != list(preorder.points):
            failures.append("partition")
        if any(
            is_leq(preorder, r, s) and is_leq(preorder, s, r)
            for r, s in itertools.combinations(dec.representatives, 2)
        ):
            failures.append("antisymmetry")
        for cls in dec.classes:
            if len(cls) >= 3:
                leftover = [p for p in cls if p in set(dec.complementary)]
                if len(leftover) < 2:
                    failures.append("class leftovers")
                    continue
                x, y = leftover[:2]
                if not (x != y and is_leq(preorder, x, y) and is_leq(preorder, y, x)):
                    failures.append("complementary violation missing")
    elapsed = build_seconds + (time.perf_counter() - start)
    ok = not failures and elapsed < 10.0
    report(1, ok, f"500 spaces in {elapsed:.2f}s")
    assert not failures
    assert elapsed < 10.0


def test_criterion_2_subcomplex(pipelines):
    failures = []
    for data in pipelines:
        if not is_subcomplex(data.sub_complex, data.ambient_complex):
            failures.append(data.space)
        if data.poset_complex != data.sub_complex:
            failures.append(data.space)
    report(2, not failures, "inclusion and relation coincidence over 500 spaces")
    assert not failures


def test_criterion_3_homology_oracles():
    start = time.perf_counter()

    circle = chain_complex(
        order_complex(specialisation_preorder(FIXTURES["PSEUDO_S1"]), relation="strict")
    )
    dup = build_pipeline(FIXTURES["PSEUDO_S1_DUP"])

    checks = [
        all_groups(circle) == (Z, Z),
        all_groups(dup.ambient_chain) == (Z, Z2),
        all_groups(dup.relative_cochain) == (TRIVIAL, Z),
    ]
    # Independent rational rank-nullity route for every degree involved.
    for cc in (circle, dup.ambient_chain, dup.relative_cochain):
        for k in range(cc.top_degree + 1):
            free_rank = cc.dim(k) - rational_rank(cc.map_between(k - 1)) - rational_rank(cc.map_between(k))
            checks.append(cc.smith.group(k).rank == free_rank)
    # Transform exactness on every differential involved.
    for cc in (circle, dup.ambient_chain, dup.relative_cochain):
        for m in cc.maps:
            diagonal, left, right = smith_transforms(m)
            smith = IntMatrix.zeros(m.rows, m.cols).to_lists()
            for i, d in enumerate(diagonal):
                smith[i][i] = d
            checks.append(left.mul(m).mul(right) == IntMatrix.from_rows(smith, cols=m.cols))

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    report(3, ok, f"{elapsed * 1000:.0f}ms")
    assert all(checks)
    assert elapsed < 1.0


def test_criterion_4_spliced_validity(pipelines):
    failures = 0
    for data in pipelines[:200]:
        for length in (1, 2, 3, 4):
            assembled = splice(data.sources, length).assembled
            for k in range(13):
                through = assembled.map_between(k).mul(assembled.map_between(k + 1))
                if not through.is_zero():
                    failures += 1
    report(4, failures == 0, "200 spaces, lengths 1..4, degrees 0..12")
    assert failures == 0


def test_criterion_5_theorem_harness(pipelines):
    dup = build_pipeline(FIXTURES["PSEUDO_S1_DUP"])
    direct = spliced_cohomology(splice(dup.sources, 3), 5)
    claimed = theorem_claimed_groups(*dup.sources, p_max=0)
    comparison = compare(direct, claimed, range(6))
    verdicts = {row.degree: row.verdict for row in comparison.rows}
    clause1 = (
        direct == (Z, Z, TRIVIAL, TRIVIAL, Z, TRIVIAL)
        and verdicts == {0: "match", 1: "mismatch", 2: "match", 3: "match", 4: "mismatch", 5: "match"}
        and all(row.claimed is not None for row in comparison.rows)
    )

    poset_failures = []
    poset_inputs = [
        data for data in pipelines if data.t0
    ] + [build_pipeline(FIXTURES["SIERP"]), build_pipeline(FIXTURES["PSEUDO_S1"])]
    for data in poset_inputs:
        direct_p = spliced_cohomology(splice(data.sources, 3), 5)
        claimed_p = theorem_claimed_groups(*data.sources, p_max=0)
        report_p = compare(direct_p, claimed_p, range(6))
        if not all_match(report_p):
            rows = [
                (row.degree, str(row.direct), str(row.claimed))
                for row in report_p.rows
                if row.verdict != "match"
            ]
            poset_failures.append((tuple(data.space.points), rows))
    clause2 = not poset_failures

    detail = "clause 1 (PSEUDO_S1_DUP exact values) " + ("ok" if clause1 else "failed")
    if poset_failures:
        sample = next(
            (entry for entry in poset_failures if entry[0] == ("a", "b", "c", "d")),
            poset_failures[0],
        )
        detail += (
            f"; clause 2 failed on {len(poset_failures)} poset input(s), e.g. points "
            f"{sample[0]} with (degree, direct, claimed) = {sample[1]}"
        )
    else:
        detail += "; clause 2 ok"
    report(5, clause1 and clause2, detail)
    assert clause1
    assert clause2, (
        "already-poset inputs do not all match; the circle model is a poset whose "
        f"direct degree-1 group is Z against a claimed 0: {poset_failures[:3]}"
    )


def test_criterion_6_limit_statement(pipelines):
    failures = []
    for data in pipelines:
        length = max(data.poset_cochain.top_degree + 1, 1)
        if not limit_check(data.sources, length):
            failures.append(data.space.points)
    report(6, not failures, "both orientations over 500 spaces")
    assert not failures


def test_criterion_7_determinism_and_policy(corpus):
    import os
    import subprocess
    import sys
    from pathlib import Path

    spaces, _ = corpus
    commands = [
        ("decompose", "--fixture", "PSEUDO_S1_DUP", "--format", "json"),
        (
            "spliced", "--fixture", "PSEUDO_S1_DUP", "--length", "3",
            "--max-degree", "5", "--verify-theorem", "--format", "json",
        ),
    ]
    byte_identical = True
    for args in commands:
        outputs = []
        for hashseed in ("1", "9999"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
            proc = subprocess.run(
                [sys.executable, "-m", "finsplice", *args],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            byte_identical = False

    policy_invariant = True
    fixture_spaces = [FIXTURES[name] for name in FIXTURES]
    for space in fixture_spaces + spaces[:100]:
        verdict_lists = []
        for policy in ("least", "greatest"):
            data = build_pipeline(space, policy=policy)
            direct = spliced_cohomology(splice(data.sources, 3), 5)
            claimed = theorem_claimed_groups(*data.sources, p_max=0)
            verdict_lists.append([r.verdict for r in compare(direct, claimed, range(6)).rows])
        if verdict_lists[0] != verdict_lists[1]:
            policy_invariant = False

    ok = byte_identical and policy_invariant
    report(7, ok, "byte-identical JSON, policy-invariant verdicts")
    assert byte_identical
    assert policy_invariant


def test_criterion_8_euler_characteristic(pipelines):
    failures = 0
    for data in pipelines:
        produced = [
            data.poset_chain,
            data.ambient_chain,
            data.relative_chain,
            data.poset_cochain,
            data.relative_cochain,
            splice(data.sources, 3).assembled,
        ]
        for cc in produced:
            by_dims = sum((-1) ** k * cc.dim(k) for k in range(cc.top_degree + 1))
            by_ranks = sum((-1) ** k * g.rank for k, g in enumerate(all_groups(cc)))
            if by_dims != by_ranks:
                failures += 1
    report(8, failures == 0, "all pipeline complexes over 500 spaces")
    assert failures == 0
