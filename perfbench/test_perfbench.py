"""Tests of the benchmark itself: its output checks count failures, its
tracer's arithmetic holds, and its counts repeat exactly.

Run from the repository root:  python3 -m pytest perfbench
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import addlaws  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from addlaws.classify import ClassifiedSolution  # noqa: E402


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    return workloads.set_up(tmp_path_factory.mktemp("out"))


def one_pass(cls, bench, seed=1, **kw):
    ledger = workloads.Ledger()
    workload = cls(bench, random.Random(seed), ledger, **kw)
    workload.run_pass()
    return workload, ledger


def test_clean_passes_have_no_failures(bench):
    for cls, kw in ((workloads.Roundtrip, {"rounds": 1}),
                    (workloads.Coverage, {"carriers": workloads.SMALL})):
        _, ledger = one_pass(cls, bench, **kw)
        assert ledger.attempted > 0
        assert ledger.failed == 0, ledger.notes


def test_roundtrip_visits_every_menu_and_perturbs_one_in_eight(bench):
    assert len(bench.menus) == 115
    workload, ledger = one_pass(workloads.Roundtrip, bench, rounds=2)
    assert ledger.attempted == len(workload.batch) == 2 * len(bench.menus)
    assert sorted(item.menu for item in workload.batch) == sorted(
        2 * list(range(len(bench.menus))))
    assert sum(item.perturbed for item in workload.batch) == (
        2 * len(bench.menus) // workloads.PERTURB_EVERY)
    assert len(workload.latencies()) == len(workload.batch)


def test_roundtrip_passes_replay_the_same_items(bench, monkeypatch):
    real = workloads.classify.classify
    seen = []

    def record(equation, f, g, S, **kwargs):
        seen.append((equation, S.name, f.values.tobytes(),
                     g.values.tobytes()))
        return real(equation, f, g, S, **kwargs)

    monkeypatch.setattr(workloads.classify, "classify", record)
    ledger = workloads.Ledger()
    workload = workloads.Roundtrip(bench, random.Random(5), ledger, rounds=1)
    workload.run_pass()
    first = list(workload.best)
    workload.run_pass()
    n = len(workload.batch)
    assert len(seen) == 2 * n and seen[:n] == seen[n:]
    assert ledger.attempted == 2 * n and ledger.failed == 0
    assert all(b <= a for a, b in zip(first, workload.best))


def test_corrupted_case_label_is_a_failure(bench, monkeypatch):
    real = workloads.classify.classify

    def mislabel(*args, **kwargs):
        hit = real(*args, **kwargs)
        if isinstance(hit, ClassifiedSolution):
            other = 2 if hit.case.case == 1 else 1
            hit = dataclasses.replace(
                hit, case=workloads.families.CaseId(hit.case.equation, other))
        return hit

    monkeypatch.setattr(workloads.classify, "classify", mislabel)
    workload, ledger = one_pass(workloads.Roundtrip, bench, rounds=1)
    perturbed = sum(item.perturbed for item in workload.batch)
    assert ledger.failed >= len(workload.batch) - perturbed
    assert any("classified as" in note for note in ledger.notes)


def test_changed_digest_is_a_failure(bench, monkeypatch):
    expected = dict(workloads.EXPECTED["coverage"], Z2="0" * 64)
    monkeypatch.setitem(workloads.EXPECTED, "coverage", expected)
    _, ledger = one_pass(workloads.Coverage, bench,
                         carriers=("Z1", "Z2", "Z3"))
    assert ledger.attempted == 3 * workloads.SMALL_ROUNDS
    assert ledger.failed == workloads.SMALL_ROUNDS
    assert set(ledger.notes) == {"oracle Z2: exit 0"}


def test_wrongly_classified_perturbed_pair_is_a_failure(bench, monkeypatch):
    real = workloads.classify.classify
    wrong = []

    def accept_anything(equation, f, g, S, **kwargs):
        try:
            return real(equation, f, g, S, **kwargs)
        except workloads.classify.NotASolutionError:
            wrong.append(equation)
            case = workloads.families.CaseId(equation, 1)
            return ClassifiedSolution(case, workloads.families.CaseParams(),
                                      0.0)

    monkeypatch.setattr(workloads.classify, "classify", accept_anything)
    _, ledger = one_pass(workloads.Roundtrip, bench, rounds=1)
    assert wrong
    assert ledger.failed == len(wrong)
    assert all("perturbed" in note for note in ledger.notes)


def test_judge_outcomes():
    case = workloads.families.CaseId("cos-sub", 1)
    good = ClassifiedSolution(case, workloads.families.CaseParams(), 0.0)
    other = dataclasses.replace(
        good, case=workloads.families.CaseId("cos-sub", 2))
    assert workloads.judge(case, True, False, good)[0]
    assert not workloads.judge(case, True, False, other)[0]
    assert workloads.judge(case, True, True, other)[0]
    assert workloads.judge(case, False, True, None)[0]
    assert not workloads.judge(case, False, True, good)[0]
    assert not workloads.judge(case, False, False, None)[0]
    assert not workloads.judge(
        case, True, False, dataclasses.replace(good, residual=1e-6))[0]


def test_windowed_checks_and_sizes(bench):
    report1 = json.dumps({"ok": True, "window": [2, 20]})
    assert workloads._window_check(20)(report1)
    assert not workloads._window_check(22)(report1)
    assert not workloads._window_check(20)(
        json.dumps({"ok": False, "window": [2, 20]}))
    report2 = json.dumps({"ok": True, "additive": {"even[0]": {"pairs": 300}}})
    assert workloads._pairs_check(300)(report2)
    assert not workloads._pairs_check(400)(report2)
    sizes = []
    for seed in (1, 2):
        workload = workloads.Windowed(bench, random.Random(seed),
                                      workloads.Ledger())
        sizes.append(sorted((ex, args[1]) for ex, args, _ in workload.batch))
    assert sizes[0] == sizes[1] and len(sizes[0]) == 24


def test_own_residual_flags_a_perturbed_solution(bench):
    S = bench.carriers["Z2"]
    f = workloads.np.zeros(2, dtype=complex)
    g = workloads.np.ones(2, dtype=complex)
    assert workloads.residual("cos-sub", f, g, S, None) == 0.0
    g[1] += 0.5
    assert workloads.residual("cos-sub", f, g, S, None) > workloads.TOL


def test_self_time_is_span_minus_children():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = spans._wrap(leaf, "leaf", tracer)

    def outer():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    spans._wrap(outer, "outer", tracer)()
    summary = spans.Summary(tracer)
    outer_busy = summary.busy["setup"]["outer"]
    leaf_busy = summary.busy["setup"]["leaf"]
    assert summary.calls["setup"]["leaf"] == 2
    assert summary.by_parent[("outer", "leaf")] == 2
    assert summary.self_time["setup"]["outer"] == pytest.approx(
        outer_busy - leaf_busy, abs=1e-9)
    assert summary.under[("outer", "leaf")] == pytest.approx(leaf_busy)


def test_traced_counts_repeat_on_another_seed(bench):
    counts = []
    for seed in (1, 2):
        tracer = spans.Tracer()
        uninstall = spans.install(tracer, addlaws)
        try:
            one_pass(workloads.Coverage, bench, seed=seed,
                     carriers=workloads.SMALL,
                     mark=lambda item: setattr(tracer, "current_item", item))
        finally:
            uninstall()
        summary = spans.Summary(tracer)
        counts.append((dict(tracer.counters), dict(summary.calls["loop"])))
    assert counts[0] == counts[1]
    grid = counts[0][0]
    rounds = workloads.SMALL_ROUNDS
    assert grid["oracle.grid_solutions.pairs"] == (
        rounds * 5 * (81 + 6561 + 3 * 531441))
    assert counts[0][1]["oracle.grid_solutions"] == rounds * 25
    assert not hasattr(workloads.families.construct, "__wrapped__")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
