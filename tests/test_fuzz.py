"""Tests for the differential kernel fuzzer (repro.devtools.fuzz).

The fuzzer guards the exactness of the in-memory and store mining paths
against the brute-force oracle, so these tests pin three properties: a clean tree produces zero divergences over a CI
budget, the whole run is deterministic in its seed, and — the part that
makes the first property meaningful — every injected kernel bug is
caught (the alarm rings).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.counting import brute_force_frequent
from repro.devtools import fuzz as fuzz_mod
from repro.devtools.fuzz import (
    FuzzCase,
    brute_force_patterns,
    fuzz,
    generate_series,
    mutation_check,
    random_case,
    run_case,
)


class TestCleanRun:
    def test_no_divergences_over_ci_budget(self):
        report = fuzz(150, seed=10)
        assert report.ok, [d.describe() for d in report.divergences]
        assert report.executed == 150
        # Coverage guidance actually distinguishes shapes.
        assert report.signatures > 20

    def test_deterministic_in_seed(self):
        first = fuzz(40, seed=3)
        second = fuzz(40, seed=3)
        assert first.to_json() == second.to_json()

    def test_case_generation_deterministic(self):
        case = random_case(random.Random(5))
        assert generate_series(case).slots == generate_series(case).slots

    def test_report_json_shape(self):
        payload = fuzz(10, seed=1).to_json()
        assert set(payload) == {
            "executed", "signatures", "corpus_size", "ok", "divergences",
        }


class TestOracle:
    def test_brute_force_matches_core_oracle(self):
        for seed in range(4):
            case = random_case(random.Random(seed))
            series = generate_series(case)
            if not len(list(series.segments(case.period))):
                continue
            ours = brute_force_patterns(series, case.period, 0.5)
            if ours is None:
                continue
            reference = {
                frozenset(p.letters): c
                for p, c in brute_force_frequent(
                    series, case.period, 0.5
                ).items()
            }
            assert ours == reference

    def test_run_case_flags_nothing_on_clean_kernels(self):
        case = FuzzCase(
            seed=21, period=3, num_segments=20, alphabet=5,
            planted=2, planting=0.9, noise=1, min_conf=0.5,
        )
        divergences, signature = run_case(case)
        assert divergences == []
        assert signature[0] == 3  # the period is part of coverage

    def test_run_case_covers_packed_and_wide_vocabularies(self):
        # 90 features over period 3 is far past the 64-letter column; 5
        # features is well inside it.  Both must run clean, and the
        # coverage signature must tell them apart.
        shapes = {}
        for alphabet in (5, 90):
            case = FuzzCase(
                seed=8, period=3, num_segments=25, alphabet=alphabet,
                planted=2, planting=0.9, noise=2, min_conf=0.5,
            )
            divergences, signature = run_case(case)
            assert divergences == [], [d.describe() for d in divergences]
            shapes[alphabet] = signature[1]
        assert shapes == {5: False, 90: True}


class TestMutationCheck:
    def test_all_injected_bugs_caught(self):
        caught = mutation_check(budget=30, seed=4)
        assert len(caught) == 11
        assert all(caught.values()), caught

    @pytest.mark.parametrize(
        "name",
        [
            "off-by-one-column-letter-count",
            "off-by-one-column-position",
            "off-by-one-single-rank",
            "strict-feature-floor",
            "over-subtracted-tail",
        ],
    )
    def test_column_kernel_bug_caught_by_column_and_shared_stages(self, name):
        # Every in-memory miner reads the slot column, so a bug in its
        # kernels surfaces in the single-period, shared and column stages
        # alike, and never in the store primitives, which do not read it.
        owner, attribute, corrupted = fuzz_mod._mutation_targets()[name]
        pristine = getattr(owner, attribute)
        setattr(owner, attribute, corrupted)
        try:
            report = fuzz(25, seed=6)
        finally:
            setattr(owner, attribute, pristine)
        stages = {d.stage.split("[")[0] for d in report.divergences}
        assert {"mine:brute-force-oracle", "mine:shared", "column:scan1"} <= stages
        assert not any(stage.startswith("store:") for stage in stages)

    def test_misgrouped_key_caught_by_scan2(self):
        # The grouping behind scan 2's (offset, slot) groups: a key put in
        # its neighbour's group gives a segment the wrong slot's letters.
        owner, attribute, corrupted = fuzz_mod._mutation_targets()["misgrouped-key"]
        pristine = getattr(owner, attribute)
        setattr(owner, attribute, corrupted)
        try:
            report = fuzz(25, seed=6)
        finally:
            setattr(owner, attribute, pristine)
        assert "column:scan2" in {d.stage for d in report.divergences}

    def test_short_restored_letter_count_caught_by_stream_restore(self):
        # Only a restored stream window derives its letter counts from
        # signature bits; no batch stage does.
        owner, attribute, corrupted = fuzz_mod._mutation_targets()[
            "short-restored-letter-count"
        ]
        pristine = getattr(owner, attribute)
        setattr(owner, attribute, corrupted)
        try:
            report = fuzz(25, seed=6)
        finally:
            setattr(owner, attribute, pristine)
        assert {d.stage for d in report.divergences} == {"stream:restore"}

    def test_mutations_are_restored_after_check(self):
        before = {
            (owner, attribute): getattr(owner, attribute)
            for owner, attribute, _ in fuzz_mod._mutation_targets().values()
        }
        mutation_check(budget=5, seed=0)
        for (owner, attribute), attr in before.items():
            assert getattr(owner, attribute) is attr

    def test_single_injected_bug_produces_divergence(self):
        original = fuzz_mod._mutation_targets  # sanity on one target
        targets = original()
        owner, attribute, corrupted = targets["dropped-distinct-row"]
        pristine = getattr(owner, attribute)
        setattr(owner, attribute, corrupted)
        try:
            report = fuzz(25, seed=6)
        finally:
            setattr(owner, attribute, pristine)
        assert not report.ok
        stages = Counter(d.stage for d in report.divergences)
        assert stages  # at least one stage noticed


class TestBudgetShape:
    @pytest.mark.parametrize("budget", (1, 7))
    def test_budget_respected(self, budget):
        assert fuzz(budget, seed=2).executed == budget
