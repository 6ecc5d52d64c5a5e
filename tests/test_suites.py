import os
from collections import Counter
from fractions import Fraction

import pytest

from comaxlab import suites
from comaxlab.classify import membership
from comaxlab.pairgen import GeneratorParams
from comaxlab.report import BudgetExceededError
from comaxlab.seq_comonotone import PairRelations
from comaxlab.seqspace import constant, join, ramp
from comaxlab.suites import (
    ALL_BRANCHES,
    BRANCH_PEAK_ONE,
    branch_tag,
    comonotone_pairs,
    counterexample_suite,
    family_size,
    named_witness_pairs,
    normalized_search,
    structured_family,
)

from seq_oracles import comonotone

F = Fraction

GRID3 = (F(0), F(1, 2), F(1))


def test_named_pairs_cover_all_branches_and_are_comonotone():
    tags = set()
    for tag, f, g in named_witness_pairs():
        assert comonotone(f, g), tag
        assert branch_tag(membership(f), membership(g)) == tag
        tags.add(tag)
    assert tags == set(ALL_BRANCHES)


def test_branch_tag_of_full_peak_pair():
    f, g = ramp(F(1, 2)), constant(F(0))
    assert branch_tag(membership(f), membership(g)) == BRANCH_PEAK_ONE
    # The join keeps the full peak along the sequence and stays below 1 at iso.
    assert membership(join(f, g)).in_zero_class is False


def test_structured_family_contains_key_functions():
    family = structured_family(GRID3, 2)
    assert ramp(F(0)) in family
    assert ramp(F(1)) in family
    assert constant(F(0)) in family
    assert constant(F(1, 2)) in family
    assert len(family) == len(set(family))
    # deterministic ordering
    assert family == structured_family(GRID3, 2)


def test_an_ordered_comonotone_pair_joins_to_its_upper_member():
    # The walk's join value against the literal join: with the identity
    # for values, every yielded join value must be join(f, g), though an
    # ordered pair's is taken from its upper member.
    family = structured_family((F(0), F(1, 3), F(2, 3), F(1)), 2)
    table = (family, PairRelations(family), family)
    total = len(family) * (len(family) + 1) // 2
    pairs = comonotone_pairs(lambda f: f, table, 0, total, 0, 0, 2_000, GeneratorParams())
    seen, sources = set(), Counter()
    for source, _, f, g, _, _, v_join, order in pairs:
        assert v_join == join(f, g), (source, f, g)
        if not order:
            assert v_join not in (f, g), (source, f, g)
        seen.add((source, order))
        sources[source] += 1
    assert seen == {(source, order) for source in ("family", "generated") for order in (-1, 0, 1)}
    assert sources == {"family": 11_179, "generated": 2_000}


def test_counterexample_suite_passes_and_hits_every_branch():
    report = counterexample_suite(seed=3, samples=150, grid=GRID3, prefix_max=2)
    assert report.status == "pass"
    assert report.counts["maxitivity_violations"] == 0
    assert report.counts["ordered_violations"] == 0
    for branch in ALL_BRANCHES:
        assert report.counts[f"branch_{branch}"] >= 1, branch
    assert report.counts["generated_pairs"] == 150
    assert report.counts["fact_ramp0_below_ramp1"] == 1
    assert report.counts["fact_step_of_ramp1_is_zero"] == 1
    assert report.counts["fact_step_of_ramp0_is_one"] == 1


def test_counterexample_suite_deterministic_across_jobs():
    sequential = counterexample_suite(seed=5, samples=64, grid=GRID3, prefix_max=1).to_dict()
    for jobs in (2, 3, 5):
        report = counterexample_suite(seed=5, samples=64, grid=GRID3, prefix_max=1, jobs=jobs)
        assert report.to_dict() == sequential, jobs


def test_counterexample_suite_merges_many_shards(monkeypatch, pool_sizes):
    # The inline fan-out merges one shard per job on a host of any size.
    sequential = counterexample_suite(seed=5, samples=64, grid=GRID3, prefix_max=1).to_dict()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(200)), raising=False)
    for jobs in (3, 5, 200):
        report = counterexample_suite(seed=5, samples=64, grid=GRID3, prefix_max=1, jobs=jobs)
        assert report.to_dict() == sequential, jobs
    assert pool_sizes == [3, 5, 200]  # one fan-out per run


def test_jobs_above_the_cpus_build_the_family_once_per_worker(monkeypatch, pool_sizes):
    # Jobs beyond the usable CPUs add no shard, so each worker builds the family once.
    sequential = counterexample_suite(samples=10, jobs=1).to_json()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    built = []
    real = suites.structured_family
    monkeypatch.setattr(suites, "structured_family", lambda *a: built.append(a) or real(*a))
    assert counterexample_suite(samples=10, jobs=200).to_json() == sequential
    assert 1 <= len(built) <= 2
    assert pool_sizes == [2]


def test_counterexample_suite_seed_changes_nothing_about_verdict():
    a = counterexample_suite(seed=11, samples=40, grid=GRID3, prefix_max=1)
    b = counterexample_suite(seed=12, samples=40, grid=GRID3, prefix_max=1)
    assert a.status == b.status == "pass"


def test_normalized_search_is_inconclusive_and_explains_rejections():
    report = normalized_search(seed=0, samples=60, grid=GRID3, prefix_max=1)
    assert report.status == "inconclusive"
    assert report.counts["candidates_found"] == 0
    outcomes = {w["candidate"]: w["outcome"] for w in report.witnesses}
    assert outcomes["step-functional"] == "rejected_not_normalized"
    assert outcomes["eval-isolated"] == "monotone_at_this_scale"
    assert outcomes["eval-limit"] == "monotone_at_this_scale"
    assert any(v == "rejected_not_normalized" for k, v in outcomes.items() if "step" in k)


def test_normalized_search_rejects_step_functional_on_a_constant():
    report = normalized_search(seed=0, samples=20, grid=GRID3, prefix_max=1)
    record = next(w for w in report.witnesses if w["candidate"] == "step-functional")
    c = Fraction(record["constant"])
    assert 0 < c <= 1
    assert Fraction(record["value"]) == 1


@pytest.mark.parametrize(
    "grid, prefix_max",
    [
        (GRID3, 0),
        (GRID3, 1),
        (GRID3, 2),
        (GRID3, 3),
        ((F(0), F(1)), 2),
        ((F(0), F(1, 3), F(2, 3), F(1)), 2),
        ((F(0), F(1, 4), F(1, 2), F(3, 4), F(1)), 2),
        ((F(0), F(1, 4), F(1, 2), F(1)), 1),
    ],
)
def test_family_size_matches_built_family(grid, prefix_max):
    assert family_size(grid, prefix_max) == len(structured_family(grid, prefix_max))


@pytest.mark.parametrize("suite", [counterexample_suite, normalized_search])
def test_sequence_suites_refuse_families_over_budget(suite):
    size = family_size(GRID3, 6)
    with pytest.raises(BudgetExceededError) as refused:
        suite(samples=1, grid=GRID3, prefix_max=6)
    assert size * (size + 1) // 2 == 21_651_490
    assert refused.value.counts == {"required": 21_651_490, "budget": 10**7}


@pytest.mark.parametrize("suite", [counterexample_suite, normalized_search])
def test_sequence_suites_refuse_families_past_the_digit_cap(suite):
    # About 3 ** 5002 functions, so about 10 ** 4773 pairs.
    # 3 ** (P + 2) constant-tail members saturate at 10 ** 4300; the few others add on.
    others = family_size(GRID3, 5000) - 3**5002
    assert 0 < others < 100
    assert family_size(GRID3, 10**12) == 10**4300 + others
    with pytest.raises(BudgetExceededError) as refused:
        suite(samples=1, grid=GRID3, prefix_max=5000)
    assert refused.value.counts == {"required_digits_over": 4300, "budget": 10**7}
