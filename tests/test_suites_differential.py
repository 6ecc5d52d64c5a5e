"""``suites.normalized_search`` against the list-based reference in
``seq_oracles``: the same report bytes for the real candidate zoo and
for a hand-built zoo that reaches every outcome.  ``suites._check_pairs``,
which compares integer step values, against ``fraction_check_pair``,
which compares ``Fraction``s: the same tally and violations, with every
step field a ``Fraction``.  Both sequence suites keep no generated pair
once it has been checked."""

import functools
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from comaxlab import suites
from comaxlab.classify import Membership, membership
from comaxlab.pairgen import GeneratorParams, pair_seed, random_seqfn
from comaxlab.seq_comonotone import PairRelations
from comaxlab.seqspace import constant, join, ramp
from comaxlab.suites import counterexample_suite, normalized_search, structured_family

from seq_oracles import fraction_check_pair, list_normalized_search

F = Fraction

GRIDS = {
    "0,1": (F(0), F(1)),
    "0,1/2,1": (F(0), F(1, 2), F(1)),
    "0,1/3,2/3,1": (F(0), F(1, 3), F(2, 3), F(1)),
    "0,1/4,1/2,3/4,1": (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
}

# Larger grids get shorter heads: the family grows as g^(prefix_max + 2).
REAL_ZOO_CASES = [
    (grid, seed, prefix_max)
    for grid, prefix_maxes in [
        ("0,1", (1, 2, 3)),
        ("0,1/2,1", (1, 2, 3)),
        ("0,1/3,2/3,1", (1, 2)),
        ("0,1/4,1/2,3/4,1", (1,)),
    ]
    for seed in (0, 1, 2)
    for prefix_max in prefix_maxes
]


def both(seed, samples, grid, prefix_max):
    args = dict(seed=seed, samples=samples, grid=GRIDS[grid], prefix_max=prefix_max)
    return normalized_search(**args).to_json(), list_normalized_search(**args).to_json()


@pytest.mark.parametrize("grid, seed, prefix_max", REAL_ZOO_CASES)
def test_real_zoo_matches_list_reference(grid, seed, prefix_max):
    streamed, listed = both(seed, 40, grid, prefix_max)
    assert streamed == listed


def sampled_ordered_pairs(seed, samples, prefix_max):
    """The suite's sampled ordered pairs ``(lower, upper)``, replaying its draws."""
    params = GeneratorParams(prefix_max=prefix_max)
    rng = random.Random(pair_seed(seed, samples))
    for _ in range(samples):
        f = random_seqfn(rng, params)
        yield f, join(f, random_seqfn(rng, params))


def ordered_pairs(grid, seed, samples, prefix_max):
    """The suite's ordered family pairs, then its sampled ordered pairs."""
    family = structured_family(grid, prefix_max)
    relations = PairRelations(family)
    for i, j in combinations_with_replacement(range(len(family)), 2):
        order = relations.order(i, j)
        if order:
            yield (family[i], family[j]) if order < 0 else (family[j], family[i])
    yield from sampled_ordered_pairs(seed, samples, prefix_max)


def first_sampled_upper(seed, samples, prefix_max):
    """The upper function of the first sampled ordered pair whose lower
    function has a positive limit."""
    for f, g in sampled_ordered_pairs(seed, samples, prefix_max):
        if f.limit > 0:
            return g
    raise AssertionError("no sampled pair with a positive lower limit")


def hand_built_zoo(seed, samples, prefix_max):
    """Candidates that reach all four outcomes.

    ``constant-only`` is 0 on constants and refuses any other function,
    so the screen must reject it on the probe constants alone.
    ``new-iso`` is the limit, except that a function whose isolated value
    no family member has is sent to that value: joins of family members
    keep their isolated values, so it can only break maxitivity on
    generated pairs.  ``limit-but-one`` is the limit, except 0 at one
    sampled upper function, so its only monotonicity break is among the
    sampled pairs.
    """
    hidden = first_sampled_upper(seed, samples, prefix_max)

    def constant_only(f):
        if f != constant(f.iso):
            raise AssertionError(f"a rejected candidate was evaluated on {f.to_json()}")
        return F(0)

    def zoo(grid):
        family_isos = {f.iso for f in structured_family(grid, prefix_max)}
        return [
            ("constant-half", lambda f: F(1, 2)),
            ("constant-only", constant_only),
            ("mean-iso-limit", lambda f: (f.iso + f.limit) / 2),
            ("new-iso", lambda f: f.limit if f.iso in family_isos else f.iso),
            ("limit-but-one", lambda f: F(0) if f == hidden else f.limit),
            ("eval-limit", lambda f: f.limit),
        ]

    return zoo


@pytest.mark.parametrize("grid", ["0,1/2,1", "0,1/3,2/3,1"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hand_built_zoo_matches_list_reference(grid, seed, monkeypatch):
    samples, prefix_max = 60, 1
    zoo = hand_built_zoo(seed, samples, prefix_max)
    monkeypatch.setattr(suites, "_candidate_zoo", zoo)
    streamed, listed = both(seed, samples, grid, prefix_max)
    assert streamed == listed

    report = normalized_search(seed, samples, GRIDS[grid], prefix_max)
    outcomes = {w["candidate"]: w for w in report.witnesses}
    assert outcomes["constant-half"]["outcome"] == "rejected_not_normalized"
    assert outcomes["constant-only"]["outcome"] == "rejected_not_normalized"
    assert outcomes["mean-iso-limit"]["outcome"] == "rejected_not_maxitive"
    assert outcomes["eval-limit"]["outcome"] == "monotone_at_this_scale"
    assert report.status == "finding"

    family_json = [f.to_json() for f in structured_family(GRIDS[grid], prefix_max)]
    new_iso = outcomes["new-iso"]
    assert new_iso["outcome"] == "rejected_not_maxitive"
    assert new_iso["f"] not in family_json or new_iso["g"] not in family_json
    # new-iso breaks monotonicity too: maxitivity must win.
    new_iso_fn = dict(zoo(GRIDS[grid]))["new-iso"]
    assert any(
        new_iso_fn(lower) > new_iso_fn(upper)
        for lower, upper in ordered_pairs(GRIDS[grid], seed, samples, prefix_max)
    )
    found = outcomes["limit-but-one"]
    assert found["outcome"] == "candidate_found"
    assert found["upper"] == first_sampled_upper(seed, samples, prefix_max).to_json()
    assert found["upper"] not in family_json


def test_generated_pairs_are_freed_once_checked(monkeypatch):
    # Both sequence suites draw their generated pairs through the one walk.
    real_generate_pair = suites.generate_pair
    for name, suite in [
        ("normalized_search", normalized_search),
        ("counterexample_suite", functools.partial(counterexample_suite, jobs=1)),
    ]:
        refs = []
        held = []

        def tracking_generate_pair(*args):
            if len(refs) >= 2:
                held.append(any(ref() is not None for ref in refs[-2]))
            pair = real_generate_pair(*args)
            refs.append([weakref.ref(fn) for fn in pair])
            return pair

        monkeypatch.setattr(suites, "generate_pair", tracking_generate_pair)
        suite(seed=0, samples=50, grid=GRIDS["0,1/2,1"], prefix_max=1)
        assert len(refs) == 50, name
        assert not any(held), f"{name}: pairs from two calls back still held at {sum(held)} calls"


STEP_FIELDS = ("step_join", "max_steps", "step_lower", "step_upper")


def family_check_pairs():
    """Every comonotone pair of the thirds family at prefix length 2."""
    grid, prefix_max = GRIDS["0,1/3,2/3,1"], 2
    table, pairs = suites._family_table(grid, prefix_max, 10**7, membership)
    return list(suites.comonotone_pairs(membership, table, 0, pairs))


def generated_check_pairs():
    """The first 2,000 generated pairs at seed 0."""
    params = GeneratorParams(prefix_max=2)
    return list(suites.comonotone_pairs(membership, seed=0, first=0, last=2000, params=params))


def forged_check_pairs():
    """Every membership of f, g and the join, under every order, so both
    violation kinds occur; the sources take turns."""
    memberships = [Membership(*flags) for flags in product((True, False), repeat=3)]
    f, g = ramp(F(0)), constant(F(1, 2))
    sources = list(suites.PAIR_COUNTS)
    cases = product(memberships, memberships, memberships, (-1, 0, 1))
    return [(sources[index % len(sources)], index, f, g, mf, mg, m_join, order)
            for index, (mf, mg, m_join, order) in enumerate(cases)]


CHECK_PAIR_SETS = {
    "family": family_check_pairs,
    "generated": generated_check_pairs,
    "forged": forged_check_pairs,
}


@pytest.mark.parametrize("name", CHECK_PAIR_SETS)
def test_check_pairs_match_fraction_reference(name):
    pairs = CHECK_PAIR_SETS[name]()
    tally: Counter = Counter()
    violations: list = []
    for pair in pairs:
        fraction_check_pair(pair, tally, violations)
    result = suites._check_pairs(pairs)
    assert result["tally"] == tally
    assert result["violations"] == violations
    # An int step would still equal its Fraction and still serialize.
    for violation in result["violations"]:
        for field in STEP_FIELDS:
            if field in violation:
                assert type(violation[field]) is Fraction, (field, violation)
    kinds = Counter(v["kind"] for v in violations)
    if name == "forged":
        assert len(pairs) == 8 * 8 * 8 * 3
        assert kinds["maxitivity"] and kinds["restricted_monotonicity"]
    else:
        assert not violations
    if name == "family":
        assert len(pairs) == tally["family_comonotone_pairs"] == 11_179
