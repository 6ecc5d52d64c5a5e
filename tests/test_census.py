import hashlib
from fractions import Fraction

import pytest

from comaxlab import census
from comaxlab.census import functional_census, table_count
from comaxlab.grid import Chain, GridFn, Relations, all_functions
from comaxlab.report import BudgetExceededError

from grid_oracles import (
    enumerate_functionals,
    level_set_count,
    macmahon_box,
    oracle_census_shard,
    oracle_comonotone_maxitive,
    oracle_monotone,
)

F = Fraction

CHAIN2 = Chain((F(0), F(1)))
CHAIN3 = Chain((F(0), F(1, 2), F(1)))
CHAIN4 = Chain((F(0), F(1, 3), F(2, 3), F(1)))


def test_table_counts():
    assert table_count(CHAIN2, 2) == 16
    assert table_count(CHAIN3, 2) == 19683
    assert table_count(CHAIN3, 3) == 3**27
    # 2 ** 8192 has 2,467 digits; 3 ** 19683 has 9,392, past the cap.
    assert table_count(CHAIN2, 13) == 2**8192
    assert table_count(CHAIN3, 9) == 10**4300
    assert table_count(CHAIN2, 70) == 10**4300  # 2 ** 70 cells


def test_enumeration_is_exhaustive_and_unique():
    tables = list(enumerate_functionals(CHAIN2, 2))
    assert len(tables) == 16
    assert len({t.values for t in tables}) == 16
    f = GridFn((F(0), F(1)))
    assert tables[0](f) == F(0)


def test_enumeration_budget_refusal_with_exact_count():
    with pytest.raises(BudgetExceededError) as info:
        list(enumerate_functionals(CHAIN3, 3, budget=10**6))
    assert info.value.counts == {"required": 3**27, "budget": 10**6}


def test_census_two_point_chain():
    report = functional_census(CHAIN2, 2)
    assert report.status == "pass"
    assert report.counts["total"] == 16
    assert report.counts["maxitive_not_monotone"] == 0
    # On the two-value chain every comonotone pair is pointwise comparable,
    # so maxitivity and monotonicity coincide: 6 tables each (the monotone
    # boolean functions of two variables), and no separating witness exists.
    assert report.counts["comonotone_maxitive"] == 6
    assert report.counts["monotone"] == 6
    assert report.counts["monotone_not_maxitive"] == 0


def test_census_singleton_space():
    report = functional_census(CHAIN2, 1)
    assert report.status == "pass"
    assert report.counts["total"] == 4
    assert report.counts["maxitive_not_monotone"] == 0
    assert report.counts["monotone_not_maxitive"] == 0


def test_census_three_chain_finds_monotone_not_maxitive_witness():
    report = functional_census(CHAIN3, 2)
    assert report.status == "pass"
    assert report.counts["total"] == 19683
    assert report.counts["maxitive_not_monotone"] == 0
    # MacMahon's box formula counts monotone maps from the 3x3 grid into a
    # 3-chain as plane partitions in a 3x3x2 box: exactly 175.
    assert report.counts["monotone"] == 175
    assert report.counts["monotone_not_maxitive"] > 0
    witness = [w for w in report.witnesses if w["kind"] == "monotone_not_maxitive"]
    assert witness
    pair = witness[0]["pair"]
    assert Fraction(pair["F_join"]) != Fraction(pair["max_F"])


def test_monotone_count_matches_macmahon_oracle():
    assert macmahon_box(3, 3, 2) == 175
    assert macmahon_box(2, 2, 1) == 6  # the two-point chain case


def test_census_agrees_with_checker_path():
    # Dual route: the index-based census classification must match the
    # literal oracle loops applied to enumerated tables.  The oracles, not
    # the property checkers, since those share the census's relations.
    report = functional_census(CHAIN2, 2)
    maxitive = monotone = 0
    for table in enumerate_functionals(CHAIN2, 2):
        ok_max, _ = oracle_comonotone_maxitive(table, CHAIN2, 2)
        ok_mon, _ = oracle_monotone(table, CHAIN2, 2)
        maxitive += ok_max
        monotone += ok_mon
        assert ok_max == (ok_max and ok_mon), "maxitive table must be monotone here"
    assert maxitive == report.counts["comonotone_maxitive"]
    assert monotone == report.counts["monotone"]


# The census of CHAIN3, n = 2 once the first ordered pair that is not
# comonotone is ordered both ways: 71 maxitive tables are then not
# monotone.  Pinned while the census still merged the witnesses of
# several shards; its one walk gives the same bytes.
FORCED_FINDING_DIGEST = "65f586888b53bddbf39125ea40c11fb7d21aedf2ecb9c5f156bb987b240eaba5"


@pytest.fixture
def reversed_non_comonotone_pair(monkeypatch):
    """Order the first non-comonotone ordered pair both ways in the census's relations."""
    real = census.relations

    def patched(chain, n):
        rel = real(chain, n)
        together = {(i, j) for i, j, _ in rel.joins}
        i, j = next(pair for pair in rel.order if pair not in together)
        return rel._replace(order=(*rel.order, (j, i)))

    monkeypatch.setattr(census, "relations", patched)


@pytest.mark.parametrize("pieces, sources", [(1, [5]), (3, [5]), (200, [3, 2]), (1000, [2, 1, 2])])
def test_census_finding_merges_capped_witnesses_across_shards(
    pieces, sources, reversed_non_comonotone_pair
):
    report = functional_census(CHAIN3, 2)
    assert report.status == "finding"
    assert report.counts == {
        "total": 19_683,
        "comonotone_maxitive": 99,
        "monotone": 36,
        "maxitive_not_monotone": 71,
        "monotone_not_maxitive": 8,
    }
    # The first WITNESS_CAP of the 71, then the first monotone-only table.
    assert len(report.witnesses) == 6
    assert [w["kind"] for w in report.witnesses] == ["maxitive_not_monotone"] * 5 + [
        "monotone_not_maxitive"
    ]
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == FORCED_FINDING_DIGEST
    # The one walk keeps the witnesses that literal scans of `pieces`
    # balanced contiguous row ranges give when their capped lists are
    # joined in range order; `sources` is how many of the five each range
    # gives.
    structure = census.relations(CHAIN3, 2)
    base, extra = divmod(19_683, pieces)
    cuts = [i * base + min(i, extra) for i in range(pieces + 1)]
    joined, taken = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        found = oracle_census_shard((CHAIN3, structure), lo, hi)["bad_maxitive"]
        take = found[: census.WITNESS_CAP - len(joined)]
        if take:
            joined += take
            taken.append(len(take))
    assert taken == sources
    assert joined == report.witnesses[:5]


def test_census_refuses_a_maxitive_table_not_monotone_on_a_comonotone_ordered_pair(
    broken_comonotone_join,
):
    # Maxitivity forces monotonicity along comonotone ordered pairs; a
    # join table that breaks that can only come from broken relations.
    with pytest.raises(
        AssertionError, match="^maxitive table not monotone on a comonotone ordered pair$"
    ):
        functional_census(CHAIN3, 2)


def break_first_comonotone_join(rel):
    """``rel`` with the first comonotone ordered pair's join set to its lower function."""
    lower, upper = rel.comonotone_order[0]
    joins = tuple((i, j, lower if (i, j) == (lower, upper) else k) for i, j, k in rel.joins)
    return rel._replace(joins=joins)


@pytest.fixture
def broken_comonotone_join(monkeypatch):
    """Give the first comonotone ordered pair the lower function as its join."""
    real = census.relations

    def patched(chain, n):
        return break_first_comonotone_join(real(chain, n))

    monkeypatch.setattr(census, "relations", patched)


@pytest.fixture
def hidden_broken_comonotone_join(monkeypatch):
    """Break the join as ``broken_comonotone_join`` does, and drop the pair from
    ``comonotone_order``, so that no table trips the census's check."""
    real = census.relations

    def patched(chain, n):
        rel = break_first_comonotone_join(real(chain, n))
        return rel._replace(comonotone_order=rel.comonotone_order[1:])

    monkeypatch.setattr(census, "relations", patched)


def shard_outcome(shard, args):
    """The shard's result, or the message of the AssertionError it raised."""
    try:
        return shard(args)
    except AssertionError as exc:
        return str(exc)


GRIDS = {(2, 2): CHAIN2, (3, 2): CHAIN3, (2, 3): CHAIN2, (2, 4): CHAIN2, (4, 1): CHAIN4}


def assert_walk_matches_the_literal_scan(chain, n):
    # Whole shard results: the tally, the kept witnesses and the first
    # monotone-only table, or the message of the check that stopped both.
    args = (chain, census.relations(chain, n))
    assert shard_outcome(census._census_shard, args) == shard_outcome(oracle_census_shard, args)


@pytest.mark.parametrize("m, n", list(GRIDS))
def test_census_walk_matches_the_literal_scan(m, n):
    assert_walk_matches_the_literal_scan(GRIDS[m, n], n)


@pytest.mark.parametrize(
    "patch, m, n",
    [("reversed_non_comonotone_pair", 3, 2)]
    + [("broken_comonotone_join", m, n) for m, n in GRIDS]
    + [("hidden_broken_comonotone_join", m, n) for m, n in [(2, 2), (3, 2), (2, 3), (4, 1)]],
)
def test_census_walk_matches_the_literal_scan_on_patched_relations(patch, m, n, request):
    # Every patch adds a check whose largest index is not its last entry
    # (a reversed pair j > i, a join k < j): the walk must still make it
    # only once every entry it reads is set.  Only the three-chain on two
    # points has an ordered pair that is not comonotone.  The broken join
    # stops both at the first maxitive table it makes non-monotone; the
    # hidden one stops neither, so the whole tally is compared.
    request.getfixturevalue(patch)
    assert_walk_matches_the_literal_scan(GRIDS[m, n], n)


def test_census_walk_needs_no_recursion_on_a_thousand_positions(monkeypatch):
    # 1,024 entries per row, past the interpreter's default recursion
    # limit, on relations that tie every entry to entry 0 both ways: a
    # table passes either check only where it is constant.  The all-0 and
    # the all-1 tables each descend every entry.  The walk makes 4,094
    # calls of each check; a walk that stops pruning fails past 100,000
    # calls instead of running without end.
    calls = [0]

    def counted(check):
        def wrapper(*args):
            calls[0] += 1
            if calls[0] > 100_000:
                raise AssertionError("the census walk made over 100,000 checks")
            return check(*args)
        return wrapper

    monkeypatch.setattr(census, "join_break", counted(census.join_break))
    monkeypatch.setattr(census, "order_break", counted(census.order_break))
    rest = range(1, 1024)
    structure = Relations(
        domain=tuple(all_functions(CHAIN2, 10)),
        joins=tuple((0, 0, x) for x in rest),
        order=tuple(pair for x in rest for pair in ((x, 0), (0, x))),
        comonotone_order=(),
        constants=(0, 1023),
    )
    result = census._census_shard((CHAIN2, structure))
    assert result["classes"] == {(True, True): 2, (False, False): 2**1024 - 2}


@pytest.mark.parametrize(
    "m, n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)]
)
def test_census_maxitive_count_matches_the_level_set_count(m, n):
    # The level-set count reads no table: an independent check of the
    # census's headline count.
    chain = {2: CHAIN2, 3: CHAIN3, 4: CHAIN4}[m]
    report = functional_census(chain, n, budget=4**16)
    assert report.counts["comonotone_maxitive"] == level_set_count(m, n)


def test_census_of_the_four_chain_on_two_points():
    # 4 ** 16 tables, far past a walk of every row; pruning visits few of them.
    report = functional_census(CHAIN4, 2, budget=4**16)
    assert report.status == "pass"
    assert report.counts == {
        "total": 4_294_967_296,
        "comonotone_maxitive": 2_506,
        "monotone": 24_696,
        "maxitive_not_monotone": 0,
        "monotone_not_maxitive": 22_190,
    }
    assert report.counts["monotone"] == macmahon_box(4, 4, 3)
