import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from rainbowcover import (
    BudgetExceededError,
    Coloring,
    ConstructParams,
    ParameterError,
    SearchConfig,
    ac_exact,
    construct_cover,
    exists_cover,
    lower_bound_N,
    verify_cover,
)
from rainbowcover import exact
from rainbowcover.exact import _search

# values certified by the exhaustive oracle (see test_agrees_with_oracle_mode)
KNOWN_VALUES = {
    (2, 2): 2,
    (3, 2): 3,
    (4, 2): 4,
    (5, 2): 5,
    (6, 2): 6,
    (3, 3): 3,
    (4, 3): 6,
    (5, 3): 9,
    (4, 4): 4,
}

# nodes explored and witness of the default search, pinned so that a change
# to the DFS bookkeeping cannot silently change the order of the search
KNOWN_SEARCHES = {
    (4, 3): (15, (1, 1, 2, 3, 4, 1)),
    (5, 3): (155, (1, 1, 2, 3, 4, 1, 5, 2, 3)),
    (4, 4): (10, (1, 2, 3, 4)),
    (6, 3): (4872, (1, 2, 3, 4, 5, 1, 6, 3, 2, 5, 4, 1)),
    (6, 4): (18540, (1, 1, 2, 1, 3, 4, 5, 6, 4, 2, 1, 3, 6, 5)),
}


class TestExistsCover:
    def test_identity_at_three(self):
        col = exists_cover(3, 3, 3)
        assert col is not None
        assert verify_cover(col, 3, 3).complete

    def test_invalid_search_result_raises(self, monkeypatch):
        # a colouring from the search is re-verified before it is returned
        monkeypatch.setattr(exact, "_search", lambda n, k, N, budget: ((1, 1, 1), 1))
        with pytest.raises(AssertionError, match="invalid witness"):
            exists_cover(3, 3, 3)

    def test_four_three_five_refuted(self):
        # position 3 lies on all four 3-progressions of [5], so whatever its
        # colour, the one triple avoiding that colour stays uncovered
        assert exists_cover(4, 3, 5) is None
        assert oracles.exhaustive_dfs(4, 3, 5)[0] is None

    def test_oracle_visits_the_full_tree(self):
        # every colour at every position, and a cover accepted only at full
        # length: refuting [5] takes 4 + 4^2 + ... + 4^5 nodes
        assert oracles.exhaustive_dfs(4, 3, 5) == (None, sum(4**i for i in range(1, 6)))
        assert oracles.exhaustive_ac(4, 3, lower_bound_N(4, 3)) == (6, (1, 1, 2, 3, 4, 1), 1512)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_identity_pairs(self, n):
        col = exists_cover(n, 2, n)
        assert col is not None
        assert verify_cover(col, n, 2).complete

    def test_refutation_soundness_below_threshold(self):
        for n, k in [(4, 3), (5, 3)]:
            first = KNOWN_VALUES[(n, k)]
            for N in range(lower_bound_N(n, k), first):
                assert exists_cover(n, k, N) is None, (n, k, N)
                assert oracles.exhaustive_dfs(n, k, N)[0] is None, (n, k, N)

    def test_oracle_mode_against_product_scan(self):
        # and the exhaustive DFS oracle against a third opinion: both find the
        # lexicographically first cover
        for n, k, N in [(3, 3, 3), (4, 3, 5), (4, 3, 6), (3, 2, 2), (3, 2, 3)]:
            got = oracles.exhaustive_dfs(n, k, N)[0]
            assert got == oracles.exhaustive_cover_search(n, k, N), (n, k, N)
            if got is not None:
                assert verify_cover(Coloring(got, n), n, k).complete

    def test_budget_exhaustion_is_not_absence(self):
        with pytest.raises(BudgetExceededError) as info:
            exists_cover(5, 3, 8, SearchConfig(node_budget=50))
        assert info.value.nodes_explored is not None
        assert info.value.nodes_explored >= 50

    def test_seven_three_fourteen_refuted(self):
        assert exists_cover(7, 3, 14) is None

    def test_seven_three_sixteen_witness(self):
        colors = (1, 2, 3, 3, 4, 5, 6, 7, 1, 7, 5, 4, 2, 3, 6, 1)
        assert verify_cover(Coloring(colors, 7), 7, 3).complete

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            exists_cover(3, 1, 3)
        with pytest.raises(ParameterError):
            exists_cover(3, 4, 3)
        with pytest.raises(ParameterError):
            exists_cover(3, 3, 0)


class TestAcExact:
    @pytest.mark.parametrize("nk,expected", sorted(KNOWN_VALUES.items()))
    def test_known_values(self, nk, expected):
        n, k = nk
        result = ac_exact(n, k)
        assert result.value == expected
        assert verify_cover(result.witness, n, k).complete
        assert result.refuted_up_to == expected - 1
        assert result.nodes_explored > 0
        if nk in KNOWN_SEARCHES:
            assert (result.nodes_explored, result.witness.colors) == KNOWN_SEARCHES[nk]

    @pytest.mark.parametrize("nk", [nk for nk in KNOWN_SEARCHES if nk not in KNOWN_VALUES],
                             ids=lambda nk: f"n{nk[0]}-k{nk[1]}")
    def test_known_searches_beyond_the_oracle(self, nk):
        result = ac_exact(*nk)
        assert (result.nodes_explored, result.witness.colors) == KNOWN_SEARCHES[nk]
        assert result.refuted_up_to == result.value - 1
        assert verify_cover(result.witness, *nk).complete

    def test_repeated_colour_kills_the_only_progression(self):
        # one 14-progression in [14]: a colour already used makes it dead, so
        # every such branch is cut at once and position i costs i + 1 nodes
        result = ac_exact(14, 14, SearchConfig(node_budget=105))
        assert result.value == 14 and result.nodes_explored <= 105

    def test_agrees_with_oracle_mode(self):
        for n, k in [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3), (4, 4)]:
            pruned = ac_exact(n, k)
            value, witness, _ = oracles.exhaustive_ac(n, k, lower_bound_N(n, k))
            assert pruned.value == value == KNOWN_VALUES[(n, k)], (n, k)
            assert verify_cover(Coloring(witness, n), n, k).complete

    def test_deterministic(self):
        a = ac_exact(5, 3)
        b = ac_exact(5, 3)
        assert a.witness == b.witness and a.nodes_explored == b.nodes_explored

    def test_monotone_sandwich(self):
        for (n, k), value in sorted(KNOWN_VALUES.items()):
            assert lower_bound_N(n, k) <= value
            built = construct_cover(n, k, ConstructParams(seed=42))
            assert value <= built.coloring.N, (n, k)

    def test_budget_error_reports_refutation(self):
        # refuting N = 8, the first length tried, takes 56 nodes
        with pytest.raises(BudgetExceededError) as info:
            ac_exact(5, 3, SearchConfig(node_budget=50))
        exc = info.value
        assert exc.refuted_up_to == lower_bound_N(5, 3) - 1
        assert exc.nodes_explored is not None

    def test_budget_error_at_a_long_interval(self):
        # N = 200, where about 30 progressions run through each position
        with pytest.raises(BudgetExceededError) as info:
            ac_exact(40, 3, SearchConfig(node_budget=1000))
        assert (info.value.nodes_explored, info.value.refuted_up_to) == (1001, 199)

    def test_max_N_ceiling(self):
        with pytest.raises(BudgetExceededError) as info:
            ac_exact(4, 3, SearchConfig(max_N=5))
        assert info.value.refuted_up_to == 5

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            ac_exact(4, 1)
        with pytest.raises(ParameterError):
            ac_exact(3, 4)
        with pytest.raises(ParameterError):
            SearchConfig(node_budget=0)


@st.composite
def small_instances(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 5))
    N = draw(st.integers(k, lower_bound_N(n, k) + 2))
    return n, k, N


@settings(deadline=None, max_examples=60)
@given(small_instances())
# In the first two a k-set has more subsets than [N] has progressions, so
# each cover scans the classes made so far; in the last two it has fewer, so
# all its subset classes are made at its first cover.
@example((3, 3, 6))
@example((6, 4, 11))
@example((5, 3, 10))
@example((4, 4, 13))
# small_instances draws k <= 4: a cover at k = 5, and a refutation
@example((6, 5, 11))
@example((7, 5, 15))
# past small_instances: the colour test refutes (6,3,10) at the root, and
# cuts most of the other three
@example((6, 3, 10))
@example((6, 3, 12))
@example((7, 3, 14))
@example((6, 4, 13))
def test_search_matches_prefix_bound_oracle(case):
    n, k, N = case
    assert _search(n, k, N, 10**6) == oracles.prefix_bound_search(n, k, N)
    if n**N <= 2**16:
        assert (exists_cover(n, k, N) is None) == (oracles.exhaustive_dfs(n, k, N)[0] is None)


@settings(deadline=None, max_examples=40)
@given(small_instances())
@example((6, 3, 10))
@example((6, 3, 12))
@example((7, 3, 14))
@example((6, 4, 13))
def test_colour_test_cuts_no_cover(case):
    # the colour test cuts only subtrees that hold no cover: the search finds
    # the first cover of the prefix-class bound alone, or none, in no more nodes
    n, k, N = case
    found, nodes = _search(n, k, N, 10**6)
    plain, plain_nodes = oracles.prefix_bound_search(n, k, N, colour_test=False)
    assert found == plain and nodes <= plain_nodes


@pytest.mark.parametrize("case", [(6, 3, 10), (6, 3, 11), (7, 3, 13)],
                         ids="n{0[0]}-k{0[1]}-N{0[2]}".format)
def test_colour_test_refutes_at_the_root(case):
    # n * ceil(C(n-1, k-1) / max degree) > N: each colour needs two of the
    # N positions, so the search makes no node and a budget of one is enough
    n, k, N = case
    assert _search(n, k, N, 1) == (None, 0)


@settings(deadline=None, max_examples=40)
@given(small_instances())
@example((6, 5, 11))
@example((7, 5, 15))
def test_budget_boundary(case):
    # a budget of exactly the nodes visited settles the instance, one less
    # runs out at that last node: children cut before their covers still
    # count as nodes and are charged to the budget
    n, k, N = case
    found, nodes = _search(n, k, N, 10**6)
    assume(nodes >= 1)
    assert _search(n, k, N, nodes) == (found, nodes)
    with pytest.raises(BudgetExceededError) as info:
        _search(n, k, N, nodes - 1)
    assert info.value.nodes_explored == nodes


# refutations past the oracles' reach, with the node counts in the README;
# k = 5 is where most children are cut before their covers are made
KNOWN_REFUTATIONS = {(7, 3, 14): 2_701, (7, 4, 17): 9_097, (7, 5, 17): 63_744}


@pytest.mark.parametrize("case", sorted(KNOWN_REFUTATIONS), ids="n{0[0]}-k{0[1]}-N{0[2]}".format)
def test_known_refutations_beyond_the_oracle(case):
    assert _search(*case, 10**6) == (None, KNOWN_REFUTATIONS[case])


# ac(7,4) = 20: _search(7, 4, 19) refutes N = 19, and this colouring covers [20]
COVER_7_4 = (6, 5, 6, 3, 2, 2, 4, 1, 5, 7, 3, 6, 1, 4, 6, 2, 7, 3, 5, 5)


def test_cover_7_4_of_length_20():
    assert verify_cover(Coloring(COVER_7_4, 7), 7, 4).complete
    assert len(oracles.covered_sets(COVER_7_4, 4)) == 35  # C(7, 4)


@pytest.mark.slow
def test_ac_7_5():
    # N = 15..18 refuted in 3 / 1,537 / 63,744 / 1,503,803 nodes, N = 19 found after 271,860
    result = ac_exact(7, 5)
    assert result.value == 19 and result.refuted_up_to == 18
    assert result.nodes_explored == 1_840_947
    assert verify_cover(result.witness, 7, 5).complete
    assert len(oracles.covered_sets(result.witness.colors, 5)) == 21  # C(7, 5)


# refutations taking seconds to minutes, with the node counts in the README
SLOW_REFUTATIONS = {(7, 3, 15): 217_225, (7, 4, 18): 413_065, (7, 4, 19): 17_102_364}


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(SLOW_REFUTATIONS), ids="n{0[0]}-k{0[1]}-N{0[2]}".format)
def test_slow_refutations(case):
    assert _search(*case, 10**9) == (None, SLOW_REFUTATIONS[case])


@pytest.mark.slow
def test_ac_7_3():
    # N = 13..15 refuted in 0 / 2,701 / 217,225 nodes, N = 16 found after 3,089,864
    result = ac_exact(7, 3)
    assert result.value == 16 and result.refuted_up_to == 15
    assert result.nodes_explored == 3_309_790
    assert result.witness.colors == (1, 2, 3, 3, 4, 5, 6, 7, 1, 7, 5, 4, 2, 3, 6, 1)
    assert verify_cover(result.witness, 7, 3).complete
