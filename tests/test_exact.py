import pytest
from hypothesis import example, given, settings
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
from rainbowcover.exact import _search

ORACLE = SearchConfig(oracle_mode=True)

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
    (4, 3): (26, (1, 1, 2, 3, 4, 1)),
    (5, 3): (299, (1, 1, 2, 3, 4, 1, 5, 2, 3)),
    (4, 4): (10, (1, 2, 3, 4)),
    (6, 3): (37034, (1, 2, 3, 4, 5, 1, 6, 3, 2, 5, 4, 1)),
    (6, 4): (39698, (1, 1, 2, 1, 3, 4, 5, 6, 4, 2, 1, 3, 6, 5)),
}


class TestExistsCover:
    def test_identity_at_three(self):
        col = exists_cover(3, 3, 3)
        assert col is not None
        assert verify_cover(col, 3, 3).complete

    def test_four_three_five_refuted(self):
        # position 3 lies on all four 3-progressions of [5], so whatever its
        # colour, the one triple avoiding that colour stays uncovered
        assert exists_cover(4, 3, 5) is None
        assert exists_cover(4, 3, 5, ORACLE) is None

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
                assert exists_cover(n, k, N, ORACLE) is None, (n, k, N)

    def test_oracle_mode_against_product_scan(self):
        # and the search module's own reference mode against a third opinion
        for n, k, N in [(3, 3, 3), (4, 3, 5), (4, 3, 6), (3, 2, 2), (3, 2, 3)]:
            expected = oracles.exhaustive_cover_search(n, k, N)
            got = exists_cover(n, k, N, ORACLE)
            assert (got is None) == (expected is None), (n, k, N)
            if got is not None:
                assert verify_cover(got, n, k).complete

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
            reference = ac_exact(n, k, ORACLE)
            assert pruned.value == reference.value == KNOWN_VALUES[(n, k)], (n, k)
            assert verify_cover(reference.witness, n, k).complete

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
        with pytest.raises(BudgetExceededError) as info:
            ac_exact(5, 3, SearchConfig(node_budget=100))
        exc = info.value
        assert exc.refuted_up_to == lower_bound_N(5, 3) - 1
        assert exc.nodes_explored is not None

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
def test_search_matches_prefix_bound_oracle(case):
    n, k, N = case
    assert _search(n, k, N, SearchConfig(), 10**6) == oracles.prefix_bound_search(n, k, N)
    if n**N <= 2**16:
        assert (exists_cover(n, k, N) is None) == (exists_cover(n, k, N, ORACLE) is None)


@pytest.mark.slow
def test_ac_7_3():
    result = ac_exact(7, 3)
    assert result.value == 16 and result.refuted_up_to == 15
    assert verify_cover(result.witness, 7, 3).complete
