import pytest

import oracles
from rainbowcover import (
    BudgetExceededError,
    ConstructParams,
    ParameterError,
    SearchConfig,
    ac_exact,
    construct_cover,
    exists_cover,
    lower_bound_N,
    verify_cover,
)

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
    (4, 3): (41, (1, 1, 2, 3, 4, 1)),
    (5, 3): (1019, (1, 1, 2, 3, 4, 1, 5, 2, 3)),
    (4, 4): (23, (1, 2, 3, 4)),
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
