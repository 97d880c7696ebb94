"""Unit tests for HDIndexParams and the Eq. (4) leaf-order arithmetic."""

import itertools

import pytest

from repro.core import (
    HDIndexParams,
    TABLE3_CONFIGS,
    TABLE3_CONSISTENT,
    TABLE3_LEAF_ORDERS,
    rdb_leaf_order,
    recommended_params,
)


class TestLeafOrder:
    def test_reproduces_table3_consistent_rows(self):
        """SIFTn=63, Yorck=36, SUN=13, Audio=28 follow Eq. (4) exactly."""
        for name in TABLE3_CONSISTENT:
            _, omega, eta, m = TABLE3_CONFIGS[name]
            assert rdb_leaf_order(eta, omega, m) == TABLE3_LEAF_ORDERS[name], name

    def test_enron_glove_rows_are_inconsistent_with_eq4(self):
        """Documented discrepancy: Eq. (4) gives 33/46, Table 3 prints 18/40."""
        _, omega, eta, m = TABLE3_CONFIGS["Enron"]
        assert rdb_leaf_order(eta, omega, m) == 33
        _, omega, eta, m = TABLE3_CONFIGS["Glove"]
        assert rdb_leaf_order(eta, omega, m) == 46

    def test_eq4_arithmetic_by_hand(self):
        # η=16, ω=8, m=10: entry = 16 + 40 + 8 = 64 B; (4096-17)//64 = 63.
        assert rdb_leaf_order(16, 8, 10, 4096) == 63

    def test_larger_page_holds_more(self):
        assert rdb_leaf_order(16, 8, 10, 8192) > rdb_leaf_order(16, 8, 10, 4096)

    def test_more_references_means_fewer_entries(self):
        assert rdb_leaf_order(16, 8, 20) < rdb_leaf_order(16, 8, 10)

    def test_entry_too_large_rejected(self):
        with pytest.raises(ValueError):
            rdb_leaf_order(4096, 32, 10, page_size=4096)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            rdb_leaf_order(0, 8, 10)
        with pytest.raises(ValueError):
            rdb_leaf_order(16, 0, 10)


class TestParams:
    def test_defaults_match_paper_recommendations(self):
        params = HDIndexParams()
        assert params.num_trees == 8
        assert params.num_references == 10
        assert params.alpha == 4096
        assert params.reference_method == "sss"
        assert params.sss_fraction == 0.3
        assert params.use_ptolemaic is False  # Sec. 5.2.5 recommendation
        assert params.page_size == 4096
        assert params.cache_pages == 0        # caching off, Sec. 5

    def test_validation(self):
        with pytest.raises(ValueError):
            HDIndexParams(num_trees=0)
        with pytest.raises(ValueError):
            HDIndexParams(num_references=0)
        with pytest.raises(ValueError):
            HDIndexParams(alpha=0)
        with pytest.raises(ValueError):
            HDIndexParams(reference_method="magic")
        with pytest.raises(ValueError):
            HDIndexParams(partition_scheme="diagonal")
        with pytest.raises(ValueError):
            HDIndexParams(sss_fraction=1.5)

    def test_resolve_filter_sizes_defaults(self):
        params = HDIndexParams(alpha=4096, use_ptolemaic=True)
        alpha, beta, gamma = params.resolve_filter_sizes(k=10)
        assert alpha == 4096
        assert beta == 2048
        assert gamma == 1024

    def test_resolve_collapses_beta_without_ptolemaic(self):
        params = HDIndexParams(alpha=4096, use_ptolemaic=False)
        alpha, beta, gamma = params.resolve_filter_sizes(k=10)
        assert beta == gamma == 1024

    def test_resolve_takes_the_calls_ptolemaic_flag(self):
        """β collapses onto γ when the *call* runs no Ptolemaic filter,
        whatever the build said."""
        built_without = HDIndexParams(alpha=512)
        assert built_without.resolve_filter_sizes(10, ptolemaic=True) \
            == (512, 256, 128)
        built_with = HDIndexParams(alpha=512, use_ptolemaic=True)
        assert built_with.resolve_filter_sizes(10, ptolemaic=False) \
            == (512, 128, 128)

    def test_explicit_gamma_is_not_capped_at_the_built_gamma(self):
        """Without the Ptolemaic filter the params' β collapses onto
        their γ only after the call's γ is taken, so a triangular-only
        call may ask for a γ above the built one."""
        params = HDIndexParams(alpha=512, gamma=128)
        assert params.resolve_filter_sizes(10, gamma=256) == (512, 256, 256)
        assert params.resolve_filter_sizes(10) == (512, 128, 128)

    @pytest.mark.parametrize("ptolemaic", [None, False, True])
    @pytest.mark.parametrize("built", [
        dict(alpha=64), dict(alpha=64, use_ptolemaic=True),
        dict(alpha=100, beta=400, gamma=900, use_ptolemaic=True),
        dict(alpha=64, gamma=48), dict(alpha=64, beta=8, gamma=4)],
        ids=["default", "ptolemaic", "inverted", "gamma", "small"])
    def test_resolve_per_call_equals_the_two_step_clamp(self, built,
                                                       ptolemaic):
        """The per-call budgets clamp on top of the params' resolved
        ones, as a separate per-call clamp did before; only the β a call
        defaults to on an index built without the Ptolemaic filter
        moved: it is the params' β before the collapse onto γ."""
        params = HDIndexParams(**built)
        for k, alpha, beta, gamma in itertools.product(
                (1, 10, 70), (None, 16, 200), (None, 12, 300),
                (None, 6, 500)):
            effective = (params.use_ptolemaic if ptolemaic is None
                         else ptolemaic)
            base_a, base_b, base_g = params.resolve_filter_sizes(k)
            if not params.use_ptolemaic:
                base_b = params.resolve_filter_sizes(k, ptolemaic=True)[1]
            want_a = max(base_a if alpha is None else alpha, k)
            want_b = beta if beta is not None else min(base_b, want_a)
            want_g = gamma if gamma is not None else min(base_g, want_b)
            want_b = min(max(want_b, k), want_a)
            want_g = min(max(want_g, k), want_b)
            if not effective:
                want_b = want_g
            assert params.resolve_filter_sizes(
                k, alpha, beta, gamma, ptolemaic) \
                == (want_a, want_b, want_g)

    def test_resolve_respects_k_floor(self):
        params = HDIndexParams(alpha=64, beta=2, gamma=1)
        alpha, beta, gamma = params.resolve_filter_sizes(k=50)
        assert alpha >= 50 and beta >= 50 and gamma >= 50

    def test_resolve_orders_sizes(self):
        params = HDIndexParams(alpha=100, beta=400, gamma=900,
                               use_ptolemaic=True)
        alpha, beta, gamma = params.resolve_filter_sizes(k=1)
        assert alpha >= beta >= gamma

    def test_leaf_order_helper(self):
        params = HDIndexParams(hilbert_order=8, num_references=10)
        assert params.leaf_order(16) == 63


class TestRecommendedParams:
    def test_high_dimensional_doubles_trees(self):
        assert recommended_params(dim=512, n=10_000).num_trees == 16
        assert recommended_params(dim=128, n=10_000).num_trees == 8

    def test_alpha_scales_with_n(self):
        small = recommended_params(dim=128, n=1_000)
        large = recommended_params(dim=128, n=100_000)
        assert small.alpha <= large.alpha
        assert large.alpha <= 8192

    def test_tiny_dims_shrink_tree_count(self):
        params = recommended_params(dim=8, n=1_000)
        assert params.num_trees <= 4
