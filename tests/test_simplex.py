"""Simplex reference families: vectors, reflections, pairs, spanning subsets."""

import numpy as np
import pytest

from bellcert.errors import BadDimension
from bellcert.jordan import has_trivial_centralizer, span_basis
from bellcert.jordan import span_basis
from bellcert.linalg import sgn_map
from bellcert.simplex import (
    initial_strategy,
    maximal_independent_subset,
    pair_observables,
    simplex_observables,
    simplex_vectors,
)
from bellcert.strategies import correlation

from helpers import pair_observables_loop, simplex_observables_loop

DIMS = (2, 3, 5, 8)


class TestSimplexVectors:
    def test_geometry(self):
        for d in DIMS:
            v = simplex_vectors(d)
            assert v.shape == (d + 1, d)
            norms = np.linalg.norm(v, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12
            gram = v @ v.T
            off = gram[~np.eye(d + 1, dtype=bool)]
            assert np.max(np.abs(off + 1.0 / d)) < 1e-12
            assert np.max(np.abs(v.sum(axis=0))) < 1e-12

    def test_two_dimensional_instance_is_the_triangle(self):
        v = simplex_vectors(2)
        gram = v @ v.T
        off = gram[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5, atol=1e-12)

    def test_rejects_trivial_dimension(self):
        with pytest.raises(BadDimension):
            simplex_vectors(1)


class TestSimplexObservables:
    def test_reflection_structure(self):
        for d in DIMS:
            obs = simplex_observables(d)
            assert len(obs) == d + 1
            for t in obs:
                assert np.max(np.abs(t - t.T)) < 1e-12
                assert np.max(np.abs(t @ t - np.eye(d))) < 1e-12
                assert np.trace(t) == pytest.approx(2.0 - d, abs=1e-12)

    def test_pairwise_trace_identity(self):
        # Tr[T_j T_k] = 4 (v_j . v_k)^2 + d - 4 = 4/d^2 + d - 4 off-diagonal
        for d in DIMS:
            obs = simplex_observables(d)
            want = 4.0 / d**2 + d - 4.0
            for j in range(d + 1):
                for k in range(j + 1, d + 1):
                    assert np.trace(obs[j] @ obs[k]) == pytest.approx(want, abs=1e-12)

    def test_sum_is_identity_multiple(self):
        for d in DIMS:
            total = sum(simplex_observables(d))
            factor = (d + 1.0) * (2.0 - d) / d
            assert np.max(np.abs(total - factor * np.eye(d))) < 1e-12

    def test_three_dimensional_trace_value(self):
        obs = simplex_observables(3)
        assert np.trace(obs[0] @ obs[1]) == pytest.approx(-5.0 / 9.0, abs=1e-14)

    def test_family_span_includes_identity(self):
        # the d+1 reflections alone span a (d+1)-dim space containing I,
        # so adding the identity never increases the rank
        for d in (3, 4, 5):
            obs = simplex_observables(d)
            assert span_basis(obs).dimension == d + 1
            assert span_basis([np.eye(d)] + obs).dimension == d + 1

    def test_centralizer_trivial(self):
        for d in (3, 4, 6):
            assert has_trivial_centralizer(simplex_observables(d))


class TestPairObservables:
    def test_pairs_are_signs_of_sums(self):
        for d in (3, 4, 8, 10, 16):
            obs = simplex_observables(d)
            pairs = pair_observables(d)
            assert len(pairs) == d * (d + 1) // 2
            for (j, k), t in pairs.items():
                img = sgn_map(obs[j] + obs[k])
                assert not img.singular
                assert np.max(np.abs(t - img.matrix)) < 1e-9

    def test_pair_family_spans_symmetric_matrices(self):
        for d in (3, 4, 5):
            pairs = pair_observables(d)
            assert span_basis(list(pairs.values())).dimension == d * (d + 1) // 2

    def test_two_dimensional_pairs_do_not_span(self):
        pairs = pair_observables(2)
        assert span_basis(list(pairs.values())).dimension == 2

    def test_pair_trace(self):
        for d in (3, 5):
            for t in pair_observables(d).values():
                assert np.trace(t) == pytest.approx(2.0 - d, abs=1e-12)


@pytest.mark.parametrize("d", range(3, 17))
def test_broadcast_builders_equal_the_outer_product_loops_bit_for_bit(d):
    for got, want in zip(simplex_observables(d), simplex_observables_loop(d), strict=True):
        assert got.tobytes() == want.tobytes() and np.array_equal(got, want)
    pairs, loop = pair_observables(d), pair_observables_loop(d)
    assert list(pairs) == list(loop)
    for key, want in loop.items():
        assert pairs[key].tobytes() == want.tobytes() and np.array_equal(pairs[key], want)


class TestMaximalIndependentSubset:
    def test_size_rank_and_labels(self):
        for d in (3, 4, 5):
            mats, labels = maximal_independent_subset(d)
            n = d * (d + 1) // 2
            assert len(mats) == n and len(labels) == n
            assert span_basis(mats).dimension == n
            assert labels[: d + 1] == [f"T{j}" for j in range(d + 1)]
            assert "T1_2" not in labels

    def test_three_dimensional_labels_exactly(self):
        _, labels = maximal_independent_subset(3)
        assert labels == ["T0", "T1", "T2", "T3", "T1_3", "T2_3"]

    def test_rejects_low_dimension(self):
        with pytest.raises(BadDimension):
            maximal_independent_subset(2)

    def test_excluded_pair_identity(self):
        # over the pairs not involving vector 0:
        # sum_{1<=j<k<=d} T_jk + d v0 v0^T + d(d-3)/2 I = 0, which pins down
        # the excluded T_12 as a combination of the kept family
        for d in (3, 6, 9):
            v = simplex_vectors(d)
            pairs = pair_observables(d)
            total = sum(m for (j, _k), m in pairs.items() if j >= 1)
            residual = total + d * np.outer(v[0], v[0]) + 0.5 * d * (d - 3.0) * np.eye(d)
            assert np.max(np.abs(residual)) < 1e-9

    def test_subset_spans_the_excluded_element(self):
        for d in (3, 4):
            mats, _ = maximal_independent_subset(d)
            pairs = pair_observables(d)
            from bellcert.jordan import contains

            member, _, _ = contains(span_basis(mats), pairs[(1, 2)])
            assert member


class TestInitialStrategy:
    def test_structure(self):
        strat = initial_strategy(3)
        assert strat.alice_questions == 4 and strat.bob_questions == 4
        assert strat.alice_labels == ("T0", "T1", "T2", "T3")
        assert strat.meta["base_questions"] == 4
        assert strat.state.kappa == pytest.approx(1.0)

    def test_correlations_are_normalized_products(self):
        strat = initial_strategy(4)
        obs = simplex_observables(4)
        st = strat.state
        for j in range(5):
            for k in range(5):
                expect = np.trace(obs[j] @ obs[k]) / 4.0
                assert correlation(st, obs[j], obs[k]) == pytest.approx(expect)
