"""Span bases, Jordan closures, cut points, centralizers, degeneracy counts."""

import numpy as np
import pytest

from bellcert import jordan as jordan_module
from bellcert.config import DEFAULTS
from bellcert.errors import BadParams, DimMismatch, EmptyInput, NotSymmetric
from bellcert.jordan import (
    SpanBasis,
    contains,
    cut_point_observables,
    degeneracy_possible,
    has_trivial_centralizer,
    jordan_closure,
    span_basis,
)
from bellcert.linalg import smat, svec
from bellcert.simplex import simplex_observables

from helpers import (
    X,
    Z,
    commutant_nullity_reference,
    cut_point_observables_loop,
    jordan_closure_one_offer,
    jordan_closure_reference,
    linalg_calls,
    near_reducible_family,
    random_orthogonal,
    random_reflection,
    random_symmetric,
)

EYE2 = np.eye(2)


class TestSpanBasis:
    def test_pauli_family_has_dimension_three(self):
        b = span_basis([EYE2, X, Z])
        assert b.dimension == 3

    def test_simplex_family_with_identity_has_dimension_four(self):
        # {I, T_0..T_3} in dimension 3: the identity is already a combination
        # of the four reflections, so the span has dimension 4, not 5
        mats = [np.eye(3)] + simplex_observables(3)
        b = span_basis(mats)
        assert b.dimension == 4

    def test_duplicates_do_not_inflate_dimension(self):
        b = span_basis([X, X, 2.0 * X, Z])
        assert b.dimension == 2

    def test_basis_is_orthonormal(self, rng):
        mats = [random_symmetric(rng, 4) for _ in range(5)]
        b = span_basis(mats)
        rows = b.rows
        gram = rows @ rows.T
        assert np.max(np.abs(gram - np.eye(b.dimension))) < 1e-12

    def test_basis_is_a_read_only_view_of_rows(self, rng):
        # rows are svec coordinates; basis shows them as matrices, read-only
        b = span_basis([random_symmetric(rng, 4) for _ in range(3)])
        assert b.rows.shape == (3, 10)
        assert b.basis.shape == (3, 4, 4)
        assert np.array_equal(b.basis, b.basis.transpose(0, 2, 1))
        assert np.array_equal(b.basis, smat(b.rows))
        assert np.max(np.abs(svec(b.basis) - b.rows)) < 1e-15
        assert not b.basis.flags.writeable

    def test_membership_and_coefficients(self, rng):
        mats = [random_symmetric(rng, 4) for _ in range(3)]
        b = span_basis(mats)
        combo = 0.7 * mats[0] - 1.3 * mats[1] + 0.25 * mats[2]
        member, coeffs, residual = contains(b, combo)
        assert member
        recon = sum(c * e for c, e in zip(coeffs, b.basis))
        assert np.max(np.abs(recon - combo)) < 1e-10
        assert residual < 1e-10

    def test_non_member_is_rejected(self, rng):
        b = span_basis([EYE2, Z])
        member, _, residual = contains(b, X)
        assert not member
        assert residual == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_contains_checks_symmetry_at_sym_tol_and_membership_at_the_basis_tol(self):
        skewed = X + 1e-8 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        b = span_basis([X, Z])
        with pytest.raises(NotSymmetric):
            contains(b, skewed)
        assert contains(b, skewed, settings=DEFAULTS.replace(sym_tol=1e-6))[0]
        # the membership threshold is the one the basis was built with
        near = X + 1e-6 * Z
        coarse = DEFAULTS.replace(membership_tol=1e-3)
        assert not contains(span_basis([X]), near)[0]
        assert not contains(span_basis([X]), near, settings=coarse)[0]
        assert contains(span_basis([X], settings=coarse), near)[0]
        assert span_basis([X], settings=coarse).tol == 1e-3

    def test_empty_family_raises(self):
        with pytest.raises(EmptyInput):
            span_basis([])

    def test_contains_rejects_a_matrix_of_the_wrong_size(self):
        with pytest.raises(DimMismatch, match="matrix is 3x3, span is over 2"):
            contains(span_basis([X, Z]), np.eye(3))

    def test_mixed_sizes_raise(self):
        with pytest.raises(DimMismatch):
            span_basis([EYE2, np.eye(3)])


def _record_offers(monkeypatch) -> list[tuple[int, int]]:
    """Record (basis rows, offered rows) of every offer jordan_closure makes,
    through both orthogonalizer entry points: the rank-only probe and the
    offer that returns rows."""
    offers = []

    def recorded(func):
        def wrapper(q, rows, tol):
            offers.append((len(q), len(rows)))
            return func(q, rows, tol)

        return wrapper

    for name in ("extend_orthonormal_rows", "extension_rank"):
        monkeypatch.setattr(jordan_module, name, recorded(getattr(jordan_module, name)))
    return offers


class TestJordanClosure:
    def test_single_observable_closes_to_its_own_span(self):
        basis, iterations = jordan_closure([Z])
        # Z * Z = I which is already seeded: nothing new ever appears
        assert basis.dimension == 2
        assert iterations == 0

    def test_pauli_pair_generates_full_symmetric_algebra(self):
        basis, iterations = jordan_closure([X, Z])
        # the seeds {I, X, Z} already span the full d = 2 symmetric algebra,
        # so the first product sweep finds nothing new
        assert basis.dimension == 3  # d(d+1)/2 at d = 2
        assert iterations == 0

    def test_simplex_family_closes_to_full_algebra(self):
        for d in (3, 4, 5):
            basis, iterations = jordan_closure(simplex_observables(d))
            assert basis.dimension == d * (d + 1) // 2
            assert iterations <= int(np.ceil(2.0 * np.log2(d)))

    def test_spanning_family_runs_no_sweep_past_full_dimension(self, monkeypatch):
        # a sweep runs only while the span is short of d(d+1)/2: seeds that
        # already span need none, and a spanning family needs exactly one
        # sweep per growth step, with no final sweep that finds nothing
        sweeps = _record_offers(monkeypatch)
        _, iterations = jordan_closure([X, Z])
        assert (iterations, len(sweeps)) == (0, 0)
        for d in (3, 4, 5):
            sweeps.clear()
            basis, iterations = jordan_closure(simplex_observables(d))
            assert basis.dimension == d * (d + 1) // 2
            assert len(sweeps) == iterations

    def test_a_filling_sweep_offers_its_probe_first(self, rng, monkeypatch):
        # d = 12, three rank-6 reflections: the basis grows 4 -> 7 -> 22, and
        # the last sweep fills Sym(12) from a probe of its 56 missing + 15
        # fresh products, not from all 225 pairs
        offers = _record_offers(monkeypatch)
        basis, iterations = jordan_closure([random_reflection(rng, 12, 6) for _ in range(3)])
        assert (basis.dimension, iterations) == (78, 3)
        assert offers == [(4, 10), (7, 18), (22, 71)]
        # exactly reducible over 6 + 6: every probe falls short, and each
        # basis still makes its offer of all new pairs; a probe, where the
        # share allows one, comes first and holds (78 - fresh_from) pairs
        offers.clear()
        basis, _ = jordan_closure(near_reducible_family(rng, 12, 6, 0.0, 1.0))
        assert basis.dimension < 78
        prev = 0
        probes = 0
        for n in dict.fromkeys(n for n, _ in offers):
            rows = [r for m, r in offers if m == n]
            assert rows[-1] == n * (n + 1) // 2 - prev * (prev + 1) // 2
            assert rows[:-1] in ([], [78 - prev])
            probes += len(rows) - 1
            prev = n
        assert probes

    def test_a_filling_probe_computes_no_vectors(self, rng):
        # the family above: the probe only needs the rank of its (71, 78)
        # residual, and a filled Sym(12) comes back as the standard basis
        gens = [random_reflection(rng, 12, 6) for _ in range(3)]
        with linalg_calls() as calls:
            basis, _ = jordan_closure(gens)
        svds = [(shape, uv) for name, shape, uv in calls if name == "svd"]
        assert svds[-1] == ((71, 78), False)
        assert all(uv for _, uv in svds[:-1])
        assert np.array_equal(basis.rows, np.eye(78))

    def test_matches_the_one_offer_reference(self, rng):
        # the probe is exact: against sweeps that make one offer of every new
        # pair, the same dimension and growing sweeps, and wherever the
        # closure is short of Sym(d) the same rows bit for bit
        short = filled = 0
        for d in range(3, 13):
            for _ in range(3):
                families = [
                    near_reducible_family(
                        rng, d, int(rng.integers(1, d)), eps, 10.0 ** rng.uniform(-3, 3)
                    )
                    for eps in (10.0 ** rng.uniform(-13, -3), 0.0)
                ]
                for rank in (int(rng.integers(1, 3)), d // 2):
                    count = int(rng.integers(2, 4))
                    families.append([random_reflection(rng, d, rank) for _ in range(count)])
                for gens in families:
                    basis, iterations = jordan_closure(gens)
                    rows, ref_iterations = jordan_closure_one_offer(gens)
                    assert (basis.dimension, iterations) == (len(rows), ref_iterations)
                    if len(rows) < d * (d + 1) // 2:
                        assert np.array_equal(basis.rows, rows)
                        short += 1
                    else:
                        filled += 1
        assert short and filled

    def test_closure_contains_generators_and_identity(self, rng):
        gens = [random_reflection(rng, 4) for _ in range(2)]
        basis, _ = jordan_closure(gens)
        for m in [np.eye(4)] + gens:
            member, _, _ = contains(basis, m)
            assert member

    def test_generators_are_validated(self):
        with pytest.raises(EmptyInput, match="need at least one matrix"):
            jordan_closure([])
        with pytest.raises(DimMismatch, match="mixed shapes"):
            jordan_closure([Z, np.eye(3)])
        with pytest.raises(NotSymmetric, match="matrix 2 is not Hermitian"):
            jordan_closure([Z, X, np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_basis_rows_are_exactly_symmetric_matrices(self, rng):
        refs = [random_reflection(rng, 6, r) for r in (3, 2, 4)]
        basis, _ = jordan_closure(refs)
        mats = smat(basis.rows)
        assert np.array_equal(mats, mats.transpose(0, 2, 1))
        assert np.max(np.abs(basis.rows @ basis.rows.T - np.eye(basis.dimension))) < 1e-12

    def test_commuting_pair_closes_with_its_ordinary_product(self):
        # for commuting a, b the Jordan product is a @ b: the closure holds it
        # and stays inside the diagonal algebra
        a = np.diag([1.0, 2.0, 0.0, 0.0])
        b = np.diag([0.0, 1.0, 3.0, 0.0])
        basis, _ = jordan_closure([a, b])
        member, _, _ = contains(basis, a @ b)
        assert member
        assert basis.dimension == 4

    def test_anticommuting_pair_adds_no_product(self):
        # X (x) I and Z (x) I anticommute, so their Jordan product vanishes and
        # each squares to I: the closure is span{I, A, B}, well short of the
        # 10-dimensional Sym(4), and no sweep grows it
        a = np.kron(X, EYE2)
        b = np.kron(Z, EYE2)
        basis, iterations = jordan_closure([a, b])
        assert (basis.dimension, iterations) == (3, 0)

    def test_block_family_stays_reducible(self):
        # two commuting reflections sharing an eigenbasis: the closure is the
        # diagonal algebra, not the full symmetric space
        a = np.diag([1.0, -1.0, 1.0])
        b = np.diag([1.0, 1.0, -1.0])
        basis, _ = jordan_closure([a, b])
        assert basis.dimension == 3

    def test_matches_the_pairwise_reference(self, rng):
        # batched sweeps against every pairwise product re-orthonormalized:
        # same dimension, same number of growing sweeps, same span
        families = [simplex_observables(d) for d in (3, 4, 6)]
        for d in (3, 4, 5, 6, 8):
            for count in (1, 2, 3):
                families.append([random_reflection(rng, d) for _ in range(count)])
        families.append([random_symmetric(rng, 5), random_reflection(rng, 5)])
        for split in ((2, 2), (2, 3), (3, 4)):
            # block-diagonal reflections: the closure stays reducible
            family = []
            for _ in range(3):
                blocks = [random_reflection(rng, k) for k in split]
                family.append(np.block([
                    [blocks[0], np.zeros((split[0], split[1]))],
                    [np.zeros((split[1], split[0])), blocks[1]],
                ]))
            families.append(family)
        for gens in families:
            basis, iterations = jordan_closure(gens)
            ref_rows, ref_iterations = jordan_closure_reference(gens)
            assert (basis.dimension, iterations) == (len(ref_rows), ref_iterations)
            # projectors onto the span, in matrix coordinates
            mats = basis.basis.reshape(basis.dimension, -1)
            gap = mats.T @ mats - ref_rows.T @ ref_rows
            assert np.max(np.abs(gap)) < 1e-10

    def test_iteration_count_bound_on_random_families(self, rng):
        for d in (3, 5, 8):
            cap = int(np.ceil(2.0 * np.log2(d)))
            for _ in range(5):
                gens = [random_reflection(rng, d) for _ in range(2)]
                _, iterations = jordan_closure(gens)
                assert iterations <= cap

    @pytest.mark.parametrize("seed", [102, 269, 278])
    def test_never_outgrows_the_symmetric_matrices(self, seed):
        # d = 9, three reflections: the true closure has dimension 37, and
        # on these draws rounding noise passed as a direction grows the basis
        # past dim Sym(9) = 45 within two sweeps
        rng = np.random.default_rng(seed)
        refs = [random_reflection(rng, 9, r) for r in (6, 5, 8)]
        basis, _ = jordan_closure(refs)
        assert basis.dimension == 37

    @pytest.mark.parametrize("seed", [20, 43, 84, 237])
    def test_a_residual_gesdd_cannot_decompose_is_decomposed_transposed(self, seed):
        # d = 12, the blocks 1 + 11 of an exactly reducible family: the last
        # sweep's 225 x 78 residual makes gesdd raise "SVD did not converge"
        gens = near_reducible_family(np.random.default_rng(seed), 12, 1, 0.0, 1.0)
        basis, iterations = jordan_closure(gens)
        assert basis.dimension == 1 + 11 * 12 // 2
        assert iterations == 3


class TestCutPointObservables:
    def test_distinct_eigenvalues_give_all_cuts(self):
        h = np.diag([3.0, 1.0, -2.0])
        cuts = cut_point_observables(h)
        assert len(cuts) == 2
        assert np.allclose(cuts[0], np.diag([1.0, -1.0, -1.0]))
        assert np.allclose(cuts[1], np.diag([1.0, 1.0, -1.0]))

    def test_identity_multiple_gives_no_cuts(self):
        assert cut_point_observables(2.5 * np.eye(3)) == []

    @pytest.mark.parametrize("d", range(2, 13))
    def test_equals_the_per_cut_loop_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        for _ in range(4):
            h = random_symmetric(rng, d)
            cuts, loop = cut_point_observables(h), cut_point_observables_loop(h)
            assert len(cuts) == len(loop) == d - 1
            assert all(map(np.array_equal, cuts, loop))

    def test_a_cluster_under_singular_tol_equals_the_loop(self, rng):
        # 1 and 1 + 1e-12 are one cluster, so 5 eigenvalues give 3 cuts
        u = random_orthogonal(rng, 5)
        h = (u * [2.0, 1.0 + 1e-12, 1.0, -0.5, -3.0]) @ u.T
        cuts, loop = cut_point_observables(h), cut_point_observables_loop(h)
        assert len(cuts) == len(loop) == 3
        assert all(map(np.array_equal, cuts, loop))
        assert cut_point_observables(2.5 * np.eye(3)) == cut_point_observables_loop(
            2.5 * np.eye(3)
        ) == []

    def test_clustered_eigenvalues_merge(self):
        h = np.diag([1.0, 1.0 + 1e-12, -1.0])
        cuts = cut_point_observables(h)
        assert len(cuts) == 1

    def test_cuts_are_involutions_in_rotated_basis(self, rng):
        h = random_symmetric(rng, 5)
        for o in cut_point_observables(h):
            assert np.max(np.abs(o @ o - np.eye(5))) < 1e-12
            assert np.max(np.abs(o - o.T)) < 1e-14

    def test_cut_commutes_with_input(self, rng):
        h = random_symmetric(rng, 4)
        for o in cut_point_observables(h):
            assert np.max(np.abs(o @ h - h @ o)) < 1e-12


class TestCentralizer:
    def test_full_pauli_family_is_irreducible(self):
        assert has_trivial_centralizer([X, Z])

    def test_single_diagonal_reflection_is_reducible(self):
        assert not has_trivial_centralizer([Z])

    def test_simplex_families_are_irreducible(self):
        for d in (3, 4, 6):
            assert has_trivial_centralizer(simplex_observables(d))

    def test_commuting_family_is_reducible(self):
        a = np.diag([1.0, -1.0, 1.0])
        b = np.diag([1.0, 1.0, -1.0])
        assert not has_trivial_centralizer([a, b])

    @staticmethod
    def _families(rng, d):
        """Generic, block-reducible, commuting and single-generator families of size d."""
        u = random_orthogonal(rng, d)
        yield [random_symmetric(rng, d) for _ in range(3)]
        yield [random_reflection(rng, d) for _ in range(2)]
        if d >= 3:
            cut = int(rng.integers(1, d - 1))
            blocks = [np.zeros((d, d)) for _ in range(3)]
            for b in blocks:
                b[:cut, :cut] = random_symmetric(rng, cut)
                b[cut:, cut:] = random_symmetric(rng, d - cut)
            yield [u @ b @ u.T for b in blocks]
        yield [(u * rng.choice([-1.0, 1.0], size=d)) @ u.T for _ in range(3)]
        # one generator: the Sym -> Skew block is wide, with fewer singular
        # values than columns
        yield [random_symmetric(rng, d)]
        yield [random_reflection(rng, d)]

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_the_kronecker_reference(self, rng, d):
        for _ in range(4):
            for gens in self._families(rng, d):
                scale = 10.0 ** rng.uniform(-3, 3)
                gens = [scale * g for g in gens]
                expected = commutant_nullity_reference(gens) == 1
                assert has_trivial_centralizer(gens) is expected

    def test_dimension_one_is_irreducible(self):
        assert has_trivial_centralizer([np.eye(1)])
        assert has_trivial_centralizer([-np.eye(1)])
        assert has_trivial_centralizer([np.eye(1), 3.0 * np.eye(1)])

    @staticmethod
    def _near_reducible(eps):
        # (X, Z) on a 2-block and (1, -1) on a 1-block, coupled by eps: the
        # commutator's smallest nonzero singular value is sqrt(1.5) * eps * 1.255
        # against a cutoff of 1e-9 * 2 sqrt(2) * 1.255
        u = random_orthogonal(np.random.default_rng(25), 3)
        a = np.zeros((3, 3))
        b = np.zeros((3, 3))
        a[:2, :2], a[2, 2], a[0, 2], a[2, 0] = X, 1.0, eps, eps
        b[:2, :2], b[2, 2] = Z, -1.0
        return [1.255 * u @ a @ u.T, 1.255 * u @ b @ u.T]

    def test_just_below_the_cutoff_counts_as_commuting(self):
        # sigma = 3.40e-9 against a cutoff of 3.55e-9
        gens = self._near_reducible(2.212e-9)
        assert commutant_nullity_reference(gens) == 2
        assert commutant_nullity_reference(gens, tol=0.95e-9) == 1
        assert not has_trivial_centralizer(gens)

    def test_just_above_the_cutoff_counts_as_irreducible(self):
        # sigma = 3.69e-9 against a cutoff of 3.55e-9
        gens = self._near_reducible(2.4e-9)
        assert commutant_nullity_reference(gens) == 1
        assert commutant_nullity_reference(gens, tol=1.05e-9) == 2
        assert has_trivial_centralizer(gens)


class TestDegeneracyPossible:
    def test_documented_examples(self):
        assert degeneracy_possible(5, 4) is True
        assert degeneracy_possible(3, 4, maximally_entangled=True) is False
        assert degeneracy_possible(2, 1, maximally_entangled=True) is False

    def test_three_dimensional_pair_is_allowed_with_two_questions(self):
        # floor(9/4) = 2 > n exactly when n < 2; the known 3d example uses
        # 4 reference questions on a maximally entangled state and evades the
        # count only because its references are linearly dependent
        assert degeneracy_possible(3, 1, maximally_entangled=True)
        assert not degeneracy_possible(3, 2, maximally_entangled=True)

    @pytest.mark.parametrize("d, n", [(0, 3), (-1, -3), (3, -1)])
    def test_impossible_sizes_raise(self, d, n):
        with pytest.raises(BadParams, match="d >= 1 and n >= 0"):
            degeneracy_possible(d, n)

    def test_count_grows_quadratically(self):
        # floor(100/4) = 25 free fiber dimensions against n+1 constraints
        assert degeneracy_possible(10, 20)
        assert degeneracy_possible(10, 23)
        assert not degeneracy_possible(10, 24)
        assert not degeneracy_possible(10, 25)
