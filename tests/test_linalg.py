"""Tests for the dense matrix kernels."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pdmd.errors import DataError
from pdmd.linalg import (
    EigenDecomposition,
    canonical_eig_order,
    eig,
    ldexp,
    scale_exponent,
    select_rank,
    truncated_svd,
)


def _rank_deficient(kind):
    m = np.random.default_rng(17).standard_normal((40, 6))
    if kind == "zero":
        m[:, [1, 4]] = 0.0
    else:
        m[:, 4:] = m[:, :2]
    return m


# (matrix, count of leading singular values that are nonzero and distinct)
SVD_SHAPES = {
    "tall": (np.random.default_rng(1).standard_normal((60, 8)), 8),
    "square": (np.random.default_rng(2).standard_normal((9, 9)), 9),
    "wide": (np.random.default_rng(3).standard_normal((7, 30)), 7),
    "single-column": (np.random.default_rng(4).standard_normal((25, 1)), 1),
    "tall-zero-columns": (_rank_deficient("zero"), 4),
    "tall-duplicated-columns": (_rank_deficient("duplicate"), 4),
}


def _signed(u, v):
    """Reference factors under truncated_svd's sign convention."""
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    return u * signs, v * signs


class TestTruncatedSvd:
    def test_identity_full_rank(self):
        svd = truncated_svd(np.eye(4), rank=4)
        assert_allclose(svd.singular_values, np.ones(4))
        assert_allclose(np.abs(svd.modes_u), np.eye(4), atol=1e-14)
        assert_allclose(svd.reconstruct(), np.eye(4), atol=1e-14)

    def test_rank_one_outer_product(self):
        u = np.array([3.0, 0.0, 4.0]) / 5.0
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        m = 7.0 * np.outer(u, v)
        svd = truncated_svd(m, rank=1)
        assert_allclose(svd.singular_values, [7.0], rtol=1e-12)
        assert_allclose(np.abs(svd.modes_u[:, 0]), np.abs(u), atol=1e-12)
        assert_allclose(svd.reconstruct(), m, atol=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((20, 12))
        svd = truncated_svd(m, rank=12)
        assert_allclose(svd.reconstruct(), m, atol=1e-10)

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((9, 6))
        a = truncated_svd(m, rank=4)
        b = truncated_svd(m.copy(), rank=4)
        assert_allclose(a.modes_u, b.modes_u)
        lead = np.argmax(np.abs(a.modes_u), axis=0)
        assert np.all(a.modes_u[lead, np.arange(4)] > 0)

    def test_truncation_matches_tail_energy(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((15, 10))
        full = np.linalg.svd(m, compute_uv=False)
        svd = truncated_svd(m, rank=6)
        err = np.linalg.norm(m - svd.reconstruct())
        assert_allclose(err, np.sqrt(np.sum(full[6:] ** 2)), rtol=1e-10)

    def test_rank_out_of_range(self):
        with pytest.raises(DataError):
            truncated_svd(np.eye(3), rank=0)
        with pytest.raises(DataError):
            truncated_svd(np.eye(3), rank=4)

    def test_rejects_non_finite(self):
        m = np.eye(3)
        m[1, 1] = np.nan
        with pytest.raises(DataError):
            truncated_svd(m, rank=2)

    def test_rejects_complex(self):
        with pytest.raises(DataError):
            truncated_svd(np.eye(3) + 0j, rank=2)

    @pytest.mark.parametrize("case", list(SVD_SHAPES))
    @pytest.mark.parametrize("how", ["full-rank", "defined-rank", "energy"])
    def test_factors_match_the_thin_svd(self, case, how):
        """Every shape, tall ones included, takes one thin SVD: the factors
        are ``np.linalg.svd(m, full_matrices=False)``'s bit for bit under
        the sign convention, with modes in C order."""
        m, defined = SVD_SHAPES[case]
        u_ref, s_ref, vt_ref = np.linalg.svd(m, full_matrices=False)
        max_rank = min(m.shape)
        if how == "energy":
            svd = truncated_svd(m, max_rank, energy=0.9)
            assert svd.rank == select_rank(s_ref, 0.9, max_rank)
        else:
            svd = truncated_svd(m, max_rank if how == "full-rank" else defined)
        rank = svd.rank
        u_ref, v_ref = _signed(u_ref[:, :rank], vt_ref[:rank].T)
        assert svd.modes_u.tobytes() == u_ref.tobytes()
        assert svd.singular_values.tobytes() == s_ref[:rank].tobytes()
        assert svd.right_v.tobytes() == v_ref.tobytes()
        tail = np.sqrt(np.sum(s_ref[rank:] ** 2))
        error = np.linalg.norm(m - svd.reconstruct())
        assert_allclose(error, tail, rtol=1e-10, atol=1e-12 * s_ref[0])
        assert svd.modes_u.flags.c_contiguous
        assert svd.modes_u.shape == (m.shape[0], rank)
        assert svd.right_v.shape == (m.shape[1], rank)


class TestScaleExponent:
    @pytest.mark.parametrize("peak", [2.0**-128, 1.0, 3.0, 2.0**128 * (1 - 2**-53)])
    def test_no_scaling_inside_the_free_range(self, peak):
        assert scale_exponent(np.array([[-peak, 0.5 * peak]])) == 0

    @pytest.mark.parametrize("peak", [5e-324, 1e-200, 2.0**-129, 2.0**128, 1e200, 1.7e308])
    def test_scaled_peak_lands_in_half_open_unit_octave(self, peak):
        exponent = scale_exponent(np.array([0.25 * peak]), np.array([-peak]))
        assert exponent != 0
        assert 0.5 <= np.ldexp(peak, -exponent) < 1

    def test_zero_and_non_finite_data_are_not_scaled(self):
        assert scale_exponent(np.zeros((3, 2))) == 0
        assert scale_exponent(np.array([1e300, np.inf])) == 0

    def test_empty_data_are_not_scaled(self):
        assert scale_exponent(np.zeros((3, 0))) == 0
        assert scale_exponent(np.zeros(0), np.array([-1e200])) == scale_exponent(
            np.array([-1e200])
        )

    def test_ldexp_is_exact_for_real_and_complex_values(self):
        values = np.array([0.75 - 0.5j, -3.0 + 1e-300j])
        scaled = ldexp(values, 1000)
        assert_array_equal(ldexp(scaled, -1000), values)
        assert_array_equal(scaled.real, np.ldexp(values.real, 1000))
        assert_array_equal(scaled.imag, np.ldexp(values.imag, 1000))
        assert_array_equal(ldexp(values.real, -3), values.real / 8)


class TestEig:
    def test_residual_oracle(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((8, 8))
        dec = eig(m)
        assert isinstance(dec, EigenDecomposition)
        res = m @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert np.linalg.norm(res) < 1e-10 * np.linalg.norm(m)

    def test_ordering_magnitude_then_imag(self):
        # eigenvalues: 2.0, 1 +/- 1j (the rotation-scaling block), 0.5
        m = np.zeros((4, 4))
        m[0, 0] = 0.5
        m[1:3, 1:3] = [[1.0, -1.0], [1.0, 1.0]]
        m[3, 3] = 2.0
        dec = eig(m)
        assert_allclose(
            dec.eigenvalues, [2.0, 1.0 + 1.0j, 1.0 - 1.0j, 0.5], atol=1e-12
        )

    def test_phase_convention(self):
        m = np.array([[0.0, -1.0], [1.0, 0.0]])
        dec = eig(m)
        for j in range(2):
            vec = dec.eigenvectors[:, j]
            assert_allclose(np.linalg.norm(vec), 1.0, rtol=1e-12)
            lead = np.argmax(np.abs(vec))
            assert abs(vec[lead].imag) < 1e-12
            assert vec[lead].real > 0

    def test_non_square_rejected(self):
        with pytest.raises(DataError):
            eig(np.ones((3, 2)))

    def test_canonical_order_is_idempotent(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 6))
        values, vectors = np.linalg.eig(m)
        v1, w1 = canonical_eig_order(values, vectors)
        v2, w2 = canonical_eig_order(v1, w1)
        assert_allclose(v1, v2)
        assert_allclose(w1, w2)


class TestSelectRank:
    def test_hand_computed_energy(self):
        # energies: 100, 1, 0.01, 0.0001 -> cumulative 0.99000..., 0.99990...
        s = np.array([10.0, 1.0, 0.1, 0.01])
        assert select_rank(s, energy=0.999, max_rank=4) == 2
        assert select_rank(s, energy=0.9999, max_rank=4) == 2
        assert select_rank(s, energy=0.99999, max_rank=4) == 3

    def test_full_energy_needs_all(self):
        s = np.array([2.0, 1.0, 0.5])
        assert select_rank(s, energy=1.0, max_rank=10) == 3

    def test_max_rank_clamps(self):
        s = np.array([1.0, 1.0, 1.0, 1.0])
        assert select_rank(s, energy=1.0, max_rank=2) == 2

    def test_rejects_unsorted(self):
        with pytest.raises(DataError):
            select_rank(np.array([1.0, 2.0]), energy=0.9, max_rank=2)

    def test_rejects_bad_energy(self):
        with pytest.raises(DataError):
            select_rank(np.array([1.0]), energy=0.0, max_rank=1)
        with pytest.raises(DataError):
            select_rank(np.array([1.0]), energy=1.5, max_rank=1)
