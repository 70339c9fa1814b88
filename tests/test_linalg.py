"""Tests for the dense matrix kernels."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pdmd.errors import DataError
from pdmd.linalg import (
    EigenDecomposition,
    canonical_eig_order,
    eig,
    randomized_svd,
    select_rank,
    truncated_svd,
)
from pdmd.synth import SynthSpec, generate


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


def stacked_randomized_svd(m, rank, seed):
    """Oracle: the same range finder run on the explicit matrix, with a
    sketch of rank + 10 columns clamped to the data limit and two power
    steps.  Returns the leading left vectors and singular values."""
    n_sketch = min(rank + 10, *m.shape)
    omega = np.random.default_rng(seed).standard_normal((m.shape[1], n_sketch))
    q, _ = np.linalg.qr(m @ omega)
    for _ in range(2):
        q, _ = np.linalg.qr(m.T @ q)
        q, _ = np.linalg.qr(m @ q)
    ub, s, _ = np.linalg.svd(q.T @ m, full_matrices=False)
    return (q @ ub)[:, :rank], s[:rank]


def decaying_blocks(floor=1e-29, widths=(30, 17, 33), seed=0):
    """Column blocks of a 120-row matrix with 30 singular values spaced
    geometrically from 1 down to ``floor``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((120, 30)))
    v, _ = np.linalg.qr(rng.standard_normal((sum(widths), 30)))
    m = (u * np.geomspace(1.0, floor, 30)) @ v.T
    return np.split(m, np.cumsum(widths)[:-1], axis=1)


def noisy_modes_blocks():
    """Sixteen noisy 200 x 40 exp-modes trajectories."""
    spec = SynthSpec(
        "exp-modes", n_h=200, n_params=16, param_range=(0.2, 0.8), n_t=40,
        dt=0.08, noise_std=0.01, seed=3,
    )
    return generate(spec)[0].states()


class TestRandomizedSvd:
    def test_matches_deterministic_on_decaying_spectrum(self):
        blocks = decaying_blocks()
        det = truncated_svd(np.hstack(blocks), rank=8)
        rnd = randomized_svd(blocks, rank=8, seed=42)
        assert_allclose(rnd.singular_values, det.singular_values, rtol=1e-2)
        assert_allclose(rnd.reconstruct(), det.reconstruct(), atol=1e-8)

    @pytest.mark.parametrize(
        "make_blocks, rank, seed",
        [(lambda: decaying_blocks(1e-3), 8, 42), (noisy_modes_blocks, 6, 0),
         (noisy_modes_blocks, 20, 5)],
        ids=["graded", "noisy-modes-6", "noisy-modes-20"],
    )
    def test_matches_stacked_oracle(self, make_blocks, rank, seed):
        blocks = make_blocks()
        u, s = stacked_randomized_svd(np.hstack(blocks), rank, seed)
        rnd = randomized_svd(blocks, rank, seed=seed)
        assert_allclose(rnd.singular_values, s, rtol=1e-12)
        cosines = np.linalg.svd(rnd.modes_u.T @ u, compute_uv=False)
        assert np.min(cosines) >= 1 - 1e-12

    def test_seed_reproducibility(self):
        blocks = noisy_modes_blocks()
        a = randomized_svd(blocks, rank=5, seed=9)
        b = randomized_svd([block.copy() for block in blocks], rank=5, seed=9)
        assert_array_equal(a.modes_u, b.modes_u)
        assert_array_equal(a.singular_values, b.singular_values)
        assert_array_equal(a.right_v, b.right_v)

    def test_sketch_clamped_to_data_limit(self):
        # rank 4 + 10 oversampling exceeds the 6 columns: the sketch is
        # clamped to the full column space, so the result is exact
        rng = np.random.default_rng(5)
        blocks = [rng.standard_normal((8, 2)), rng.standard_normal((8, 4))]
        exact = truncated_svd(np.hstack(blocks), rank=4)
        rnd = randomized_svd(blocks, rank=4, seed=1)
        assert_allclose(rnd.singular_values, exact.singular_values, rtol=1e-12)
        assert_allclose(rnd.modes_u, exact.modes_u, atol=1e-12)

    def test_rank_above_data_limit_rejected(self):
        with pytest.raises(DataError, match="out of range"):
            randomized_svd([np.eye(8)], rank=9)
        with pytest.raises(DataError, match="out of range"):
            randomized_svd([np.eye(8)], rank=0)

    def test_malformed_blocks_rejected(self):
        with pytest.raises(DataError, match="at least one block"):
            randomized_svd([], rank=1)
        with pytest.raises(DataError, match="row count"):
            randomized_svd([np.eye(4), np.eye(5)], rank=1)
        with pytest.raises(DataError, match="real"):
            randomized_svd([np.eye(4) + 0j], rank=1)


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
