import numpy as np
import pytest

from mwdenoise.ghm import (GHM_LOWPASS, build_ghm_matrix, constant_free_rows,
                           detail_mask, forward_all, inverse)


@pytest.mark.parametrize("m", [8, 16, 32])
def test_orthogonality(m):
    F = build_ghm_matrix(m)
    assert np.abs(F @ F.T - np.eye(m)).max() < 1e-10


@pytest.mark.parametrize("m", [6, 4, 15, 0])
def test_invalid_size(m):
    with pytest.raises(ValueError):
        build_ghm_matrix(m)


def test_first_row_is_h_blocks_without_wrap():
    # at m=16 the first block-row spans columns 0..7; no periodic wrap
    F = build_ghm_matrix(16)
    expected = np.concatenate([h[0] for h in GHM_LOWPASS])
    assert np.allclose(F[0, :8], expected)
    assert np.all(F[0, 8:] == 0)
    assert F[0].sum() == pytest.approx(sum(h[0].sum() for h in GHM_LOWPASS))


class TestForwardInverse:
    def test_zero_window(self):
        F = build_ghm_matrix(8)
        assert np.all(forward_all(np.zeros((1, 8, 8)), F) == 0)
        assert np.all(inverse(np.zeros((8, 8)), F) == 0)

    def test_parseval(self):
        F = build_ghm_matrix(16)
        wins = np.random.default_rng(0).uniform(0, 255, (50, 16, 16))
        for w, W in zip(wins, forward_all(wins, F)):
            assert np.linalg.norm(W) == pytest.approx(np.linalg.norm(w),
                                                      rel=1e-9)

    def test_forward_recovers_planted_coefficients(self):
        F = build_ghm_matrix(8)
        rng = np.random.default_rng(1)
        E = rng.normal(size=(8, 8))
        w = F.T @ E @ F
        assert np.abs(forward_all(w[None], F)[0] - E).max() < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for m in (8, 16):
            F = build_ghm_matrix(m)
            wins = rng.uniform(0, 255, (50, m, m))
            assert np.abs(inverse(forward_all(wins, F), F) - wins).max() \
                < 1e-8

    def test_identity_coefficients(self):
        F = build_ghm_matrix(8)
        assert np.abs(inverse(np.eye(8), F) - F.T @ F).max() < 1e-12
        assert np.abs(F.T @ F - np.eye(8)).max() < 1e-10

    def test_linearity(self):
        F = build_ghm_matrix(8)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(1, 8, 8))
        b = rng.normal(size=(1, 8, 8))
        lhs = forward_all(2.5 * a - 1.5 * b, F)
        rhs = 2.5 * forward_all(a, F) - 1.5 * forward_all(b, F)
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(rhs).max())

    def test_size_mismatch(self):
        F = build_ghm_matrix(8)
        for wins in (np.zeros((1, 16, 16)), np.zeros((8, 8)),
                     np.zeros((2, 1, 8, 8))):
            with pytest.raises(ValueError):
                forward_all(wins, F)
        for coeffs in (np.zeros((16, 16)), np.zeros((3, 8, 16))):
            with pytest.raises(ValueError):
                inverse(coeffs, F)

    def test_forward_all_matches_scalar(self):
        F = build_ghm_matrix(8)
        rng = np.random.default_rng(4)
        stack = rng.uniform(0, 255, (5, 8, 8))
        batch = forward_all(stack, F)
        for i in range(5):
            assert np.allclose(batch[i], F @ stack[i] @ F.T)

    @pytest.mark.parametrize("m", [8, 16])
    def test_inverse_stack_matches_single(self, m):
        # byte for byte: the pipeline may invert one window or a stack
        F = build_ghm_matrix(m)
        coeffs = np.random.default_rng(m).normal(0, 100, (6, 5, m, m))
        stacked = inverse(coeffs, F)
        assert stacked.shape == coeffs.shape
        for i in np.ndindex(coeffs.shape[:2]):
            assert stacked[i].tobytes() == inverse(coeffs[i], F).tobytes()


def test_distance_preserved_across_domains():
    F = build_ghm_matrix(16)
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 255, (50, 16, 16))
    b = rng.uniform(0, 255, (50, 16, 16))
    diff = forward_all(a, F) - forward_all(b, F)
    for d, w in zip(diff, a - b):
        assert np.linalg.norm(d) == pytest.approx(np.linalg.norm(w),
                                                  rel=1e-9)


def test_detail_mask_geometry():
    mask = detail_mask(8)
    assert not mask[:4, :4].any()
    assert mask.sum() == 64 - 16


def test_constant_free_rows_annihilate_constants():
    for m in (8, 16):
        F = build_ghm_matrix(m)
        rows = constant_free_rows(m)
        assert np.abs(F[list(rows)].sum(axis=1)).max() < 1e-12
