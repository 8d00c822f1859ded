import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mwdenoise
from mwdenoise.ghm import (GHM_LOWPASS, build_ghm_matrix, constant_free_rows,
                           detail_mask, forward_all, inverse)
from mwdenoise.selection import GRAM_BLOCK_ENTRIES


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
            assert batch[i].tobytes() == (F @ stack[i] @ F.T).tobytes()

    @pytest.mark.parametrize("m", [8, 16])
    def test_forward_all_blocks_match_single(self, m):
        # byte for byte: a window's bits do not depend on the stack it
        # came in or on where the blocks split it
        F = build_ghm_matrix(m)
        n = GRAM_BLOCK_ENTRIES // (m * m) + 37
        stack = np.random.default_rng(m).uniform(0, 255, (n, m, m))
        batch = forward_all(stack, F)
        assert batch.shape == stack.shape
        for i in range(n):
            assert batch[i].tobytes() == forward_all(stack[i:i + 1],
                                                     F).tobytes()

    def test_forward_all_empty(self):
        F = build_ghm_matrix(8)
        out = forward_all(np.zeros((0, 8, 8)), F)
        assert out.shape == (0, 8, 8) and out.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_forward_all_float64_result(self, dtype):
        F = build_ghm_matrix(8)
        stack = np.random.default_rng(6).integers(0, 256, (20, 8, 8))
        out = forward_all(stack.astype(dtype), F)
        assert out.dtype == np.float64
        assert out.tobytes() == forward_all(stack.astype(np.float64),
                                            F).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_forward_all_memory(self, dtype):
        # blocked, the working memory past the output is two blocks (a
        # float64 copy and F @ w); a whole-stack product would add a stack
        F = build_ghm_matrix(16)
        stack = np.random.default_rng(7).uniform(
            0, 255, (3969, 16, 16)).astype(dtype)
        tracemalloc.start()
        try:
            out = forward_all(stack, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2.5 * 2 ** 20

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


_THREADS_SCRIPT = """
import hashlib
from mwdenoise import (DenoiseConfig, add_awgn, build_ghm_matrix, build_grid,
                       ct_phantom, denoise_image, extract_windows,
                       forward_all)
h = hashlib.sha256()
noisy = add_awgn(ct_phantom(512), 20, 1)
h.update(forward_all(extract_windows(noisy, build_grid(noisy, 16, 8)),
                     build_ghm_matrix(16)).tobytes())
noisy = add_awgn(ct_phantom(64), 15, 0)
for engine in ("exhaustive", "ga"):
    out, stats = denoise_image(noisy, DenoiseConfig(
        m=8, s_size=4, engine=engine, sigma=15.0, threshold_scale=0.25))
    h.update(out.tobytes())
    h.update(repr(stats.distance_evals).encode())
print(h.hexdigest())
"""


def test_outputs_independent_of_blas_threads():
    src = str(Path(mwdenoise.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT],
                             env=env, capture_output=True, text=True,
                             check=True)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
