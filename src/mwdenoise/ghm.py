"""GHM multi-wavelet block transform.

The analysis matrix concatenates the Geronimo-Hardin-Massopust 2x2 filter
coefficient matrices into a single orthogonal m-by-m block-circulant
matrix: m/4 block-rows of the low-pass matrices H0..H3 followed by m/4
block-rows of the high-pass G0..G3, each block-row shifted by 4 columns
with periodic wrap. A window w transforms as F w F^T, and coefficients W
invert as F^T W F. Both directions run as BLAS matmuls, one small gemm per
window, so a window's coefficients do not depend on the stack it came in,
nor on the BLAS thread count. They are reproducible for one BLAS build and
CPU, not across them.
"""

import numpy as np

from .selection import GRAM_BLOCK_ENTRIES

_S2 = np.sqrt(2.0)

# Standard GHM filter coefficient matrices (multiplicity 2).
GHM_LOWPASS = (
    np.array([[3.0 / (5.0 * _S2), 4.0 / 5.0],
              [-1.0 / 20.0, -3.0 / (10.0 * _S2)]]),
    np.array([[3.0 / (5.0 * _S2), 0.0],
              [9.0 / 20.0, 1.0 / _S2]]),
    np.array([[0.0, 0.0],
              [9.0 / 20.0, -3.0 / (10.0 * _S2)]]),
    np.array([[0.0, 0.0],
              [-1.0 / 20.0, 0.0]]),
)

GHM_HIGHPASS = (
    np.array([[-1.0 / 20.0, -3.0 / (10.0 * _S2)],
              [1.0 / (10.0 * _S2), 3.0 / 10.0]]),
    np.array([[9.0 / 20.0, -1.0 / _S2],
              [-9.0 / (10.0 * _S2), 0.0]]),
    np.array([[9.0 / 20.0, -3.0 / (10.0 * _S2)],
              [9.0 / (10.0 * _S2), -3.0 / 10.0]]),
    np.array([[-1.0 / 20.0, 0.0],
              [-1.0 / (10.0 * _S2), 0.0]]),
)

ORTHOGONALITY_TOL = 1e-10


def check_size(m: int) -> None:
    """Raise ValueError unless m is a valid transform size."""
    if m < 8 or m % 4 != 0:
        raise ValueError(f"transform size must be a multiple of 4 and >= 8, "
                         f"got {m}")


def build_ghm_matrix(m: int) -> np.ndarray:
    """Assemble the m-by-m GHM analysis matrix and verify orthogonality."""
    check_size(m)
    F = np.zeros((m, m))
    half = m // 2
    for r in range(m // 4):
        for k in range(4):
            c = (4 * r + 2 * k) % m
            F[2 * r:2 * r + 2, c:c + 2] += GHM_LOWPASS[k]
            F[half + 2 * r:half + 2 * r + 2, c:c + 2] += GHM_HIGHPASS[k]
    err = np.abs(F @ F.T - np.eye(m)).max()
    if err >= ORTHOGONALITY_TOL:
        raise AssertionError(f"GHM matrix not orthogonal at m={m}: "
                             f"max |F F^T - I| = {err:.3e}")
    return F


def forward_all(wins: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Window pixels -> multi-wavelet coefficients (F w F^T) of an
    (n, m, m) stack of windows; one window is a stack of one.

    The float64 result is computed as F @ w @ F.T in blocks of at most
    GRAM_BLOCK_ENTRIES pixels, so the working memory past the output stays
    at two blocks (a float64 copy and the F @ w product) however long the
    stack. Each window gets its own gemm, so its bits are those of
    F @ w @ F.T on that window alone.
    """
    wins = np.asarray(wins)
    if wins.ndim != 3 or wins.shape[-2:] != F.shape:
        raise ValueError(f"window stack shape {wins.shape} is not "
                         f"(n, {F.shape[0]}, {F.shape[0]})")
    out = np.empty(wins.shape)
    step = max(1, GRAM_BLOCK_ENTRIES // F.size)
    for lo in range(0, len(wins), step):
        block = np.ascontiguousarray(wins[lo:lo + step], dtype=np.float64)
        np.matmul(F @ block, F.T, out=out[lo:lo + step])
    return out


def inverse(coeffs: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Multi-wavelet coefficients -> window pixels (F^T W F), for one
    (m, m) window or a (..., m, m) stack of them."""
    W = np.asarray(coeffs, dtype=np.float64)
    if W.shape[-2:] != F.shape:
        raise ValueError(f"coefficient shape {W.shape} does not match "
                         f"transform size {F.shape[0]}")
    return F.T @ W @ F


def detail_mask(m: int) -> np.ndarray:
    """Boolean mask of the detail bands (outside the m/2 low-pass quadrant)."""
    mask = np.ones((m, m), dtype=bool)
    half = m // 2
    mask[:half, :half] = False
    return mask


def constant_free_rows(m: int):
    """Indices of high-pass rows whose entries sum to zero.

    Coefficients built from these rows (on both axes) annihilate constant
    offsets exactly, which makes them usable for noise estimation.
    """
    half = m // 2
    return tuple(half + 1 + 2 * k for k in range(m // 4))
