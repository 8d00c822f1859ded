"""GHM multi-wavelet block transform.

The analysis matrix concatenates the Geronimo-Hardin-Massopust 2x2 filter
coefficient matrices into a single orthogonal m-by-m block-circulant
matrix: m/4 block-rows of the low-pass matrices H0..H3 followed by m/4
block-rows of the high-pass G0..G3, each block-row shifted by 4 columns
with periodic wrap. A window w transforms as F w F^T.
"""

import numpy as np

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


def build_ghm_matrix(m: int) -> np.ndarray:
    """Assemble the m-by-m GHM analysis matrix and verify orthogonality."""
    if m < 8 or m % 4 != 0:
        raise ValueError(f"transform size must be a multiple of 4 and >= 8, "
                         f"got {m}")
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
    (n, m, m) stack of windows; one window is a stack of one."""
    if np.ndim(wins) != 3 or np.shape(wins)[-2:] != F.shape:
        raise ValueError(f"window stack shape {np.shape(wins)} is not "
                         f"(n, {F.shape[0]}, {F.shape[0]})")
    return np.einsum("ab,wbc,dc->wad", F, wins, F)


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
