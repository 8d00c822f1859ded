"""Overlapping window lattice over an image.

Windows are m-by-m blocks stepped by `s_size` pixels. When the step does
not divide (extent - m), one extra clamped row/column of windows at offset
extent - m is appended so that every pixel is covered by at least one
window.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridGeometry:
    m: int
    s_size: int
    xs: tuple  # window origin offsets along the width axis
    ys: tuple  # window origin offsets along the height axis

    @property
    def cols(self) -> int:
        return len(self.xs)

    @property
    def rows(self) -> int:
        return len(self.ys)

    @property
    def n_w(self) -> int:
        return len(self.xs) * len(self.ys)


def _offsets(extent: int, m: int, s_size: int):
    off = list(range(0, extent - m + 1, s_size))
    if (extent - m) % s_size != 0:
        off.append(extent - m)
    return tuple(off)


def build_grid(img, m: int, s_size: int) -> GridGeometry:
    """Lay out the window lattice for `img` (2-D array)."""
    shape = np.shape(img)
    if len(shape) != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {shape}")
    height, width = shape
    if m < 4 or m % 4 != 0:
        raise ValueError(f"window size must be a positive multiple of 4, got {m}")
    if m > min(height, width):
        raise ValueError(f"window size {m} exceeds image extent "
                         f"{height}x{width}")
    if not 1 <= s_size <= m:
        raise ValueError(f"step size must be in [1, {m}], got {s_size}")
    return GridGeometry(m, s_size, _offsets(width, m, s_size),
                        _offsets(height, m, s_size))


def origin_of(geom: GridGeometry, idx):
    """Top-left (x, y) pixels of the windows `idx` (row-major order)."""
    idx = np.asarray(idx)
    bad = idx[(idx < 0) | (idx >= geom.n_w)]
    if bad.size:
        raise IndexError(f"window index {bad.flat[0]} out of range "
                         f"[0, {geom.n_w})")
    row, col = np.divmod(idx, geom.cols)
    return np.take(geom.xs, col), np.take(geom.ys, row)


def extract_windows(img, geom: GridGeometry) -> np.ndarray:
    """All windows as an (n_w, m, m) float64 array, row-major order."""
    a = np.asarray(img).astype(np.float64)
    view = np.lib.stride_tricks.sliding_window_view(a, (geom.m, geom.m))
    return view[np.ix_(geom.ys, geom.xs)].reshape(geom.n_w, geom.m, geom.m)
