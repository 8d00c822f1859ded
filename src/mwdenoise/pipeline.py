"""The full denoiser: window transform, closer-window selection,
transform-domain thresholding and overlap aggregation.

The work runs on blocks of windows (`ga.ref_blocks`): the fewest
near-equal blocks whose (rows, n_w) GA distance cache fits a 4 MiB budget,
one block for a 96x96 image at m=8, s_size=4. Both engines take one
selection contract (n_c and the gate l2_t) and start from one table of
each window's exact, ungated top n_c (`selection.gram_shortlist`): the
exhaustive scan keeps each row's gated prefix (`exhaustive_select`), the
GA (`ga.closest_sets`) answers its short rows from the table and searches
the rest. The members that pass the gate, self excluded, fill a selection
table of (n_w, n_c) indices in selection order with a count per row. Each
block is then averaged with its members, summed a column at a time, shrunk
in the detail bands, inverted and overlap-added in window order.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import ghm
from .ga import GaParams, closest_sets, ref_blocks
from .image_io import PEAK
from .selection import (SelectionParams, exhaustive_select, gram_shortlist,
                        noise_gate)
from .windows import build_grid, extract_windows, origin_of

ENGINES = ("exhaustive", "ga")


@dataclass
class DenoiseConfig:
    """Every denoiser setting. The selection and GA settings take their
    defaults from SelectionParams and GaParams, and are validated by
    building them."""
    m: int = 16
    s_size: int = 8
    engine: str = "exhaustive"
    n_c: int = SelectionParams.n_c
    l2_t: float | None = None      # None: noise-adaptive gate from sigma
    sigma: float | None = None     # None: estimate from the noisy image
    threshold_scale: float = 1.0
    seed: int = GaParams.seed
    n_p: int = GaParams.n_p
    g_max: int = GaParams.g_max
    c_p1: int = GaParams.c_p1
    c_p2: int = GaParams.c_p2
    max_rounds: int = GaParams.max_rounds

    def __post_init__(self):
        ghm.check_size(self.m)
        if not 1 <= self.s_size <= self.m:
            raise ValueError(f"s_size must be in [1, m={self.m}], "
                             f"got {self.s_size}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"expected one of {ENGINES}")
        if not 0 < self.threshold_scale < math.inf:
            raise ValueError(f"threshold_scale must be finite and > 0, "
                             f"got {self.threshold_scale}")
        if self.sigma is not None and not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, "
                             f"got {self.sigma}")
        # raise here, not mid-run; GaParams checks n_c and l2_t as well
        l2_t = math.inf if self.l2_t is None else self.l2_t
        if self.engine == "ga":
            self.ga_params(l2_t)
        else:
            self.selection_params(l2_t)
        if self.seed < 0:   # for the GA, GaParams has said so already
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def selection_params(self, l2_t: float) -> SelectionParams:
        return SelectionParams(n_c=self.n_c, l2_t=l2_t)

    def ga_params(self, l2_t: float) -> GaParams:
        return GaParams(n_c=self.n_c, n_p=self.n_p, g_max=self.g_max,
                        c_p1=self.c_p1, c_p2=self.c_p2, l2_t=l2_t,
                        max_rounds=self.max_rounds, seed=self.seed)


@dataclass
class RunStats:
    engine: str
    m: int
    s_size: int
    n_c: int
    sigma: float
    distance_evals: int
    wall_ms: float
    seed: int
    psnr_in: float | None = None
    psnr_out: float | None = None
    gram_pairs: int = 0   # pairs the Gram shortlists priced, either engine
    short_rows: int | None = None   # GA: windows whose gate passes < n_c
    block_rows: int | None = None   # GA: rows of its largest search block

    def as_block(self) -> str:
        """Flat key=value rendering, one field per line."""
        pairs = [("engine", self.engine), ("m", self.m),
                 ("s_size", self.s_size), ("n_c", self.n_c),
                 ("sigma", f"{self.sigma:.4f}"),
                 ("psnr_in", _fmt_db(self.psnr_in)),
                 ("psnr_out", _fmt_db(self.psnr_out)),
                 ("distance_evals", self.distance_evals),
                 ("gram_pairs", self.gram_pairs),
                 ("wall_ms", f"{self.wall_ms:.1f}"), ("seed", self.seed)]
        if self.short_rows is not None:
            pairs.append(("short_rows", self.short_rows))
        if self.block_rows is not None:
            pairs.append(("block_rows", self.block_rows))
        return "\n".join(f"{k}={v}" for k, v in pairs)


def _fmt_db(v):
    if v is None:
        return "n/a"
    return "inf" if math.isinf(v) else f"{v:.2f}"


def sigma_from_coeffs(coeffs: np.ndarray, m: int) -> float:
    rows = np.array(ghm.constant_free_rows(m))
    fine = coeffs[np.ix_(np.arange(len(coeffs)), rows, rows)]
    return float(np.median(np.abs(fine)) / 0.6745)


def universal_threshold(sigma: float, m: int, scale: float = 1.0) -> float:
    return scale * sigma * math.sqrt(2.0 * math.log(m * m))


def soft_threshold(coeffs: np.ndarray, t: float) -> np.ndarray:
    """Shrink the detail bands of an (..., m, m) stack toward zero by t."""
    if not 0 <= t < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {t}")
    W = np.asarray(coeffs, dtype=np.float64)
    shrunk = np.sign(W) * np.maximum(np.abs(W) - t, 0.0)
    np.copyto(shrunk, W, where=~ghm.detail_mask(W.shape[-1]))  # low-pass
    return shrunk


def denoise_window(refs: np.ndarray, closer: np.ndarray, counts: np.ndarray,
                   t: float, F: np.ndarray) -> np.ndarray:
    """Average, shrink and invert the (n, m, m) reference coefficients
    `refs`. Row i of the (n, m, m) stack `closer` is the sum of the
    coefficients of its counts[i] members."""
    combined = (refs + closer) / (1 + counts)[:, None, None]
    return ghm.inverse(soft_threshold(combined, t), F)


class Accumulator:
    """Per-pixel running sums and contribution counts for overlap-add."""

    def __init__(self, shape):
        self.sums = np.zeros(shape)
        self.weights = np.zeros(shape)

    def add(self, patches: np.ndarray, xs, ys):
        """Add (n, m, m) patches at corners (xs, ys), in stack order."""
        span = np.arange(patches.shape[-1])
        rows = np.add.outer(ys, span) * self.sums.shape[1]
        at = (rows[:, :, None] + np.add.outer(xs, span)[:, None, :]).ravel()
        np.add.at(self.sums.reshape(-1), at, patches.ravel())
        np.add.at(self.weights.reshape(-1), at, 1.0)

    def finalize(self) -> np.ndarray:
        if (self.weights == 0).any():
            raise AssertionError("uncovered pixels in aggregation")
        out = self.sums / self.weights
        return np.clip(np.rint(out), 0, PEAK).astype(np.uint8)


def denoise_image(noisy, cfg: DenoiseConfig, trace=None, threads: int = 1):
    """Denoise a grayscale image; returns (image, RunStats).

    Raises ValueError before any work when threads < 1, n_c exceeds the
    window count or a pixel is non-finite or outside [0, 255]. The work
    runs on one thread whatever `threads` is: its steps are short numpy
    calls that hold the interpreter lock, and on two cores a thread pool
    made both a 512x512 scan and a 96x96 GA image about 1.5x slower.
    GA trace records come in window order, then generation order; a short
    row runs no generation, so it gives none.
    """
    start = time.perf_counter()
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    noisy = np.asarray(noisy)
    geom = build_grid(noisy, cfg.m, cfg.s_size)
    if cfg.n_c > geom.n_w:
        raise ValueError(f"n_c={cfg.n_c} exceeds the n_w={geom.n_w} windows "
                         f"of a {noisy.shape[0]}x{noisy.shape[1]} image")
    if not np.isfinite(noisy).all():
        raise ValueError("image has non-finite pixels (NaN or inf)")
    if noisy.dtype != np.uint8:
        lo, hi = noisy.min(), noisy.max()
        if lo < 0 or hi > PEAK:
            raise ValueError(f"pixel values span [{lo}, {hi}], outside the "
                             f"8-bit range [0, {PEAK}]")
    F = ghm.build_ghm_matrix(cfg.m)
    coeffs = ghm.forward_all(extract_windows(noisy, geom), F)

    sigma = cfg.sigma if cfg.sigma is not None else sigma_from_coeffs(
        coeffs, cfg.m)
    t = universal_threshold(sigma, cfg.m, cfg.threshold_scale)
    l2_t = cfg.l2_t if cfg.l2_t is not None else noise_gate(sigma, cfg.m)

    blocks = ref_blocks(geom.n_w)
    nearest, distances, gram_pairs = gram_shortlist(coeffs, cfg.n_c)
    short = block_rows = None
    if cfg.engine == "exhaustive":
        params = cfg.selection_params(l2_t)
        closest = (exhaustive_select(ref_idx, coeffs, params, row)
                   for ref_idx, row in enumerate(zip(nearest, distances)))
    else:
        closest, short = closest_sets(coeffs, cfg.ga_params(l2_t), blocks,
                                      (nearest, distances), trace)
        block_rows = max(len(b) - int(np.count_nonzero(short[b]))
                         for b in blocks)

    # fallback-filled members failed the distance gate; averaging them in
    # would mix dissimilar content into the estimate
    table = np.zeros((geom.n_w, cfg.n_c), np.int64)
    counts = np.zeros(geom.n_w, np.int64)
    total_evals = 0
    for ref_idx, found in enumerate(closest):
        gated = found.gated_indices
        members = gated[gated != ref_idx]
        table[ref_idx, :len(members)] = members
        counts[ref_idx] = len(members)
        total_evals += found.evaluations

    acc = Accumulator(noisy.shape)
    for rows in blocks:
        # members summed a column at a time in selection order, zero past
        # a row's count: the bits of a (rows, k, m, m) gather's sum
        n = counts[rows]
        closer = coeffs[table[rows, 0]]
        closer[n == 0] = 0.0
        for j in range(1, n.max()):
            column = coeffs[table[rows, j]]
            column[n <= j] = 0.0
            closer += column
        patches = denoise_window(coeffs[rows], closer, n, t, F)
        acc.add(patches, *origin_of(geom, rows))
    out = acc.finalize()

    wall_ms = (time.perf_counter() - start) * 1000.0
    stats = RunStats(engine=cfg.engine, m=cfg.m, s_size=cfg.s_size,
                     n_c=cfg.n_c, sigma=sigma, distance_evals=total_evals,
                     wall_ms=wall_ms, seed=cfg.seed, gram_pairs=gram_pairs,
                     short_rows=None if short is None else int(short.sum()),
                     block_rows=block_rows)
    return out, stats

