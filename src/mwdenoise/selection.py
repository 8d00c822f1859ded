"""Closer-window selection: distance kernel, threshold gate and the
exhaustive baseline engine.

Distances are L2 norms of coefficient differences in the multi-wavelet
domain. Because the transform is orthogonal this equals the pixel-domain
distance; the equality is exercised by tests rather than exploited here.

The exhaustive engine prices every window pair, but not one reference at a
time. `gram_shortlist` takes the squared window norms once and, for a block
of reference rows at a time, gets every squared distance from one BLAS
matmul as ||a||^2 + ||b||^2 - 2 a.b. Each reference keeps as its shortlist
every candidate within a rounding-error margin of its n_c-th smallest
value, cut to the exact top n_c where duplicate windows make it long.
`exhaustive_select` then re-ranks that shortlist with the canonical
kernel `distances_from`, the same one the full scan uses. The gate is
monotone in distance, so the result equals the full scan's, ties and their
order included. A Gram block holds at most GRAM_BLOCK_ENTRIES float64
values (1 MiB), so memory does not grow as n_w^2. A selection still
reports n_w evaluations (n_w - 1 without self), because the Gram priced
every pair.
"""

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class SelectionParams:
    n_c: int = 16
    l2_t: float = np.inf
    include_self: bool = True

    def __post_init__(self):
        if self.n_c < 1:
            raise ValueError(f"n_c must be >= 1, got {self.n_c}")
        if not self.l2_t > 0:
            raise ValueError(f"l2_t must be > 0, got {self.l2_t}")


@dataclass
class ClosestSet:
    """Windows closest to one reference window, ascending by distance.

    `gated` counts the leading members that passed the distance threshold;
    any members past it were added by the GA's fallback fill.
    """
    ref_idx: int
    indices: np.ndarray
    distances: np.ndarray
    evaluations: int = 0
    gated: int | None = None

    def __post_init__(self):
        if self.gated is None:
            self.gated = len(self.indices)

    def __len__(self):
        return len(self.indices)

    @property
    def fallback_used(self) -> bool:
        return self.gated < len(self.indices)

    @property
    def gated_indices(self) -> np.ndarray:
        return self.indices[:self.gated]


def distances_from(coeffs: np.ndarray, ref_idx,
                   candidates: np.ndarray | None = None) -> np.ndarray:
    """Distances from window `ref_idx` to the `candidates` windows (every
    window when None), in candidate order. `ref_idx` may also be an index
    array as long as `candidates`, giving the distance of each pair.

    This is the one L2 kernel: every distance the engines use or report
    comes from it. Each distance is computed from its own two windows
    only, so it is bitwise the same whichever pairs are asked for with it.
    """
    flat = coeffs.reshape(len(coeffs), -1)
    diff = flat if candidates is None else flat[candidates]
    diff = diff - flat[ref_idx]
    diff **= 2
    return np.sqrt(np.add.reduce(diff, axis=1))


def passes_gate(d, l2_t: float):
    """Whether distances `d` pass the gate: strictly below l2_t, so that a
    window is gated exactly when it is not a GA mutation point."""
    return d < l2_t


def rank_ascending(indices: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Sort order by (distance, index); ties go to the smaller index."""
    return np.lexsort((indices, distances))


def exhaustive_select(ref_idx: int, coeffs: np.ndarray,
                      params: SelectionParams,
                      candidates: np.ndarray | None = None) -> ClosestSet:
    """Gate the candidate windows by l2_t, sort, keep n_c.

    `candidates` (None: every window) must hold the exact top n_c, as the
    shortlists of `gram_shortlist` do; the result then equals the full
    scan's. The evaluation count is that of the full scan either way,
    because a shortlist comes from pricing every pair.
    """
    n_w = len(coeffs)
    if not 0 <= ref_idx < n_w:
        raise IndexError(f"reference index {ref_idx} out of range [0, {n_w})")
    dists = distances_from(coeffs, ref_idx, candidates)
    cand = np.arange(n_w) if candidates is None else np.asarray(candidates)
    evaluations = n_w
    if not params.include_self:
        keep = cand != ref_idx
        cand, dists = cand[keep], dists[keep]
        evaluations = n_w - 1
    gate = passes_gate(dists, params.l2_t)
    cand, dists = cand[gate], dists[gate]
    order = rank_ascending(cand, dists)[:params.n_c]
    return ClosestSet(ref_idx, cand[order], dists[order], evaluations)


# float64 values in one Gram block, and in one block of windows that
# ghm.forward_all transforms: 1 MiB
GRAM_BLOCK_ENTRIES = 2 ** 17


def gram_shortlist(coeffs: np.ndarray, params: SelectionParams) -> list:
    """Per reference window, the candidate indices that can be among its
    exact n_c nearest, found from blocked Gram distances.

    Every row of squared distances is priced in blocks of at most
    GRAM_BLOCK_ENTRIES values. A row keeps each candidate whose Gram value
    is within `margin` of the row's n_c-th smallest one. Self is masked out
    first when `include_self` is off. A row that keeps more than 2 n_c is
    cut to its exact top n_c with the canonical kernel. With n_c at least
    the number of candidates, every window is kept.

    Why the margin suffices (eps is the float64 machine epsilon, d the
    coefficients per window, sq the squared norms, and first-order error
    bounds throughout):
    - The canonical kernel sums d rounded squares of rounded differences,
      so its S = fl(||a - b||^2) is within (d + 2) eps ||a - b||^2 of the
      exact value, and ||a - b||^2 <= 2 (sq_a + sq_b).
    - The Gram value G = sq_a + sq_b - 2 a.b takes two norms and a dot
      product, each within d eps of its size (|a.b| <= (sq_a + sq_b) / 2),
      and two additions of magnitude at most 2 (sq_a + sq_b). So
      |G - S| <= e = (4 d + 8) eps (sq_a + sq_b), which is at most
      (4 d + 8) eps (sq_i + max sq) for reference i.
    - Let kth be the row's n_c-th smallest G. The n_c candidates with
      G <= kth have S <= kth + e. A member j of the exact top n_c has a
      distance sqrt(S_j) no larger than the largest of theirs. The sqrt
      is correctly rounded, so S_j <= (kth + e)(1 + 4 eps). Hence
      G_j <= S_j + e <= kth + 2 e + 8 eps (sq_i + max sq).
    margin = 8 (d + 4) eps (sq_i + max sq) covers that plus the rounding of
    the cut itself. Ties at the n_c-th value all fall inside it.
    """
    n_w = len(coeffs)
    flat = coeffs.reshape(n_w, -1)
    n_c = params.n_c
    if n_c >= (n_w if params.include_self else n_w - 1):
        return [np.arange(n_w)] * n_w
    sq = np.einsum("ij,ij->i", flat, flat)
    slack = 8 * (flat.shape[1] + 4) * np.finfo(np.float64).eps
    margin = slack * (sq + sq.max())
    rows = max(1, GRAM_BLOCK_ENTRIES // n_w)
    shortlists = []
    for lo in range(0, n_w, rows):
        hi = min(lo + rows, n_w)
        d2 = flat[lo:hi] @ flat.T
        d2 *= -2.0
        d2 += sq[lo:hi, None]
        d2 += sq
        if not params.include_self:
            d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        kth = np.partition(d2, n_c - 1, axis=1)[:, n_c - 1]
        keep = d2 <= (kth + margin[lo:hi])[:, None]
        for ref_idx, row in enumerate(keep, lo):
            cand = np.flatnonzero(row)
            if len(cand) > 2 * n_c:
                # many windows within the margin, as with duplicate
                # windows: keep just the exact top n_c, so shortlists stay
                # O(n_c) per reference instead of O(n_w)
                order = rank_ascending(
                    cand, distances_from(coeffs, ref_idx, cand))
                cand = cand[order[:n_c]]
            shortlists.append(cand)
    return shortlists


def calibrate_l2t(coeffs: np.ndarray, quantile: float = 0.05,
                  sample_pairs: int = 1000, seed: int = 0) -> float:
    """Empirical distance quantile over randomly sampled window pairs."""
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    if sample_pairs < 100:
        raise ValueError(f"need at least 100 sample pairs, got {sample_pairs}")
    n_w = len(coeffs)
    rng = np.random.default_rng(seed)
    dists = np.empty(sample_pairs)
    got = 0
    while got < sample_pairs:
        i = rng.integers(0, n_w, size=sample_pairs - got)
        j = rng.integers(0, n_w, size=sample_pairs - got)
        ok = i != j if n_w > 1 else np.ones(len(i), dtype=bool)
        k = ok.sum()
        dists[got:got + k] = distances_from(coeffs, i[ok], j[ok])
        got += k
    value = float(np.quantile(dists, quantile))
    if value <= 0.0:
        warnings.warn("all sampled window distances are zero; "
                      "returning a tiny positive threshold")
        return float(np.finfo(np.float64).tiny)
    return value


def noise_gate(sigma: float, m: int, noise_mult: float = 1.05,
               mismatch: float = 6.0) -> float:
    """Distance gate for a known noise level.

    Two windows with identical clean content differ by about
    sigma * sqrt(2 m^2) from noise alone; the gate admits that noise floor
    (scaled by `noise_mult`) plus a clean-content mismatch budget of
    `mismatch` intensity levels per pixel.
    """
    floor = (noise_mult * sigma) ** 2 * 2.0 * m * m
    budget = (mismatch * m) ** 2
    return float(np.sqrt(floor + budget))
