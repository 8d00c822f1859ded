"""Closer-window selection: distance kernel, threshold gate and the
exhaustive baseline engine.

Distances are L2 norms of coefficient differences in the multi-wavelet
domain. Because the transform is orthogonal this equals the pixel-domain
distance; the equality is exercised by tests rather than exploited here.

The exhaustive engine settles every window pair, but not one reference at
a time. `gram_shortlist` takes the squared window norms once, sorts the
windows by them and, for a block of reference rows at a time, gets squared
distances from BLAS matmuls as ||a||^2 + ||b||^2 - 2 a.b. A small core
product against the block's norm neighbours bounds each row's n_c-th
distance, and since ||a - b|| >= | ||a|| - ||b|| |, only the windows in one
band of norms around the block can reach it; the rest are ruled out
without being priced. Each reference keeps as its shortlist every
candidate within a rounding-error margin of its n_c-th smallest value, cut
to the exact top n_c where duplicate windows make it long.
`exhaustive_select` then re-ranks that shortlist with the canonical
kernel `distances_from`, the same one the full scan uses. The gate is
monotone in distance, so the result equals the full scan's, ties and their
order included. A Gram block holds at most GRAM_BLOCK_ENTRIES float64
values (1 MiB), so memory does not grow as n_w^2. Every pair is either
priced or ruled out by the bound, so a selection still reports n_w
evaluations; `gram_shortlist` also returns the pairs it priced. The
reference is always one of its own candidates, as in the paper, where a
window is matched against a duplicate of the noisy image; to leave it out
of its own neighbours, raise n_c by one.
"""

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class SelectionParams:
    n_c: int = 16
    l2_t: float = np.inf

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
    because a shortlist comes from settling every pair, by pricing it or
    by ruling it out.
    """
    n_w = len(coeffs)
    if not 0 <= ref_idx < n_w:
        raise IndexError(f"reference index {ref_idx} out of range [0, {n_w})")
    dists = distances_from(coeffs, ref_idx, candidates)
    cand = np.arange(n_w) if candidates is None else np.asarray(candidates)
    gate = passes_gate(dists, params.l2_t)
    cand, dists = cand[gate], dists[gate]
    order = rank_ascending(cand, dists)[:params.n_c]
    return ClosestSet(ref_idx, cand[order], dists[order], n_w)


# float64 values in one Gram block, and in one block of windows that
# ghm.forward_all transforms: 1 MiB
GRAM_BLOCK_ENTRIES = 2 ** 17


def gram_shortlist(coeffs: np.ndarray, n_c: int):
    """(shortlists, pairs): per reference window, the candidate indices
    that can be among its exact n_c nearest, found from blocked Gram
    distances; and the number of pairs the Gram products priced.

    The windows are taken in ascending order of squared norm sq (a stable
    argsort), and the reference rows in blocks of GRAM_BLOCK_ENTRIES // n_w.
    For each block:
    - a core product prices its rows against their norm neighbourhood,
      the block's rows +- n_c, so every row has n_c candidates in it;
    - the core's n_c-th value per row plus `margin` bounds the row's n_c-th
      distance from above, and with a rounding allowance `allow` it gives
      one contiguous band [a, b) of norm-sorted columns, the core included,
      outside which no window can reach that distance (|n_a - n_b| <=
      ||a - b|| for the norms n); only the sides [a, c0) and [c1, b) of the
      core [c0, c1) are priced;
    - a row keeps each candidate of the band whose Gram value is within
      `margin` of the band's n_c-th smallest one. A row that keeps more
      than 2 n_c is cut to its exact top n_c with the canonical kernel.
    With n_c at least the number of candidates, every window is kept and
    no pair is priced.

    Why the margin suffices (eps is the float64 machine epsilon, d the
    coefficients per window, and first-order error bounds throughout):
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
      G_j <= S_j + e <= kth + 2 e + 8 eps (sq_i + max sq), if j was priced.
    margin = 8 (d + 4) eps (sq_i + max sq) covers that plus the rounding of
    the cut itself. Ties at the n_c-th value all fall inside it.

    Why the band holds every member (N is the largest computed norm, so
    max sq = N^2 and every distance is at most 2 N; u = eps / 2):
    - A computed norm n = sqrt(fl(sq)) is within (d + 1) eps / 2 ||x|| of
      the exact ||x||: sq is within d eps of its size, the sqrt halves
      that and adds one rounding. Two norms together are off by at most
      (d + 1) eps N.
    - Upper bound. With kth the row's n_c-th smallest core G, n_c
      candidates have S <= kth + e, so the row's n_c-th smallest canonical
      distance D_nc is at most sqrt(kth + e)(1 + u). The code takes
      R = sqrt(kth + margin). As margin >= 2 e + 16 eps N^2 and kth <= 4 N^2,
      the sum loses at most 2 eps N^2 to rounding and stays >= kth + e;
      the sqrt rounds once more. So D_nc <= R (1 + u) / (1 - u)
      <= R + 2 eps N.
    - Lower bound. For any candidate j, S_j >= ||a - b||^2 (1 - (d + 2) eps)
      and its sqrt rounds once, so D_j >= ||a - b|| (1 - (d + 3) eps / 2)
      >= ||a - b|| - (d + 3) eps N. By the reverse triangle inequality and
      the norm bound, ||a - b|| >= |n_i - n_j| - (d + 1) eps N, so
      D_j >= |n_i - n_j| - (2 d + 4) eps N.
    - Band. The sorted norms are ascending, as the sqrt is monotone, and a
      window is outside the band only when its norm is below
      fl(n_i - fl(R + allow)) or above fl(n_i + fl(R + allow)) for every
      row i of the block. Those roundings, of values below 3 N, cost at
      most 3 eps N, so |n_i - n_j| > R + allow - 3 eps N.
    - Together, a window j outside the band has
      D_j > R + allow - (2 d + 7) eps N >= D_nc + allow - (2 d + 9) eps N.
      allow = 8 (d + 4) eps N exceeds (2 d + 9) eps N, with room for the
      second-order terms, so D_j > D_nc: j is neither in the exact top
      n_c nor tied with its n_c-th member.
    """
    n_w = len(coeffs)
    if n_c >= n_w:
        return [np.arange(n_w)] * n_w, 0
    flat = coeffs.reshape(n_w, -1)
    sq = np.einsum("ij,ij->i", flat, flat)
    order = np.argsort(sq, kind="stable")
    flat, sq = flat[order], sq[order]
    norm = np.sqrt(sq)
    slack = 8 * (flat.shape[1] + 4) * np.finfo(np.float64).eps
    margin = slack * (sq + sq[-1])
    allow = slack * norm[-1]
    rows = max(1, GRAM_BLOCK_ENTRIES // n_w)
    # one block's Gram values; column j holds the j-th window by norm
    d2 = np.empty((rows, n_w))
    shortlists = [None] * n_w
    pairs = 0

    def price(lo, hi, c0, c1):
        out = d2[:hi - lo, c0:c1]
        # -2 is a power of 2: scaling the rows rounds as scaling the product
        np.matmul(-2.0 * flat[lo:hi], flat[c0:c1].T, out=out)
        out += sq[lo:hi, None]
        out += sq[c0:c1]

    for lo in range(0, n_w, rows):
        hi = min(lo + rows, n_w)
        c0, c1 = max(0, lo - n_c), min(n_w, hi + n_c)
        price(lo, hi, c0, c1)
        kth = np.partition(d2[:hi - lo, c0:c1], n_c - 1, axis=1)[:, n_c - 1]
        radius = np.sqrt(kth + margin[lo:hi]) + allow
        a = min(c0, int(np.searchsorted(norm, (norm[lo:hi] - radius).min(),
                                        "left")))
        b = max(c1, int(np.searchsorted(norm, (norm[lo:hi] + radius).max(),
                                        "right")))
        if (a, b) != (c0, c1):
            price(lo, hi, a, c0)
            price(lo, hi, c1, b)
            kth = np.partition(d2[:hi - lo, a:b], n_c - 1, axis=1)[:, n_c - 1]
        pairs += (hi - lo) * (b - a)
        row, col = np.nonzero(d2[:hi - lo, a:b]
                              <= (kth + margin[lo:hi])[:, None])
        col = order[a:b][col]
        ends = np.cumsum(np.bincount(row, minlength=hi - lo)).tolist()
        for ref_idx, start, end in zip(order[lo:hi].tolist(), [0] + ends,
                                       ends):
            cand = col[start:end]
            if len(cand) > 2 * n_c:
                # many windows within the margin, as with duplicate
                # windows: keep just the exact top n_c, so shortlists stay
                # O(n_c) per reference instead of O(n_w)
                ranked = rank_ascending(
                    cand, distances_from(coeffs, ref_idx, cand))
                cand = cand[ranked[:n_c]]
            shortlists[ref_idx] = cand
    return shortlists, pairs


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
