import numpy as np
import pytest

import mwdenoise.pipeline as pipeline_mod
import mwdenoise.selection as selection_mod
from mwdenoise import ghm
from mwdenoise.ga import mutation_mask
from mwdenoise.image_io import add_awgn
from mwdenoise.phantom import ct_phantom
from mwdenoise.pipeline import DenoiseConfig, denoise_image
from mwdenoise.selection import (SelectionParams, calibrate_l2t,
                                 distances_from, exhaustive_select,
                                 gram_shortlist, noise_gate, passes_gate)
from mwdenoise.windows import build_grid, extract_windows

BIG = 1e12


@pytest.fixture(scope="module")
def coeffs():
    img = add_awgn(ct_phantom(64), 15, 0)
    geom = build_grid(img, 8, 4)
    F = ghm.build_ghm_matrix(8)
    return ghm.forward_all(extract_windows(img, geom), F)


def l2(a, b):
    """Distance of two windows through the one kernel."""
    return float(distances_from(np.stack([a, b]), 0, np.array([1]))[0])


class TestL2Distance:
    def test_identical_zero(self):
        w = np.random.default_rng(0).normal(size=(8, 8))
        assert l2(w, w) == 0.0

    def test_single_coefficient(self):
        a = np.zeros((8, 8))
        b = a.copy()
        b[3, 5] = 7.25
        assert l2(a, b) == pytest.approx(7.25)

    def test_matches_pixel_domain(self):
        F = ghm.build_ghm_matrix(8)
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 255, (30, 8, 8))
        b = rng.uniform(0, 255, (30, 8, 8))
        ca, cb = ghm.forward_all(a, F), ghm.forward_all(b, F)
        for i in range(30):
            assert l2(ca[i], cb[i]) == \
                pytest.approx(np.linalg.norm(a[i] - b[i]), rel=1e-9)

    def test_size_mismatch(self):
        # pairs are given as two index arrays of one length
        stack = np.zeros((4, 8, 8))
        with pytest.raises(ValueError):
            distances_from(stack, np.array([0, 1]), np.array([1, 2, 3]))

    def test_metric_axioms(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b, c = rng.normal(size=(3, 8, 8))
            dab = l2(a, b)
            dba = l2(b, a)
            assert dab >= 0 and dab == dba
            assert l2(a, b) <= l2(a, c) + l2(c, b) + 1e-9

    def test_pairs_match_single_reference(self, coeffs):
        # bitwise: a distance depends only on its own two windows
        rng = np.random.default_rng(3)
        refs = rng.integers(0, len(coeffs), 500)
        cands = rng.integers(0, len(coeffs), 500)
        pairs = distances_from(coeffs, refs, cands)
        for r, c, d in zip(refs, cands, pairs):
            assert d.tobytes() == distances_from(coeffs, r)[c].tobytes()
            assert d.tobytes() == distances_from(coeffs, c, [r])[0].tobytes()


def brute_force_select(ref_idx, coeffs, params):
    """Independent oracle: materialize every distance, python-sort, gate."""
    entries = []
    for j in range(len(coeffs)):
        d = float(np.sqrt(((coeffs[ref_idx] - coeffs[j]) ** 2).sum()))
        if d < params.l2_t:
            entries.append((d, j))
    entries.sort()
    return entries[:params.n_c]


class TestExhaustiveSelect:
    def test_self_is_first_member(self, coeffs):
        res = exhaustive_select(10, coeffs, SelectionParams(n_c=4, l2_t=BIG))
        assert res.indices[0] == 10 and res.distances[0] == 0.0

    def test_matches_brute_force(self, coeffs):
        params = SelectionParams(n_c=4, l2_t=BIG)
        for ref in (0, 7, 100, 224):
            res = exhaustive_select(ref, coeffs, params)
            oracle = brute_force_select(ref, coeffs, params)
            assert res.indices.tolist() == [j for _, j in oracle]
            assert np.allclose(res.distances, [d for d, _ in oracle])

    def test_tight_gate_excludes_all(self, coeffs):
        # all but the reference itself, at distance 0
        params = SelectionParams(n_c=4, l2_t=1e-9)
        res = exhaustive_select(0, coeffs, params)
        assert res.indices.tolist() == [0] and res.distances.tolist() == [0.0]
        assert res.evaluations == len(coeffs)

    def test_evaluation_count(self, coeffs):
        res = exhaustive_select(0, coeffs, SelectionParams(n_c=4, l2_t=BIG))
        assert res.evaluations == len(coeffs)

    def test_monotone_truncation(self, coeffs):
        small = exhaustive_select(5, coeffs, SelectionParams(n_c=4, l2_t=BIG))
        large = exhaustive_select(5, coeffs, SelectionParams(n_c=9, l2_t=BIG))
        assert large.indices[:4].tolist() == small.indices.tolist()

    def test_bad_ref_index(self, coeffs):
        with pytest.raises(IndexError):
            exhaustive_select(len(coeffs), coeffs, SelectionParams(l2_t=BIG))

    def test_gate_is_strict(self):
        # a window at exactly l2_t fails the gate, as it is a GA mutation point
        coeffs = np.zeros((3, 8, 8))
        coeffs[1, 0, 0] = 3.0
        coeffs[2, 0, 0] = 5.0
        res = exhaustive_select(0, coeffs, SelectionParams(n_c=3, l2_t=3.0))
        assert res.indices.tolist() == [0]
        d = np.array([0.0, 3.0, 5.0])
        assert np.array_equal(passes_gate(d, 3.0), ~mutation_mask(d, 3.0))

    def test_deterministic_tie_break(self):
        # three identical windows: ties resolve to smaller indices
        coeffs = np.zeros((3, 8, 8))
        res = exhaustive_select(1, coeffs, SelectionParams(n_c=3, l2_t=BIG))
        assert res.indices.tolist() == [0, 1, 2]


def window_coeffs(img, m, s_size):
    geom = build_grid(img, m, s_size)
    return ghm.forward_all(extract_windows(img, geom), ghm.build_ghm_matrix(m))


def tiled_image(seed):
    # an 8x8 block repeated: windows on the 8-pixel lattice are exact copies
    block = np.random.default_rng(seed).integers(0, 256, (8, 8))
    return np.tile(block, (5, 5)).astype(np.uint8)


def multiples_image(seed):
    # 8x8 tiles k * v of one pattern v, read on an 8-pixel grid: windows
    # k1 v and k2 v are |k1 - k2| ||v|| apart, exactly their norm gap, and
    # the 64 tiles repeat k, so rows tie right at the edge of their bands
    rng = np.random.default_rng(seed)
    v = rng.integers(1, 20, (8, 8))
    k = rng.integers(1, 12, (8, 8))
    return np.kron(k, np.ones((8, 8), np.int64)) * np.tile(v, (8, 8))


def permuted_image(seed):
    # 8x8 tiles that permute one set of pixels: every window has the same
    # norm up to the transform's rounding, so the bound can rule out no pair
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, 64)
    tiles = [rng.permutation(pixels).reshape(8, 8) for _ in range(49)]
    return np.block([tiles[r * 7:r * 7 + 7] for r in range(7)])


SHORTLIST_CASES = {
    "m8": (add_awgn(ct_phantom(64), 20, 1), 8, 4),
    "m16": (add_awgn(ct_phantom(96), 20, 2), 16, 8),
    "duplicates": (tiled_image(3), 8, 4),
    "constant": (np.full((32, 32), 77, np.uint8), 8, 4),
    "float65535": (np.random.default_rng(4).uniform(0, 65535, (40, 40)), 8, 4),
    # large norms, tiny gaps: Gram cancellation error is near the gaps
    "near65535": (65000.0 + np.random.default_rng(5).integers(0, 3, (64, 64)),
                  16, 4),
    "multiples": (multiples_image(6), 8, 8),
    "equal-norms": (permuted_image(7), 8, 8),
}


def uneven_entries(target, n_w):
    """A GRAM_BLOCK_ENTRIES near `target` whose blocks of rows leave a
    shorter last block, unless they are one row each."""
    rows = max(1, target // n_w)
    while rows > 1 and n_w % rows == 0:
        rows += 1
    return rows * n_w


class TestGramShortlist:
    """Shortlist plus re-rank must reproduce the full scan bit for bit."""

    @staticmethod
    def assert_exact(coeffs, params):
        shortlists, pairs = gram_shortlist(coeffs, params.n_c)
        n_w = len(coeffs)
        assert len(shortlists) == n_w
        assert 0 <= pairs <= n_w * n_w
        for ref, cand in enumerate(shortlists):
            assert len(cand) <= 2 * params.n_c
            full = exhaustive_select(ref, coeffs, params)
            fast = exhaustive_select(ref, coeffs, params, cand)
            assert fast.indices.dtype == full.indices.dtype
            assert np.array_equal(fast.indices, full.indices)
            assert fast.distances.tobytes() == full.distances.tobytes()
            assert fast.evaluations == full.evaluations
            assert fast.gated == full.gated

    @staticmethod
    def case_params(coeffs, n_c, gate):
        flat = coeffs.reshape(len(coeffs), -1)
        # the median distance from window 0 gates about half the pairs
        l2_t = (float(np.median(np.linalg.norm(flat - flat[0], axis=1)))
                if gate else np.inf)
        return SelectionParams(n_c=n_c, l2_t=max(l2_t, 1e-9))

    @pytest.mark.parametrize("case", sorted(SHORTLIST_CASES))
    @pytest.mark.parametrize("gate", [False, True])
    # n_c one larger: the way to leave the reference out of its neighbours
    @pytest.mark.parametrize("one_more", [True, False])
    def test_matches_full_scan(self, case, gate, one_more):
        img, m, s_size = SHORTLIST_CASES[case]
        coeffs = window_coeffs(img, m, s_size)
        self.assert_exact(coeffs, self.case_params(coeffs, 4 + one_more,
                                                   gate))

    @pytest.mark.parametrize("gate", [True, False])
    def test_n_c_at_least_n_w(self, gate):
        coeffs = window_coeffs(add_awgn(ct_phantom(32), 20, 6), 8, 8)
        n_w = len(coeffs)
        for n_c in (n_w - 1, n_w, n_w + 5):
            self.assert_exact(coeffs, self.case_params(coeffs, n_c, gate))

    def test_blocks_smaller_than_image(self, monkeypatch):
        # many blocks of a few reference rows, the last one partial, each
        # with its own core and band, on every case
        for case, (img, m, s_size) in sorted(SHORTLIST_CASES.items()):
            coeffs = window_coeffs(img, m, s_size)
            n_w = len(coeffs)
            for target in (50, 300, 1000):
                entries = uneven_entries(target, n_w)
                rows = entries // n_w
                assert rows < n_w and (rows == 1 or n_w % rows), case
                monkeypatch.setattr(selection_mod, "GRAM_BLOCK_ENTRIES",
                                    entries)
                for n_c in (1, 4, 16, 17):
                    for gate in (False, True):
                        self.assert_exact(coeffs, self.case_params(
                            coeffs, n_c, gate))

    @pytest.mark.parametrize("case", sorted(SHORTLIST_CASES))
    def test_shortlists_stay_short(self, case):
        # duplicate and constant images put many windows within the margin
        img, m, s_size = SHORTLIST_CASES[case]
        shortlists, _ = gram_shortlist(window_coeffs(img, m, s_size), 4)
        assert max(len(c) for c in shortlists) <= 8

    @pytest.mark.parametrize("case", ["constant", "equal-norms"])
    def test_equal_norms_price_every_pair(self, case):
        img, m, s_size = SHORTLIST_CASES[case]
        coeffs = window_coeffs(img, m, s_size)
        _, pairs = gram_shortlist(coeffs, 4)
        assert pairs == len(coeffs) ** 2

    def test_bands_prune_most_pairs_at_512(self):
        # 39% of the pairs are priced at sigma 20; a band that silently
        # widens toward every pair fails here
        coeffs = window_coeffs(add_awgn(ct_phantom(512), 20, 1), 16, 8)
        _, pairs = gram_shortlist(coeffs, SelectionParams.n_c)
        assert pairs <= 0.6 * len(coeffs) ** 2


def test_denoise_shortlist_equals_full_scan(monkeypatch):
    noisy = add_awgn(ct_phantom(128), 20, 8)
    cfg = DenoiseConfig(m=8, s_size=4, threshold_scale=0.25)
    out, stats = denoise_image(noisy, cfg)
    monkeypatch.setattr(pipeline_mod, "gram_shortlist",
                        lambda coeffs, n_c:
                        ([np.arange(len(coeffs))] * len(coeffs), 0))
    ref_out, ref_stats = denoise_image(noisy, cfg)
    assert out.tobytes() == ref_out.tobytes()
    assert stats.distance_evals == ref_stats.distance_evals
    assert stats.sigma == ref_stats.sigma


class TestCalibrate:
    def test_constant_image_warns(self):
        coeffs = np.zeros((50, 8, 8))
        with pytest.warns(UserWarning):
            value = calibrate_l2t(coeffs, 0.5, 200, seed=0)
        assert value > 0

    def test_full_quantile_dominates(self, coeffs):
        v = calibrate_l2t(coeffs, 1.0, 500, seed=1)
        # replay the same sampling stream; v must dominate all of it
        flat = coeffs.reshape(len(coeffs), -1)
        rng = np.random.default_rng(1)
        i = rng.integers(0, len(flat), 500)
        j = rng.integers(0, len(flat), 500)
        sample = np.linalg.norm(flat[i] - flat[j], axis=1)
        assert v >= sample[i != j].max() - 1e-9

    def test_matches_second_quantile_implementation(self, coeffs):
        quantile, pairs, seed = 0.05, 1000, 3
        value = calibrate_l2t(coeffs, quantile, pairs, seed)

        # second implementation: replay the sampling, sort, interpolate
        flat = coeffs.reshape(len(coeffs), -1)
        rng = np.random.default_rng(seed)
        dists = []
        while len(dists) < pairs:
            i = rng.integers(0, len(flat), size=pairs - len(dists))
            j = rng.integers(0, len(flat), size=pairs - len(dists))
            for a, b in zip(i, j):
                if a != b:
                    dists.append(float(np.linalg.norm(flat[a] - flat[b])))
        dists.sort()
        pos = quantile * (pairs - 1)
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        expected = dists[lo] + (pos - lo) * (dists[hi] - dists[lo])
        assert value == pytest.approx(expected, rel=1e-12)

    def test_deterministic(self, coeffs):
        assert calibrate_l2t(coeffs, 0.1, 500, 7) == \
            calibrate_l2t(coeffs, 0.1, 500, 7)

    def test_too_few_pairs(self, coeffs):
        with pytest.raises(ValueError):
            calibrate_l2t(coeffs, 0.5, 99, 0)


def test_noise_gate_admits_noise_floor():
    sigma, m = 20.0, 8
    gate = noise_gate(sigma, m)
    assert gate > sigma * np.sqrt(2.0 * m * m)
