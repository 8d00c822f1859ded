import hashlib

import numpy as np
import pytest

from mwdenoise import ga as ga_mod
from mwdenoise import ghm
from mwdenoise import pipeline as pipeline_mod
from mwdenoise import selection as selection_mod
from mwdenoise.ga import GaParams, ga_select
from mwdenoise.image_io import add_awgn, psnr
from mwdenoise.phantom import ct_phantom
from mwdenoise.pipeline import (Accumulator, DenoiseConfig, denoise_image,
                                denoise_window, sigma_from_coeffs,
                                soft_threshold, universal_threshold)
from mwdenoise.selection import (SelectionParams, distances_from,
                                 exhaustive_select, gram_shortlist,
                                 noise_gate)
from mwdenoise.windows import build_grid, extract_windows, origin_of


def estimate_sigma(img, m=8):
    """The noise estimate over non-overlapping m-by-m windows."""
    coeffs = ghm.forward_all(extract_windows(img, build_grid(img, m, m)),
                             ghm.build_ghm_matrix(m))
    return sigma_from_coeffs(coeffs, m)


class TestEstimateSigma:
    def test_constant_image_zero(self):
        img = np.full((32, 32), 77, np.uint8)
        assert estimate_sigma(img) < 1e-9

    def test_recovers_injected_noise(self):
        noisy = add_awgn(ct_phantom(128), 20, 0)
        assert 17.0 <= estimate_sigma(noisy) <= 23.0

    def test_constant_offset_invariance(self):
        # synthetic float data, no clamping involved
        rng = np.random.default_rng(0)
        base = rng.uniform(50, 150, (64, 64))
        assert estimate_sigma(base) == \
            pytest.approx(estimate_sigma(base + 10.0), abs=1e-9)


class TestSoftThreshold:
    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(8, 8))
        assert np.array_equal(soft_threshold(W, 0.0), W)

    def test_shrinks_to_zero(self):
        W = np.zeros((8, 8))
        W[7, 7] = 5.0
        assert soft_threshold(W, 7.0)[7, 7] == 0.0

    def test_signed_shrink(self):
        W = np.zeros((8, 8))
        W[0, 7] = -9.0
        assert soft_threshold(W, 4.0)[0, 7] == -5.0

    def test_lowpass_untouched(self):
        W = np.full((8, 8), 3.0)
        out = soft_threshold(W, 100.0)
        assert np.all(out[:4, :4] == 3.0)
        assert np.all(out[4:, :] == 0.0) and np.all(out[:4, 4:] == 0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.zeros((8, 8)), -1.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, t):
        # nan used to pass the sign check and fill the detail bands with NaN
        with pytest.raises(ValueError, match=f"got {t}"):
            soft_threshold(np.zeros((8, 8)), t)

    @pytest.mark.parametrize("n", [3, 8])
    def test_stack_equals_window_calls(self, n):
        # n == m once, so a mask over the wrong axes would fit the shape
        rng = np.random.default_rng(6)
        W = rng.normal(scale=3.0, size=(n, 8, 8))
        out = soft_threshold(W, 1.5)
        assert out.shape == W.shape
        for w, o in zip(W, out):
            assert np.array_equal(soft_threshold(w, 1.5), o)
            assert np.array_equal(o[:4, :4], w[:4, :4])
        assert (out[:, 4:, :] == 0).any() and (out[:, :4, 4:] == 0).any()

    def test_non_square_windows_rejected(self):
        # an (n, 1, m) stack would otherwise broadcast to (n, m, m)
        with pytest.raises(ValueError, match="broadcast"):
            soft_threshold(np.ones((3, 1, 8)), 0.5)


def stack_oracle(ref, members, t, F):
    """One window, elementwise: average, shrink the detail bands, invert."""
    mean = (ref + sum(members)) / (1 + len(members))
    shrunk = mean.copy()
    for a in range(8):
        for b in range(8):
            if a < 4 and b < 4:
                continue
            v = mean[a, b]
            shrunk[a, b] = np.sign(v) * max(abs(v) - t, 0.0)
    return F.T @ shrunk @ F


class TestDenoiseWindow:
    def test_identical_closers_round_trip(self):
        F = ghm.build_ghm_matrix(8)
        rng = np.random.default_rng(2)
        w = rng.uniform(0, 255, (2, 8, 8))
        ref = ghm.forward_all(w, F)
        closers = np.stack([ref] * 3, axis=1)
        out = denoise_window(ref, closers.sum(axis=1), np.array([3, 3]),
                             0.0, F)
        assert np.abs(out - w).max() < 1e-8

    def test_empty_closers(self):
        # a row with no members keeps its reference
        F = ghm.build_ghm_matrix(8)
        rng = np.random.default_rng(3)
        w = rng.uniform(0, 255, (3, 8, 8))
        ref = ghm.forward_all(w, F)
        out = denoise_window(ref, np.zeros((3, 8, 8)), np.zeros(3, np.int64),
                             0.0, F)
        assert np.abs(out - w).max() < 1e-8

    def test_elementwise_oracle(self):
        F = ghm.build_ghm_matrix(8)
        rng = np.random.default_rng(4)
        ref = rng.normal(size=(3, 8, 8))
        counts = np.array([2, 0, 1])
        closer = rng.normal(size=(3, 2, 8, 8))
        closer[np.arange(2) >= counts[:, None]] = 0.0
        t = 0.7
        out = denoise_window(ref, closer.sum(axis=1), counts, t, F)
        for i, k in enumerate(counts):
            want = stack_oracle(ref[i], list(closer[i, :k]), t, F)
            assert np.abs(out[i] - want).max() < 1e-9


def add_sequentially(shape, patches, xs, ys):
    """Overlap-add one window at a time, in order, with plain slices."""
    sums, weights = np.zeros(shape), np.zeros(shape)
    m = patches.shape[-1]
    for patch, x, y in zip(patches, xs, ys):
        sums[y:y + m, x:x + m] += patch
        weights[y:y + m, x:x + m] += 1.0
    return sums, weights


class TestAggregate:
    def accumulate(self, patches, geom, shape, blocks=1):
        acc = Accumulator(shape)
        for rows in np.array_split(np.arange(geom.n_w), blocks):
            acc.add(patches[rows], *origin_of(geom, rows))
        return acc

    def test_partition_of_unity(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (40, 40), dtype=np.uint8)
        geom = build_grid(img, 8, 3)
        patches = extract_windows(img, geom)
        out = self.accumulate(patches, geom, img.shape, 3).finalize()
        assert np.array_equal(out, img)

    def test_constant_patches(self):
        img = np.zeros((24, 24), np.uint8)
        geom = build_grid(img, 8, 4)
        patches = np.full((geom.n_w, 8, 8), 100.0)
        out = self.accumulate(patches, geom, img.shape).finalize()
        assert np.all(out == 100)

    def test_overlap_average(self):
        acc = Accumulator((4, 4))
        acc.add(np.stack([np.full((2, 2), 10.0), np.full((2, 2), 20.0)]),
                np.array([0, 1]), np.array([0, 0]))
        acc.add(np.zeros((1, 4, 4)), np.array([0]), np.array([0]))
        out = acc.sums / acc.weights
        assert out[0, 1] == pytest.approx((10 + 20 + 0) / 3)
        assert acc.weights[0, 1] == 3 and acc.weights[3, 3] == 1

    def test_uncovered_pixel_asserts(self):
        acc = Accumulator((4, 4))
        acc.add(np.zeros((1, 2, 2)), np.array([0]), np.array([0]))
        with pytest.raises(AssertionError):
            acc.finalize()

    def test_blocks_equal_sequential_adds(self):
        # magnitudes from 1e-3 to 1e16 make every pixel's sum depend on
        # the order of its terms; blocks must keep window order
        rng = np.random.default_rng(7)
        shape = (37, 41)
        geom = build_grid(np.zeros(shape), 8, 3)
        patches = (rng.choice([-1.0, 1.0], (geom.n_w, 8, 8))
                   * 10.0 ** rng.integers(-3, 17, (geom.n_w, 8, 8)))
        xs, ys = origin_of(geom, np.arange(geom.n_w))
        sums, weights = add_sequentially(shape, patches, xs, ys)
        for blocks in (1, 4, geom.n_w):
            acc = self.accumulate(patches, geom, shape, blocks)
            assert acc.sums.tobytes() == sums.tobytes()
            assert acc.weights.tobytes() == weights.tobytes()
        reverse, _ = add_sequentially(shape, patches[::-1], xs[::-1],
                                      ys[::-1])
        assert reverse.tobytes() != sums.tobytes()


class TestDenoiseImage:
    def test_identity_degeneracy(self):
        # t = 0 (sigma 0), self-only selection, non-overlapping grid
        img = add_awgn(ct_phantom(64), 25, 0)
        cfg = DenoiseConfig(m=8, s_size=8, n_c=1, l2_t=1e-9, sigma=0.0)
        out, _ = denoise_image(img, cfg)
        assert np.abs(out.astype(int) - img.astype(int)).max() <= 1

    def test_clean_input_near_identity(self):
        img = ct_phantom(64)
        cfg = DenoiseConfig(m=8, s_size=4, sigma=0.0)
        out, _ = denoise_image(img, cfg)
        assert psnr(img, out) >= 50.0

    def test_improves_noisy_phantom(self):
        clean = ct_phantom(128)
        noisy = add_awgn(clean, 20, 1)
        cfg = DenoiseConfig(m=8, s_size=4, sigma=20.0, threshold_scale=0.25)
        out, stats = denoise_image(noisy, cfg)
        assert psnr(clean, out) > psnr(clean, noisy) + 3.0
        geom = build_grid(noisy, 8, 4)
        assert stats.distance_evals == geom.n_w * geom.n_w

    def test_engines_agree_on_phantom(self):
        clean = ct_phantom(64)
        noisy = add_awgn(clean, 20, 2)
        base = dict(m=8, s_size=4, sigma=20.0, threshold_scale=0.25, seed=0)
        out_e, _ = denoise_image(noisy, DenoiseConfig(engine="exhaustive",
                                                      **base))
        out_g, _ = denoise_image(noisy, DenoiseConfig(engine="ga", **base))
        assert abs(psnr(clean, out_e) - psnr(clean, out_g)) <= 1.0

    def test_parallel_schedule_identical(self):
        noisy = add_awgn(ct_phantom(64), 15, 3)
        cfg = DenoiseConfig(m=8, s_size=4, engine="ga", sigma=15.0,
                            threshold_scale=0.25, seed=4)
        serial, s1 = denoise_image(noisy, cfg, threads=1)
        threaded, s2 = denoise_image(noisy, cfg, threads=4)
        assert np.array_equal(serial, threaded)
        assert s1.distance_evals == s2.distance_evals

    def test_ga_trace_independent_of_threads(self, monkeypatch):
        # records come in window order, then generation order: none for a
        # short row, which runs no generation, and generations 1..g for a
        # searched one. Every row of the 48-px image is short; at 64 px
        # some search.
        calls, records = [], []
        select = ga_mod.ga_select

        def spy(ref_idx, *args, **kwargs):
            before = len(records)
            found = select(ref_idx, *args, **kwargs)
            calls.append((ref_idx, [r[0] for r in records[before:]]))
            return found

        monkeypatch.setattr(ga_mod, "ga_select", spy)
        for size, all_short in ((48, True), (64, False)):
            noisy = add_awgn(ct_phantom(size), 15, 3)
            cfg = DenoiseConfig(m=8, s_size=4, engine="ga", sigma=15.0,
                                threshold_scale=0.25, seed=1)
            coeffs = window_coeffs(noisy)
            n_w = len(coeffs)
            short = [np.count_nonzero(distances_from(coeffs, r)
                                      < noise_gate(15.0, 8)) < cfg.n_c
                     for r in range(n_w)]
            traces = []
            for threads in (1, 3):
                records[:], calls[:] = [], []
                denoise_image(noisy, cfg, threads=threads,
                              trace=lambda *rec: records.append(rec))
                traces.append(records[:])
            assert traces[0] == traces[1]
            assert [r for r, _ in calls] == list(range(n_w))
            assert [g for _, gens in calls for g in gens] == \
                [r[0] for r in records]
            for (_, gens), is_short in zip(calls, short):
                assert gens == ([] if is_short else
                                list(range(1, len(gens) + 1)))
                assert is_short or gens
            assert all(short) == all_short and any(short)
            if not all_short:
                assert max(len(gens) for _, gens in calls) > 1

    @pytest.mark.parametrize("engine", ["exhaustive", "ga"])
    def test_shortlists_built_once(self, monkeypatch, engine):
        # both engines start from one gram_shortlist call per image
        calls = []
        build = selection_mod.gram_shortlist

        def spy(coeffs, n_c):
            calls.append((len(coeffs), n_c))
            return build(coeffs, n_c)

        monkeypatch.setattr(selection_mod, "gram_shortlist", spy)
        monkeypatch.setattr(pipeline_mod, "gram_shortlist", spy)
        noisy = add_awgn(ct_phantom(48), 15, 3)
        cfg = DenoiseConfig(m=8, s_size=4, engine=engine, sigma=15.0,
                            threshold_scale=0.25, seed=1)
        denoise_image(noisy, cfg)
        assert calls == [(build_grid(noisy, 8, 4).n_w, cfg.n_c)]

    def test_sigma_estimated_when_unknown(self):
        noisy = add_awgn(ct_phantom(64), 20, 4)
        cfg = DenoiseConfig(m=8, s_size=4, threshold_scale=0.25)
        _, stats = denoise_image(noisy, cfg)
        assert 15.0 <= stats.sigma <= 25.0

    def test_stats_block_fields(self):
        noisy = add_awgn(ct_phantom(64), 10, 5)
        _, stats = denoise_image(noisy, DenoiseConfig(m=8, s_size=8,
                                                      sigma=10.0))
        block = stats.as_block()
        for key in ("engine=", "m=", "s_size=", "n_c=", "sigma=",
                    "distance_evals=", "gram_pairs=", "wall_ms=", "seed="):
            assert key in block
        assert stats.short_rows is None and "short_rows=" not in block
        assert stats.block_rows is None and "block_rows=" not in block

    def test_stats_count_short_rows_for_the_ga(self):
        noisy = add_awgn(ct_phantom(48), 15, 3)
        cfg = DenoiseConfig(m=8, s_size=4, engine="ga", sigma=15.0,
                            threshold_scale=0.25, seed=1)
        _, stats = denoise_image(noisy, cfg)
        n_w = build_grid(noisy, 8, 4).n_w
        assert stats.short_rows == n_w   # every row; see the trace test
        assert f"short_rows={n_w}" in stats.as_block().splitlines()
        assert stats.block_rows == 0   # no row searched
        # the shortlists' pairs, not the GA's distance evaluations
        *_, pairs = gram_shortlist(window_coeffs(noisy), cfg.n_c)
        assert 0 < stats.gram_pairs == pairs <= n_w * n_w
        assert f"gram_pairs={pairs}" in stats.as_block().splitlines()

    def test_stats_count_gram_pairs_of_the_scan(self):
        # equal windows: the norm bound rules out no pair, yet every
        # window still counts n_w evaluations
        img = np.full((32, 32), 77, np.uint8)
        _, stats = denoise_image(img, DenoiseConfig(m=8, s_size=4,
                                                    sigma=10.0))
        n_w = build_grid(img, 8, 4).n_w
        assert stats.gram_pairs == n_w * n_w == stats.distance_evals
        # 529 windows make three Gram blocks, so the bands can prune
        noisy = add_awgn(ct_phantom(96), 20, 1)
        _, stats = denoise_image(noisy, DenoiseConfig(m=8, s_size=4,
                                                      sigma=20.0))
        n_w = build_grid(noisy, 8, 4).n_w
        assert stats.gram_pairs < n_w * n_w == stats.distance_evals


class TestValidation:
    def test_ga_crossover_checked_at_config(self):
        with pytest.raises(ValueError, match="crossover points"):
            DenoiseConfig(engine="ga", n_c=4)
        DenoiseConfig(engine="exhaustive", n_c=4)
        DenoiseConfig(engine="ga", n_c=4, c_p1=1, c_p2=3)

    @pytest.mark.parametrize("scale", [float("inf"), float("nan"), 0.0])
    def test_bad_threshold_scale_rejected(self, scale):
        # inf would zero every detail band
        with pytest.raises(ValueError, match="threshold_scale"):
            DenoiseConfig(threshold_scale=scale)

    def test_negative_ga_seed_rejected(self):
        # numpy would reject it only after the transform
        with pytest.raises(ValueError, match="GA seed must be >= 0, got -1"):
            DenoiseConfig(engine="ga", seed=-1)

    def test_negative_seed_rejected_by_the_scan(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            DenoiseConfig(engine="exhaustive", seed=-1)

    @pytest.mark.parametrize("m", [4, 0, 10])
    def test_bad_window_size_rejected_at_config(self, m):
        # the transform's own rule, before any grid is built
        with pytest.raises(ValueError, match=f"transform size must be a "
                                             f"multiple of 4 and >= 8, "
                                             f"got {m}"):
            DenoiseConfig(m=m, s_size=1)

    @pytest.mark.parametrize("s_size", [0, -1, 9])
    def test_bad_step_rejected_at_config(self, s_size):
        with pytest.raises(ValueError, match=f"s_size must be in "
                                             f"\\[1, m=8\\], got {s_size}"):
            DenoiseConfig(m=8, s_size=s_size)
        DenoiseConfig(m=8, s_size=8)
        DenoiseConfig(m=8, s_size=1)

    def test_ga_defaults_from_ga_params(self):
        assert DenoiseConfig().ga_params(np.inf) == GaParams()

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            DenoiseConfig(sigma=sigma)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_pixel_rejected(self, bad):
        img = add_awgn(ct_phantom(32), 10, 0).astype(np.float64)
        img[5, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            denoise_image(img, DenoiseConfig(m=8, s_size=4, sigma=10.0))

    def test_uint16_pixels_rejected(self):
        # 12-bit CT in a uint16 array would be clipped to 255 on output
        img = ct_phantom(32).astype(np.uint16) * 16
        span = rf"\[{img.min()}, {img.max()}\].*\[0, 255\]"
        assert img.max() > 255
        with pytest.raises(ValueError, match=span):
            denoise_image(img, DenoiseConfig(m=8, s_size=4, sigma=10.0))

    def test_negative_pixels_rejected(self):
        img = ct_phantom(32).astype(np.float64)
        img[3, 4] = -2.5
        with pytest.raises(ValueError, match=r"\[-2.5, "):
            denoise_image(img, DenoiseConfig(m=8, s_size=4, sigma=10.0))

    def test_float_pixels_in_range_accepted(self):
        img = ct_phantom(32).astype(np.float64) * (255.0 / 256.0)
        out, _ = denoise_image(img, DenoiseConfig(m=8, s_size=4, sigma=10.0))
        assert out.dtype == np.uint8

    @pytest.mark.parametrize("engine", ["exhaustive", "ga"])
    @pytest.mark.parametrize("n_c", [0, -2])
    def test_n_c_below_one_rejected_at_config(self, engine, n_c):
        with pytest.raises(ValueError, match=f"n_c must be >= 1, got {n_c}"):
            DenoiseConfig(engine=engine, n_c=n_c)

    @pytest.mark.parametrize("engine", ["exhaustive", "ga"])
    @pytest.mark.parametrize("l2_t", [0.0, -1.0, float("nan")])
    def test_bad_gate_rejected_at_config(self, engine, l2_t):
        with pytest.raises(ValueError, match="l2_t must be > 0"):
            DenoiseConfig(engine=engine, l2_t=l2_t)

    def test_given_gate_accepted(self):
        for engine in ("exhaustive", "ga"):
            assert DenoiseConfig(engine=engine, l2_t=5.0).l2_t == 5.0
            assert DenoiseConfig(engine=engine, l2_t=float("inf")).l2_t > 0

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        img = add_awgn(ct_phantom(32), 10, 0)
        with pytest.raises(ValueError, match=f"threads must be >= 1, "
                                             f"got {threads}"):
            denoise_image(img, DenoiseConfig(m=8, s_size=4, sigma=10.0),
                          threads=threads)

    @pytest.mark.parametrize("engine", ["exhaustive", "ga"])
    def test_n_c_above_window_count_rejected(self, engine):
        # a 16x16 image on an 8/8 grid has 4 windows
        img = add_awgn(ct_phantom(16), 10, 0)
        cfg = DenoiseConfig(m=8, s_size=8, engine=engine, n_c=5, c_p1=1,
                            c_p2=3, sigma=10.0)
        with pytest.raises(ValueError, match="n_c=5.*n_w=4"):
            denoise_image(img, cfg)
        out, _ = denoise_image(img, DenoiseConfig(
            m=8, s_size=8, engine=engine, n_c=4, c_p1=1, c_p2=2, sigma=10.0))
        assert out.shape == img.shape


def test_universal_threshold_formula():
    assert universal_threshold(10.0, 8) == \
        pytest.approx(10.0 * np.sqrt(2.0 * np.log(64.0)))
    assert universal_threshold(10.0, 8, scale=0.5) == \
        pytest.approx(5.0 * np.sqrt(2.0 * np.log(64.0)))


def _sha(out) -> str:
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


# The exhaustive engine's output bytes, recorded before the back half ran
# on blocks of windows: (case, phantom size, DenoiseConfig kwargs, sha256
# of the output, distance evaluations, rows with no member but self).
# Noise is add_awgn(ct_phantom(size), 20, 7). The gate of 200 leaves most
# rows memberless, the gate of 60 every row. "no-self" was recorded with
# the reference left out of its own candidates; n_c one larger gives the
# same bytes.
BASE = dict(m=8, s_size=4, sigma=20.0, threshold_scale=0.25)
GOLDEN_EXHAUSTIVE = (
    ("self", 64, BASE,
     "f4937859553c4bfca4f3dec17bf3d634818307ec23046b379b8d5dbfe6ff79aa",
     50625, 97),
    ("no-self", 64, dict(BASE, n_c=17),
     "9ec9e7f18d79ef7621f236221b7d49e172c8ade2c675c5904d91a1a197c476d1",
     50625, 97),
    ("estimated-sigma", 64, dict(BASE, sigma=None),
     "ca3cfc6c4d88b1cb7ff2bcb3d32d3d11fce060289c5714ed8340ba8fcc47f166",
     50625, 77),
    ("clamped-edges", 70, dict(BASE, s_size=3),
     "8f94fe16fd069b087cf04954869436d660565b728f6ed766fa794f6a41bd29a8",
     234256, 158),
    ("tiny-gate", 64, dict(BASE, l2_t=200.0),
     "14675e9cd1476097d05716086551a43b455c9717a0d4b6cd83a6be10f8345852",
     50625, 166),
    ("empty-gate", 64, dict(BASE, l2_t=60.0),
     "6ff0affdab3aea233c2a8eeb253128c07eed3e1a7fc426268bfbe5f4cc1ad8a0",
     50625, 225),
)


@pytest.mark.parametrize("name,size,kwargs,digest,evals,memberless",
                         GOLDEN_EXHAUSTIVE,
                         ids=[c[0] for c in GOLDEN_EXHAUSTIVE])
def test_exhaustive_digest(monkeypatch, name, size, kwargs, digest, evals,
                           memberless):
    found = []
    select = pipeline_mod.exhaustive_select

    def spy(*args, **kw):
        found.append(select(*args, **kw))
        return found[-1]

    monkeypatch.setattr(pipeline_mod, "exhaustive_select", spy)
    out, stats = denoise_image(add_awgn(ct_phantom(size), 20, 7),
                               DenoiseConfig(**kwargs))
    assert (_sha(out), stats.distance_evals) == (digest, evals)
    assert sum(set(s.gated_indices) <= {s.ref_idx} for s in found) \
        == memberless


def test_origin_roundtrip_consistency():
    geom = build_grid(np.zeros((64, 64), np.uint8), 8, 4)
    assert origin_of(geom, geom.cols) == (0, 4)


def window_coeffs(img, m=8, s_size=4):
    return ghm.forward_all(extract_windows(img, build_grid(img, m, s_size)),
                           ghm.build_ghm_matrix(m))


def gate_at_a_distance(noisy, n_c):
    """A gate equal to window 0's n_c-th smallest distance, which no other
    window of its row ties: window 0 then passes exactly n_c - 1."""
    d = np.sort(distances_from(window_coeffs(noisy), 0))
    assert d[n_c - 2] < d[n_c - 1] < d[n_c]
    return float(d[n_c - 1])


def tiled(size, seed):
    """One random 8x8 block repeated: on a step-4 grid the windows fall
    into four classes of identical windows, so distances tie."""
    block = np.random.default_rng(seed).integers(0, 256, (8, 8))
    reps = size // 8 + 1
    return np.tile(block, (reps, reps))[:size, :size].astype(np.uint8)


class TestShortRows:
    """A window whose gate passes fewer than n_c windows is never searched:
    its closest set, read off its priced Gram shortlist, is the scan's top
    n_c without a gate, with the gated count and n_w evaluations."""

    BASE = dict(m=8, s_size=4, engine="ga", sigma=15.0, threshold_scale=0.25,
                seed=1)

    def closest_sets(self, monkeypatch, noisy, cfg):
        """The closest sets of a denoise, the reference of each ga_select
        call and the references passed to ga.search_block, in call order."""
        found, selected, searched = [], [], []
        select, block = ga_mod.ga_select, ga_mod.search_block

        def spy(ref_idx, *args, **kwargs):
            selected.append(ref_idx)
            found.append(select(ref_idx, *args, **kwargs))
            return found[-1]

        def search_spy(coeffs, refs, *args, **kwargs):
            searched.extend(np.asarray(refs).tolist())
            return block(coeffs, refs, *args, **kwargs)

        def scan(*args, **kwargs):
            raise AssertionError("the GA path ran the exhaustive scan")

        monkeypatch.setattr(ga_mod, "ga_select", spy)
        monkeypatch.setattr(ga_mod, "search_block", search_spy)
        monkeypatch.setattr(pipeline_mod, "exhaustive_select", scan)
        denoise_image(noisy, cfg)
        return found, selected, searched

    @pytest.mark.parametrize("case", ["phantom", "tied", "at-gate",
                                      "all-short"])
    def test_short_rows_answered_exactly(self, monkeypatch, case):
        noisy = add_awgn(ct_phantom(48), 15, 3)
        kwargs = dict(self.BASE)
        if case == "tied":
            noisy = tiled(32, 5)
            kwargs.update(l2_t=1.0)   # passes exactly a window's class
        elif case == "at-gate":
            kwargs.update(l2_t=gate_at_a_distance(noisy, 16))
        elif case == "all-short":
            kwargs.update(l2_t=1e-6)  # passes only the window itself
        cfg = DenoiseConfig(**kwargs)
        coeffs = window_coeffs(noisy)
        n_w = len(coeffs)
        l2_t = noise_gate(15.0, 8) if cfg.l2_t is None else cfg.l2_t
        gated = np.array([np.count_nonzero(distances_from(coeffs, r) < l2_t)
                          for r in range(n_w)])
        short = gated < cfg.n_c
        nearest, distances, _ = gram_shortlist(coeffs, cfg.n_c)
        _, classified = ga_mod.closest_sets(
            coeffs, cfg.ga_params(l2_t), ga_mod.ref_blocks(n_w),
            (nearest, distances))
        assert np.array_equal(classified, short)
        found, selected, searched = self.closest_sets(monkeypatch, noisy,
                                                      cfg)
        # ga_select once per window, in window order; search_block only
        # for the rows that are not short, each once
        assert selected == [c.ref_idx for c in found] == list(range(n_w))
        assert sorted(searched) == np.flatnonzero(~short).tolist()
        assert not short[searched].any()
        exact = SelectionParams(n_c=cfg.n_c)
        for r in np.flatnonzero(short).tolist():
            want = exhaustive_select(r, coeffs, exact)
            assert found[r].indices.tobytes() == want.indices.tobytes()
            assert found[r].distances.tobytes() == want.distances.tobytes()
            assert (found[r].gated, found[r].evaluations) == (gated[r], n_w)
            assert found[r].fallback_used
        assert short.any()
        if case == "tied":
            # class sizes 16, 12, 12 and 9: the class of 16 fills n_c
            assert sorted(set(gated.tolist())) == [9, 12, 16]
            assert not short.all()
        elif case == "at-gate":
            assert short[0] and gated[0] == 15
            assert found[0].distances[15] == l2_t
        elif case == "all-short":
            assert short.all() and (gated == 1).all()

    def test_short_rows_read_off_the_table(self, monkeypatch):
        # no class of the tied image's windows fills n_c = 17, so every
        # row is short: each ga_select call gets its table row, no pair is
        # priced and no row is searched
        coeffs = window_coeffs(tiled(32, 5))
        n_w, p = len(coeffs), GaParams(n_c=17, l2_t=1e-6)
        nearest, distances, _ = gram_shortlist(coeffs, p.n_c)
        priced, searched, rows = [], [], {}
        kernel, select = ga_mod.distances_from, ga_mod.ga_select
        block = ga_mod.search_block

        def count(*args):
            priced.append(args)
            return kernel(*args)

        def spy(ref_idx, *args, nearest=None, **kwargs):
            rows[ref_idx] = nearest
            return select(ref_idx, *args, nearest=nearest, **kwargs)

        def search_spy(coeffs, refs, *args, **kwargs):
            searched.extend(np.asarray(refs).tolist())
            return block(coeffs, refs, *args, **kwargs)

        monkeypatch.setattr(ga_mod, "distances_from", count)
        monkeypatch.setattr(ga_mod, "ga_select", spy)
        monkeypatch.setattr(ga_mod, "search_block", search_spy)
        _, short = ga_mod.closest_sets(coeffs, p, ga_mod.ref_blocks(n_w),
                                       (nearest, distances))
        assert short.all() and priced == [] and searched == []
        assert sorted(rows) == list(range(n_w))
        for r, (idx, dst) in enumerate(zip(nearest, distances)):
            assert rows[r][0].tobytes() == idx.tobytes()
            assert rows[r][1].tobytes() == dst.tobytes()

    @pytest.mark.parametrize("l2_t", [noise_gate(15.0, 8), np.inf],
                             ids=["noise-gate", "no-gate"])
    def test_ga_select_answers_a_table_row(self, l2_t):
        # the ungated scan's top n_c, with its gated count and n_w
        # evaluations, and no trace record; the noise gate leaves these
        # rows short, and no gate leaves them full
        coeffs = window_coeffs(add_awgn(ct_phantom(48), 15, 3))
        n_w = len(coeffs)
        p = GaParams(l2_t=l2_t, seed=1)
        nearest, distances, _ = gram_shortlist(coeffs, p.n_c)
        exact = SelectionParams(n_c=p.n_c)
        records = []
        for r in (0, 37, n_w - 1):
            got = ga_select(r, coeffs, p, trace=lambda *rec:
                            records.append(rec),
                            nearest=(nearest[r], distances[r]))
            want = exhaustive_select(r, coeffs, exact)
            gated = np.count_nonzero(want.distances < l2_t)
            assert got.ref_idx == r
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.distances.tobytes() == want.distances.tobytes()
            assert (got.gated, got.evaluations) == (gated, n_w)
            assert got.fallback_used == (gated < p.n_c) == (l2_t < np.inf)
        assert records == []
