import re

import numpy as np
import pytest

from mwdenoise.windows import build_grid, extract_windows, origin_of


def random_image(rng, h, w):
    return rng.integers(0, 256, size=(h, w), dtype=np.uint8)


class TestBuildGrid:
    def test_paper_geometry(self):
        geom = build_grid(np.zeros((512, 512), np.uint8), 16, 8)
        assert (geom.rows, geom.cols) == (63, 63)
        assert geom.n_w == 3969

    def test_degenerate_single_window(self):
        geom = build_grid(np.zeros((16, 16), np.uint8), 16, 5)
        assert geom.n_w == 1
        assert origin_of(geom, 0) == (0, 0)

    def test_64x64_m8_s4(self):
        geom = build_grid(np.zeros((64, 64), np.uint8), 8, 4)
        assert (geom.rows, geom.cols) == (15, 15)

    def test_clamped_extra_column(self):
        # (70 - 8) % 4 != 0 in neither axis; (70-8)%3: 62%3=2 -> clamp
        geom = build_grid(np.zeros((70, 70), np.uint8), 8, 3)
        assert geom.xs[-1] == 62 and geom.ys[-1] == 62

    def test_invalid_window_size(self):
        img = np.zeros((32, 32), np.uint8)
        with pytest.raises(ValueError):
            build_grid(img, 15, 4)
        with pytest.raises(ValueError):
            build_grid(img, 64, 4)

    @pytest.mark.parametrize("shape", [(32, 32, 3), (32,), ()])
    def test_not_2d_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            build_grid(np.zeros(shape, np.uint8), 8, 4)

    def test_invalid_step(self):
        img = np.zeros((32, 32), np.uint8)
        with pytest.raises(ValueError):
            build_grid(img, 8, 0)
        with pytest.raises(ValueError):
            build_grid(img, 8, 9)


class TestWindowAt:
    def test_row_major_origins(self):
        geom = build_grid(np.zeros((512, 512), np.uint8), 16, 8)
        assert origin_of(geom, 0) == (0, 0)
        assert origin_of(geom, 63) == (0, 8)
        assert origin_of(geom, 64) == (8, 8)

    def test_index_out_of_range(self):
        geom = build_grid(np.zeros((32, 32), np.uint8), 8, 4)
        for idx in (geom.n_w, -1):
            with pytest.raises(IndexError):
                origin_of(geom, idx)

    def test_index_array_equals_scalar_calls(self):
        geom = build_grid(np.zeros((41, 30), np.uint8), 8, 5)
        idx = np.array([[0, 5], [geom.n_w - 1, geom.cols]])
        xs, ys = origin_of(geom, idx)
        assert xs.shape == ys.shape == idx.shape
        for i, x, y in zip(idx.flat, xs.flat, ys.flat):
            assert origin_of(geom, i) == (x, y)

    def test_index_array_out_of_range_named(self):
        geom = build_grid(np.zeros((32, 32), np.uint8), 8, 4)
        for bad in (geom.n_w, -1):
            with pytest.raises(IndexError, match=f"window index {bad} out"):
                origin_of(geom, np.array([0, 3, bad, 1]))

    def test_values_match_slices(self):
        # every offset, the clamped last row and column included
        rng = np.random.default_rng(0)
        for h, w, m, s in ((40, 28, 8, 4), (41, 30, 8, 5), (30, 44, 8, 5),
                           (23, 19, 4, 3)):
            for img in (random_image(rng, h, w), rng.uniform(0, 255, (h, w))):
                geom = build_grid(img, m, s)
                stack = extract_windows(img, geom)
                assert stack.dtype == np.float64 and stack.flags.c_contiguous
                assert stack.shape == (geom.n_w, m, m)
                for idx in range(geom.n_w):
                    x, y = origin_of(geom, idx)
                    assert np.array_equal(
                        stack[idx], img[y:y + m, x:x + m].astype(np.float64))
            assert geom.xs[-1] == w - m and geom.ys[-1] == h - m


class TestProperties:
    def test_coverage_random_geometries(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h = int(rng.integers(8, 90))
            w = int(rng.integers(8, 90))
            m = int(rng.choice([4, 8, 12, 16]))
            if m > min(h, w):
                m = 4
            s = int(rng.integers(1, m + 1))
            geom = build_grid(np.zeros((h, w), np.uint8), m, s)
            covered = np.zeros((h, w), bool)
            for idx in range(geom.n_w):
                x, y = origin_of(geom, idx)
                covered[y:y + m, x:x + m] = True
            assert covered.all()

    def test_origin_bijection(self):
        geom = build_grid(np.zeros((48, 36), np.uint8), 8, 3)
        origins = {origin_of(geom, i) for i in range(geom.n_w)}
        assert len(origins) == geom.n_w

    def test_replica_identity(self):
        rng = np.random.default_rng(2)
        img = random_image(rng, 48, 48)
        replica = img.copy()
        geom = build_grid(img, 8, 4)
        assert np.array_equal(extract_windows(img, geom),
                              extract_windows(replica, geom))

    def test_extract_matches_window_at(self):
        rng = np.random.default_rng(3)
        img = random_image(rng, 30, 44)
        geom = build_grid(img, 8, 5)
        stack = extract_windows(img, geom)
        for idx in (0, 1, geom.n_w // 2, geom.n_w - 1):
            x, y = origin_of(geom, idx)
            assert np.array_equal(stack[idx],
                                  img[y:y + 8, x:x + 8].astype(np.float64))
