import math

import numpy as np
import pytest

from mwdenoise.image_io import PgmError, add_awgn, load_pgm, psnr, save_pgm


def write(tmp_path, blob, name="img.pgm"):
    p = tmp_path / name
    p.write_bytes(blob)
    return p


class TestLoadPgm:
    def test_p5_decode(self, tmp_path):
        p = write(tmp_path, b"P5\n2 2\n255\n" + bytes([0, 255, 17, 42]))
        img = load_pgm(p)
        assert img.dtype == np.uint8
        assert img.tolist() == [[0, 255], [17, 42]]

    def test_p2_equivalent(self, tmp_path):
        p = write(tmp_path, b"P2\n2 2\n255\n0 255\n17 42\n")
        assert load_pgm(p).tolist() == [[0, 255], [17, 42]]

    def test_header_comments(self, tmp_path):
        p = write(tmp_path, b"P5\n# a comment\n2 1 # inline\n255\n" +
                  bytes([7, 9]))
        assert load_pgm(p).tolist() == [[7, 9]]

    def test_unsupported_magic(self, tmp_path):
        p = write(tmp_path, b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(PgmError, match="magic"):
            load_pgm(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pgm(tmp_path / "nope.pgm")

    def test_bad_maxval(self, tmp_path):
        p = write(tmp_path, b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(PgmError, match="maxval"):
            load_pgm(p)

    def test_truncated_payload(self, tmp_path):
        p = write(tmp_path, b"P5\n4 4\n255\n" + bytes(5))
        with pytest.raises(PgmError, match="truncated"):
            load_pgm(p)

    def test_truncated_ascii(self, tmp_path):
        p = write(tmp_path, b"P2\n2 2\n255\n1 2 3\n")
        with pytest.raises(PgmError, match="truncated"):
            load_pgm(p)

    def test_non_numeric_ascii_sample(self, tmp_path):
        p = write(tmp_path, b"P2\n2 1\n255\n1 x\n")
        with pytest.raises(PgmError, match=r"img\.pgm: non-numeric sample"):
            load_pgm(p)


class TestSavePgm:
    @pytest.mark.parametrize("binary", [True, False])
    def test_round_trip(self, tmp_path, binary):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h, w = rng.integers(1, 40, size=2)
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            p = tmp_path / "rt.pgm"
            save_pgm(img, p, binary=binary)
            assert np.array_equal(load_pgm(p), img)

    def test_ascii_magic(self, tmp_path):
        p = tmp_path / "a.pgm"
        save_pgm(np.zeros((2, 2), np.uint8), p, binary=False)
        assert p.read_bytes().startswith(b"P2")

    def test_single_zero_pixel(self, tmp_path):
        p = tmp_path / "z.pgm"
        save_pgm(np.zeros((1, 1), np.uint8), p, binary=False)
        body = p.read_bytes().split(b"255", 1)[1].split()
        assert body == [b"0"]

    @pytest.mark.parametrize("bad", [1.7, 254.9, float("nan"), float("inf"),
                                     -1.0, 256.0])
    def test_non_integral_or_out_of_range_rejected(self, tmp_path, bad):
        # would be truncated, zeroed or wrapped on the uint8 cast
        img = np.full((3, 3), 10.0)
        img[1, 2] = bad
        p = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match=f"pixel value {bad}"):
            save_pgm(img, p)
        assert not p.exists()

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint16])
    def test_integral_pixels_of_other_dtypes(self, tmp_path, dtype):
        img = np.arange(256).reshape(16, 16).astype(dtype)
        p = tmp_path / "ok.pgm"
        save_pgm(img, p)
        assert np.array_equal(load_pgm(p), img)


class TestAddAwgn:
    def test_sigma_zero_identity(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        assert np.array_equal(add_awgn(img, 0.0, 5), img)

    def test_deterministic(self):
        img = np.full((32, 32), 100, np.uint8)
        assert np.array_equal(add_awgn(img, 15, 9), add_awgn(img, 15, 9))
        assert not np.array_equal(add_awgn(img, 15, 9), add_awgn(img, 15, 10))

    def test_midgray_sigma10_psnr(self):
        img = np.full((512, 512), 128, np.uint8)
        assert psnr(img, add_awgn(img, 10, 0)) == pytest.approx(28.13, abs=0.3)

    def test_sample_std_sigma20(self):
        # chi-square band for the sample std at n = 512*512
        img = np.full((512, 512), 128, np.uint8)
        diff = add_awgn(img, 20, 3).astype(np.float64) - 128.0
        assert 19.4 <= diff.std() <= 20.6

    def test_clamped_at_extreme_sigma(self):
        img = np.full((16, 16), 128, np.uint8)
        out = add_awgn(img, 1e6, 0)
        assert out.min() >= 0 and out.max() <= 255
        assert set(np.unique(out)).issubset({0, 255})

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_awgn(np.zeros((4, 4), np.uint8), -1.0, 0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        # nan used to slip past the sign check and return an all-zero image
        with pytest.raises(ValueError, match="finite"):
            add_awgn(np.full((4, 4), 128, np.uint8), sigma, 0)


class TestPsnr:
    def test_identical_is_inf(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        assert math.isinf(psnr(img, img))

    def test_mse_one(self):
        a = np.full((10, 10), 100, np.uint8)
        b = a + 1
        assert psnr(a, b) == pytest.approx(48.1308, abs=1e-4)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, (9, 7), dtype=np.uint8)
        b = rng.integers(0, 256, (9, 7), dtype=np.uint8)
        assert psnr(a, b) == psnr(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2), np.uint8), np.zeros((3, 3), np.uint8))
