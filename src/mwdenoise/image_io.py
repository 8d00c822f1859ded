"""Grayscale image I/O, noise injection and quality metrics.

Images are 2-D uint8 numpy arrays (row-major, values 0..255). The PGM
reader/writer handles both the ASCII (P2) and binary (P5) variants with
maxval fixed at 255; round trips are bit-exact.
"""

import math
import os
import tempfile

import numpy as np

PEAK = 255


class PgmError(ValueError):
    """Malformed or unsupported PGM content."""


def _as_image(arr):
    a = np.asarray(arr)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale array, got shape {a.shape}")
    return a


def _tokens(data: bytes):
    """Yield header tokens, skipping '#' comments, and the offset past each."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i:i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < n and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < n and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            yield data[i:j], j
            i = j


def load_pgm(path) -> np.ndarray:
    """Read a P2/P5 PGM file with maxval 255 into a uint8 array."""
    with open(path, "rb") as f:
        data = f.read()

    it = _tokens(data)
    try:
        magic, _ = next(it)
    except StopIteration:
        raise PgmError(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"{path}: unsupported magic {magic!r} (want P2 or P5)")

    fields = []
    end = 0
    try:
        for _ in range(3):
            tok, end = next(it)
            fields.append(tok)
    except StopIteration:
        raise PgmError(f"{path}: truncated header") from None
    try:
        width, height, maxval = (int(t) for t in fields)
    except ValueError:
        raise PgmError(f"{path}: non-numeric header field") from None
    if width <= 0 or height <= 0:
        raise PgmError(f"{path}: bad dimensions {width}x{height}")
    if maxval != PEAK:
        raise PgmError(f"{path}: maxval {maxval} unsupported (must be {PEAK})")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the payload
        payload = data[end + 1:]
        if len(payload) < count:
            raise PgmError(f"{path}: truncated payload "
                           f"({len(payload)} of {count} bytes)")
        pixels = np.frombuffer(payload[:count], dtype=np.uint8)
    else:
        values = []
        for tok, _ in it:
            try:
                values.append(int(tok))
            except ValueError:
                raise PgmError(f"{path}: non-numeric sample {tok!r}") from None
            if len(values) == count:
                break
        if len(values) < count:
            raise PgmError(f"{path}: truncated payload "
                           f"({len(values)} of {count} samples)")
        if any(v < 0 or v > PEAK for v in values):
            raise PgmError(f"{path}: sample out of range")
        pixels = np.array(values, dtype=np.uint8)
    return pixels.reshape(height, width)


def save_pgm(img, path, binary: bool = True) -> None:
    """Write a uint8 image as PGM (P5 if binary, else P2), atomically.

    Other dtypes are written when every pixel is an integer in [0, 255];
    anything else (NaN, 1.7, 256) raises ValueError naming the value.
    """
    a = _as_image(img)
    if a.dtype != np.uint8:
        bad = ~((a >= 0) & (a <= PEAK) & (a == np.floor(a)))
        if bad.any():
            raise ValueError(f"pixel value {a[bad][0]} is not an integer "
                             f"in [0, {PEAK}]")
        a = a.astype(np.uint8)
    height, width = a.shape
    if binary:
        blob = f"P5\n{width} {height}\n{PEAK}\n".encode() + a.tobytes()
    else:
        lines = "\n".join(" ".join(str(v) for v in row) for row in a)
        blob = f"P2\n{width} {height}\n{PEAK}\n{lines}\n".encode()

    out_dir = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".pgm.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def add_awgn(img, sigma: float, seed: int = 0) -> np.ndarray:
    """Add white Gaussian noise of standard deviation `sigma`.

    Output pixels are rounded, then clamped to [0, 255]. The noise stream
    is drawn from numpy's default generator (PCG64) seeded with `seed`, so
    identical (img, sigma, seed) always yields identical output.
    """
    a = _as_image(img)
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    noisy = a.astype(np.float64) + rng.normal(0.0, sigma, size=a.shape)
    return np.clip(np.rint(noisy), 0, PEAK).astype(np.uint8)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB; math.inf for identical images."""
    x = _as_image(a).astype(np.float64)
    y = _as_image(b).astype(np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    mse = np.mean((x - y) ** 2)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK ** 2 / mse)
