"""The benchmark's workloads and the inputs each one builds from a seed.

Every workload runs through the public API with `threads=1`. Why each one
is here (README.md has the measured splits):

- ct512-exhaustive: the paper's scale with the library's default window
  geometry; the exhaustive scan is nearly all of the time, so it exposes
  the selection kernel and its memory use.
- ct96-ga: the GA engine at the largest size where one image stays short
  enough to repeat; at 64 the GA prices almost every pair and stops
  searching, at 128 one image takes about a minute.
- tiles64-est: many small images with mixed, estimated noise levels; the
  per-window shrink/inverse/overlap-add path and per-call overhead carry
  about half the time, and it is the only workload that uses the sigma
  estimate.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

import mwdenoise
from mwdenoise import DenoiseConfig


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: DenoiseConfig
    phantom_size: int
    tile: int | None = None       # None: the whole phantom is one image
    sigmas: tuple = (20.0,)       # noise level of image i is sigmas[i % len]


WORKLOADS = {w.name: w for w in (
    Workload("ct512-exhaustive",
             DenoiseConfig(m=16, s_size=8, sigma=20.0, threshold_scale=0.25),
             phantom_size=512),
    Workload("ct96-ga",
             DenoiseConfig(m=8, s_size=4, sigma=20.0, threshold_scale=0.25,
                           engine="ga", seed=0),
             phantom_size=96),
    Workload("tiles64-est",
             DenoiseConfig(m=8, s_size=4, threshold_scale=0.25),
             phantom_size=512, tile=64, sigmas=(10.0, 20.0, 30.0, 40.0)),
)}


@dataclass
class Item:
    """One image of a workload: the clean source and its noisy input."""
    clean: np.ndarray
    noisy: np.ndarray
    sigma: float


def noise_seed(seed: int, index: int) -> int:
    """Noise seed of image `index`, derived from the workload seed."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def build_items(workload: Workload, seed: int):
    """The images of one pass over `workload`, noised from `seed`."""
    clean = mwdenoise.ct_phantom(workload.phantom_size)
    if workload.tile is None:
        sources = [clean]
    else:
        t = workload.tile
        sources = [clean[y:y + t, x:x + t]
                   for y in range(0, clean.shape[0], t)
                   for x in range(0, clean.shape[1], t)]
    items = []
    for i, src in enumerate(sources):
        sigma = workload.sigmas[i % len(workload.sigmas)]
        noisy = mwdenoise.add_awgn(src, sigma, noise_seed(seed, i))
        items.append(Item(src, noisy, sigma))
    return items


def digest(items) -> str:
    """Fingerprint of the generated inputs, to check seed determinism."""
    h = hashlib.sha256()
    for item in items:
        h.update(np.ascontiguousarray(item.noisy).tobytes())
        h.update(repr(item.noisy.shape).encode())
    return h.hexdigest()
