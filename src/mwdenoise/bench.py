"""Benchmark harness: sweep noise levels, run the selection engines and
report PSNR plus distance-evaluation counts.

Images are PGM paths or "phantom:N" specifiers for the bundled synthetic
phantom. Reports are deterministic for a fixed plan; wall-clock timing is
opt-in because it breaks byte-identical reruns.
"""

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .image_io import add_awgn, load_pgm, psnr
from .phantom import ct_phantom
from .pipeline import DenoiseConfig, denoise_image

BENCH_ENGINES = ("noisy-only", "exhaustive", "ga")
CSV_COLUMNS = ("image", "sigma", "engine", "seed",
               "psnr_noisy", "psnr_denoised", "distance_evals", "wall_ms")


@dataclass
class BenchPlan:
    """A sweep over images, noise levels, engines and seeds. `cfg` is the
    denoiser template: each cell replaces its engine, sigma and seed."""
    images: tuple = ("phantom:128",)
    sigmas: tuple = (10.0, 20.0, 30.0, 40.0, 50.0)
    engines: tuple = BENCH_ENGINES
    seeds: tuple = (0, 1, 2)
    # the default template suits the bundled 128x128 phantom
    cfg: DenoiseConfig = field(default_factory=lambda: DenoiseConfig(
        m=8, s_size=4, threshold_scale=0.25))
    timing: bool = False

    def __post_init__(self):
        for name in ("images", "engines", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if not self.sigmas or not all(0 <= s < math.inf
                                      for s in self.sigmas):
            raise ValueError(f"sigmas must be non-empty, finite and >= 0, "
                             f"got {self.sigmas}")
        for e in self.engines:
            if e not in BENCH_ENGINES:
                raise ValueError(f"unknown engine {e!r}; "
                                 f"expected subset of {BENCH_ENGINES}")
            if e != "noisy-only":
                self.cell_config(e, 0.0, 0)   # raises here, not mid-sweep
        for seed in self.seeds:
            if seed < 0:
                raise ValueError(f"seeds must be >= 0, got {seed}")
        for spec in self.images:
            phantom_size(spec)

    def cell_config(self, engine: str, sigma: float, seed: int):
        return replace(self.cfg, engine=engine, sigma=sigma, seed=seed)


@dataclass
class BenchRow:
    image: str
    sigma: float
    engine: str
    seed: int
    psnr_noisy: float
    psnr_denoised: float | None
    distance_evals: int
    wall_ms: float | None


def phantom_size(spec: str) -> int | None:
    """N of a "phantom:N" image spec, None for a PGM path."""
    if not spec.startswith("phantom:"):
        return None
    size = spec.split(":", 1)[1]
    if not (size.isdecimal() and int(size) >= 8):
        raise ValueError(f"phantom size must be an integer >= 8, "
                         f"got {spec!r}")
    return int(size)


def resolve_image(spec: str) -> np.ndarray:
    size = phantom_size(spec)
    return load_pgm(spec) if size is None else ct_phantom(size)


def noise_seed(seed: int, image_index: int, sigma: float) -> int:
    """Stable per-cell noise seed derived from the plan coordinates."""
    ss = np.random.SeedSequence((seed, image_index, int(round(sigma * 1000))))
    return int(ss.generate_state(1)[0])


def run_bench(plan: BenchPlan):
    """Execute every (image, sigma, engine, seed) cell of the plan."""
    rows = []
    for img_idx, spec in enumerate(plan.images):
        clean = resolve_image(spec)
        for sigma in plan.sigmas:
            for seed in plan.seeds:
                noisy = add_awgn(clean, sigma,
                                 noise_seed(seed, img_idx, sigma))
                p_noisy = psnr(clean, noisy)
                for engine in plan.engines:
                    if engine == "noisy-only":
                        rows.append(BenchRow(spec, sigma, engine, seed,
                                             p_noisy, None, 0,
                                             0.0 if plan.timing else None))
                        continue
                    denoised, stats = denoise_image(
                        noisy, plan.cell_config(engine, sigma, seed))
                    rows.append(BenchRow(
                        spec, sigma, engine, seed, p_noisy,
                        psnr(clean, denoised), stats.distance_evals,
                        stats.wall_ms if plan.timing else None))
    return rows


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return "inf" if math.isinf(v) else f"{v:.4f}"
    return str(v)


def emit_csv(rows, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([r.image, _fmt(float(r.sigma)), r.engine, r.seed,
                             _fmt(r.psnr_noisy), _fmt(r.psnr_denoised),
                             r.distance_evals, _fmt(r.wall_ms)])


def summarize(rows):
    """Per-(image, sigma, engine) mean PSNR over seeds."""
    cells = {}
    for r in rows:
        cells.setdefault((r.image, r.sigma, r.engine), []).append(r)
    out = []
    for (image, sigma, engine), group in cells.items():
        noisy = float(np.mean([g.psnr_noisy for g in group]))
        den = [g.psnr_denoised for g in group if g.psnr_denoised is not None]
        out.append((image, sigma, engine, noisy,
                    float(np.mean(den)) if den else None))
    return out


def render_table(rows) -> str:
    """Human-readable per-cell means, aligned columns."""
    lines = [f"{'image':<16} {'sigma':>6} {'engine':<12} "
             f"{'psnr_noisy':>10} {'psnr_out':>9}"]
    for image, sigma, engine, noisy, den in summarize(rows):
        den_s = f"{den:9.2f}" if den is not None else f"{'-':>9}"
        lines.append(f"{image:<16} {sigma:>6g} {engine:<12} "
                     f"{noisy:>10.2f} {den_s}")
    return "\n".join(lines)
