"""Window-based GHM multi-wavelet CT image denoising.

Two interchangeable closer-window selection engines (exhaustive scan and
GA search) feed a transform-domain averaging/thresholding pipeline, with
an AWGN/PSNR benchmark harness for comparing them.
"""

from .bench import BenchPlan, BenchRow, emit_csv, render_table, run_bench
from .ga import GaParams, ga_select
from .ghm import build_ghm_matrix, detail_mask, forward_all, inverse
from .image_io import PgmError, add_awgn, load_pgm, psnr, save_pgm
from .phantom import ct_phantom
from .pipeline import DenoiseConfig, RunStats, denoise_image, soft_threshold
from .selection import (ClosestSet, SelectionParams, calibrate_l2t,
                        distances_from, exhaustive_select, noise_gate)
from .windows import GridGeometry, build_grid, extract_windows

__version__ = "0.1.0"

__all__ = [
    "BenchPlan", "BenchRow", "ClosestSet", "DenoiseConfig", "GaParams",
    "GridGeometry", "PgmError", "RunStats", "SelectionParams", "add_awgn",
    "build_ghm_matrix", "build_grid", "calibrate_l2t", "ct_phantom",
    "denoise_image", "detail_mask", "distances_from", "emit_csv",
    "exhaustive_select", "extract_windows", "forward_all", "ga_select",
    "inverse", "load_pgm", "noise_gate", "psnr", "render_table",
    "run_bench", "save_pgm", "soft_threshold",
]
