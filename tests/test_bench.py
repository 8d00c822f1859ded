import csv

import numpy as np
import pytest

from mwdenoise.bench import (BenchPlan, CSV_COLUMNS, emit_csv, noise_seed,
                             render_table, resolve_image, run_bench,
                             summarize)
from mwdenoise.phantom import ct_phantom
from mwdenoise.pipeline import DenoiseConfig
from mwdenoise.windows import build_grid

SMALL = dict(images=("phantom:64",), sigmas=(10.0, 30.0), seeds=(0,),
             cfg=DenoiseConfig(m=8, s_size=4, threshold_scale=0.25))


class TestPlanValidation:
    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            BenchPlan(sigmas=(10.0, -1.0))

    def test_empty_sigmas(self):
        with pytest.raises(ValueError):
            BenchPlan(sigmas=())

    @pytest.mark.parametrize("name", ["images", "engines", "seeds"])
    def test_empty_axis(self, name):
        # a sweep with no cells would report nothing, without an error
        with pytest.raises(ValueError, match=f"{name} must be non-empty"):
            BenchPlan(**{name: ()})

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            BenchPlan(engines=("exhaustive", "bogus"))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            BenchPlan(sigmas=(10.0, sigma))

    def test_engine_settings_checked_at_plan(self):
        # the GA needs c_p2 <= n_c - 1; the scan does not
        cfg = DenoiseConfig(m=8, s_size=4, n_c=4)
        with pytest.raises(ValueError, match="crossover points"):
            BenchPlan(cfg=cfg)
        BenchPlan(cfg=cfg, engines=("noisy-only", "exhaustive"))


def test_resolve_phantom_spec():
    assert np.array_equal(resolve_image("phantom:64"), ct_phantom(64))


def test_noise_seed_distinct_cells():
    seeds = {noise_seed(s, i, sig)
             for s in (0, 1) for i in (0, 1) for sig in (10.0, 20.0)}
    assert len(seeds) == 8


@pytest.fixture(scope="module")
def rows():
    return run_bench(BenchPlan(**SMALL))


class TestRunBench:
    def test_row_count(self, rows):
        # 1 image x 2 sigmas x 3 engines x 1 seed
        assert len(rows) == 6

    def test_deterministic_rerun(self, rows):
        again = run_bench(BenchPlan(**SMALL))
        assert rows == again

    def test_noisy_psnr_degrades_with_sigma(self, rows):
        noisy = {r.sigma: r.psnr_noisy for r in rows
                 if r.engine == "noisy-only"}
        assert noisy[30.0] < noisy[10.0]

    def test_denoisers_beat_noisy_input(self, rows):
        for r in rows:
            if r.engine != "noisy-only":
                assert r.psnr_denoised > r.psnr_noisy

    def test_exhaustive_eval_accounting(self, rows):
        geom = build_grid(ct_phantom(64), 8, 4)
        for r in rows:
            if r.engine == "exhaustive":
                assert r.distance_evals == geom.n_w * geom.n_w

    def test_template_settings_used(self):
        # every cell denoises with the template's grid, not the default one
        plan = BenchPlan(images=("phantom:32",), sigmas=(10.0,),
                         engines=("exhaustive",), seeds=(0,),
                         cfg=DenoiseConfig(m=8, s_size=8, n_c=4))
        geom = build_grid(ct_phantom(32), 8, 8)
        assert [r.distance_evals for r in run_bench(plan)] == [geom.n_w ** 2]

    def test_ga_evaluates_fewer_or_equal(self, rows):
        by_key = {(r.sigma, r.engine): r for r in rows}
        for sigma in (10.0, 30.0):
            assert by_key[(sigma, "ga")].distance_evals <= \
                by_key[(sigma, "exhaustive")].distance_evals

    def test_wall_ms_absent_without_timing(self, rows):
        assert all(r.wall_ms is None for r in rows)

    def test_wall_ms_present_with_timing(self):
        plan = BenchPlan(images=("phantom:32",), sigmas=(10.0,),
                         engines=("noisy-only", "exhaustive"), seeds=(0,),
                         timing=True)
        rows = run_bench(plan)
        assert all(r.wall_ms is not None for r in rows)

    def test_csv_parse_back(self, rows, tmp_path):
        path = tmp_path / "report.csv"
        emit_csv(rows, path)
        with open(path, newline="") as f:
            parsed = list(csv.reader(f))
        assert tuple(parsed[0]) == CSV_COLUMNS
        assert len(parsed) == len(rows) + 1
        for rec, row in zip(parsed[1:], rows):
            assert rec[0] == row.image
            assert float(rec[1]) == row.sigma
            assert rec[2] == row.engine
            assert float(rec[4]) == pytest.approx(row.psnr_noisy, abs=5e-5)
            assert rec[7] == ""  # timing off

    def test_csv_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_bench(BenchPlan(**SMALL)), a)
        emit_csv(run_bench(BenchPlan(**SMALL)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_summary_and_table(self, rows):
        cells = summarize(rows)
        assert len(cells) == 6
        table = render_table(rows)
        assert "phantom:64" in table and "exhaustive" in table
        assert len(table.splitlines()) == 7


def test_noisy_only_psnr_matches_reference_value():
    # sigma=10 AWGN on a large flat-ish image lands near 28.13 dB
    plan = BenchPlan(images=("phantom:128",), sigmas=(10.0,),
                     engines=("noisy-only",), seeds=(0, 1, 2))
    rows = run_bench(plan)
    mean = np.mean([r.psnr_noisy for r in rows])
    assert mean == pytest.approx(28.13, abs=0.3)
