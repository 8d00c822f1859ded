from dataclasses import asdict

import numpy as np
import pytest

import mwdenoise.cli as cli_mod
from mwdenoise.bench import BenchPlan
from mwdenoise.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION,
                           build_parser, main)
from mwdenoise.image_io import add_awgn, load_pgm, psnr, save_pgm
from mwdenoise.phantom import ct_phantom
from mwdenoise.pipeline import DenoiseConfig


@pytest.fixture
def clean_pgm(tmp_path):
    path = tmp_path / "clean.pgm"
    save_pgm(ct_phantom(64), path)
    return path


@pytest.fixture
def noisy_pgm(tmp_path):
    path = tmp_path / "noisy.pgm"
    save_pgm(add_awgn(ct_phantom(64), 15, 0), path)
    return path


class TestAddNoise:
    def test_happy_path(self, clean_pgm, tmp_path):
        out = tmp_path / "n.pgm"
        code = main(["add-noise", str(clean_pgm), str(out),
                     "--sigma", "15", "--seed", "3"])
        assert code == EXIT_OK
        assert np.array_equal(load_pgm(out),
                              add_awgn(ct_phantom(64), 15, 3))

    def test_negative_sigma(self, clean_pgm, tmp_path):
        code = main(["add-noise", str(clean_pgm),
                     str(tmp_path / "x.pgm"), "--sigma", "-1"])
        assert code == EXIT_VALIDATION

    def test_missing_input(self, tmp_path):
        code = main(["add-noise", str(tmp_path / "nope.pgm"),
                     str(tmp_path / "x.pgm"), "--sigma", "5"])
        assert code == EXIT_IO

    def test_corrupt_input(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6\n2 2\n255\nXXXX")
        code = main(["add-noise", str(bad), str(tmp_path / "x.pgm"),
                     "--sigma", "5"])
        assert code == EXIT_VALIDATION

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["add-noise"])  # missing positionals and --sigma
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()


class TestDenoise:
    def test_round_trip_improves(self, noisy_pgm, tmp_path, capsys):
        out = tmp_path / "d.pgm"
        code = main(["denoise", str(noisy_pgm), str(out),
                     "--window", "8", "--step", "4", "--sigma", "15",
                     "--threshold-scale", "0.25"])
        assert code == EXIT_OK
        clean = ct_phantom(64)
        assert psnr(clean, load_pgm(out)) > psnr(clean, load_pgm(noisy_pgm))
        out = capsys.readouterr().out
        assert "engine=exhaustive" in out and "block_rows=" not in out

    def test_deterministic_output_bytes(self, noisy_pgm, tmp_path, capsys):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        args = ["--method", "ga", "--window", "8", "--step", "4",
                "--sigma", "15", "--seed", "1"]
        assert main(["denoise", str(noisy_pgm), str(a)] + args) == EXIT_OK
        assert main(["denoise", str(noisy_pgm), str(b)] + args) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_invalid_window_size(self, noisy_pgm, tmp_path, capsys):
        code = main(["denoise", str(noisy_pgm), str(tmp_path / "x.pgm"),
                     "--window", "15"])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "x.pgm").exists()
        capsys.readouterr()

    def test_window_below_transform_minimum(self, noisy_pgm, tmp_path,
                                            capsys):
        code = main(["denoise", str(noisy_pgm), str(tmp_path / "x.pgm"),
                     "--window", "4"])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "x.pgm").exists()
        assert "transform size" in capsys.readouterr().err

    def test_window_larger_than_image(self, noisy_pgm, tmp_path, capsys):
        code = main(["denoise", str(noisy_pgm), str(tmp_path / "x.pgm"),
                     "--window", "128", "--step", "64"])
        assert code == EXIT_VALIDATION
        capsys.readouterr()

    def test_ga_trace_deterministic(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        # at 48 px every row is short and runs no generation; at 64 some
        # rows search
        save_pgm(add_awgn(ct_phantom(64), 15, 0), src)
        streams = []
        for tag in ("a", "b"):
            assert main(["denoise", str(src), str(tmp_path / f"{tag}.pgm"),
                         "--method", "ga", "--window", "8", "--step", "4",
                         "--sigma", "15", "--trace"]) == EXIT_OK
            streams.append(capsys.readouterr().err)
        assert streams[0] == streams[1]
        assert streams[0].startswith("gen=1 ")

    def test_ga_stats_report_block_rows(self, noisy_pgm, tmp_path, capsys):
        # 64 px at m=8, s=4: n_w = 225 in one block, its full rows searched
        code = main(["denoise", str(noisy_pgm), str(tmp_path / "o.pgm"),
                     "--method", "ga", "--window", "8", "--step", "4",
                     "--sigma", "15"])
        assert code == EXIT_OK
        stats = dict(line.split("=", 1)
                     for line in capsys.readouterr().out.splitlines())
        assert int(stats["block_rows"]) > 0
        assert int(stats["block_rows"]) + int(stats["short_rows"]) == 225

    def test_settings_reach_config(self, noisy_pgm, tmp_path, capsys):
        code = main(["denoise", str(noisy_pgm), str(tmp_path / "o.pgm"),
                     "--method", "ga", "--window", "8", "--step", "8",
                     "--nc", "4", "--cp1", "1", "--cp2", "3", "--pop", "4",
                     "--gmax", "3", "--max-rounds", "1", "--sigma", "15",
                     "--seed", "7"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for line in ("engine=ga", "m=8", "s_size=8", "n_c=4", "seed=7"):
            assert line in out.splitlines()

    @pytest.mark.parametrize("bad", [["--threshold-scale", "inf"],
                                     ["--cp2", "16"], ["--l2t", "0"],
                                     ["--seed", "-1"]])
    def test_bad_setting_rejected(self, noisy_pgm, tmp_path, capsys, bad):
        out = tmp_path / "x.pgm"
        code = main(["denoise", str(noisy_pgm), str(out), "--method", "ga",
                     *bad])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_negative_seed_rejected_by_the_scan(self, noisy_pgm, tmp_path,
                                                capsys):
        out = tmp_path / "x.pgm"
        code = main(["denoise", str(noisy_pgm), str(out), "--seed", "-1"])
        assert code == EXIT_VALIDATION
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestPsnr:
    def test_identical_images(self, clean_pgm, capsys):
        assert main(["psnr", str(clean_pgm), str(clean_pgm)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "inf"

    def test_known_value(self, tmp_path, capsys):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_pgm(np.full((16, 16), 100, np.uint8), a)
        save_pgm(np.full((16, 16), 101, np.uint8), b)
        assert main(["psnr", str(a), str(b)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "48.13"

    def test_shape_mismatch(self, clean_pgm, tmp_path, capsys):
        other = tmp_path / "small.pgm"
        save_pgm(np.zeros((8, 8), np.uint8), other)
        assert main(["psnr", str(clean_pgm), str(other)]) == EXIT_VALIDATION
        capsys.readouterr()


class TestCalibrate:
    def test_prints_threshold(self, noisy_pgm, capsys):
        code = main(["calibrate", str(noisy_pgm), "--window", "8",
                     "--step", "4", "--pairs", "200", "--quantile", "0.1"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("l2_t=")
        assert float(captured.out.split("=", 1)[1]) > 0
        assert "sigma_estimate=" in captured.err

    def test_bad_quantile(self, noisy_pgm, capsys):
        code = main(["calibrate", str(noisy_pgm), "--window", "8",
                     "--step", "4", "--quantile", "1.5"])
        assert code == EXIT_VALIDATION
        capsys.readouterr()


class TestBench:
    ARGS = ["bench", "--images", "phantom:64", "--sigmas", "10",
            "--engines", "noisy-only", "exhaustive", "--seeds", "0",
            "--window", "8", "--step", "4"]

    def test_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        table = capsys.readouterr().out
        assert "phantom:64" in table
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 engine rows
        assert lines[0].startswith("image,sigma,engine,seed")

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("bad, message", [
        (["--images", "phantom:64", "phantom:abc"],
         "phantom size must be an integer >= 8, got 'phantom:abc'"),
        (["--images", "phantom:4"],
         "phantom size must be an integer >= 8, got 'phantom:4'"),
        (["--seeds", "0", "-1"], "seeds must be >= 0, got -1"),
    ])
    def test_bad_sweep_rejected_before_any_cell(self, monkeypatch, capsys,
                                                bad, message):
        def run(plan):
            raise AssertionError("a cell ran before the plan was checked")

        monkeypatch.setattr(cli_mod, "run_bench", run)
        assert main(self.ARGS + bad) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_defaults_from_dataclasses(self):
        parser = build_parser()
        plan = BenchPlan()
        for argv, cfg in ((["denoise", "in", "out"], DenoiseConfig()),
                          (["bench"], plan.cfg)):
            args = vars(parser.parse_args(argv))
            given = {k: v for k, v in asdict(cfg).items() if k in args}
            assert given == {k: args[k] for k in given}
            assert len(given) >= 10
        args = parser.parse_args(["bench"])
        assert (tuple(args.images), tuple(args.sigmas), tuple(args.engines),
                tuple(args.seeds)) == (plan.images, plan.sigmas,
                                       plan.engines, plan.seeds)
