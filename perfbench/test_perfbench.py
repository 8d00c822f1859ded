"""Tests for the benchmark's own helpers.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mwdenoise  # noqa: E402
from mwdenoise import DenoiseConfig  # noqa: E402

import measure  # noqa: E402
from measure import (  # noqa: E402
    ENGINE_SPANS, EngineLog, Sample, check_output, check_pass, closed_loop,
    denoise_pass, end_to_end, layer_metrics, layer_values, n_windows)
from spans import SpanTable, Tracer, missing_spans  # noqa: E402
from workloads import WORKLOADS, Workload, build_items, digest  # noqa: E402

TINY = Workload("tiny", DenoiseConfig(m=8, s_size=4, sigma=20.0,
                                      threshold_scale=0.25),
                phantom_size=32)
TINY_GA = Workload("tiny-ga", DenoiseConfig(m=8, s_size=4, sigma=20.0,
                                            threshold_scale=0.25,
                                            engine="ga", g_max=5),
                   phantom_size=24)


def hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    # A second root d [20, 22] has no children.
    names = ["root", "a", "b", "c"]
    return SpanTable(names,
                     name_id=[0, 1, 2, 3, 0],
                     parent=[-1, 0, 0, 2, -1],
                     image=[0, 0, 0, 0, 1],
                     start=[0.0, 1.0, 5.0, 6.0, 20.0],
                     end=[10.0, 4.0, 9.0, 7.0, 22.0])


def test_self_time_subtracts_direct_children_only():
    table = hand_built_tree()
    assert table.self_times() == pytest.approx([3.0, 3.0, 3.0, 1.0, 2.0])


def test_self_times_by_name_sum_calls_and_seconds():
    table = hand_built_tree()
    assert table.by_name() == {"root": (2, pytest.approx(5.0)),
                               "a": (1, pytest.approx(3.0)),
                               "b": (1, pytest.approx(3.0)),
                               "c": (1, pytest.approx(1.0))}
    only_first = table.by_name(table.image == 0)
    assert only_first["root"] == (1, pytest.approx(3.0))


def test_self_times_add_up_to_root_durations():
    table = hand_built_tree()
    assert table.self_times().sum() == pytest.approx(10.0 + 2.0)


def test_missing_spans_ignore_spans_the_baseline_never_called():
    baseline = {"ga.mutate": 3.0, "ga.crossover": 1.0, "ga.ga_select": 0.0}
    calls = {"ga.mutate": 0.0, "ga.crossover": 2.0}
    assert missing_spans(calls, baseline) == ["ga.mutate"]


def test_renamed_function_reports_missing_not_zero():
    spec = [{"name": "ga.mutate.self_s", "unit": "s", "better": "lower"},
            {"name": "ga.mutate.calls", "unit": "count", "better": "lower"},
            {"name": "ga.evals_ratio", "unit": "ratio", "better": "lower"},
            {"name": "ga.crossover.self_s", "unit": "s", "better": "lower"}]
    # as if ga.mutate had been renamed and ga_select no longer ran
    values = {"ga.crossover.self_s": 0.5, "ga.crossover.calls": 4.0,
              "ga.evals_ratio": 0.0}
    calls = {"ga.crossover": 4.0}
    baseline = {"ga.mutate": 4.0, "ga.crossover": 4.0, "ga.ga_select": 1.0}
    out, missing = layer_metrics(spec, values, calls, baseline)
    assert missing == ["ga.ga_select", "ga.mutate"]
    assert out["ga.mutate.self_s"] == {"value": None, "unit": "s",
                                       "missing": True}
    assert out["ga.mutate.calls"]["missing"]
    assert out["ga.evals_ratio"]["missing"]
    assert out["ga.crossover.self_s"] == {"value": 0.5, "unit": "s"}


def test_zero_calls_stay_zero_where_baseline_had_none():
    spec = [{"name": "ga.mutate.self_s", "unit": "s", "better": "lower"}]
    out, missing = layer_metrics(spec, {"ga.mutate.self_s": 0.0},
                                 {"ga.mutate": 0.0}, {"ga.mutate": 0.0})
    assert missing == []
    assert out["ga.mutate.self_s"] == {"value": 0.0, "unit": "s"}


def test_inputs_depend_on_the_seed_alone():
    for wl in (TINY, WORKLOADS["tiles64-est"]):
        assert digest(build_items(wl, 7)) == digest(build_items(wl, 7))
        assert digest(build_items(wl, 7)) != digest(build_items(wl, 8))


def test_tiles_cover_the_phantom_with_cycling_noise_levels():
    items = build_items(WORKLOADS["tiles64-est"], 0)
    assert len(items) == 64
    assert {it.noisy.shape for it in items} == {(64, 64)}
    assert [it.sigma for it in items[:5]] == [10.0, 20.0, 30.0, 40.0, 10.0]
    assert WORKLOADS["tiles64-est"].cfg.sigma is None


def test_tracer_wraps_the_attribute_callers_resolve_and_restores_it():
    originals = (mwdenoise.pipeline.exhaustive_select,
                 mwdenoise.selection.exhaustive_select,
                 mwdenoise.ghm.inverse,
                 mwdenoise.ga.DistanceCache.__dict__["lookup"],
                 mwdenoise.denoise_image)
    with Tracer():
        assert mwdenoise.pipeline.exhaustive_select is not originals[0]
        assert (mwdenoise.pipeline.exhaustive_select
                is mwdenoise.selection.exhaustive_select)
        assert mwdenoise.ghm.inverse is not originals[2]
        assert vars(mwdenoise.ga.DistanceCache)["lookup"] is not originals[3]
        assert mwdenoise.denoise_image is mwdenoise.pipeline.denoise_image
    assert (mwdenoise.pipeline.exhaustive_select,
            mwdenoise.selection.exhaustive_select, mwdenoise.ghm.inverse,
            mwdenoise.ga.DistanceCache.__dict__["lookup"],
            mwdenoise.denoise_image) == originals


def traced_pass(wl):
    log = EngineLog()
    tracer = Tracer({name: log.closest_set for name in ENGINE_SPANS})
    with tracer:
        items = build_items(wl, 0)
    n_w = [n_windows(item, wl.cfg) for item in items]
    with tracer:
        samples = denoise_pass(items, wl.cfg, n_w, None, None, tracer, log)
    return tracer.arrays(), log, samples, n_w


@pytest.mark.parametrize("wl", [TINY, TINY_GA], ids=lambda w: w.name)
def test_layer_metrics_derive_from_spans_and_run_stats(wl):
    table, log, samples, n_w = traced_pass(wl)
    assert all(s.error is None for s in samples)
    values, calls = layer_values(table, log, 1, n_w)
    # the engine calls account for every distance RunStats counted
    assert log.evaluations == {s.image_id: s.distance_evals for s in samples}
    engine = "selection.exhaustive_select" if wl is TINY else "ga.ga_select"
    assert calls[engine] == n_w[0]
    assert calls["pipeline.denoise_image"] == 1
    assert calls["phantom.ct_phantom"] == 1
    assert len(log.gated) == n_w[0]
    assert values["selection.gated_mean"] == pytest.approx(np.mean(log.gated))
    if wl is TINY:
        assert values["selection.pairs_per_s"] > 0
        assert samples[0].distance_evals == n_w[0] ** 2
    else:
        assert 0 < values["ga.evals_ratio"] <= 1
        assert values["ga.evals_ratio"] == pytest.approx(
            samples[0].distance_evals / n_w[0] ** 2)
        assert values["ga.generations_mean"] > 0
    in_pass = table.image >= 0
    assert table.self_times()[in_pass].sum() == pytest.approx(
        (table.end - table.start)[table.parent == -1][
            in_pass[table.parent == -1]].sum())


def test_end_to_end_metrics_from_samples():
    samples = [Sample(0, 2.0, 1_000_000, 100, distance_evals=500,
                      psnr_gain_db=4.0),
               Sample(1, 1.0, 1_000_000, 100, distance_evals=300,
                      psnr_gain_db=6.0),
               Sample(2, 3.0, 1_000_000, 100, error="boom")]
    values, extra = end_to_end(samples, [0.5, 0.1, 0.3])
    assert values["setup_s"] == 0.3
    assert values["denoise_s"] == 2.0
    assert values["mpix_per_s"] == pytest.approx(3 / 6)
    assert values["psnr_gain_db"] == pytest.approx(5.0)
    assert values["distance_evals_per_window"] == pytest.approx(4.0)
    assert values["ok_frac"] == pytest.approx(2 / 3)
    assert values["peak_rss_mb"] > 0
    assert extra["denoise_s_samples"] == 3


def test_output_check_rejects_wrong_type_shape_and_no_gain():
    item = build_items(TINY, 0)[0]
    good = item.clean.copy()
    assert check_output(item, good, 1.0) is None
    assert "uint8" in check_output(item, good.astype(np.float64), 1.0)
    assert "shape" in check_output(item, good[:-1], 1.0)
    assert "not positive" in check_output(item, good, -0.1)


def test_pass_check_applies_the_benchmark_bounds():
    bounds = {"psnr_gain_db": 0.05, "distance_evals_per_window": 0.05}
    base = {"psnr_gain_db": 10.0, "distance_evals_per_window": 100.0}

    def pass_of(gain, evals):
        return [Sample(0, 1.0, 1, 10, distance_evals=evals,
                       psnr_gain_db=gain)]

    assert check_pass(pass_of(9.6, 1040), base, bounds) is None
    assert "PSNR" in check_pass(pass_of(9.4, 1000), base, bounds)
    assert "evals" in check_pass(pass_of(10.0, 1060), base, bounds)


def test_failed_pass_marks_every_image(monkeypatch):
    items = build_items(TINY, 0)
    n_w = [n_windows(item, TINY.cfg) for item in items]
    base = {"psnr_gain_db": 1e6, "distance_evals_per_window": 1e6}
    bounds = {"psnr_gain_db": 0.05, "distance_evals_per_window": 0.05}
    samples = denoise_pass(items, TINY.cfg, n_w, base, bounds)
    assert all("below" in s.error for s in samples)

    def boom(*args, **kwargs):
        raise RuntimeError("engine broke")
    monkeypatch.setattr(measure.pipeline, "denoise_image", boom)
    samples = denoise_pass(items, TINY.cfg, n_w, base, bounds)
    assert samples[0].error == "RuntimeError: engine broke"
    assert samples[0].seconds > 0


def test_closed_loop_runs_at_least_once_and_stops():
    calls = []
    assert closed_loop(lambda: calls.append(1) or len(calls), 0.0) == [1]
    results = closed_loop(lambda: len(calls), 0.05)
    assert len(results) >= 1
