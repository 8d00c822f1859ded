"""Timed passes over a workload, the output check, and metric derivation.

End-to-end metrics come from untraced passes. Per-layer metrics come from
traced passes, normalised per pass, so runs of different length compare.
"""

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import mwdenoise
from mwdenoise import pipeline, psnr

from spans import NO_IMAGE, SpanTable, missing_spans

ENGINE_SPANS = ("selection.exhaustive_select", "ga.ga_select")
BUILD_SPANS = ("image_io.add_awgn", "phantom.ct_phantom")


@dataclass
class Sample:
    """One denoise_image call: its timing, its stats and its check."""
    index: int
    seconds: float
    pixels: int
    n_w: int
    image_id: int = NO_IMAGE
    distance_evals: int = 0
    psnr_gain_db: float = math.nan
    error: str | None = None


@dataclass
class EngineLog:
    """What the engines handed back during traced passes, per image."""
    gated: list = field(default_factory=list)
    evaluations: dict = field(default_factory=dict)
    fallbacks: int = 0
    generations: int = 0
    image_id: int = NO_IMAGE

    def closest_set(self, closest):
        self.gated.append(closest.gated)
        self.evaluations[self.image_id] = (
            self.evaluations.get(self.image_id, 0) + closest.evaluations)
        self.fallbacks += closest.fallback_used

    def ga_generation(self, generation, best_fitness, archive_size):
        self.generations += 1


def n_windows(item, cfg) -> int:
    return mwdenoise.build_grid(item.noisy, cfg.m, cfg.s_size).n_w


def check_output(item, out, gain):
    """Why one denoised image fails the output check, or None: it must be
    uint8 with the input's shape and improve PSNR."""
    if out.dtype != np.uint8:
        return f"dtype {out.dtype}, want uint8"
    if out.shape != item.noisy.shape:
        return f"shape {out.shape}, want {item.noisy.shape}"
    if not gain > 0:
        return f"PSNR gain {gain:.3f} dB is not positive"
    return None


def pass_quality(samples):
    """Mean PSNR gain and distance evaluations per window of one pass."""
    return (statistics.fmean(s.psnr_gain_db for s in samples),
            sum(s.distance_evals for s in samples)
            / sum(s.n_w for s in samples))


def check_pass(samples, baseline, bounds):
    """Why a pass fails against the recorded baseline, or None.

    Its mean PSNR gain and distance evaluations per window may be worse
    than the baseline pass by at most the benchmark's bounds. The check is
    per pass, not per image: on 64x64 tiles the estimated sigma, and so one
    tile's gain, moves by up to a fifth between noise seeds.
    """
    gain, per_window = pass_quality(samples)
    floor = baseline["psnr_gain_db"] * (1 - bounds["psnr_gain_db"])
    if gain < floor:
        return f"pass PSNR gain {gain:.3f} dB below {floor:.3f} dB"
    ceiling = baseline["distance_evals_per_window"] * (
        1 + bounds["distance_evals_per_window"])
    if per_window > ceiling:
        return (f"pass has {per_window:.1f} distance evals per window, "
                f"above {ceiling:.1f}")
    return None


def denoise_pass(items, cfg, n_w, baseline, bounds, tracer=None, log=None):
    """Denoise every item once and check the outputs; a failing image still
    reports its time. With no baseline (while one is being recorded) the
    pass is not compared with it."""
    samples = []
    trace = log.ga_generation if log is not None else None
    for i, item in enumerate(items):
        sample = Sample(i, 0.0, item.noisy.size, n_w[i])
        if tracer is not None:
            tracer.image_id = log.image_id = sample.image_id = (
                tracer.image_id + 1)
        start = time.perf_counter()
        try:
            out, stats = pipeline.denoise_image(item.noisy, cfg, trace=trace,
                                                threads=1)
            sample.seconds = time.perf_counter() - start
            sample.distance_evals = stats.distance_evals
            sample.psnr_gain_db = (psnr(item.clean, out)
                                   - psnr(item.clean, item.noisy))
            sample.error = check_output(item, out, sample.psnr_gain_db)
        except Exception as exc:  # the benchmark counts it and carries on
            sample.seconds = time.perf_counter() - start
            sample.error = f"{type(exc).__name__}: {exc}"
        samples.append(sample)
    if baseline is not None and all(s.error is None for s in samples):
        error = check_pass(samples, baseline, bounds)
        for s in samples:
            s.error = error
    return samples


def closed_loop(run_pass, seconds):
    """Repeat `run_pass` while the next one is expected to end within
    `seconds`; always runs at least once. Returns every pass's result."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        results.append(run_pass())
        last = time.perf_counter() - t
    return results


def tail_quantile(n: int):
    """Highest percentile with at least ten samples beyond it, or None."""
    return None if n < 20 else 1 - 10 / n


def end_to_end(samples, setup_s):
    """The end-to-end metric values of one untraced run."""
    ok = [s for s in samples if s.error is None]
    secs = [s.seconds for s in samples]
    values = {
        "setup_s": statistics.median(setup_s),
        "denoise_s": statistics.median(secs),
        "mpix_per_s": sum(s.pixels for s in samples) / sum(secs) / 1e6,
        "psnr_gain_db": pass_quality(ok)[0] if ok else None,
        "distance_evals_per_window": pass_quality(ok)[1] if ok else None,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": len(ok) / len(samples),
    }
    q = tail_quantile(len(secs))
    tail = None if q is None else float(np.quantile(secs, q))
    return values, {"denoise_s_samples": len(secs),
                    "denoise_s_tail_quantile": q, "denoise_s_tail": tail}


def self_fractions(table: SpanTable, select):
    """Share of traced self time per module, over the selected spans."""
    by_module = {}
    for name, (_, secs) in table.by_name(select).items():
        module = name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + secs
    total = sum(by_module.values()) or 1.0
    return {m: v / total for m, v in sorted(by_module.items())}


def layer_values(table: SpanTable, log: EngineLog, passes: int, pass_n_w):
    """Per-layer values from traced passes, each span metric per pass.

    Returns (values, calls per pass by span name). Spans recorded while the
    inputs were built have no image id and are reported per build.
    """
    in_pass = table.image != NO_IMAGE
    run = table.by_name(in_pass)
    build = table.by_name(~in_pass)
    values, calls = {}, {}
    for name in table.names:
        source, per = (build, 1) if name in BUILD_SPANS else (run, passes)
        calls[name] = source[name][0] / per
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = source[name][1] / per

    # inclusive time: the exhaustive layer is the engine plus its kernel
    engine = "selection.exhaustive_select"
    exhaustive = in_pass & (table.name_id == (
        table.names.index(engine) if engine in table.names else -1))
    exhaustive_s = float((table.end - table.start)[exhaustive].sum())
    evals = sum(log.evaluations.values())
    n_engine = len(log.gated)
    ga_calls = calls.get("ga.ga_select", 0) * passes
    n_w_sq = sum(n * n for n in pass_n_w) * passes
    values.update({
        "selection.pairs_per_s": evals / exhaustive_s if exhaustive_s else 0.0,
        "selection.gated_mean": (statistics.fmean(log.gated)
                                 if n_engine else 0.0),
        "selection.gated_lt4_frac": (sum(g < 4 for g in log.gated) / n_engine
                                     if n_engine else 0.0),
        "ga.evals_ratio": evals / n_w_sq if ga_calls else 0.0,
        "ga.fallback_frac": log.fallbacks / ga_calls if ga_calls else 0.0,
        "ga.generations_mean": (log.generations / ga_calls
                                if ga_calls else 0.0),
    })
    return values, calls


def layer_metrics(spec, values, calls, baseline_calls):
    """Per-layer metrics as listed in BENCHMARK.json.

    A metric of a span that the baseline trace saw called but this run did
    not is reported as missing (value null), never as zero time; so are
    the ratios read from a missing engine span.
    """
    missing = set(missing_spans(calls, baseline_calls))
    derived = {"selection.pairs_per_s": "selection.exhaustive_select",
               "ga.evals_ratio": "ga.ga_select",
               "ga.fallback_frac": "ga.ga_select",
               "ga.generations_mean": "ga.ga_select"}
    out = {}
    for m in spec:
        name = m["name"]
        span = derived.get(name, name.rsplit(".", 1)[0])
        if span in missing or (name not in values and span in baseline_calls):
            out[name] = {"value": None, "unit": m["unit"], "missing": True}
        else:
            out[name] = {"value": values[name], "unit": m["unit"]}
    return out, sorted(missing)
