#!/usr/bin/env python3
"""Run one benchmark workload of mwdenoise and print its metrics.

    python3 perfbench/run.py --workload ct512-exhaustive --seed 1 \\
        --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics, read from a traced run that alternates untraced and
traced passes. The line before it is the run's metadata. A detailed record
goes to `.bench_out/`, and a traced run writes its spans there too.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 60


def prepare_environment():
    """Import mwdenoise from this checkout with at most nproc BLAS threads."""
    if not (SRC / "mwdenoise" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mwdenoise sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(SRC))
    import mwdenoise
    if not Path(mwdenoise.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: mwdenoise imported from "
                         f"{mwdenoise.__file__}, not from {SRC}")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_baseline():
    with open(HERE / "baseline.json") as f:
        return json.load(f)


def git_sha(root: Path):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata(workload, seed, seconds, trace):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "git_sha": git_sha(ROOT),
    }


def probe_setup(workload, seed):
    """Set-up time and input digest of a fresh process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_untraced(wl, seed, seconds, spec, baseline):
    from measure import closed_loop, denoise_pass, end_to_end, n_windows
    from workloads import build_items, digest

    # half the set-up probes run before the passes and half after, so the
    # median spans the machine's state over the whole run
    probes = [probe_setup(wl.name, seed) for _ in range(SETUP_PROBES // 2)]
    items = build_items(wl, seed)
    n_w = [n_windows(item, wl.cfg) for item in items]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    passes = closed_loop(lambda: denoise_pass(
        items, wl.cfg, n_w, baseline, bounds), seconds)
    probes += [probe_setup(wl.name, seed)
               for _ in range(SETUP_PROBES - len(probes))]
    inputs_repeat = all(p["digest"] == digest(items) for p in probes)
    samples = [s for p in passes for s in p]
    values, extra = end_to_end(samples, [p["setup_s"] for p in probes])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    extra.update(inputs_repeat=inputs_repeat, passes=len(passes),
                 setup_samples=len(probes))
    return samples, metrics, inputs_repeat, extra


def run_traced(wl, seed, seconds, spec, baseline):
    from measure import (ENGINE_SPANS, EngineLog, closed_loop, denoise_pass,
                         layer_metrics, layer_values, n_windows,
                         self_fractions)
    from spans import NO_IMAGE, Tracer
    from workloads import build_items

    log = EngineLog()
    tracer = Tracer({name: log.closest_set for name in ENGINE_SPANS})
    with tracer:
        items = build_items(wl, seed)
    n_w = [n_windows(item, wl.cfg) for item in items]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def pair():
        start = time.perf_counter()
        plain = denoise_pass(items, wl.cfg, n_w, baseline, bounds)
        untraced = time.perf_counter() - start
        with tracer:
            start = time.perf_counter()
            traced = denoise_pass(items, wl.cfg, n_w, baseline,
                                  bounds, tracer, log)
            traced_s = time.perf_counter() - start
        return plain + traced, traced_s / untraced - 1, traced

    pairs = closed_loop(pair, seconds)
    samples = [s for p in pairs for s in p[0]]
    traced = [s for p in pairs for s in p[2]]
    # every distance the pipeline counted must come from a traced engine call
    evals_match = all(log.evaluations.get(s.image_id, 0) == s.distance_evals
                      for s in traced if s.error is None)

    table = tracer.arrays()
    values, calls = layer_values(table, log, len(pairs), n_w)
    values["trace.overhead_frac"] = statistics.median(p[1] for p in pairs)
    metrics, missing = layer_metrics(spec["per_layer"], values, calls,
                                     baseline["calls"])
    OUT_DIR.mkdir(exist_ok=True)
    table.save(OUT_DIR / f"spans-{wl.name}.npz")
    extra = {"passes": len(pairs), "spans": len(table),
             "evals_match": evals_match, "missing": missing,
             "self_frac": self_fractions(table, table.image != NO_IMAGE),
             "calls_per_pass": calls}
    return samples, metrics, evals_match, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_environment()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    spec = load_spec()
    baseline = load_baseline()[wl.name]

    run = run_traced if args.trace else run_untraced
    samples, metrics, checks_pass, extra = run(wl, args.seed, args.seconds,
                                               spec, baseline)
    failed = [s for s in samples if s.error is not None]
    for error in sorted({s.error for s in failed}):
        print(f"perfbench: failed: {error}", file=sys.stderr)
    meta = metadata(wl.name, args.seed, args.seconds, args.trace)
    meta["samples"] = len(samples)
    result = {"correct": checks_pass and not failed,
              "attempted": len(samples), "failed": len(failed),
              "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, metadata=meta, extra=extra,
                  samples=[vars(s) for s in samples])
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
