#!/usr/bin/env python3
"""Record the benchmark's baseline and summarise repeated runs.

    python3 perfbench/collect.py baseline
        Trace one pass of every workload at seed 0 and write
        perfbench/baseline.json: the pass's mean PSNR gain and distance
        evaluations per window (the output check's reference) and the
        calls per pass of every span (the missing-span check's reference).

    python3 perfbench/collect.py runs --seeds 1-10 --label A --out FILE
        Run run.py once per workload and seed, untraced, and store each
        end-to-end metric's values, median, quartiles and spread (the
        quartile distance as a share of the median) under FILE's
        ["runs"][LABEL]. With --trace, run one traced run per workload
        and store its per-layer metrics under ["traced"] instead.

Run from the root of a source checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

RUN_TIMEOUT_S = 300


def record_baseline(seed=0):
    bench.prepare_environment()
    from measure import (ENGINE_SPANS, EngineLog, denoise_pass, layer_values,
                         n_windows, pass_quality)
    from spans import Tracer
    from workloads import WORKLOADS, build_items

    out = {}
    for wl in WORKLOADS.values():
        log = EngineLog()
        tracer = Tracer({name: log.closest_set for name in ENGINE_SPANS})
        with tracer:
            items = build_items(wl, seed)
        n_w = [n_windows(item, wl.cfg) for item in items]
        with tracer:
            samples = denoise_pass(items, wl.cfg, n_w, None, None, tracer,
                                   log)
        errors = [s.error for s in samples if s.error]
        if errors:
            raise SystemExit(f"{wl.name}: {errors[0]}")
        _, calls = layer_values(tracer.arrays(), log, 1, n_w)
        gain, per_window = pass_quality(samples)
        out[wl.name] = {"seed": seed, "psnr_gain_db": gain,
                        "distance_evals_per_window": per_window,
                        "calls": calls}
        print(f"{wl.name}: {len(samples)} images recorded", file=sys.stderr)
    path = bench.HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, check=True,
        timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["metadata"], json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def collect_runs(args, spec):
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    seconds = spec["run_seconds"]
    for name in args.workloads:
        runs = [one_run(name, seed, seconds, 0) for seed in args.seeds]
        meta = runs[-1][0]
        cell = {"seeds": args.seeds,
                "correct": all(r["correct"] for _, r in runs),
                "attempted": [r["attempted"] for _, r in runs],
                "failed": [r["failed"] for _, r in runs],
                "samples": [m["samples"] for m, _ in runs],
                "metrics": {}}
        for m in spec["end_to_end"]:
            cell["metrics"][m["name"]] = dict(
                summarise([r["metrics"][m["name"]]["value"]
                           for _, r in runs]),
                unit=m["unit"], bound=m["bound"])
        doc.setdefault("metadata", {k: v for k, v in meta.items()
                                    if k not in ("workload", "seed",
                                                 "samples")})
        doc.setdefault("runs", {}).setdefault(args.label, {})[name] = cell
        report(name, cell)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")


def collect_traced(args, spec):
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for name in args.workloads:
        meta, result = one_run(name, args.seeds[0], spec["run_seconds"], 1)
        record = json.loads((bench.OUT_DIR / (
            f"{name}-seed{args.seeds[0]}-trace1.json")).read_text())
        doc.setdefault("traced", {})[name] = {
            "seed": args.seeds[0], "correct": result["correct"],
            "samples": meta["samples"], "metrics": result["metrics"],
            "self_frac": record["extra"]["self_frac"],
            "evals_match": record["extra"]["evals_match"],
            "missing": record["extra"]["missing"]}
        print(name, json.dumps(record["extra"]["self_frac"]), file=sys.stderr)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")


def report(name, cell):
    print(f"{name}: correct={cell['correct']}", file=sys.stderr)
    for metric, s in cell["metrics"].items():
        flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- wide"
        print(f"  {metric:<26} median {s['median']:<12.6g} spread "
              f"{s['spread']:.4f} (bound {s['bound']}){flag}",
              file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("baseline")
    runs = sub.add_parser("runs")
    runs.add_argument("--seeds", type=parse_seeds, required=True)
    runs.add_argument("--label", default="A")
    runs.add_argument("--out", type=Path, required=True)
    runs.add_argument("--workloads", nargs="+")
    runs.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.cmd == "baseline":
        record_baseline()
        return
    spec = bench.load_spec()
    args.workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    (collect_traced if args.trace else collect_runs)(args, spec)


if __name__ == "__main__":
    main()
