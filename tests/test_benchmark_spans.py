"""Traced benchmark runs stay well formed.

`perfbench/run.py --trace 1` reports a span that its recorded baseline saw
called, and this code no longer calls, as missing (value null), and its
`evals_match` check compares the evaluations the engines hand back with
`RunStats.distance_evals`. This runs both checks on image 0 of each
workload, traced as the benchmark traces it: the inputs are built under
the tracer, so the build spans count, and `pipeline.denoise_image` is
called through the module attribute the tracer wraps.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

from measure import ENGINE_SPANS, EngineLog  # noqa: E402
from spans import Tracer, missing_spans  # noqa: E402
from workloads import WORKLOADS, build_items  # noqa: E402

from mwdenoise import pipeline  # noqa: E402

BASELINE = json.loads((BENCH / "baseline.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_image_calls_every_baseline_span(name):
    wl = WORKLOADS[name]
    log = EngineLog()
    tracer = Tracer({span: log.closest_set for span in ENGINE_SPANS})
    with tracer:
        item = build_items(wl, 1)[0]
        _, stats = pipeline.denoise_image(item.noisy, wl.cfg,
                                          trace=log.ga_generation)
    calls = {span: n for span, (n, _) in tracer.arrays().by_name().items()}
    assert missing_spans(calls, BASELINE[name]["calls"]) == []
    # each evaluation comes from one traced engine call, counted once
    assert sum(log.evaluations.values()) == stats.distance_evals
