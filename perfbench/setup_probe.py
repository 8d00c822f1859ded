"""Time one fresh process's set-up for a workload.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports mwdenoise from the checkout's `src/`, builds the workload's inputs
and prints {"setup_s": ..., "digest": ...}. run.py starts several of these
and reports the median as `setup_s`; the digest shows the inputs depend on
the seed alone.
"""

import json
import sys
import time
from pathlib import Path


def main():
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads
    items = workloads.build_items(workloads.WORKLOADS[sys.argv[1]],
                                  int(sys.argv[2]))
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "digest": workloads.digest(items)}))


if __name__ == "__main__":
    main()
