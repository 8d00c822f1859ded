"""Time the GA search on a fixed sample of reference windows at 512x512.

A full GA denoise of a 512x512 slice takes tens of seconds, too long to
repeat when comparing two versions of the code. This runs the GA, as the
pipeline does, for every 15th window of the paper's geometry (m=16,
s_size=8, n_w = 3969): 264 references by default, searched in blocks of
the row count the image's own blocks get. As in a denoise,
`selection.gram_shortlist` builds the Gram shortlists once for the whole
image, and `ga.closest_sets` answers each sample block from them: its
short rows are read off their shortlists and the others searched. It
prints the seconds both steps take together, the short count, the
distance evaluations and a sha256 over each closest set's index and
distance bytes, so two runs compare both time and results:

    PYTHONPATH=src python demos/ga512_sample.py [--refs N]
"""

import argparse
import hashlib
import time

import numpy as np

from mwdenoise import add_awgn, ct_phantom, ga, ghm
from mwdenoise.selection import gram_shortlist, noise_gate
from mwdenoise.windows import build_grid, extract_windows

SIGMA, M, S_SIZE = 20.0, 16, 8

parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
parser.add_argument("--refs", type=int, default=264,
                    help="sample size, 1 to 265 (default 264)")
args = parser.parse_args()

noisy = add_awgn(ct_phantom(512), SIGMA, 1)
coeffs = ghm.forward_all(extract_windows(noisy, build_grid(noisy, M, S_SIZE)),
                         ghm.build_ghm_matrix(M))
sample = np.arange(0, len(coeffs), 15)
if not 1 <= args.refs <= len(sample):
    parser.error(f"--refs must be in 1..{len(sample)}, got {args.refs}")
sample = sample[:args.refs]
rows = max(len(b) for b in ga.ref_blocks(len(coeffs)))
p = ga.GaParams(l2_t=noise_gate(SIGMA, M), seed=0)

digest = hashlib.sha256()
start = time.perf_counter()
shortlists, _ = gram_shortlist(coeffs, p.n_c)
sets, short = ga.closest_sets(
    coeffs, p, np.array_split(sample, -(-len(sample) // rows)), shortlists)
seconds = time.perf_counter() - start
for found in sets:
    digest.update(found.indices.tobytes())
    digest.update(found.distances.tobytes())

print(f"refs={len(sample)} block_rows={rows} short={short.sum()} "
      f"seconds={seconds:.3f} "
      f"evaluations={sum(found.evaluations for found in sets)} "
      f"sha256={digest.hexdigest()}")
