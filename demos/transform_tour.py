"""Tour of the GHM multi-wavelet block transform.

Builds the analysis matrix, checks its orthogonality numerically, then
walks a random window through forward transform, band structure and
reconstruction. The transform works on stacks of windows, so a single
window goes through it as a stack of one.
"""

import numpy as np

from mwdenoise import build_ghm_matrix, detail_mask, forward_all, inverse

m = 8
F = build_ghm_matrix(m)

print(f"analysis matrix F for m={m}")
print(f"  max |F F^T - I| = {np.abs(F @ F.T - np.eye(m)).max():.3e}")

rng = np.random.default_rng(0)
w = rng.uniform(0, 255, (m, m))
W = forward_all(w[None], F)[0]

# energy is preserved (Parseval), so L2 comparisons can happen in either
# domain interchangeably
print(f"  window energy   = {np.linalg.norm(w):.6f}")
print(f"  coeff energy    = {np.linalg.norm(W):.6f}")

mask = detail_mask(m)
low = np.linalg.norm(W[~mask.reshape(m, m)])
high = np.linalg.norm(W[mask])
print(f"  low-pass quadrant energy  = {low:.2f}")
print(f"  detail band energy        = {high:.2f}")

back = inverse(W, F)
print(f"  round-trip max error = {np.abs(back - w).max():.3e}")

# structured content leans on the low-pass quadrant far more than pure
# noise does, which is what makes detail-band shrinkage work
flat, noise = forward_all(
    np.stack([np.full((m, m), 128.0), rng.normal(size=(m, m))]), F)
for name, C in (("flat window", flat), ("white noise", noise)):
    frac = np.linalg.norm(C[mask]) / np.linalg.norm(C)
    print(f"  {name}: detail fraction = {frac:.4f}")
