#!/usr/bin/env python3
"""Tour of the entropy family on small spectra and density matrices.

The two-parameter unified entropy ((Tr Q^r)^s - 1) / ((1 - r) s)
interpolates the classics: s = 1 is Tsallis, s -> 0 is Renyi, and
r -> 1 at s = 1 recovers von Neumann. This script evaluates all of
them on a few states and shows the limits converging.
"""

import numpy as np

from entrodet import (
    hu_ye,
    hy_bound,
    renyi,
    spectrum_of,
    tsallis,
    validate_density,
    von_neumann,
)

spectra = {
    "pure (1, 0)": [1.0, 0.0],
    "uniform (1/2, 1/2)": [0.5, 0.5],
    "skewed (0.7, 0.3)": [0.7, 0.3],
    "uniform d=4": [0.25] * 4,
}

print("state                      vN        Tsallis(2)  Renyi(2)  HY(2,0.5)")
for name, lam in spectra.items():
    print(
        f"{name:<25} {von_neumann(lam):9.6f}  {tsallis(lam, 2):9.6f}"
        f"  {renyi(lam, 2):9.6f} {hu_ye(lam, 2, 0.5):9.6f}"
    )

print("\nbound saturation: uniform rank-d states meet the dimension bound exactly")
for d in (2, 4, 8):
    lam = np.full(d, 1.0 / d)
    print(f"  d={d}: HY = {hu_ye(lam, 2, 0.5):.9f}, bound = {hy_bound(d, 2, 0.5):.9f}")

print("\nlimits of the unified family on (0.7, 0.3):")
lam = [0.7, 0.3]
for s in (0.5, 0.1, 0.01, 1e-4, 1e-6):
    print(f"  s = {s:<7}: HY(2, s) = {hu_ye(lam, 2, s):.9f}   -> Renyi(2) = {renyi(lam, 2):.9f}")
for r in (1.5, 1.1, 1.01, 1 + 1e-4, 1 + 1e-6):
    print(f"  r = {r:<9}: HY(r, 1) = {hu_ye(lam, r, 1):.9f} -> vN = {von_neumann(lam):.9f}")

# matrices work everywhere a spectrum does: spectrum_of diagonalizes them once
rng = np.random.default_rng(7)
g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
q = validate_density((g @ g.conj().T) / (g @ g.conj().T).trace().real)
spec = spectrum_of(q)
print("\nrandom 4x4 state, spectrum:", np.round(spec.values, 6))
print("  HY(2, 0.5) from matrix:  ", hu_ye(q, 2, 0.5))
print("  HY(2, 0.5) from spectrum:", hu_ye(spec, 2, 0.5))
