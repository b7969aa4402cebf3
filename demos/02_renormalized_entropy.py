#!/usr/bin/env python3
"""Divergent entropies on truncated infinite spectra, and their repair.

Two witnesses:

* the spectrum lam_k ~ k^-2 has a divergent power sum at order 1/2;
  a probe watches the partial sums cross any threshold you pick, also
  for that spectrum mixed with weight t into a pure state, 2t away;
* the spectrum lam_n ~ 1/(n log^1.5 n) is summable, but its entropy
  -sum lam log lam diverges. Doubling the truncation keeps pushing the
  plain entropy up, while the order-2 regularized (Carleman) value
  log det_2(1 + Q^-Q - 1) settles immediately.

The same device renormalizes the unified entropy for orders r in (0, 1)
through the regularized determinant of exp(Q^r) - 1.
"""

from entrodet import (
    alpha_star,
    divergence_probe,
    hy_renormalized,
    log_det_ren,
    log_power_spectrum,
    power_law_generator,
    vn_renormalized,
    von_neumann,
)

print("power sums of lam_k ~ k^-2 at order 1/2 grow like the harmonic series:")
lam = power_law_generator(eps=1.0)
for threshold in (1.0, 3.0, 5.0, 7.0):
    probe = divergence_probe(lam, r=0.5, threshold=threshold)
    print(f"  threshold {threshold}: crossed at K = {probe.index}")

probe = divergence_probe(lam, r=0.9, threshold=10.0, k_max=10**7)
print(f"order 0.9 converges instead: sum after 1e7 terms = {probe.partial_sum:.6f}\n")

print("plain vs renormalized entropy on lam_n ~ 1/(n log^1.5 n):")
print("      K       -sum lam log lam    log det_2 form")
for k in (1_000, 10_000, 100_000, 1_000_000):
    spec = log_power_spectrum(1.5, k)
    print(f"{k:>9}       {von_neumann(spec):12.6f}     {vn_renormalized(spec):14.10f}")

print("\nany state can be pushed arbitrarily close to divergence:")
# (1 - t)|0><0| + t sum_k lam_k |k><k| is exactly 2t from |0><0| in trace norm;
# its order-1/2 partial power sum (1 - t)^(1/2) + t^(1/2) S(K) passes T where S(K),
# the probe's sum over lam, passes the shifted threshold (T - (1 - t)^(1/2)) / t^(1/2)
t, T = 0.1 / 3, 3.0
probe = divergence_probe(lam, r=0.5, threshold=(T - (1 - t) ** 0.5) / t**0.5)
print(f"  (1 - t)|0><0| + t sum_k lam_k |k><k| at t = {t:.4f} lies 2t = {2 * t:.4f} from |0><0|,")
print(f"  yet its order-1/2 partial power sum passes {T} at K = {probe.index}")

print("\nrenormalized unified entropy at r = 0.4 (minimal admissible order"
      f" alpha = {alpha_star(0.4)}):")
for k in (100, 10_000):
    spec = log_power_spectrum(1.5, k)
    print(
        f"  K = {k:>6}: log det_ren = {log_det_ren(spec.values, 0.4):12.9f},"
        f" renHY(0.4, 1) = {hy_renormalized(spec.values, 0.4, 1):12.9f}"
    )
