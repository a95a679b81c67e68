"""Entropy along an exact trajectory, and the two-piece closed-form approximation.

Released at node 0 with omega > 1/2, the walker first spreads as a drifting
packet whose entropy grows like (1/2) log(2 pi e t).  Once the packet's
leading edge reaches the far boundary (t_start) the profile deforms into the
geometric steady state, and the entropy decays to its equilibrium value by
t_end.  The closed-form approximation splits the profile at
n' = N - 2 sigma_ss into a truncated Gaussian plus a weighted steady tail.
"""

import numpy as np

from oqwalk import equilibrium as eq
from oqwalk.equilibrium import EnsemblePoint
from oqwalk.linear import LinearWalkSpec
from oqwalk.thermalization import (
    approx_entropy,
    approx_entropy_params,
    entropy_gaussian_regime,
    error_metrics,
    simulate_trajectory,
    thermalization_window,
)

N, OMEGA = 100, 2 / 3
spec = LinearWalkSpec(N, OMEGA)
window = thermalization_window(N, OMEGA)
params = approx_entropy_params(N, OMEGA)

print(f"N = {N}, omega = {OMEGA:.4f}")
print(f"window: t_start = {window.t_start:.1f}, t_end = {window.t_end:.1f}, "
      f"duration {window.t_therm:.1f}")
print(f"split line n' = {params.n_prime:.2f} (sigma_ss = {params.sigma_ss:.4f})")

traj = simulate_trajectory(spec, 1200)
s_eq = eq.entropy(EnsemblePoint.from_omega(N, OMEGA))

ts = np.array([10, 50, 100, 200, 213, 250, 300, 350, 400, 423, 600, 1200])
s_approx = approx_entropy(spec, ts, params=params)  # one call for every t
# the free-packet form only before the packet reaches the boundary
s_gauss = np.where(ts < window.t_start, entropy_gaussian_regime(ts), np.nan)

print()
print(f"{'t':>5} {'S exact':>9} {'S gauss':>9} {'S approx':>9}")
for t, gauss, s_a in zip(ts, s_gauss, s_approx):
    print(f"{t:>5} {traj.entropy[t]:>9.4f} {gauss:>9.4f} {s_a:>9.4f}")
print(f"  equilibrium entropy: {s_eq:.4f}; S(1200) = {traj.entropy[1200]:.4f}")

print()
print("note: the idealized Gaussian form overshoots the exact curve by up to")
print("~0.15 nats in the growth phase.  Two real lattice effects cause this:")
print("the packet's true dispersion is 4*omega*(1-omega)*t rather than t, and")
print("a localized start leaves a persistent 2:1 odd/even comb (interior hops")
print("are strictly +-1, so only boundary self-loops mix parity).")

print()
print("error metrics of the approximation over the window, both conventions:")
for variant in ("tail-sum", "weighted-equilibrium"):
    m = error_metrics(spec, traj, boltzmann=variant)
    print(f"  {variant:<22} delta_max {m.delta_max:.4f}  rel_max {m.delta_rel_max:.4f}  "
          f"mean_rel {m.mean_rel:.4f}")
