"""Reading a result out of the steady state: how many steps, at what energy cost.

A dissipative computation on the linear walk is read out at the last node.
The thermalization window brackets the packet's arrival there: its leading
edge arrives at n_start, its centre at n_steps = N/(2 omega - 1), its trailing
edge at n_end.  The readout is usable only once the last-node occupation has
settled, which on the exact chain is after n_end: within 1e-3 of its steady
value at step 475 for N = 100, omega = 2/3 (n_steps = 300, n_end = 423.5).
Raising omega buys fewer steps but costs energy, steeply so near omega = 1/2.
"""

from oqwalk import equilibrium as eq
from oqwalk.equilibrium import EnsemblePoint
from oqwalk.linear import LinearWalkSpec, boundary_mass_bound, steady_state
from oqwalk.thermalization import dqc_step_estimates

N = 100
print(f"step estimates for N = {N}:")
print(f"{'omega':>7} {'n_start':>9} {'n_steps':>9} {'n_end':>9} {'pi_last >=':>11}")
for omega in (0.51, 0.6, 2 / 3, 0.8, 0.9, 0.99):
    est = dqc_step_estimates(N, omega)
    eta = boundary_mass_bound(omega)
    print(f"{omega:>7.3f} {est.n_start:>9.1f} {est.n_steps:>9.1f} "
          f"{est.n_end:>9.1f} {eta:>11.4f}")

print()
print("energy bookkeeping at omega = 2/3:")
point = EnsemblePoint.from_omega(N, 2 / 3)
print(f"  energy supplied to reach the steady state: {eq.mean_energy(point):.4f}")
print(f"  marginal cost of raising omega here:       {eq.energy_cost_domega(point):.4f}")
print(f"  success mass at the last node:             "
      f"{steady_state(LinearWalkSpec(N, 2 / 3))[-1]:.4f}")

print()
print("near omega = 1: n_steps -> N and the window collapses to O(sqrt(N))")
for n in (10**3, 10**4):
    est = dqc_step_estimates(n, 0.999)
    print(f"  N = {n:>6}: n_steps = {est.n_steps:.0f}, "
          f"window width {est.n_end - est.n_start:.0f} (sqrt(N) = {n ** 0.5:.0f})")
