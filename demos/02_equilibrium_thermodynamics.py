"""Equilibrium thermodynamics of the thermalized walk.

The stationary law is a Boltzmann distribution over equally spaced levels
E_m = m * epsilon, which assigns the walk a temperature
T = -epsilon / log(omega/(1-omega)).  Crossing omega = 1/2 the temperature
diverges and flips sign: the boundary-heavy profiles at omega > 1/2 are
population-inverted, negative-temperature states.  All textbook quantities
(Z, <E>, Var, S, F, C_V) follow in closed form.
"""

import math

from oqwalk import equilibrium as eq
from oqwalk.equilibrium import EnsemblePoint, thermo_point, thermo_points

print("temperature vs hop weight (epsilon = 1):")
for omega in (0.1, 0.3, 0.45, 0.499, 0.5, 0.501, 0.55, 0.7, 0.9):
    t = eq.equilibrium_temperature(omega)
    print(f"  omega={omega:<6} T = {t:+.4f}")

print()
print("entropy across the inversion point (N = 500):")
print(f"{'beta':>7} {'S':>10} {'F':>12} {'C_V':>10}")
for beta in (-2.0, -0.5, -0.1, 0.0, 0.1, 0.5, 2.0):
    p = EnsemblePoint.from_beta(500, beta)
    s, f, cv = eq.entropy(p), eq.free_energy(p), eq.heat_capacity(p)
    print(f"{beta:>7.2f} {s:>10.5f} {f:>12.4f} {cv:>10.5f}")
print(f"  maximum entropy log(500) = {math.log(500):.5f}, attained at beta = 0")
print(f"  S(omega) = S(1-omega): "
      f"{eq.entropy(EnsemblePoint.from_omega(500, 0.2)):.12f} == "
      f"{eq.entropy(EnsemblePoint.from_omega(500, 0.8)):.12f}")

print()
print("third law: entropy dies at both temperature extremes (N = 100)")
for beta in (5.0, 10.0, 50.0, -50.0):
    print(f"  S(beta={beta:+.0f}) = {eq.entropy(EnsemblePoint.from_beta(100, beta)):.3e}")

print()
print("mean energy vs omega (N = 100): the full gap (N-1)*eps sits near omega = 1/2")
for omega in (1e-6, 0.25, 0.45, 0.5, 0.55, 0.75, 1 - 1e-6):
    e = eq.mean_energy(EnsemblePoint.from_omega(100, omega))
    print(f"  omega={omega:<8.6f} <E> = {e:9.5f}")
print(f"  energy gap: {eq.energy_gap(100):.0f}")

print()
print("cost of tuning omega, d<E>/domega (N = 100): peaked at the inversion")
for omega in (0.2, 0.4, 0.5, 0.6, 0.8):
    cost = eq.energy_cost_domega(EnsemblePoint.from_omega(100, omega))
    print(f"  omega={omega:<4} d<E>/domega = {cost:12.3f}")

print()
print("bundle at one point: thermo_point(EnsemblePoint.from_omega(100, 0.3)) ->")
print(" ", thermo_point(EnsemblePoint.from_omega(100, 0.3)))

print()
print("a whole sweep in one call: thermo_points(100, betas) (array fields)")
omegas = [0.1, 0.3, 0.45, 0.5, 0.55, 0.7, 0.9]
sweep = thermo_points(100, [eq.beta_from_omega(omega) for omega in omegas])
print(f"{'omega':>6} {'T':>9} {'<E>':>9} {'S':>9} {'C_V':>9}")
for omega, t, e, s, cv in zip(omegas, sweep.T, sweep.mean_E, sweep.S, sweep.C_V):
    print(f"{omega:>6} {t:>+9.4f} {e:9.4f} {s:9.5f} {cv:9.5f}")
print("  mirror pairs omega <-> 1-omega share S and C_V; <E> sums to the gap 99")
