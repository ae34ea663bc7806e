"""Mixing-angle curves for W/GHZ superpositions and the role of phases.

cos(eta) W + e^{i phi} sin(eta) (other) interpolates between families. The
full-separability measure of the 3-qubit W+GHZ superposition depends on the
relative phase phi (maximal at phi = pi), while its biseparable measure does
not: the phase is invisible to any bipartite split.
"""

import numpy as np

import geoent as ge

config = ge.OptimizerConfig()
etas = np.linspace(0.0, np.pi / 2, 9)

print("3-qubit W + GHZ superposition, E^(3) (full separability):")
print("eta/pi    phi=0     phi=pi")
for eta in etas:
    values = []
    for phi in (0.0, np.pi):
        psi = ge.superpose(np.cos(eta), ge.w(3), np.sin(eta), phi, ge.ghz(3))
        values.append(ge.egk_absolute(psi, 3, config)[0])
    print(f"{eta / np.pi:6.3f}  {values[0]:.6f}  {values[1]:.6f}")

print("\nsame family, E^(2): phase-independent")
for eta in (0.3, 0.9):
    spread = []
    for phi in (0.0, np.pi / 2, np.pi):
        psi = ge.superpose(np.cos(eta), ge.w(3), np.sin(eta), phi, ge.ghz(3))
        spread.append(ge.egk_absolute(psi, 2, config)[0])
    print(f"  eta={eta}: values {np.round(spread, 12)}")

# The W + bit-flipped-W family is phase-free in both measures and returns
# to the pure-W value 5/9 at both endpoints, dipping to 1/4 at eta = pi/4.
rows = ge.sweep_eta("w_w_tilde", [0.0, np.pi / 4, np.pi / 2], config, k=3)
print("\nW + flipped-W, E^(3) at eta = 0, pi/4, pi/2:",
      [round(e, 6) for _, e in rows])

# For N >= 4 the single-site-cut curve of the real W+GHZ family rises
# monotonically from 1/N to 1/2 (its closed form is an at most 3x3 SVD).
print("\nE^(2)(1|N-1) of cos(eta) W + sin(eta) GHZ:")
print("eta/pi    N=4       N=8       N=50")
grid = np.linspace(0.0, np.pi / 2, 7)
curves = {n: {eta: ge.wghz_bisep_reduced(eta, 1, n - 1).e_g for eta in grid}
          for n in (4, 8, 50)}
for eta in grid:
    print(f"{eta / np.pi:6.3f}  " + "  ".join(
        f"{curves[n][eta]:.6f}" for n in (4, 8, 50)))
