"""Tour of the built-in state families and the binary-index conventions.

Amplitudes are indexed by the integer J read off the ket left to right:
qubit q carries bit weight 2^(N-q). Every builder returns an immutable,
unit-norm PureState.
"""

import numpy as np

import geoent as ge

# The two famous 3-qubit states: two-term extremal superposition vs the
# uniform single-excitation state.
ghz3 = ge.ghz(3)
w3 = ge.w(3)
print("ghz(3) support:", list(ghz3.support()), "amplitude:", ghz3.amplitudes[0])
print("w(3)   support:", list(w3.support()), "amplitude:", w3.amplitudes[1])

# Flipping every qubit of w(3) reverses the amplitude vector.
wt3 = ge.w_tilde3()
print("w_tilde3 equals bit-flipped w(3):",
      np.array_equal(wt3.amplitudes, w3.amplitudes[::-1]))

# The 4-qubit cluster state carries a sign on |1111>.
c4 = ge.cluster4()
print("cluster4 amplitudes at (0, 3, 12, 15):",
      [c4.amplitudes[j].real for j in (0, 3, 12, 15)])

# k-excitation uniform superpositions generalize the W state (k = 1).
mg = ge.magnon(4, 2)
print("magnon(4,2) support (all two-excitation indices):", list(mg.support()))
print("magnon(5,1) == w(5):",
      np.allclose(ge.magnon(5, 1).amplitudes, ge.w(5).amplitudes, rtol=0, atol=1e-12))

# Weighted single-excitation states: gamma is qubit-ordered, so gamma[0]
# weights qubit 1 (index J = 2^(N-1)).
psi = ge.asym_w((1.0, 0.5, 0.25))
print("asym_w weights (1, .5, .25) amplitudes at J=4,2,1:",
      np.round([psi.amplitudes[4].real, psi.amplitudes[2].real,
                psi.amplitudes[1].real], 4))

# Superpositions renormalize; the family states are orthogonal components.
eta = np.pi / 6
mix = ge.superpose(np.cos(eta), w3, np.sin(eta), np.pi / 2, ghz3)
print("cos(pi/6) w(3) + i sin(pi/6) ghz(3) is normalized:",
      abs(np.sum(np.abs(mix.amplitudes) ** 2) - 1) < 1e-12)

# Symmetry detection drives the partition-scan strategy downstream.
for name, state in [("w(5)", ge.w(5)), ("cluster4", c4),
                    ("asym_w(1,1,2)", ge.asym_w((1, 1, 2)))]:
    print(f"is_symmetric({name}) = {ge.is_symmetric(state)}")

# States persist as JSON with an optional recipe echo.
recipe = ge.StateRecipe(family="magnon", n=4, k=2)
ge.save_state(mg, "/tmp/magnon42.json", recipe=recipe)
print("round trip:",
      np.allclose(ge.load_state("/tmp/magnon42.json").amplitudes, mg.amplitudes, rtol=0, atol=1e-12))
