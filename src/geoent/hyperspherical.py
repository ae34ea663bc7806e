"""Hyperspherical coordinates for nonnegative unit vectors.

A d-dimensional nonnegative unit vector is generated from d-1 angles
delta_L in [0, pi/2]:

    v_0     = cos d0
    v_L     = sin d0 ... sin d_{L-1} cos d_L        (0 < L < d-1)
    v_{d-1} = sin d0 ... sin d_{d-2}

Phases are deliberately not handled here; callers that need complex
coefficients carry a separate phase list.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def angles_to_amplitudes(angles) -> np.ndarray:
    """Map d-1 angles in [0, pi/2] to a nonnegative unit vector of length d."""
    angles = np.asarray(angles, dtype=np.float64).reshape(-1)
    if angles.size and (np.min(angles) < 0.0 or np.max(angles) > np.pi / 2 + 1e-12):
        raise DomainError("angles must lie in [0, pi/2]")
    d = angles.size + 1
    v = np.empty(d)
    prefix = 1.0
    for L in range(d - 1):
        v[L] = prefix * np.cos(angles[L])
        prefix *= np.sin(angles[L])
    v[d - 1] = prefix
    return v
