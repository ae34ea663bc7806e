import numpy as np
import pytest
from hypothesis import given, strategies as st

import geoent as ge
from geoent.errors import DomainError

angle_lists = st.lists(st.floats(0.0, np.pi / 2), min_size=0, max_size=63)


class TestForward:
    def test_two_dim_symmetry(self):
        v = ge.angles_to_amplitudes([np.pi / 4])
        assert v == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2)], abs=1e-15)

    def test_all_zero_angles(self):
        v = ge.angles_to_amplitudes(np.zeros(7))
        assert v[0] == 1.0 and np.all(v[1:] == 0.0)

    def test_four_dim_example(self):
        v = ge.angles_to_amplitudes([np.pi / 2, np.pi / 4, 0.0])
        assert v == pytest.approx([0.0, np.sqrt(2) / 2, np.sqrt(2) / 2, 0.0], abs=1e-15)

    def test_scalar_dimension(self):
        assert np.array_equal(ge.angles_to_amplitudes([]), [1.0])

    def test_angle_out_of_range(self):
        with pytest.raises(DomainError):
            ge.angles_to_amplitudes([2.0])

    @given(angle_lists)
    def test_always_nonnegative_unit(self, angles):
        v = ge.angles_to_amplitudes(angles)
        assert np.min(v) >= 0.0
        assert np.sum(v ** 2) == pytest.approx(1.0, abs=1e-12)
