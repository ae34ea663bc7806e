import json

import numpy as np
import pytest

import geoent as ge
from conftest import max_diff
from geoent.errors import (
    DegenerateInputError,
    DomainError,
    ShapeMismatchError,
)


class TestBasisKet:
    def test_ground(self):
        psi = ge.basis_ket(3, 0)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.array_equal(psi.amplitudes, expected)

    def test_top(self):
        assert ge.basis_ket(3, 7).amplitudes[7] == 1.0

    def test_single_qubit(self):
        assert np.array_equal(ge.basis_ket(1, 1).amplitudes, [0.0, 1.0])

    @pytest.mark.parametrize("j", [-1, 8])
    def test_out_of_range(self, j):
        with pytest.raises(IndexError):
            ge.basis_ket(3, j)


class TestFamilies:
    def test_ghz_support(self):
        for n, top in [(2, 3), (3, 7), (4, 15)]:
            psi = ge.ghz(n)
            assert set(psi.support()) == {0, top}
            assert psi.amplitudes[0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_ghz_needs_two_qubits(self):
        with pytest.raises(DomainError):
            ge.ghz(1)

    def test_w_support(self):
        assert set(ge.w(3).support()) == {1, 2, 4}
        assert ge.w(3).amplitudes[1] == pytest.approx(1 / np.sqrt(3), abs=1e-15)
        assert set(ge.w(4).support()) == {1, 2, 4, 8}
        assert ge.w(4).amplitudes[8] == pytest.approx(0.5, abs=1e-15)
        assert set(ge.w(2).support()) == {1, 2}

    def test_w_needs_two_qubits(self):
        with pytest.raises(DomainError):
            ge.w(1)

    def test_w_tilde3(self):
        wt = ge.w_tilde3()
        assert set(wt.support()) == {3, 5, 6}
        assert ge.overlap(wt, ge.w(3)) == 0
        # flipping every qubit of the single-excitation state reverses the
        # amplitude vector (J -> 7 - J)
        assert np.array_equal(wt.amplitudes, ge.w(3).amplitudes[::-1])

    def test_cluster4(self):
        c = ge.cluster4()
        assert c.amplitudes[0] == c.amplitudes[3] == c.amplitudes[12] == 0.5
        assert c.amplitudes[15] == -0.5
        assert np.sum(np.abs(c.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-15)
        assert ge.overlap(c, ge.ghz(4)) == pytest.approx(0.0, abs=1e-15)

    def test_magnon_one_excitation_is_w(self):
        for n in range(2, 7):
            assert max_diff(ge.magnon(n, 1), ge.w(n)) <= 1e-15

    def test_magnon_4_2(self):
        psi = ge.magnon(4, 2)
        assert set(psi.support()) == {3, 5, 6, 9, 10, 12}
        assert psi.amplitudes[3] == pytest.approx(1 / np.sqrt(6), abs=1e-15)

    def test_magnon_popcount(self):
        psi = ge.magnon(6, 3)
        assert all(int(j).bit_count() == 3 for j in psi.support())

    @pytest.mark.parametrize("k", [0, 4, 7])
    def test_magnon_range(self, k):
        with pytest.raises(DomainError):
            ge.magnon(4, k)


class TestSuperpose:
    def test_mixed_state_amplitudes(self):
        eta, phi = 0.7, 1.1
        psi = ge.superpose(np.cos(eta), ge.w(3), np.sin(eta), phi, ge.w_tilde3())
        assert psi.amplitudes[1] == pytest.approx(np.cos(eta) / np.sqrt(3), abs=1e-14)
        assert psi.amplitudes[3] == pytest.approx(
            np.exp(1j * phi) * np.sin(eta) / np.sqrt(3), abs=1e-14
        )

    def test_endpoints(self):
        assert max_diff(ge.superpose(1.0, ge.w(4), 0.0, 0.0, ge.ghz(4)), ge.w(4)) <= 1e-15
        assert max_diff(ge.superpose(0.0, ge.w(4), 1.0, 0.0, ge.ghz(4)), ge.ghz(4)) <= 1e-15

    def test_mismatched_sizes(self):
        with pytest.raises(ShapeMismatchError):
            ge.superpose(1.0, ge.w(3), 1.0, 0.0, ge.ghz(4))

    def test_zero_result(self):
        with pytest.raises(DegenerateInputError):
            ge.superpose(1.0, ge.w(3), 1.0, np.pi, ge.w(3))

    def test_renormalizes_non_orthogonal(self):
        psi = ge.superpose(1.0, ge.w(3), 1.0, 0.0, ge.w(3))
        assert max_diff(psi, ge.w(3)) <= 1e-14


class TestAsymW:
    def test_uniform_equals_w(self):
        assert np.array_equal(ge.asym_w((1, 1, 1)).amplitudes, ge.w(3).amplitudes)

    def test_single_weight_is_basis_ket(self):
        assert max_diff(ge.asym_w((1, 0, 0)), ge.basis_ket(3, 4)) <= 1e-15

    def test_qubit_ordering_and_normalization(self):
        gamma = (0.5, 0.5, 2 / 3, 1 / 6)
        psi = ge.asym_w(gamma)
        norm = np.sqrt(36 / 35)
        assert set(psi.support()) == {1, 2, 4, 8}
        assert psi.amplitudes[8] == pytest.approx(0.5 * norm, abs=1e-14)
        assert psi.amplitudes[4] == pytest.approx(0.5 * norm, abs=1e-14)
        assert psi.amplitudes[2] == pytest.approx(2 / 3 * norm, abs=1e-14)
        assert psi.amplitudes[1] == pytest.approx(1 / 6 * norm, abs=1e-14)

    def test_phases(self):
        psi = ge.asym_w((1, 1), xi=(0.0, np.pi / 2))
        assert psi.amplitudes[1] == pytest.approx(1j / np.sqrt(2), abs=1e-14)

    def test_all_zero(self):
        with pytest.raises(DegenerateInputError):
            ge.asym_w((0, 0, 0))

    def test_negative(self):
        with pytest.raises(DomainError):
            ge.asym_w((1, -0.5, 0))


class TestOverlap:
    def test_self_overlap(self):
        psi = ge.random_state(4, 7)
        assert ge.overlap(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert ge.overlap(ge.w(3), ge.ghz(3)) == 0

    def test_uniform_product_state(self):
        # per-qubit factor cos G|0> + sin G|1> with sin G = 1/sqrt(3) realizes
        # the known full-separability optimum of the 3-qubit W state: 4/9
        gamma = np.arcsin(1 / np.sqrt(3))
        factor = np.array([np.cos(gamma), np.sin(gamma)])
        product = np.kron(np.kron(factor, factor), factor)
        value = ge.overlap(ge.w(3), ge.PureState(3, product))
        assert abs(value) ** 2 == pytest.approx(4 / 9, abs=1e-14)

    def test_mismatched(self):
        with pytest.raises(ShapeMismatchError):
            ge.overlap(ge.w(3), ge.w(4))


class TestPermuteQubits:
    @pytest.mark.parametrize("builder", [lambda: ge.w(5), lambda: ge.ghz(5),
                                         lambda: ge.magnon(5, 2)])
    def test_symmetric_states_invariant(self, builder):
        psi = builder()
        n = psi.num_qubits
        for q in range(1, n):
            sigma = list(range(1, n + 1))
            sigma[q - 1], sigma[q] = sigma[q], sigma[q - 1]
            assert max_diff(psi, ge.permute_qubits(psi, sigma)) <= 1e-14

    def test_cluster_swap_moves_support(self):
        swapped = ge.permute_qubits(ge.cluster4(), (3, 2, 1, 4))
        assert max_diff(swapped, ge.cluster4()) > 1e-10
        assert swapped.amplitudes[3] == 0.0  # |0011> weight moved to |1001>
        assert swapped.amplitudes[9] == 0.5

    def test_cluster_not_invariant_under_2_3_swap(self):
        swapped = ge.permute_qubits(ge.cluster4(), (1, 3, 2, 4))
        assert max_diff(swapped, ge.cluster4()) > 1e-10

    def test_identity(self):
        psi = ge.random_state(4, 3)
        assert max_diff(ge.permute_qubits(psi, (1, 2, 3, 4)), psi) <= 0.0

    def test_invalid(self):
        with pytest.raises(DomainError):
            ge.permute_qubits(ge.w(3), (1, 1, 2))


class TestPureState:
    def test_wrong_length(self):
        with pytest.raises(ShapeMismatchError):
            ge.PureState(2, np.ones(3) / np.sqrt(3))

    def test_not_normalized(self):
        with pytest.raises(DomainError):
            ge.PureState(1, np.array([1.0, 1.0]))

    def test_needs_a_qubit(self):
        with pytest.raises(DomainError):
            ge.PureState(0, np.array([1.0]))

    def test_immutable(self):
        psi = ge.w(3)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0

    @pytest.mark.parametrize("psi", [
        ge.ghz(5), ge.w(6), ge.w_tilde3(), ge.cluster4(), ge.magnon(5, 2),
        ge.asym_w((0.3, 0.9, 0.5)),
        ge.superpose(np.cos(0.4), ge.w(4), np.sin(0.4), 0.9, ge.ghz(4)),
    ])
    def test_builders_normalized(self, psi):
        assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) <= 1e-12


class TestRecipesAndJson:
    def test_round_trip(self, tmp_path):
        psi = ge.superpose(np.cos(0.3), ge.w(3), np.sin(0.3), 1.2, ge.ghz(3))
        path = tmp_path / "state.json"
        ge.save_state(psi, path)
        again = ge.load_state(path)
        assert max_diff(again, psi) <= 1e-15

    def test_recipe_echo(self, tmp_path):
        recipe = ge.StateRecipe(family="w", n=4)
        path = tmp_path / "w4.json"
        ge.save_state(recipe.build(), path, recipe=recipe)
        doc = json.loads(path.read_text())
        assert doc["recipe"] == {"family": "w", "n": 4}
        assert len(doc["amplitudes"]) == 16

    def test_load_rejects_bad_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "amplitudes": [[1, 0], [0, 0]]}))
        with pytest.raises(ShapeMismatchError):
            ge.load_state(path)

    def test_load_rejects_bad_norm(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[1, 0], [1, 0]]}))
        with pytest.raises(DomainError):
            ge.load_state(path)

    @pytest.mark.parametrize("recipe,expected", [
        (ge.StateRecipe(family="ghz", n=3), lambda: ge.ghz(3)),
        (ge.StateRecipe(family="w", n=4), lambda: ge.w(4)),
        (ge.StateRecipe(family="w_tilde"), ge.w_tilde3),
        (ge.StateRecipe(family="cluster4"), ge.cluster4),
        (ge.StateRecipe(family="magnon", n=5, k=2), lambda: ge.magnon(5, 2)),
        (ge.StateRecipe(family="asym_w", gamma=(1, 1, 1)), lambda: ge.w(3)),
        (ge.StateRecipe(family="wghz_superposition", n=4, eta=0.0), lambda: ge.w(4)),
    ])
    def test_families_build(self, recipe, expected):
        assert max_diff(recipe.build(), expected()) <= 1e-14

    def test_explicit_family(self):
        recipe = ge.StateRecipe(family="explicit", amplitudes=((0.0, 0.0), (1.0, 0.0)))
        assert max_diff(recipe.build(), ge.basis_ket(1, 1)) <= 0.0

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            ge.StateRecipe(family="bell")

    def test_missing_parameter(self):
        with pytest.raises(DomainError):
            ge.StateRecipe(family="w").build()

    def test_eta_range(self):
        with pytest.raises(DomainError):
            ge.StateRecipe(family="wghz_superposition", n=3, eta=2.0)

    def test_recipe_dict_round_trip(self):
        recipe = ge.StateRecipe(family="asym_w", gamma=(0.5, 1.0), xi=(0.0, 0.4))
        assert ge.StateRecipe.from_dict(recipe.as_dict()) == recipe
