"""Tests for state constructors, Schmidt decomposition and sampling."""

import json
import math

import numpy as np
import pytest

from qsconc import linalg, measures, states
from qsconc.errors import (
    BadPartitionError,
    DimensionMismatchError,
    InputError,
    NonFiniteInputError,
    NonHermitianError,
    NotNormalizedError,
    RangeError,
    StateFormatError,
)


class TestSchmidt:
    def test_bell(self):
        spec = states.schmidt(states.max_entangled(2))
        assert np.allclose(spec.values, [0.5, 0.5])
        assert spec.rank == 2

    def test_product_state_rank_one(self):
        a = states.haar_random_pure((2,), seed=0).amplitudes
        b = states.haar_random_pure((3,), seed=1).amplitudes
        psi = states.PureState((2, 3), np.kron(a, b))
        spec = states.schmidt(psi)
        assert spec.rank == 1
        assert spec.values[0] == pytest.approx(1.0, abs=1e-10)

    def test_two_term_superposition(self):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = math.sqrt(0.7), math.sqrt(0.3)
        spec = states.schmidt(states.PureState((2, 2), v))
        assert np.allclose(spec.values, [0.7, 0.3])

    def test_group_split_matches_complement(self):
        psi = states.haar_random_pure((2, 3, 2), seed=9)
        a = states.schmidt(psi, [0, 2]).values
        b = states.schmidt(psi, 1).values
        assert np.allclose(a[: b.size], b, atol=1e-10)

    def test_rank_is_not_an_argument(self):
        assert states.SchmidtSpectrum([0.5, 0.5]).rank == 2
        with pytest.raises(TypeError):
            states.SchmidtSpectrum([0.5, 0.5], rank=7)

    def test_invalid_split(self):
        psi = states.haar_random_pure((2, 2), seed=0)
        with pytest.raises(BadPartitionError):
            states.schmidt(psi, [0, 1])
        with pytest.raises(BadPartitionError):
            states.schmidt(psi, 5)

    @pytest.mark.parametrize("split", [[1.7], 1.0, [True], True, "1", [0, "2"]])
    def test_non_integer_split_rejected(self, split):
        # Unchecked, [1.7] read as subsystem 1 and 1.0 raised a bare TypeError.
        psi = states.haar_random_pure((2, 3, 2), seed=0)
        with pytest.raises(RangeError, match="integer"):
            states.schmidt(psi, split)

    def test_numpy_integer_split_accepted(self):
        psi = states.haar_random_pure((2, 3, 2), seed=0)
        assert np.array_equal(states.schmidt(psi, np.int64(1)).values,
                              states.schmidt(psi, 1).values)
        assert np.array_equal(states.schmidt(psi, np.array([0, 2])).values,
                              states.schmidt(psi, [0, 2]).values)


class TestMaxEntangled:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uniform_schmidt(self, d):
        spec = states.schmidt(states.max_entangled(d))
        assert np.allclose(spec.values, np.full(d, 1.0 / d))

    def test_self_fidelity(self):
        psi = states.max_entangled(3)
        rho = psi.projector()
        f = psi.amplitudes.conj() @ rho @ psi.amplitudes
        assert f.real == pytest.approx(1.0, abs=1e-12)

    def test_d_below_two_rejected(self):
        with pytest.raises(RangeError):
            states.max_entangled(1)

    def test_float_d_rejected(self):
        with pytest.raises(RangeError, match="integer"):
            states.max_entangled(2.0)


class TestIsotropic:
    def test_f_one_d_two_is_bell_projector(self):
        rho = states.isotropic(1.0, 2)
        assert np.allclose(rho.matrix, states.max_entangled(2).projector(), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_f_inverse_d_squared_is_maximally_mixed(self, d):
        rho = states.isotropic(1.0 / d**2, d)
        assert np.allclose(rho.matrix, np.eye(d * d) / d**2, atol=1e-12)

    @pytest.mark.parametrize("f,d", [(0.0, 2), (0.37, 2), (0.8, 3), (1.0, 4)])
    def test_fidelity_projection(self, f, d):
        rho = states.isotropic(f, d)
        psi = states.max_entangled(d).amplitudes
        assert (psi.conj() @ rho.matrix @ psi).real == pytest.approx(f, abs=1e-12)

    @pytest.mark.parametrize("w,d", [(0.0, 2), (0.3, 3), (0.75, 5), (1.0, 4)])
    def test_matches_outer_product_construction(self, w, d):
        # Reference: weight 2(1-w)/(d(d+1)) on each symmetric basis state
        # |ii>, (|ik> + |ki>)/sqrt(2) and 2w/(d(d-1)) on each (|ik> - |ki>)/sqrt(2).
        sym_w = 2.0 * (1.0 - w) / (d * (d + 1))
        asym_w = 2.0 * w / (d * (d - 1))
        want = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            want[i * d + i, i * d + i] += sym_w
            for k in range(i + 1, d):
                for sign, weight in ((1, sym_w), (-1, asym_w)):
                    v = np.zeros(d * d, dtype=complex)
                    v[i * d + k], v[k * d + i] = 1 / math.sqrt(2), sign / math.sqrt(2)
                    want += weight * np.outer(v, v.conj())
        assert np.max(np.abs(states.werner(w, d).matrix - want)) <= 1e-15

    def test_twirl_invariance(self):
        rho = states.isotropic(0.6, 3).matrix
        for seed in range(20):
            u = states.haar_random_unitary(3, seed=seed)
            g = np.kron(u, u.conj())
            assert np.max(np.abs(g @ rho @ g.conj().T - rho)) <= 1e-8

    def test_range_errors(self):
        with pytest.raises(RangeError):
            states.isotropic(1.2, 2)
        with pytest.raises(RangeError):
            states.isotropic(0.5, 1)

    @pytest.mark.parametrize("f,d", [("0.5", 3), (0.5, 2.5), (True, 3)])
    def test_ill_typed_scalars_rejected(self, f, d):
        # Unchecked, a string or a non-integer d raises TypeError and True reads as F = 1.
        with pytest.raises(RangeError):
            states.isotropic(f, d)

    def test_numpy_scalars_accepted(self):
        want = states.isotropic(0.5, 3).matrix
        assert np.array_equal(states.isotropic(np.float64(0.5), np.int64(3)).matrix, want)


class TestWerner:
    @pytest.mark.parametrize("w,d", [(0.0, 2), (0.3, 2), (0.75, 3), (1.0, 2)])
    def test_antisymmetric_weight_projection(self, w, d):
        rho = states.werner(w, d)
        p_asym = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for k in range(i + 1, d):
                v = np.zeros(d * d, dtype=complex)
                v[i * d + k] = 1 / math.sqrt(2)
                v[k * d + i] = -1 / math.sqrt(2)
                p_asym += np.outer(v, v.conj())
        assert np.trace(rho.matrix @ p_asym).real == pytest.approx(w, abs=1e-12)

    def test_w_one_d_two_is_singlet(self):
        v = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        assert np.allclose(states.werner(1.0, 2).matrix, np.outer(v, v.conj()))

    def test_separability_boundary(self):
        pt = linalg.partial_transpose(states.werner(0.5, 2).matrix, (2, 2))
        w = linalg.hermitian_eigenvalues(pt)
        assert w[-1] >= -1e-9
        assert linalg.trace_norm(pt) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("w", [0.0, 0.2, 0.49])
    def test_separable_region_ppt(self, w):
        pt = linalg.partial_transpose(states.werner(w, 2).matrix, (2, 2))
        assert linalg.hermitian_eigenvalues(pt)[-1] >= -1e-9

    @pytest.mark.parametrize("w,d", [(0.0, 2), (0.3, 3), (0.75, 5), (1.0, 4)])
    def test_matches_outer_product_construction(self, w, d):
        # Reference: weight 2(1-w)/(d(d+1)) on each symmetric basis state
        # |ii>, (|ik> + |ki>)/sqrt(2) and 2w/(d(d-1)) on each (|ik> - |ki>)/sqrt(2).
        sym_w = 2.0 * (1.0 - w) / (d * (d + 1))
        asym_w = 2.0 * w / (d * (d - 1))
        want = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            want[i * d + i, i * d + i] += sym_w
            for k in range(i + 1, d):
                for sign, weight in ((1, sym_w), (-1, asym_w)):
                    v = np.zeros(d * d, dtype=complex)
                    v[i * d + k], v[k * d + i] = 1 / math.sqrt(2), sign / math.sqrt(2)
                    want += weight * np.outer(v, v.conj())
        assert np.max(np.abs(states.werner(w, d).matrix - want)) <= 1e-15

    def test_twirl_invariance(self):
        rho = states.werner(0.7, 2).matrix
        for seed in range(10):
            u = states.haar_random_unitary(2, seed=seed)
            g = np.kron(u, u)
            assert np.max(np.abs(g @ rho @ g.conj().T - rho)) <= 1e-8

    @pytest.mark.parametrize("w,d", [("0.5", 3), (0.5, 3.0), (True, 3)])
    def test_ill_typed_scalars_rejected(self, w, d):
        # Unchecked, a string or a float d raises TypeError and True reads as w = 1.
        with pytest.raises(RangeError):
            states.werner(w, d)


class TestGenSchmidt3:
    def test_basis_state(self):
        psi = states.gen_schmidt3(states.GenSchmidt3(1, 0, 0, 0, 0))
        expected = np.zeros(8)
        expected[0] = 1
        assert np.allclose(psi.amplitudes, expected)

    def test_ghz_like_concurrence(self):
        s = 1 / math.sqrt(2)
        psi = states.gen_schmidt3(states.GenSchmidt3(s, 0, 0, 0, s))
        assert measures.concurrence_pure(psi, split=0) == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_is_normalized(self):
        p = states.GenSchmidt3(
            math.sqrt(2 / 7), math.sqrt(1 / 7), math.sqrt(1 / 7), math.sqrt(3 / 7), 0.0
        )
        assert sum(l * l for l in p.lams) == pytest.approx(1.0, abs=1e-12)

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalizedError):
            states.GenSchmidt3(1.0, 0.5, 0, 0, 0)

    @pytest.mark.parametrize("field", range(6))
    def test_non_finite_parameter_rejected(self, field):
        vals = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        vals[field] = math.nan
        with pytest.raises(NonFiniteInputError):
            states.GenSchmidt3(*vals[:5], phi=vals[5])

    @pytest.mark.parametrize("vals", [(True, 0, 0, 0, 0), ("1", 0, 0, 0, 0),
                                      (1.0, 0, 0, 0, None), (1.0, 0, 0, 0, 0, "0")])
    def test_ill_typed_parameter_rejected(self, vals):
        # Unchecked, True built |000> and a string raised a bare TypeError.
        with pytest.raises(RangeError, match="real number"):
            states.GenSchmidt3(*vals)

    def test_numpy_parameters_accepted(self):
        p = states.GenSchmidt3(np.float64(0.6), np.float64(0.8), np.int64(0), 0, 0,
                               phi=np.float32(0.5))
        assert sum(l * l for l in p.lams) == pytest.approx(1.0, abs=1e-12)

    def test_phase_enters_amplitude(self):
        psi = states.gen_schmidt3(
            states.GenSchmidt3(0.6, 0.8, 0, 0, 0, phi=np.pi / 2)
        )
        assert psi.amplitudes[4] == pytest.approx(0.8j, abs=1e-12)


class TestHaarSampling:
    def test_deterministic_per_seed(self):
        a = states.haar_random_pure((2, 2), seed=42)
        b = states.haar_random_pure((2, 2), seed=42)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_normalized(self):
        psi = states.haar_random_pure((3, 3), seed=0)
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_mean_reduced_purity(self):
        # Frozen from the known average (dA+dB)/(dA*dB+1) = 0.8 for (2,2),
        # cross-checked here by Monte Carlo.
        total = 0.0
        n = 1000
        for seed in range(n):
            psi = states.haar_random_pure((2, 2), seed=seed)
            lam = states.schmidt(psi).values
            total += float(np.sum(lam**2))
        assert total / n == pytest.approx(0.8, abs=0.02)


class TestSamplerArguments:
    @pytest.mark.parametrize("call", [
        lambda bad: states.haar_random_pure((2, 2), seed=bad),
        lambda bad: states.random_mixed((2, 2), bad, seed=0),
        lambda bad: states.random_mixed((2, 2), 2, seed=bad),
        lambda bad: states.haar_random_unitary(bad, seed=0),
        lambda bad: states.haar_random_unitary(2, seed=bad),
    ], ids=["pure-seed", "mixed-rank", "mixed-seed", "unitary-d", "unitary-seed"])
    @pytest.mark.parametrize("bad", [1.5, 2.5, True, 2.0, "2"])
    def test_non_integer_counts_rejected(self, call, bad):
        # Unchecked, each raised a bare TypeError or read True as 1.
        with pytest.raises(RangeError, match="integer"):
            call(bad)

    def test_numpy_integers_accepted(self):
        a = states.random_mixed((2, 2), np.int64(2), seed=np.int32(3))
        assert np.array_equal(a.matrix, states.random_mixed((2, 2), 2, seed=3).matrix)
        u = states.haar_random_unitary(np.int64(3), seed=np.uint8(1))
        assert np.array_equal(u, states.haar_random_unitary(3, seed=1))
        psi = states.haar_random_pure((2, 2), seed=np.int64(5))
        assert np.array_equal(psi.amplitudes,
                              states.haar_random_pure((2, 2), seed=5).amplitudes)


class TestRandomMixed:
    def test_rank_one_is_pure(self):
        rho = states.random_mixed((2, 2), 1, seed=0)
        w = rho.eigenvalues()
        assert w[0] == pytest.approx(1.0, abs=1e-9)

    def test_trace_one(self):
        rho = states.random_mixed((2, 3), 4, seed=1)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rank_cap(self, rank):
        rho = states.random_mixed((2, 2), rank, seed=2)
        assert int(np.sum(rho.eigenvalues() > 1e-8)) <= rank

    def test_rank_out_of_range(self):
        with pytest.raises(RangeError):
            states.random_mixed((2, 2), 5, seed=0)


class TestValidation:
    def test_pure_norm_enforced(self):
        with pytest.raises(NotNormalizedError):
            states.PureState((2,), np.array([1.0, 1.0]))

    def test_dims_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            states.PureState((2, 2), np.array([1.0, 0.0]))

    def test_density_psd_enforced(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(Exception):
            states.DensityMatrix((2,), m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_input_errors(self, bad):
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        v[1] = bad
        with pytest.raises(InputError):
            states.PureState((2, 2), v)
        m = np.eye(4, dtype=complex) / 4
        m[0, 3] = bad
        with pytest.raises(InputError):
            states.DensityMatrix((2, 2), m)
        with pytest.raises(NonFiniteInputError):
            states.SchmidtSpectrum([bad, 1.0])

    @pytest.mark.parametrize("values", [0.5, np.full((2, 2), 0.25), np.full((2, 2, 2), 0.125)],
                             ids=["scalar", "matrix", "cube"])
    def test_spectrum_must_be_one_dimensional(self, values):
        # A matrix raised a bare ValueError and a scalar a bare AxisError.
        with pytest.raises(DimensionMismatchError, match="1-d"):
            states.SchmidtSpectrum(values)

    def test_non_hermitian_density_named(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 0.2
        with pytest.raises(NonHermitianError):
            states.DensityMatrix((2,), m)


class TestJsonInterface:
    def test_pure_roundtrip(self, tmp_path):
        psi = states.haar_random_pure((2, 3), seed=7)
        path = tmp_path / "psi.json"
        states.save_state_json(psi, path)
        loaded = states.load_state_json(path)
        assert isinstance(loaded, states.PureState)
        assert loaded.dims == (2, 3)
        assert np.allclose(loaded.amplitudes, psi.amplitudes)

    def test_density_roundtrip(self, tmp_path):
        rho = states.random_mixed((2, 2), 2, seed=8)
        path = tmp_path / "rho.json"
        states.save_state_json(rho, path)
        loaded = states.load_state_json(path)
        assert isinstance(loaded, states.DensityMatrix)
        assert np.allclose(loaded.matrix, rho.matrix)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "pure", "dims": [2]}))
        with pytest.raises(StateFormatError, match="data"):
            states.load_state_json(path)

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "ket", "dims": [2], "data": [[1, 0], [0, 0]]}))
        with pytest.raises(StateFormatError, match="kind"):
            states.load_state_json(path)

    def test_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "pure", "dims": [2, 2], "data": [[1, 0]]}))
        with pytest.raises(StateFormatError, match="entries"):
            states.load_state_json(path)

    def test_unnormalized_named(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"kind": "pure", "dims": [2], "data": [[1, 0], [1, 0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(NotNormalizedError):
            states.load_state_json(path)

    @pytest.mark.parametrize("doc", [
        3,
        [1, 2],
        {"kind": "pure", "dims": 2, "data": [[1, 0], [0, 0]]},
        {"kind": "pure", "dims": None, "data": [[1, 0], [0, 0]]},
        {"kind": "pure", "dims": [[2], [2]], "data": [[1, 0], [0, 0]]},
        {"kind": "pure", "dims": ["x", 2], "data": [[1, 0], [0, 0]]},
        {"kind": "pure", "dims": ["2"], "data": [[1, 0], [0, 0]]},
        {"kind": "pure", "dims": [], "data": [[1, 0]]},
        {"kind": "pure", "dims": [0, 2], "data": []},
        {"kind": "pure", "dims": [2.5, 2], "data": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"kind": "pure", "dims": [2.0, 2], "data": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"kind": "pure", "dims": [True, 4], "data": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"kind": "pure", "dims": [2], "data": [[10**400, 0], [0, 0]]},
        {"kind": "pure", "dims": [2], "data": [["1", 0], [0, 0]]},
        {"kind": "pure", "dims": [2], "data": [[1, False], [0, 0]]},
        {"kind": "pure", "dims": [2], "data": [[True, 0], [0, 0]]},
        {"kind": "pure", "dims": [2], "data": [[1, None], [0, 0]]},
    ], ids=["number", "list", "dims-number", "dims-null", "dims-nested", "dims-str",
            "dims-numeric-str", "dims-empty", "dims-zero", "dims-fraction",
            "dims-float", "dims-bool", "data-int-beyond-float", "data-numeric-str",
            "data-false", "data-true", "data-null"])
    def test_malformed_document_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StateFormatError):
            states.load_state_json(path)

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["not-utf8", "deeply-nested"])
    def test_unparseable_file_rejected(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(StateFormatError, match="JSON"):
            states.load_state_json(path)
