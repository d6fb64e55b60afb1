import numpy as np
import pytest

from satsync import AgentModel, check_assumption, saturate
from satsync.model import ModelError


class TestSaturate:
    def test_identity_inside_unit_box(self):
        np.testing.assert_array_equal(saturate([0.5]), [0.5])

    def test_clips_outside(self):
        np.testing.assert_array_equal(saturate([2.0, -3.0]), [1.0, -1.0])

    def test_boundary_and_zero(self):
        np.testing.assert_array_equal(saturate([0.0, 1.0, -1.0]), [0.0, 1.0, -1.0])

    def test_idempotent(self, rng):
        v = rng.uniform(-10, 10, size=(100, 4))
        np.testing.assert_array_equal(saturate(saturate(v)), saturate(v))

    def test_lipschitz_inf_norm(self, rng):
        for _ in range(200):
            v, w = rng.uniform(-5, 5, size=(2, 6))
            lhs = np.abs(saturate(v) - saturate(w)).max()
            assert lhs <= np.abs(v - w).max() + 1e-15

    def test_identity_iff_inside(self, rng):
        v = rng.uniform(-2, 2, size=5)
        inside = np.abs(v).max() <= 1
        assert np.array_equal(saturate(v), v) == inside


class TestCheckAssumption:
    def test_triple_integrator_passes(self, triple):
        report = check_assumption(triple)
        assert report.passed
        np.testing.assert_allclose(report.eig_A, 0, atol=1e-12)

    def test_scalar_unstable_fails(self):
        report = check_assumption(AgentModel([[1.0]], [[1.0]], [[1.0]]))
        assert not report.passed
        assert report.max_real_part == pytest.approx(1.0)

    def test_unstabilizable_fails(self):
        # B = 0 leaves the double integrator uncontrollable at eigenvalue 0
        model = AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [0.0]], [[1.0, 0.0]])
        report = check_assumption(model)
        assert not report.stabilizable
        assert not report.passed

    def test_undetectable_fails(self):
        model = AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[0.0, 0.0]])
        report = check_assumption(model)
        assert not report.detectable

    def test_random_admissible(self, rng):
        from conftest import random_admissible_model

        for _ in range(10):
            model = random_admissible_model(rng)
            assert check_assumption(model).passed


class TestAgentModel:
    def test_dimension_mismatch_names_field(self):
        with pytest.raises(ModelError) as exc:
            AgentModel([[0.0, 1.0], [0.0, 0.0]], [[1.0]], [[1.0, 0.0]])
        assert exc.value.field_name == "B"

    def test_nonsquare_A_rejected(self):
        with pytest.raises(ModelError):
            AgentModel([[0.0, 1.0]], [[1.0]], [[1.0]])

    def test_nonfinite_entry_names_field(self):
        with pytest.raises(ModelError, match="non-finite") as exc:
            AgentModel([[0.0]], [[1.0]], [[np.nan]])
        assert exc.value.field_name == "C"

    def test_dimensions(self, triple):
        assert (triple.n, triple.m, triple.q) == (3, 1, 1)
