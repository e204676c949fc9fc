import math

import numpy as np
import pytest

from symbif import potentials, predictor, spectral
from symbif.potentials import builtin, from_config_dict
from symbif.predictor import (
    BallAlternative,
    SphereGlobal,
    degree_jump,
    default_epsilon,
    lambda_set,
    predict,
)
from symbif.spectral import ball, sphere

RNG = np.random.default_rng(5)


class TestEigenCatalog:
    @pytest.mark.parametrize("domain", [sphere(2), sphere(3), ball(2)], ids=lambda d: d.label)
    @pytest.mark.parametrize("cutoff", [math.inf, math.nan, 0.0, -1.0])
    def test_cutoff_must_be_positive_and_finite(self, domain, cutoff):
        # an infinite cutoff would list the sphere spectrum forever and
        # overflow the ball's Bessel root search
        with pytest.raises(ValueError, match="beta_cutoff must be positive and finite"):
            predictor.eigen_catalog(domain, cutoff)


class TestLambdaSet:
    def test_pitchfork_circle(self):
        assert lambda_set(builtin("pitchfork-scalar"), sphere(2), 10.0) == [1.0, 4.0, 9.0]

    def test_ring_on_sphere(self):
        assert lambda_set(builtin("so2-ring"), sphere(3), 13.0) == [2.0, 6.0, 12.0]

    def test_degenerate_ring_empty(self):
        assert lambda_set(builtin("so2-ring-degenerate"), sphere(2), 50.0) == []

    def test_scaling_invariance(self):
        base = builtin("pitchfork-scalar")
        for c in (2.0, 4.0, 0.5):
            scaled = from_config_dict(
                {
                    "p": "1",
                    "action": "trivial",
                    "u0": "0",
                    "a": f"{c}",
                    "f": f"{c}*lambda*u1^2/2 - u1^4/4",
                }
            )
            lv_base = lambda_set(base, sphere(2), 10.0)
            lv_scaled = lambda_set(scaled, sphere(2), 10.0)
            assert lv_scaled == [lv / c for lv in lv_base]


class TestEigenspaces:
    """The descriptor V of degree_jump: the resonant eigenspace at lambda0 on
    the sphere, the union of those over the levels in the window on the
    ball."""

    def test_zero_space_circle(self):
        V = degree_jump(builtin("pitchfork-scalar"), sphere(2), 1.0, 0.5, beta_cutoff=10.0).V
        assert len(V.blocks) == 1
        b = V.blocks[0]
        assert (b.beta, b.copies, b.dimension, b.nontrivial) == (1.0, 1, 2, True)
        assert V.total_dimension == 2

    def test_zero_space_ring_sphere(self):
        V = degree_jump(builtin("so2-ring"), sphere(3), 2.0, 1.0, beta_cutoff=13.0).V
        assert len(V.blocks) == 1
        assert (V.blocks[0].beta, V.blocks[0].copies, V.blocks[0].dimension) == (2.0, 1, 3)

    def test_between_levels_empty(self):
        # no block is resonant between the levels 1 and 4, so there is no
        # candidate to decide
        with pytest.raises(ValueError, match="no resonant eigenvalue blocks"):
            degree_jump(builtin("pitchfork-scalar"), sphere(2), 2.5, 0.5, beta_cutoff=10.0)

    def test_window_union(self):
        # the window (9.33 - 6, 9.33 + 6) holds the disk levels 3.39 and 9.33
        # (multiplicity 2) and the radial 14.68 (multiplicity 1, trivial)
        spec = builtin("pitchfork-scalar")
        betas = [e.value for e in predictor.eigen_catalog(ball(2), 20.0)]
        V = degree_jump(spec, ball(2), betas[2], 6.0, beta_cutoff=20.0).V
        assert [b.beta for b in V.blocks] == betas[1:4]
        assert [(b.dimension, b.nontrivial) for b in V.blocks] == [(2, True), (2, True), (1, False)]


class TestDegreeJump:
    def test_pitchfork_level_one(self):
        cand = degree_jump(builtin("pitchfork-scalar"), sphere(2), 1.0, 0.5, beta_cutoff=10.0)
        # endpoint-sign oracle on the half-width-0.5 slice box
        for lam, got in ((0.5, cand.b_minus), (1.5, cand.b_plus)):
            f = lambda t: lam * t - t**3
            assert got == int(np.sign(f(0.5)) - np.sign(f(-0.5))) // 2
        assert any(b.nontrivial for b in cand.V.blocks)
        assert cand.jump
        assert isinstance(cand.guarantee, SphereGlobal)
        assert cand.witnesses == ((1.0, 1.0),)

    def test_degenerate_rejects_everything(self):
        spec = builtin("so2-ring-degenerate")
        for lam0 in (0.5, 1.0, 3.0):
            with pytest.raises(ValueError):
                degree_jump(spec, sphere(2), lam0, 0.1, beta_cutoff=10.0)

    def test_window_validation(self):
        spec = builtin("pitchfork-scalar")
        with pytest.raises(ValueError):
            degree_jump(spec, sphere(2), 1.0, 1.5, beta_cutoff=10.0)  # 0 in window
        with pytest.raises(ValueError):
            degree_jump(spec, sphere(2), 4.0, 3.5, beta_cutoff=10.0)  # 1.0 inside
        with pytest.raises(ValueError):
            degree_jump(spec, sphere(2), 1.0, 0.0, beta_cutoff=10.0)
        with pytest.raises(ValueError):
            degree_jump(spec, sphere(2), 0.0, 0.1, beta_cutoff=10.0)

    @pytest.mark.parametrize(
        "lam0,eps", [(math.inf, 0.5), (-math.inf, 0.5), (math.nan, 0.5), (1.0, math.inf), (1.0, math.nan)]
    )
    def test_nonfinite_level_or_epsilon_is_rejected(self, lam0, eps):
        # checked before the catalog is built
        with pytest.raises(ValueError, match="must be finite"):
            degree_jump(builtin("pitchfork-scalar"), sphere(2), lam0, eps, beta_cutoff=10.0)

    def test_predict_rejects_a_nonfinite_epsilon(self):
        with pytest.raises(ValueError, match="must be finite"):
            predict(builtin("pitchfork-scalar"), sphere(2), 10.0, epsilon=math.nan)

    def test_ball_uses_window_resonances(self):
        cand = degree_jump(
            builtin("pitchfork-scalar"), ball(2), 3.3899577166710888, 1.5, beta_cutoff=10.0
        )
        assert isinstance(cand.guarantee, BallAlternative)
        assert cand.V.total_dimension == 2
        assert cand.jump


class TestPredict:
    def test_pitchfork_circle(self):
        cands = predict(builtin("pitchfork-scalar"), sphere(2), 10.0)
        assert [c.lambda0 for c in cands] == [1.0, 4.0, 9.0]
        assert all(isinstance(c.guarantee, SphereGlobal) for c in cands)
        assert all(c.jump for c in cands)
        # the proof-side invariant: jump follows from a nonzero side degree
        for c in cands:
            assert c.b_plus != 0 or c.b_minus != 0
            assert any(b.nontrivial for b in c.V.blocks)
            assert c.jump

    def test_candidates_subset_of_lambda_set(self):
        spec = builtin("so2-ring")
        levels = lambda_set(spec, sphere(3), 13.0)
        cands = predict(spec, sphere(3), 13.0)
        for c in cands:
            assert any(abs(c.lambda0 - lv) <= 1e-12 for lv in levels)

    def test_pitchfork_disk(self):
        cands = predict(builtin("pitchfork-scalar"), ball(2), 10.0)
        assert len(cands) == 2
        assert abs(cands[0].lambda0 - 3.3900) < 1e-3
        assert abs(cands[1].lambda0 - 9.3284) < 1e-3
        for c in cands:
            assert isinstance(c.guarantee, BallAlternative)
            assert c.guarantee.lo < c.lambda0 < c.guarantee.hi
            assert c.guarantee.lo > 0

    def test_disk_radial_levels_excluded(self):
        # cutoff 16 includes the first radial level (~14.68, multiplicity 1)
        cands = predict(builtin("pitchfork-scalar"), ball(2), 16.0)
        assert len(cands) == 2
        assert all(abs(c.lambda0 - 14.68) > 1.0 for c in cands)

    def test_degenerate_empty(self):
        assert predict(builtin("so2-ring-degenerate"), sphere(2), 20.0) == []

    def test_negative_levels(self):
        # A = [-1]: the candidate set is negative and the resonant-factor
        # bookkeeping switches to the minus side
        spec = from_config_dict(
            {
                "name": "neg",
                "p": "1",
                "action": "trivial",
                "u0": "0",
                "a": "-1",
                "f": "-lambda*u1^2/2 - u1^4/4",
            }
        )
        assert lambda_set(spec, sphere(2), 10.0) == [-9.0, -4.0, -1.0]
        cands = predict(spec, sphere(2), 10.0)
        assert [c.lambda0 for c in cands] == [-9.0, -4.0, -1.0]
        assert all(c.jump for c in cands)
        assert all(isinstance(c.guarantee, SphereGlobal) for c in cands)

    def test_epsilon_policy(self):
        levels = [1.0, 4.0, 9.0]
        assert default_epsilon(1.0, levels) == 0.5
        assert default_epsilon(4.0, levels) == 1.5
        assert default_epsilon(9.0, levels) == 2.5
        assert default_epsilon(3.0, [3.0]) == 1.5

    @pytest.mark.parametrize(
        "domain,cutoff,builder",
        [(ball(2), 20.0, "ball_neumann_spectrum"), (sphere(3), 40.0, "sphere_spectrum")],
        ids=["disk", "2-sphere"],
    )
    def test_one_catalog_per_predict(self, domain, cutoff, builder, monkeypatch):
        calls = []
        build = getattr(spectral, builder)

        def spy(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(spectral, builder, spy)
        cands = predict(builtin("pitchfork-scalar"), domain, cutoff)
        assert len(cands) >= 2
        assert len(calls) == 1

    def test_invalid_spec_rejected(self):
        spec = builtin("pitchfork-scalar")
        base = spec.grad
        spec.grad = lambda u, lam: base(u, lam) + 0.3
        with pytest.raises(ValueError):
            predict(spec, sphere(2), 10.0)

    def test_one_base_point_check_with_check_assumptions(self, monkeypatch):
        # predict and check_assumptions ask the same B3/B4 helper, each with
        # its own lambda samples and element count
        calls = []
        helper = potentials._base_point_residuals

        def spy(spec, samples, elements):
            calls.append((tuple(samples), len(elements)))
            return helper(spec, samples, elements)

        monkeypatch.setattr(potentials, "_base_point_residuals", spy)
        spec = builtin("so2-ring")
        predict(spec, sphere(2), 5.0)
        potentials.check_assumptions(spec)
        assert calls == [((-1.0, 0.5), 16), ((-0.1, 0.1), 64)]

    @pytest.mark.parametrize(
        "cfg,assumption,message",
        [
            # grad(u0) = 5e-10: above B3's 1e-10
            (
                {"p": "1", "u0": "0", "a": "1", "f": "lambda*u1^2/2 - u1^4/4 + u1/2000000000"},
                "B3",
                "not a critical point",
            ),
            # |u0| = 1e-10: every sampled rotation moves u0 by less than
            # B4's 1e-9 (1 + |u0|)
            (
                {"p": "2", "action": "so2(1,2)", "u0": "1e-10 0", "a": "0 0; 0 0",
                 "f": "lambda*(u1^2 + u2^2 - 0.00000000000000000001)^2/8"},
                "B4",
                "fixes u0",
            ),
        ],
        ids=["B3", "B4"],
    )
    def test_predict_rejects_what_check_fails(self, cfg, assumption, message):
        spec = from_config_dict({"name": "near", **cfg})
        assert potentials.check_assumptions(spec).results[assumption].status == "fail"
        with pytest.raises(ValueError, match=message):
            predict(spec, sphere(2), 10.0)


class TestSerialization:
    def test_candidate_json(self):
        cands = predict(builtin("pitchfork-scalar"), sphere(2), 10.0)
        doc = predictor.candidate_to_json(cands[0])
        assert doc["lambda0"] == 1.0
        assert doc["witnesses"] == [{"alpha": 1.0, "beta": 1.0}]
        assert doc["V"]["dim"] == 2
        assert doc["jump"] is True
        assert doc["guarantee"]["kind"] == "sphere-global"

    def test_ball_guarantee_states_alternative(self):
        cands = predict(builtin("pitchfork-scalar"), ball(2), 10.0)
        doc = predictor.candidate_to_json(cands[0])
        g = doc["guarantee"]
        assert g["kind"] == "ball-alternative"
        assert g["interval"][0] < doc["lambda0"] < g["interval"][1]
        assert "local bifurcation" in g["statement"]
        assert "global bifurcation" in g["statement"]
