import numpy as np
import pytest

from symbif import predictor, spectral
from symbif.potentials import builtin, from_config_dict
from symbif.predictor import (
    BallAlternative,
    SphereGlobal,
    degree_jump,
    default_epsilon,
    lambda_set,
    negative_eigenspace,
    predict,
    slice_spectrum,
    window_eigenspace,
    zero_eigenspace,
)
from symbif.spectral import ball, sphere

RNG = np.random.default_rng(5)


class TestSliceSpectrum:
    def test_pitchfork_circle_at_zero(self):
        sp = slice_spectrum(builtin("pitchfork-scalar"), sphere(2), 0.0, 5.0)
        vals = sorted({e.eigenvalue for e in sp.entries})
        np.testing.assert_allclose(vals, [0.0, 0.5, 0.8], atol=1e-15)

    def test_ring_on_sphere_resonance(self):
        sp = slice_spectrum(builtin("so2-ring"), sphere(3), 2.0, 7.0)
        hits = [e for e in sp.entries if e.beta == 2.0 and e.alpha == 1.0]
        assert len(hits) == 1
        assert hits[0].eigenvalue == 0.0
        assert hits[0].dimension == 3
        assert hits[0].nontrivial

    def test_constant_tangent_block(self):
        sp = slice_spectrum(builtin("so2-ring"), sphere(2), 1.7, 5.0)
        hits = [e for e in sp.entries if e.beta == 0.0 and e.alpha == 0.0]
        assert len(hits) == 1
        assert hits[0].eigenvalue == 0.0
        assert not hits[0].nontrivial

    def test_formula_holds_entrywise(self):
        for lam in (-2.3, 0.0, 1.7):
            sp = slice_spectrum(builtin("so2-ring"), ball(2), lam, 20.0)
            for e in sp.entries:
                expected = (e.beta - lam * e.alpha) / (1.0 + e.beta)
                assert e.eigenvalue == expected
                assert e.dimension > 0

    def test_zero_block_present_exactly_at_levels(self):
        spec = builtin("pitchfork-scalar")
        for lam in lambda_set(spec, sphere(2), 20.0):
            sp = slice_spectrum(spec, sphere(2), lam, 20.0)
            assert any(
                abs(e.eigenvalue) <= 1e-9 and e.beta > 0 for e in sp.entries
            )
        sp = slice_spectrum(spec, sphere(2), 2.5, 20.0)
        assert all(abs(e.eigenvalue) > 1e-9 for e in sp.entries if e.beta > 0)

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            slice_spectrum(builtin("pitchfork-scalar"), sphere(2), 0.0, -1.0)


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
    def test_zero_space_circle(self):
        V = zero_eigenspace(builtin("pitchfork-scalar"), sphere(2), 1.0, 10.0)
        assert len(V.blocks) == 1
        b = V.blocks[0]
        assert (b.beta, b.copies, b.dimension, b.nontrivial) == (1.0, 1, 2, True)
        assert V.total_dimension == 2

    def test_zero_space_ring_sphere(self):
        V = zero_eigenspace(builtin("so2-ring"), sphere(3), 2.0, 13.0)
        assert len(V.blocks) == 1
        assert (V.blocks[0].beta, V.blocks[0].copies, V.blocks[0].dimension) == (2.0, 1, 3)

    def test_between_levels_empty(self):
        V = zero_eigenspace(builtin("pitchfork-scalar"), sphere(2), 2.5, 10.0)
        assert V.blocks == ()
        assert V.total_dimension == 0

    def test_negative_space(self):
        W = negative_eigenspace(builtin("pitchfork-scalar"), sphere(2), 1.5, 10.0)
        assert [(b.beta, b.dimension) for b in W.blocks] == [(1.0, 2)]
        W = negative_eigenspace(builtin("pitchfork-scalar"), sphere(2), 0.5, 10.0)
        assert W.blocks == ()
        W = negative_eigenspace(builtin("so2-ring"), sphere(3), 7.0, 13.0)
        assert [(b.beta, b.dimension) for b in W.blocks] == [(2.0, 3), (6.0, 5)]

    def test_partition_of_truncated_spectrum(self):
        spec = builtin("so2-ring")
        dom = sphere(3)
        cutoff = 21.0
        for lam0 in lambda_set(spec, dom, cutoff):
            sp = slice_spectrum(spec, dom, lam0, cutoff)
            nonconstant = [e for e in sp.entries if e.beta > 0]
            neg = sum(e.dimension for e in nonconstant if e.eigenvalue < -1e-9)
            zero = sum(e.dimension for e in nonconstant if abs(e.eigenvalue) <= 1e-9)
            pos = sum(e.dimension for e in nonconstant if e.eigenvalue > 1e-9)
            V = zero_eigenspace(spec, dom, lam0, cutoff)
            W = negative_eigenspace(spec, dom, lam0, cutoff)
            assert V.total_dimension == zero
            assert W.total_dimension == neg
            assert neg + zero + pos == sum(e.dimension for e in nonconstant)

    def test_window_union(self):
        spec = builtin("pitchfork-scalar")
        V = window_eigenspace(spec, sphere(2), 0.5, 4.5, 10.0)
        assert [b.beta for b in V.blocks] == [1.0, 4.0]


class TestDegreeJump:
    def test_pitchfork_level_one(self):
        cand = degree_jump(builtin("pitchfork-scalar"), sphere(2), 1.0, 0.5, beta_cutoff=10.0)
        # endpoint-sign oracle on the half-width-0.5 slice box
        for lam, got in ((0.5, cand.b_minus), (1.5, cand.b_plus)):
            f = lambda t: lam * t - t**3
            assert got == int(np.sign(f(0.5)) - np.sign(f(-0.5))) // 2
        assert cand.V.is_nontrivial
        assert cand.jump
        assert isinstance(cand.guarantee, SphereGlobal)
        assert cand.witnesses == ((1.0, 1.0),)

    def test_degenerate_rejects_everything(self):
        spec = builtin("so2-ring-degenerate")
        for lam0 in (0.5, 1.0, 3.0):
            with pytest.raises(ValueError):
                degree_jump(spec, sphere(2), lam0, 0.1)

    def test_window_validation(self):
        spec = builtin("pitchfork-scalar")
        with pytest.raises(ValueError):
            degree_jump(spec, sphere(2), 1.0, 1.5, beta_cutoff=10.0)  # 0 in window
        with pytest.raises(ValueError):
            degree_jump(spec, sphere(2), 4.0, 3.5, beta_cutoff=10.0)  # 1.0 inside
        with pytest.raises(ValueError):
            degree_jump(spec, sphere(2), 1.0, 0.0)
        with pytest.raises(ValueError):
            degree_jump(spec, sphere(2), 0.0, 0.1)

    def test_ball_uses_window_resonances(self):
        cand = degree_jump(builtin("pitchfork-scalar"), ball(2), 3.3899577166710888, 1.5)
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
            assert (c.b_plus != 0 or c.b_minus != 0) and c.V.is_nontrivial
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
