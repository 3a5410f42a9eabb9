"""Unit tests for the small-scale fading models."""

import itertools

import numpy as np
import pytest

from repro.kernels.backend import bind_stream
from repro.phy.fading import (
    FadingModel,
    GaussianBlockFading,
    LosNlosMixtureFading,
    NoFading,
)
from repro.phy.modulation import NistErrorModel, RATE_6M


EM = NistErrorModel()


class TestNoFading:
    def test_draw_is_zero(self):
        rng = np.random.default_rng(0)
        assert NoFading().draw_db(rng, 1, 2) == 0.0

    def test_mean_prr_matches_static(self):
        p = NoFading().mean_prr(-80, -93, RATE_6M, 1428, EM, 1, 2)
        assert p == pytest.approx(EM.frame_success(13.0, RATE_6M, 1428), abs=1e-6)


class TestGaussianBlockFading:
    def test_zero_sigma_is_static(self):
        f = GaussianBlockFading(0.0)
        rng = np.random.default_rng(0)
        assert f.draw_db(rng, 1, 2) == 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianBlockFading(-1.0)

    def test_draw_statistics(self):
        f = GaussianBlockFading(3.0)
        rng = np.random.default_rng(0)
        draws = [f.draw_db(rng, 1, 2) for _ in range(4000)]
        assert abs(np.mean(draws)) < 0.2
        assert np.std(draws) == pytest.approx(3.0, abs=0.2)

    def test_mean_prr_matches_monte_carlo(self):
        f = GaussianBlockFading(3.0)
        analytic = f.mean_prr(-85, -93, RATE_6M, 1428, EM, 1, 2)
        rng = np.random.default_rng(1)
        samples = [
            EM.frame_success(8.0 + f.draw_db(rng, 1, 2), RATE_6M, 1428)
            for _ in range(6000)
        ]
        assert analytic == pytest.approx(np.mean(samples), abs=0.02)


class TestLosNlosMixture:
    def test_class_is_deterministic_and_symmetric(self):
        f1 = LosNlosMixtureFading(seed=5)
        f2 = LosNlosMixtureFading(seed=5)
        for a, b in [(0, 1), (3, 9), (12, 40)]:
            assert f1.is_los(a, b) == f2.is_los(a, b)
            assert f1.is_los(a, b) == f1.is_los(b, a)

    def test_p_los_zero_and_one(self):
        all_nlos = LosNlosMixtureFading(seed=5, p_los=0.0)
        all_los = LosNlosMixtureFading(seed=5, p_los=1.0)
        assert not any(all_nlos.is_los(a, a + 1) for a in range(20))
        assert all(all_los.is_los(a, a + 1) for a in range(20))

    def test_invalid_p_los_rejected(self):
        with pytest.raises(ValueError):
            LosNlosMixtureFading(seed=1, p_los=1.5)

    def test_los_fades_are_small(self):
        f = LosNlosMixtureFading(seed=5, p_los=1.0, los_sigma_db=0.5)
        rng = np.random.default_rng(0)
        draws = [f.draw_db(rng, 0, 1) for _ in range(1000)]
        assert max(abs(d) for d in draws) < 3.0

    def test_nlos_fades_have_heavy_lower_tail(self):
        f = LosNlosMixtureFading(seed=5, p_los=0.0)
        rng = np.random.default_rng(0)
        draws = np.array([f.draw_db(rng, 0, 1) for _ in range(4000)])
        assert (draws < -10).mean() == pytest.approx(0.1, abs=0.03)  # P(g<0.1)
        assert draws.max() < 12.0  # exponential has a light upper tail

    def test_fade_floor(self):
        f = LosNlosMixtureFading(seed=5, p_los=0.0)
        rng = np.random.default_rng(0)
        assert all(f.draw_db(rng, 0, 1) >= -50.0 for _ in range(2000))

    def test_nlos_mean_prr_matches_monte_carlo(self):
        f = LosNlosMixtureFading(seed=5, p_los=0.0)
        analytic = f.mean_prr(-83, -93, RATE_6M, 1428, EM, 0, 1)
        rng = np.random.default_rng(1)
        samples = [
            EM.frame_success(10.0 + f.draw_db(rng, 0, 1), RATE_6M, 1428)
            for _ in range(8000)
        ]
        assert analytic == pytest.approx(np.mean(samples), abs=0.02)

    def test_nlos_never_quite_perfect(self):
        f = LosNlosMixtureFading(seed=5, p_los=0.0)
        p = f.mean_prr(-60, -93, RATE_6M, 1428, EM, 0, 1)
        assert 0.97 < p <= 1.0

    def test_los_strong_link_is_perfect(self):
        f = LosNlosMixtureFading(seed=5, p_los=1.0)
        p = f.mean_prr(-60, -93, RATE_6M, 1428, EM, 0, 1)
        assert p == pytest.approx(1.0, abs=1e-6)

    def test_dead_link_under_both_classes(self):
        for p_los in (0.0, 1.0):
            f = LosNlosMixtureFading(seed=5, p_los=p_los)
            assert f.mean_prr(-100, -93, RATE_6M, 1428, EM, 0, 1) < 0.01


class TestPairSamplers:
    """pair_sampler must consume the generator exactly like draw_db."""

    def test_bit_identical_to_draw_db(self):
        """On the Generator's methods and, as a radio binds it, on numpy's
        C functions through the stream's BitGen."""
        models = [
            NoFading(),
            GaussianBlockFading(0.0),
            GaussianBlockFading(3.0),
            LosNlosMixtureFading(seed=5, p_los=0.5),
            LosNlosMixtureFading(seed=5, p_los=0.5, los_sigma_db=0.0),
        ]
        for model, bound in itertools.product(models, (False, True)):
            for a, b in [(0, 1), (2, 7), (3, 3)]:
                r_ref = np.random.default_rng(42)
                r_smp = np.random.default_rng(42)
                arg = r_smp
                if bound:
                    arg = bind_stream(r_smp, GaussianBlockFading(1.0))[1]
                sampler = model.pair_sampler(a, b, arg)
                for _ in range(400):
                    assert model.draw_db(r_ref, a, b) == sampler(), (model, a, b)
                # Streams must be in lockstep afterwards too.
                assert r_ref.random() == r_smp.random()

    def test_base_class_fallback_wraps_draw_db(self):
        class Halved(FadingModel):
            def draw_db(self, rng, a, b):
                return float(rng.normal(0.0, 1.0)) / 2.0

        r_ref = np.random.default_rng(9)
        r_smp = np.random.default_rng(9)
        model = Halved()
        sampler = model.pair_sampler(1, 2, r_smp)
        for _ in range(100):
            assert model.draw_db(r_ref, 1, 2) == sampler()


class TestPublicTyping:
    def test_fading_model_exported_from_phy(self):
        import repro.phy as phy

        assert phy.FadingModel is FadingModel
        for name in ("NoFading", "GaussianBlockFading", "LosNlosMixtureFading"):
            assert name in phy.__all__
            assert issubclass(getattr(phy, name), phy.FadingModel)

    def test_radio_config_fading_accepts_models(self):
        from repro.phy.radio import RadioConfig

        cfg = RadioConfig(fading=NoFading())
        assert isinstance(cfg.fading, FadingModel)
