"""Kernel layer tests: lockstep bit-identity, grid exactness, the reference.

The load-bearing guarantees:

* :class:`BufferedUniformStream` is *lockstep* with per-draw scalar
  generation — same bits, across refill boundaries, forks, and mixed
  ``random``/``uniform`` call sequences (the buffer refill determinism
  rule, DESIGN.md "Kernels");
* numpy's C distribution functions on a :class:`BitGen` are lockstep with
  the Generator methods over interleaved normal / exponential / uniform
  draws, across radio config swaps and after the caller drops the
  Generator;
* the chunk grids are exact — the saturated-region shortcuts, taken from
  the dB or the ratio bounds, return the very float the fused closure
  computes (the grid exactness rule);
* the kernels move no bit: a trial built inside ``reference_kernels()``
  (per-draw RNG, region-free chunk kernels) equals the default build, and
  process-pool workers agree with serial.
"""

import gc
import math

import numpy as np
import pytest

from repro.experiments.executor import ProcessPoolBackend, SerialBackend, run_trial
from repro.experiments.spec import MacSpec, TrialSpec
from repro.kernels.backend import (
    bind_stream,
    chunk_grids_enabled,
    reference_kernels,
    wrap_uniform_stream,
)
from repro.kernels.cdraws import BitGen
from repro.kernels.chunkgrid import (
    BITS_SAFE,
    REF_BITS,
    nist_chunk_kernel,
    null_chunk_kernel,
)
from repro.kernels.rngbuf import MAX_BLOCK, MIN_BLOCK, BufferedUniformStream
from repro.net.testbed import Testbed
from repro.phy.fading import GaussianBlockFading, LosNlosMixtureFading, NoFading
from repro.phy.modulation import RATES, NistErrorModel
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.util.rng import RngFactory


# ----------------------------------------------------------------------
# Buffered RNG lockstep
# ----------------------------------------------------------------------
class TestBufferedLockstep:
    def test_random_lockstep_one_million_draws(self):
        """>= 1M draws, buffered vs scalar, every value bit-identical."""
        buffered = BufferedUniformStream(np.random.default_rng(12345))
        scalar = np.random.default_rng(12345)
        n = 1_000_000
        reference = scalar.random(n)  # array draw == n scalar draws
        draw = buffered.random
        for i in range(n):
            assert draw() == reference[i]

    def test_uniform_lockstep_across_refills(self):
        buffered = BufferedUniformStream(np.random.default_rng(7))
        scalar = np.random.default_rng(7)
        bounds = [(0.0, 1.0), (-3.5, 2.25), (10.0, 10.0), (1e-3, 5.0)]
        for i in range(5 * MAX_BLOCK):
            lo, hi = bounds[i % len(bounds)]
            assert buffered.uniform(lo, hi) == scalar.uniform(lo, hi)

    def test_mixed_random_uniform_sequence(self):
        """Interleaving the two supported draw kinds stays lockstep."""
        buffered = BufferedUniformStream(np.random.default_rng(99))
        scalar = np.random.default_rng(99)
        for i in range(3 * MAX_BLOCK):
            if i % 3 == 0:
                assert buffered.uniform(-1.0, float(i)) == scalar.uniform(
                    -1.0, float(i)
                )
            else:
                assert buffered.random() == scalar.random()

    def test_block_growth_is_geometric(self):
        buffered = BufferedUniformStream(np.random.default_rng(0))
        assert buffered.pending() == 0
        buffered.random()
        assert buffered.pending() == MIN_BLOCK - 1
        for _ in range(MIN_BLOCK):
            buffered.random()
        assert buffered.pending() == 2 * MIN_BLOCK - 1

    def test_fork_lockstep(self):
        """Factory forks wrapped after the fork stay lockstep too."""
        buffered = BufferedUniformStream(
            RngFactory(5).fork("trial", 3).stream("mac", 1)
        )
        scalar = RngFactory(5).fork("trial", 3).stream("mac", 1)
        for _ in range(2 * MAX_BLOCK):
            assert buffered.random() == scalar.random()

    def test_detach_resyncs_mid_block(self):
        buffered = BufferedUniformStream(np.random.default_rng(21))
        scalar = np.random.default_rng(21)
        for _ in range(MIN_BLOCK + 17):  # mid-way through the second block
            assert buffered.random() == scalar.random()
        gen = buffered.detach()
        for _ in range(1000):
            assert gen.random() == scalar.random()

    def test_detach_before_first_draw(self):
        gen_in = np.random.default_rng(3)
        gen_out = BufferedUniformStream(gen_in).detach()
        assert gen_out is gen_in
        assert gen_out.random() == np.random.default_rng(3).random()

    def test_other_distributions_are_absent(self):
        """The desync guard: only random/uniform exist on the facade."""
        buffered = BufferedUniformStream(np.random.default_rng(1))
        with pytest.raises(AttributeError):
            buffered.normal(0.0, 1.0)
        with pytest.raises(AttributeError):
            buffered.integers(0, 10)

    def test_double_wrap_rejected(self):
        buffered = BufferedUniformStream(np.random.default_rng(1))
        with pytest.raises(TypeError):
            BufferedUniformStream(buffered)

    def test_bad_block_rejected(self):
        with pytest.raises(ValueError):
            BufferedUniformStream(np.random.default_rng(1), block=0)


# ----------------------------------------------------------------------
# C draws on a mixed-kind stream
# ----------------------------------------------------------------------
MIXED = GaussianBlockFading(2.0)
KINDS = ("standard_normal", "standard_exponential", "random")


class TestCDrawLockstep:
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_interleaved_kinds_match_generator_methods(self, seed):
        """>= 1M draws over the seeds, kinds interleaved at random: the C
        functions on a BitGen return the methods' bits, in lockstep."""
        _stream, bitgen = bind_stream(np.random.default_rng(seed), MIXED)
        assert isinstance(bitgen, BitGen)
        twin = np.random.default_rng(seed)
        order = np.random.default_rng(seed + 1).integers(0, 3, 350_000)
        c_draws = [getattr(BitGen, kind) for kind in KINDS]
        methods = [getattr(twin, kind) for kind in KINDS]
        for k in order.tolist():
            assert c_draws[k](bitgen) == methods[k]()
        assert bitgen.generator.random() == twin.random()

    def test_config_swaps_keep_the_coin_sequence(self):
        """RNG-free -> LOS/NLOS -> RNG-free swaps rebind the coin (buffer,
        C function, buffer) without moving the stream."""
        twin = np.random.default_rng(42)
        static = RadioConfig(fading=NoFading())
        faded = RadioConfig(fading=LosNlosMixtureFading(seed=3))
        radio = Radio(Simulator(), 0, static, np.random.default_rng(42))
        for config, draws in ((faded, 100), (static, 5), (faded, 4000), (static, 1)):
            for _ in range(draws):
                assert radio._coin(radio._draw_arg) == twin.random()
            radio.config = config
        assert isinstance(radio._draw_arg, BufferedUniformStream)
        assert radio._coin(radio._draw_arg) == twin.random()

    def test_bound_draw_outlives_the_callers_generator(self):
        rng = np.random.default_rng(5)
        _stream, bitgen = bind_stream(rng, MIXED)
        sampler = LosNlosMixtureFading(seed=1, p_los=0.0).pair_sampler(0, 1, bitgen)
        del rng, _stream, bitgen
        gc.collect()
        twin = np.random.default_rng(5)
        for _ in range(1000):
            assert sampler() == LosNlosMixtureFading(seed=1, p_los=0.0).draw_db(
                twin, 0, 1
            )


# ----------------------------------------------------------------------
# Chunk grids
# ----------------------------------------------------------------------
def _db_score(kernel, sinr_db, bits):
    """Score a chunk the way ``FadeQuadrature`` does: the dB bounds decide
    the saturated regions, the fused closure everything else."""
    if sinr_db >= kernel.sinr_one_db and 0.0 <= bits <= kernel.bits_safe:
        return 1.0
    if sinr_db <= kernel.sinr_zero_db and bits > 0.0:
        return 0.0
    return kernel.chunk(sinr_db, bits)


def _ratio_score(kernel, ratio, bits):
    """Score a chunk the way ``Reception.success_probability`` does: the
    ratio bounds decide the saturated regions without a ``log10``."""
    if ratio >= kernel.ratio_one and 0.0 <= bits <= kernel.bits_safe:
        return 1.0
    if ratio <= kernel.ratio_zero and bits > 0.0:
        return 0.0
    return kernel.chunk(10.0 * math.log10(ratio), bits)


class TestChunkGrids:
    @pytest.fixture(scope="class")
    def model(self):
        return NistErrorModel()

    @pytest.mark.parametrize("mbps", sorted(RATES))
    def test_grid_points_match_exact_closure(self, model, mbps):
        """Every registered rate: 257 points spanning the waterfall and a
        margin past both bounds, scored through either domain's regions,
        equal the exact erfc closure."""
        rate = RATES[mbps]
        kernel = nist_chunk_kernel(
            model.steepness_per_db, rate.sinr50_1400_db, 2.7140,
            model.chunk_fn(rate),
        )
        exact = model.chunk_fn(rate)
        lo, hi = kernel.sinr_zero_db - 2.0, kernel.sinr_one_db + 2.0
        for i in range(257):
            s = lo + (hi - lo) * (i / 256)
            assert _db_score(kernel, s, REF_BITS) == exact(s, REF_BITS)
            ratio = 10.0 ** (s / 10.0)
            assert _ratio_score(kernel, ratio, REF_BITS) == exact(
                10.0 * math.log10(ratio), REF_BITS
            )

    @pytest.mark.parametrize("mbps", sorted(RATES))
    def test_region_boundaries_exact(self, model, mbps):
        """nextafter probes around both saturated-region edges."""
        rate = RATES[mbps]
        kernel = model.chunk_kernel(rate)
        exact = model.chunk_fn(rate)
        for s in (
            kernel.sinr_one_db,
            math.nextafter(kernel.sinr_one_db, math.inf),
            kernel.sinr_one_db + 5.0,
        ):
            assert _db_score(kernel, s, REF_BITS) == 1.0 == exact(s, REF_BITS)
        for s in (
            kernel.sinr_zero_db,
            math.nextafter(kernel.sinr_zero_db, -math.inf),
            kernel.sinr_zero_db - 5.0,
        ):
            assert _db_score(kernel, s, REF_BITS) == 0.0 == exact(s, REF_BITS)
        # Ratio-domain thresholds land strictly inside their regions.
        assert exact(10.0 * math.log10(kernel.ratio_one), 1.0) == 1.0
        assert exact(10.0 * math.log10(kernel.ratio_zero), 1.0) == 0.0
        for ratio in (kernel.ratio_one, math.nextafter(kernel.ratio_one, math.inf)):
            assert _ratio_score(kernel, ratio, REF_BITS) == 1.0
        for ratio in (kernel.ratio_zero, math.nextafter(kernel.ratio_zero, 0.0)):
            assert _ratio_score(kernel, ratio, REF_BITS) == 0.0

    @pytest.mark.parametrize("mbps", sorted(RATES))
    def test_off_grid_matches_fused_closure(self, model, mbps):
        """Random SINRs and bit counts: region-scored == exact, bit-for-bit."""
        rate = RATES[mbps]
        kernel = model.chunk_kernel(rate)
        exact = model.chunk_fn(rate)
        rng = np.random.default_rng(4242)
        span = kernel.sinr_one_db - kernel.sinr_zero_db
        for _ in range(200):
            s = kernel.sinr_zero_db + span * float(rng.random()) * 1.2 - 0.1 * span
            bits = float(rng.uniform(1.0, 12000.0))
            assert _db_score(kernel, s, bits) == exact(s, bits)

    def test_bits_above_safe_falls_back_to_exact(self, model):
        rate = RATES[6]
        kernel = model.chunk_kernel(rate)
        s = kernel.sinr_one_db + 10.0
        big = BITS_SAFE * 10.0
        assert _db_score(kernel, s, big) == model.chunk_fn(rate)(s, big)
        ratio = 10.0 ** (s / 10.0)
        assert _ratio_score(kernel, ratio, big) == kernel.chunk(
            10.0 * math.log10(ratio), big
        )

    def test_zero_bits_chunk_is_certain(self, model):
        kernel = model.chunk_kernel(RATES[6])
        assert _db_score(kernel, kernel.sinr_zero_db - 1.0, 0.0) == 1.0
        assert _ratio_score(kernel, kernel.ratio_zero / 2.0, 0.0) == 1.0

    def test_null_kernel_regions_never_fire(self):
        kernel = null_chunk_kernel(lambda s, b: 0.25)
        assert kernel.ratio_zero == -math.inf
        assert kernel.ratio_one == math.inf
        assert kernel.bits_safe == 0.0
        assert _db_score(kernel, 1e9, 1.0) == 0.25
        assert _ratio_score(kernel, 1e9, 1.0) == 0.25

    def test_scalar_backend_builds_null_kernel(self, model):
        with reference_kernels():
            kernel = model.chunk_kernel(RATES[6])
        assert kernel.ratio_one == math.inf
        kernel = model.chunk_kernel(RATES[6])
        assert math.isfinite(kernel.ratio_one)


# ----------------------------------------------------------------------
# The reference switch
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_default_backend(self):
        """Both kernels are on by default, and again after a reference block
        — including one left by an exception."""
        assert chunk_grids_enabled()
        with pytest.raises(RuntimeError):
            with reference_kernels():
                assert not chunk_grids_enabled()
                raise RuntimeError("boom")
        assert chunk_grids_enabled()

    def test_wrap_uniform_stream_respects_backend(self):
        gen = np.random.default_rng(1)
        with reference_kernels():
            assert wrap_uniform_stream(gen) is gen
        wrapped = wrap_uniform_stream(gen)
        assert isinstance(wrapped, BufferedUniformStream)
        # Idempotent: an already-buffered stream passes through.
        assert wrap_uniform_stream(wrapped) is wrapped

    def test_reference_binds_the_generators_own_methods(self):
        gen = np.random.default_rng(1)
        with reference_kernels():
            stream, arg = bind_stream(gen, MIXED)
        assert stream is arg is gen
        for kind in KINDS:
            assert getattr(type(arg), kind) is getattr(np.random.Generator, kind)
        stream, arg = bind_stream(gen, MIXED)
        assert stream is gen and isinstance(arg, BitGen)
        assert arg.generator is gen
        stream, arg = bind_stream(gen, None)
        assert stream is arg and isinstance(arg, BufferedUniformStream)


# ----------------------------------------------------------------------
# Whole-trial bit-identity with the scalar reference
# ----------------------------------------------------------------------
def _cmap_trial() -> TrialSpec:
    """A short saturated CMAP trial on the fading-heavy default testbed.

    CMAP macs buffer their streams, the LOS/NLOS mixture keeps the radio
    streams scalar, and the chunk grids score every reception.
    """
    return TrialSpec(
        trial_id="kernels/cmap_parity",
        nodes=(0, 1, 2, 3),
        flows=((0, 1), (2, 3)),
        mac=MacSpec.of("cmap"),
        run_seed=11,
        duration=2.0,
        warmup=0.5,
    )


class TestBackendBitIdentity:
    @pytest.fixture(scope="class")
    def testbed(self):
        return Testbed(seed=1)

    @pytest.fixture(scope="class")
    def scalar_result(self):
        # Its own testbed: chunk kernels are cached on the testbed's error
        # model, so a shared one would hand the reference's region-free
        # kernels to the kernelised runs below.
        with reference_kernels():
            return run_trial(Testbed(seed=1), _cmap_trial())

    def test_python_backend_matches_scalar(self, testbed, scalar_result):
        assert run_trial(testbed, _cmap_trial()) == scalar_result

    def test_pool_workers_match_serial(self, testbed, scalar_result):
        """Process-pool workers (fresh interpreters) reproduce the serial
        trial exactly."""
        trial = _cmap_trial()
        serial = SerialBackend().run(testbed, [trial])
        pooled = ProcessPoolBackend(jobs=2).run(testbed, [trial])
        assert serial == pooled
        assert serial == [scalar_result]
