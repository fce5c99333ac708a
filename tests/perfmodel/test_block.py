"""Differential tests: whole-window evaluation against the scalar model.

``GemmPerfModel.times`` evaluates every config of a sweep on one shape,
and ``measured_times_block`` every config on a window of shapes, in one
NumPy pass; ``time_seconds`` (via ``breakdown``) and
``measured_times_seconds`` are the per-cell oracle.  Every comparison
here is exact equality — 0 ulp — not closeness.
"""

import random

import numpy as np
import pytest

from repro.fleet.profile import fleet_profiles
from repro.kernels.params import KernelConfig, config_space
from repro.perfmodel.model import GemmPerfModel
from repro.perfmodel.noise import noise_factors, noise_grid
from repro.perfmodel.params import PerfModelParams
from repro.sycl.device import Device
from repro.workloads.extract import extract_dataset_shapes
from repro.workloads.gemm import GemmShape
from repro.workloads.placement import PlacedGemmShape

CONFIGS = tuple(config_space())


def _random_shapes(n, seed=0):
    rng = random.Random(seed)
    return tuple(
        GemmShape(
            m=rng.randint(1, 3000),
            k=rng.randint(1, 3000),
            n=rng.randint(1, 3000),
            batch=rng.choice((1, 1, 2, 5)),
        )
        for _ in range(n)
    )


def _host(shapes):
    return tuple(
        PlacedGemmShape(s.m, s.k, s.n, s.batch, placement="host") for s in shapes
    )


NETWORK = tuple(extract_dataset_shapes()[0][::9])
RANDOM = _random_shapes(12)
BATCHED = (GemmShape(36, 64, 64, batch=16), GemmShape(196, 128, 128, batch=4))
GEMV = (GemmShape(1, 4096, 1000), GemmShape(2048, 512, 1), GemmShape(1, 7, 1))
K_BELOW_ACC = (GemmShape(256, 1, 256), GemmShape(300, 3, 129), GemmShape(64, 7, 512))
#: n * 4 % 1024 == 0: tall-thin work-groups camp on one DRAM channel.
CHANNEL_CAMPING = (GemmShape(512, 512, 256), GemmShape(3136, 64, 1024))

def _same_residues(shape):
    """A different shape on ``shape``'s fine-quirk residue triple."""
    return GemmShape(shape.m + 8, shape.k + 16, shape.n + 32, batch=shape.batch)


#: One window over every branch of the grid: device and host placement
#: (also of one shape), channel camping on either placement, GEMV, k
#: below acc, batching, a repeated residue triple and a repeated shape.
MIXED = (
    NETWORK[0],
    *_host((NETWORK[0], GEMV[0], CHANNEL_CAMPING[0])),
    CHANNEL_CAMPING[1],
    GEMV[1],
    K_BELOW_ACC[1],
    BATCHED[0],
    _same_residues(NETWORK[0]),
    RANDOM[1],
    RANDOM[1],
)


GROUPS = {
    "network": NETWORK,
    "random": RANDOM,
    "batched": BATCHED,
    "gemv": GEMV,
    "k_below_acc": K_BELOW_ACC,
    "channel_camping": CHANNEL_CAMPING,
    "host": _host(NETWORK[::2] + RANDOM[::3] + BATCHED + GEMV + K_BELOW_ACC),
}


def scalar_times(model, shape, configs):
    return np.array([model.time_seconds(shape, c) for c in configs])


def assert_row_matches(model, shape, configs):
    np.testing.assert_array_equal(
        model.times(shape, configs), scalar_times(model, shape, configs)
    )


def assert_block_matches(model, shapes, configs, *, stride=1, iterations=5, start=2):
    block = model.measured_times_block(
        shapes, configs, iterations=iterations, start_iteration=start
    )
    assert block.shape == (len(shapes), len(configs), iterations)
    for s, shape in enumerate(shapes):
        for i in range(0, len(configs), stride):
            np.testing.assert_array_equal(
                block[s, i],
                model.measured_times_seconds(
                    shape, configs[i], iterations=iterations, start_iteration=start
                ),
            )


@pytest.fixture(scope="module")
def model():
    return GemmPerfModel(Device.r9_nano())


class TestDeterministicRow:
    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_times_match_time_seconds(self, model, group):
        for shape in GROUPS[group]:
            assert_row_matches(model, shape, CONFIGS)

    def test_host_rows_carry_transfers(self, model):
        # Guards the oracle comparison itself: a transfer-blind row would
        # equal the device-placed row, not the host one.
        shape = GEMV[0]
        host = _host((shape,))[0]
        assert np.all(model.times(host, CONFIGS) > model.times(shape, CONFIGS))

    def test_quirk_disabled(self):
        m = GemmPerfModel(Device.r9_nano(), params=PerfModelParams(alignment_penalty=0.0))
        for shape in RANDOM[:4] + _host(GEMV):
            assert_row_matches(m, shape, CONFIGS)

    def test_non_canonical_subset(self, model, small_configs):
        subset = tuple(reversed(small_configs))
        for shape in NETWORK[:6] + _host(RANDOM[:3]):
            assert_row_matches(model, shape, subset)
            np.testing.assert_array_equal(
                model.times(shape, subset)[::-1], model.times(shape, small_configs)
            )

    @pytest.mark.parametrize(
        "profile", fleet_profiles(), ids=lambda p: p.device_id
    )
    def test_fleet_profiles(self, profile):
        m = profile.perf_model(seed=7)
        configs = tuple(c for c in CONFIGS if m.supported(c))
        for shape in NETWORK[::3] + RANDOM[:3] + _host(GEMV + BATCHED):
            assert_row_matches(m, shape, configs)
            assert_block_matches(m, (shape,), configs, stride=17)

    def test_unsupported_config_rejected(self):
        m = GemmPerfModel(Device.embedded())
        heavy = KernelConfig(acc=8, rows=8, cols=8, wg_rows=16, wg_cols=16)
        with pytest.raises(ValueError):
            m.times(GemmShape(64, 64, 64), (heavy,))

    def test_table_is_lazy(self):
        m = GemmPerfModel(Device.r9_nano())
        m.time_seconds(GemmShape(64, 64, 64), CONFIGS[0])
        assert m._table is None
        m.times(GemmShape(64, 64, 64), CONFIGS)
        assert m._table is not None


class TestNoisyBlock:
    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_rows_match_measured_times_seconds(self, model, group):
        shapes = GROUPS[group]
        # Every row for the first shape, a stride through the rest.
        assert_block_matches(model, shapes[:1], CONFIGS)
        for shape in shapes[1:]:
            assert_block_matches(model, (shape,), CONFIGS, stride=23)

    def test_zero_sigma(self):
        m = GemmPerfModel(Device.r9_nano(), params=PerfModelParams(noise_sigma=0.0))
        shape = NETWORK[3]
        block = m.measured_times_block((shape,), CONFIGS, iterations=4)[0]
        np.testing.assert_array_equal(
            block, np.repeat(m.times(shape, CONFIGS)[:, None], 4, axis=1)
        )
        assert_block_matches(m, (shape,), CONFIGS, stride=11)

    def test_non_canonical_subset(self, model, small_configs):
        subset = tuple(reversed(small_configs))
        for shape in NETWORK[:3] + _host(GEMV[:1]):
            assert_block_matches(model, (shape,), subset)

    def test_iteration_independent_of_request(self, model):
        shape = RANDOM[0]
        full = model.measured_times_block((shape,), CONFIGS, iterations=8)[0]
        short = model.measured_times_block((shape,), CONFIGS, iterations=3)[0]
        tail = model.measured_times_block(
            (shape,), CONFIGS, iterations=5, start_iteration=3
        )[0]
        np.testing.assert_array_equal(full[:, :3], short)
        np.testing.assert_array_equal(full[:, 3:], tail)

    def test_rejects_bad_iterations(self, model):
        with pytest.raises(ValueError):
            model.measured_times_block(RANDOM[:1], CONFIGS, iterations=0)
        with pytest.raises(ValueError):
            model.measured_times_block(
                RANDOM[:1], CONFIGS, iterations=2, start_iteration=-1
            )


class TestWindow:
    """One ``measured_times_block`` call over a window of mixed shapes."""

    def test_window_covers_every_branch(self):
        # Guards the fixture: the differential tests below are only as
        # strong as the mix of shapes they see.
        host = [isinstance(s, PlacedGemmShape) and s.host_resident for s in MIXED]
        assert any(host) and not all(host)
        assert any((s.n * 4) % 1024 == 0 for s in MIXED)
        residues = [(s.k % 16, s.n % 32, s.m % 8) for s in MIXED]
        assert len(set(residues)) < len(set(MIXED)) < len(MIXED)

    def test_every_cell_matches_time_seconds(self):
        # Zero sigma: the block is the deterministic grid itself.
        m = GemmPerfModel(Device.r9_nano(), params=PerfModelParams(noise_sigma=0.0))
        grid = m.measured_times_block(MIXED, CONFIGS, iterations=1)[:, :, 0]
        np.testing.assert_array_equal(
            grid, np.array([scalar_times(m, s, CONFIGS) for s in MIXED])
        )

    def test_noisy_cells_match_measured_times_seconds(self, model):
        assert_block_matches(model, MIXED, CONFIGS, stride=13)

    def test_window_equals_one_shape_windows(self, model):
        window = model.measured_times_block(MIXED, CONFIGS, iterations=3)
        for s, shape in enumerate(MIXED):
            np.testing.assert_array_equal(
                window[s], model.measured_times_block((shape,), CONFIGS, iterations=3)[0]
            )

    def test_quirk_disabled(self):
        params = PerfModelParams(alignment_penalty=0.0, noise_sigma=0.0)
        m = GemmPerfModel(Device.r9_nano(), params=params)
        grid = m.measured_times_block(MIXED, CONFIGS, iterations=1)[:, :, 0]
        np.testing.assert_array_equal(
            grid, np.array([scalar_times(m, s, CONFIGS) for s in MIXED])
        )
        noisy = GemmPerfModel(Device.r9_nano(), params=PerfModelParams(alignment_penalty=0.0))
        assert_block_matches(noisy, MIXED, CONFIGS, stride=29)

    @pytest.mark.parametrize(
        "profile", fleet_profiles(), ids=lambda p: p.device_id
    )
    def test_fleet_profiles(self, profile):
        m = profile.perf_model(seed=7)
        configs = tuple(c for c in CONFIGS if m.supported(c))
        assert_block_matches(m, MIXED, configs, stride=31)


class TestNoiseBlock:
    def test_rows_are_noise_factors(self):
        shape = GemmShape(128, 64, 32)
        block = noise_grid(5, (shape,), range(len(CONFIGS)), 6, sigma=0.05)[0]
        for i in range(0, len(CONFIGS), 31):
            np.testing.assert_array_equal(
                block[i], noise_factors(5, shape, CONFIGS[i], 6, sigma=0.05)
            )

    def test_placement_gets_its_own_draws(self):
        shape = GemmShape(128, 64, 32)
        host = _host((shape,))[0]
        a = noise_grid(5, (shape,), [3], 4, sigma=0.05)[0]
        b = noise_grid(5, (host,), [3], 4, sigma=0.05)[0]
        assert not np.allclose(a, b)

    def test_standard_normal_over_a_row(self):
        # 32k draws: the mean's standard error is 0.0056, the std's
        # 0.004 and a 640-pair correlation's 0.04; bounds sit at ~5 of each.
        z = np.log(noise_grid(9, (GemmShape(64, 64, 64),), range(640), 50, sigma=1.0)[0])
        assert abs(z.mean()) < 0.03
        assert z.std() == pytest.approx(1.0, abs=0.02)
        assert abs(float(np.corrcoef(z[:, 0], z[:, 1])[0, 1])) < 0.2
