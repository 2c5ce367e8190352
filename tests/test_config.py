from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdmqsim.config import (
    ConfigError,
    RandomSource,
    SignalAssignment,
    SimConfig,
)
from sdmqsim.pipeline import Pulse, _timebin_components


class TestValidateConfig:
    def test_defaults_valid_with_8000_bins(self):
        v = SimConfig()
        assert v.n_bins == 8000
        assert v.d == 64
        for slot, center in ((0, 770), (20, 20 * 1540 + 770)):
            (_, pulse), _ = _timebin_components(v, 1.0, 0.0, 0, slot)
            assert pulse == Pulse(center)

    def test_pulse_train_must_fit_window(self):
        # 64 * 1540 = 98560 > 90000
        with pytest.raises(ConfigError, match="does not fit"):
            SimConfig(frame_window_ps=90_000, frame_period_ps=180_000,
                      frame_rate_hz=1e12 / 180_000)

    def test_frame_rate_consistency(self):
        with pytest.raises(ConfigError, match="frame_rate"):
            SimConfig(frame_rate_hz=4e6)  # period 200000 ps implies 5 MHz

    def test_period_must_be_twice_window(self):
        with pytest.raises(ConfigError, match="frame_period"):
            SimConfig(frame_period_ps=150_000, frame_rate_hz=1e12 / 150_000)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(eta=1.5), "eta"),
            (dict(p_tb=-0.1), "p_tb"),
            (dict(hist_res_ps=33), "hist_res"),
            (dict(d=1, pulse_period_ps=100), "d must be"),
            (dict(mu_in=0.0), "mu_in"),
            (dict(im_extinction=0.5), "im_extinction"),
        ],
    )
    def test_invariant_violations(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            SimConfig(**kwargs)

    def test_replace_is_checked(self):
        # a copy derives its bins from its own fields and keeps every invariant
        assert replace(SimConfig(), hist_res_ps=50).n_bins == 4000
        with pytest.raises(ConfigError, match="jitter_sigma_ps"):
            replace(SimConfig(), jitter_sigma_ps=5000.0)

    def test_dead_time_nested_in_the_blank_half(self):
        # at least the window, so the gate keeps one click a frame, and at
        # most one ps more, so the next frame's gate opens on a live detector
        window = SimConfig().frame_window_ps
        nested = [SimConfig(dead_time_ps=tau).dead_time_nested
                  for tau in (0, window - 1, window, window + 1, window + 2)]
        assert nested == [False, False, True, True, False]


class TestSignalAssignment:
    """A signal built in code is checked as a scenario file's is."""

    @pytest.mark.parametrize(
        "kwargs,says",
        [
            (dict(input_group=0), "[signal.S] input_group: mode group 0 outside 1..5"),
            (dict(input_group=6), "[signal.S] input_group: mode group 6 outside 1..5"),
            (dict(excess_db=0.5), "[signal.S] excess_db must be <= 0 (a loss), got 0.5"),
            (dict(excess_db=float("nan")), "[signal.S] excess_db must be <= 0"),
            (dict(im_extinction=1.0), "[signal.S] im_extinction must be > 1 (linear ratio)"),
            (dict(input_mode=(0, 0, 0)), "[signal.S] input_mode"),
            (dict(input_mode=(0,)), "[signal.S] input_mode"),
            (dict(input_mode=(-1, 1)), "[signal.S] input_mode"),
            (dict(input_mode=(1, 0)), "[signal.S] input_mode"),
            (dict(input_group=3, input_mode=(2, 1)), "[signal.S] input_mode"),
        ],
    )
    def test_bad_signal_rejected(self, kwargs, says):
        with pytest.raises(ConfigError) as exc:
            SignalAssignment("S", **kwargs)
        assert says in str(exc.value)

    # group g holds the Hermite-Gaussian modes with n + p = g - 1
    @pytest.mark.parametrize("group,mode", [(1, (0, 0)), (2, (1, 0)), (3, (1, 1)),
                                            (4, (0, 3)), (5, (2, 2)), (5, None)])
    def test_mode_in_its_group_accepted(self, group, mode):
        assert SignalAssignment("S", input_mode=mode, input_group=group).input_mode == mode


class TestRandomSource:
    def test_same_key_same_sequence(self):
        a = RandomSource(7, (1, 2)).generator().random(100)
        b = RandomSource(7, (1, 2)).generator().random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomSource(7, (1, 2)).generator().random(100)
        b = RandomSource(7, (1, 3)).generator().random(100)
        c = RandomSource(8, (1, 2)).generator().random(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31), ids=st.tuples(st.integers(0, 50), st.integers(0, 50)))
    def test_reproducible_for_any_key(self, seed, ids):
        a = RandomSource(seed, ids).generator().integers(0, 1000, 20)
        b = RandomSource(seed, ids).generator().integers(0, 1000, 20)
        assert np.array_equal(a, b)

    def test_stream_builder(self):
        root = RandomSource(5)
        s = root.stream(3, 1, 4)
        assert s.seed == 5 and s.stream_id == (3, 1, 4)

    # seeds past 2**128 take more than the pool's four words, ids past 2**32
    # two words each
    SEEDS = st.integers(0, 2**31) | st.integers(0, 2**140)
    IDS = st.lists(st.integers(0, 50) | st.integers(0, 2**40), min_size=1, max_size=5).map(tuple)

    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, ids=IDS)
    def test_key_is_numpys_seed_sequence_key(self, seed, ids):
        # three streams whose ids differ before the last one
        for stream in (ids, (0,) + ids, ids[:-1] + (1, ids[-1])):
            ref = np.random.SeedSequence(entropy=seed, spawn_key=stream).generate_state(
                2, np.uint64)
            bitgen = RandomSource(seed, stream).generator().bit_generator
            assert bitgen.state["state"]["key"].tolist() == ref.tolist()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            SimConfig(seed=-3)
        with pytest.raises(ValueError, match="non-negative"):
            RandomSource(-3, (1,)).generator()
