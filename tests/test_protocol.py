import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sdmqsim import pipeline
from sdmqsim.config import (
    ROLE_ALICE,
    ROLE_BOB,
    ROLE_EVE,
    ROLE_PHOTONS,
    ConfigError,
    RandomSource,
    SimConfig,
)
from sdmqsim.pipeline import (
    BATCH,
    Pulse,
    _detector_cells,
    _phase_components,
    run_scenario,
    simulate_bb84,
)
from sdmqsim.protocol import (
    BASIS_X,
    BASIS_Z,
    KeyRateParams,
    NULL_BIT,
    PHASE_TABLE,
    PHASES,
    Planes,
    _unpack,
    _words,
    exchange_batches,
    key_rate,
    sift,
    write_transcript,
)
from sdmqsim.receiver import delay_interferometer_rates
from sdmqsim.scenarios import load_scenario


@pytest.fixture(scope="module")
def cfg():
    return SimConfig()


def phase_index(basis_x: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """``2*bit + (basis is Z)`` as int8: Alice's index into ``PHASES``, or,
    from Bob's bases and those indices, the frame class into ``PHASE_TABLE``."""
    q = np.asarray(bits, dtype=np.int8) * 2
    q += ~np.asarray(basis_x)
    return q


class TestEncodingMaps:
    def test_phase_table(self):
        x = np.array([True, True, False, False])
        bits = np.array([0, 1, 0, 1])
        q = phase_index(x, bits)
        assert q.dtype == np.int8
        assert PHASES[q].tolist() == [0.0, math.pi, math.pi / 2, 3 * math.pi / 2]
        # the frame class adds Bob's basis: 0 to measure X, pi/2 to measure Z
        for bob_x, phi_b in ((True, 0.0), (False, math.pi / 2)):
            cls = phase_index(np.full(4, bob_x), q)
            assert PHASE_TABLE[cls].tolist() == (PHASES[q] + phi_b).tolist()


def _old_phase(basis_x, bits):
    """Per-frame float phase, as the exchange computed it on every frame."""
    return np.where(
        basis_x,
        np.where(bits == 0, 0.0, math.pi),
        np.where(bits == 0, math.pi / 2, 3 * math.pi / 2),
    )


class TestInt8Exchange:
    """The int8 exchange against the per-frame float and boolean one."""

    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("floor", [0.0, 0.05])
    @pytest.mark.parametrize("v", [0.93, 1.0])
    def test_rate_table_gathered_by_class(self, v, floor, eve):
        n = 50_000
        gen = RandomSource(61).generator()
        bits = gen.integers(0, 2, size=n, dtype=np.int8)
        alice_x = gen.random(n) < 0.5
        eve_x = gen.random(n) < 0.5
        eve_bits = gen.integers(0, 2, size=n, dtype=np.int8)
        bob_x = gen.random(n) < 0.5

        phi = _old_phase(alice_x, bits)
        sent = phase_index(alice_x, bits)
        if eve:
            phi = np.where(eve_x == alice_x, phi, _old_phase(eve_x, eve_bits))
            sent = np.where(eve_x == alice_x, sent, phase_index(eve_x, eve_bits))
        phi += np.where(bob_x, 0.0, math.pi / 2)
        cls = phase_index(bob_x, sent)
        assert cls.dtype == np.int8

        old = delay_interferometer_rates(0.07, 64, v, phi, "none", floor)
        table = delay_interferometer_rates(0.07, 64, v, PHASE_TABLE, "none", floor)
        assert np.array_equal(table.interior_p[cls], old.interior_p)
        assert np.array_equal(table.interior_p_prime[cls], old.interior_p_prime)
        assert table[2:] == old[2:]  # edges and floor do not depend on phase


def _ref_draw(words, n):
    """Draw ``i`` of ``n`` as bit ``i % 64`` of ``words[i // 64]``, by shift
    and mask."""
    i = np.arange(n)
    return (words[i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)


class TestRawDraws:
    """The coins and bits are the bits of numpy's raw Philox words, 64 to
    a word from the least significant bit up."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, BATCH - 1, BATCH, BATCH + 1])
    @pytest.mark.parametrize("seed", range(5))
    def test_coins_and_bits_match_numpy(self, seed, n):
        assert BATCH % 64 == 0  # a full batch takes whole words
        words = -(-n // 64)
        for dtype in (bool, np.int8):  # coins, and bits as int8
            ref, gen = (RandomSource(seed).stream(ROLE_ALICE).generator() for _ in range(2))
            raw = ref.bit_generator.random_raw(words + 1)
            got = _unpack(_words(gen, n), n).view(dtype)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, _ref_draw(raw, n).astype(dtype))
            # the draw took exactly ceil(n / 64) words
            assert gen.bit_generator.random_raw() == raw[words]


def _whole_run_draws(seed, n):
    """Alice's bits and coins, Eve's coins and bits and Bob's coins, each
    stream's words drawn at once: Alice's bits then coins, Eve's coins then
    bits, ``ceil(n / 64)`` words each."""
    root = RandomSource(seed)
    words = -(-n // 64)
    alice, eve, bob = (root.stream(role).generator().bit_generator.random_raw(2 * words)
                       for role in (ROLE_ALICE, ROLE_EVE, ROLE_BOB))
    return (_ref_draw(alice, n).astype(np.int8), _ref_draw(alice[words:], n).astype(bool),
            _ref_draw(eve, n).astype(bool), _ref_draw(eve[words:], n).astype(np.int8),
            _ref_draw(bob, n).astype(bool))


def _whole_run_state(seed, n, eve):
    """Alice's bits and coins, Bob's coins and the frame classes from the
    whole-run draws."""
    bits, alice_x, eve_x, eve_bits, bob_x = _whole_run_draws(seed, n)
    sent = phase_index(alice_x, bits)
    if eve:
        sent = np.where(eve_x == alice_x, sent, phase_index(eve_x, eve_bits))
    return bits, alice_x, bob_x, phase_index(bob_x, sent)


class TestPlanes:
    """A batch holds its state as bit planes: each stream's raw words as
    drawn and three class planes, read only through ``Planes``."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_reads_match_unpacked_reference(self, data):
        k, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 200))
        words = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=k * -(-n // 64),
                                   max_size=k * -(-n // 64)))
        words = np.array(words, dtype=np.uint64).reshape(k, -1)
        ref = np.zeros(n, np.uint8)
        for bit, row in enumerate(words):
            ref |= _ref_draw(row, n).astype(np.uint8) << bit
        planes = Planes(words, n)
        assert planes.unpack().dtype == np.uint8
        np.testing.assert_array_equal(planes.unpack(), ref)
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=50)), dtype=np.intp)
        np.testing.assert_array_equal(planes[idx], ref[idx])

    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 37])
    def test_batches_match_whole_run(self, n, eve):
        batches = list(exchange_batches(9, n, eve))
        assert [b.start for b in batches] == list(range(0, n, BATCH))
        streams = ("bits", "alice_x", "eve_x", "eve_bits", "bob_x")
        draws = _whole_run_draws(9, n)
        for name, ref in zip(streams, draws, strict=True):
            planes = [getattr(b, name) for b in batches]
            if not eve and name.startswith("eve"):
                assert planes == [None] * len(batches)
                continue
            # one plane of ceil(nb / 64) words a batch, its draws as drawn
            assert [p.words.shape for p in planes] == [(1, -(-len(b.cls) // 64))
                                                        for b in batches]
            np.testing.assert_array_equal(np.concatenate([p.unpack() for p in planes]), ref)
        cls = _whole_run_state(9, n, eve)[3]
        np.testing.assert_array_equal(np.concatenate([b.cls.unpack() for b in batches]), cls)
        idx = np.random.default_rng(n).integers(0, n, size=min(n, 3000))
        for b in batches:
            want = cls[b.start:b.start + len(b.cls)]
            at = idx[(idx >= b.start) & (idx < b.start + len(want))] - b.start
            np.testing.assert_array_equal(b.cls[at], want[at])
            np.testing.assert_array_equal(b.bob_x[at], draws[4][b.start + at])


class TestDrawBalance:
    """The five draws of an exchange are fair and independent."""

    N = 1 << 20

    @pytest.mark.parametrize("seed", range(2001, 2006))
    def test_joint_table_and_bit_positions(self, seed):
        draws = _whole_run_draws(seed, self.N)
        # (Alice bit, Alice basis, Eve basis, Eve bit, Bob basis): 32 cells
        cell = sum(d.astype(np.int64) << k for k, d in enumerate(draws))
        counts = np.bincount(cell, minlength=32)
        p = 1 / 32
        assert np.all(np.abs(counts - self.N * p) <= 5 * math.sqrt(self.N * p * (1 - p)))
        # each of a word's 64 bit positions, over every word of the five draws
        ones = np.concatenate(draws).view(np.uint8).reshape(-1, 64).sum(axis=0, dtype=np.int64)
        m = 5 * self.N // 64
        assert np.all(np.abs(ones - m / 2) <= 5 * math.sqrt(m / 4))


def _whole_run_transcript(seed, n, eve, frames, bob_bits):
    """The transcript's text from whole-run per-frame arrays."""
    bits, alice_x, bob_x, _ = _whole_run_state(seed, n, eve)
    bob = np.full(n, NULL_BIT, dtype=np.int8)
    bob[frames] = bob_bits
    sifted = (alice_x == bob_x) & (bob != NULL_BIT)
    basis = {True: BASIS_X, False: BASIS_Z}
    lines = ["frame,alice_basis,alice_bit,bob_basis,bob_bit,sifted"]
    lines += [
        f"{i},{basis[ax]},{a},{basis[bx]},{'-' if o == NULL_BIT else o},{int(s)}"
        for i, (ax, a, bx, o, s) in enumerate(zip(
            alice_x.tolist(), bits.tolist(), bob_x.tolist(), bob.tolist(), sifted.tolist()))
    ]
    return "\n".join(lines) + "\n"


class TestStreamSplit:
    """The exchange drawn one batch at a time against the same draws made
    over the whole run at once, and a runner detector drawn one span at a
    time with the dead time carried across."""

    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("n", [1, 7, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 5])
    def test_per_frame_state_matches_whole_run(self, n, eve):
        batches = list(exchange_batches(9, n, eve))
        assert [b.start for b in batches] == list(range(0, n, BATCH))
        columns = [np.concatenate([p.unpack() for p in c])
                   for c in zip(*((b.bits, b.alice_x, b.bob_x, b.cls) for b in batches))]
        for got, ref in zip(columns, _whole_run_state(9, n, eve), strict=True):
            assert got.dtype == np.uint8 and ref.itemsize == 1
            np.testing.assert_array_equal(got.view(ref.dtype), ref)

    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("n", [1, 7, BATCH - 1, BATCH + 1, 2 * BATCH + 5])
    def test_result_and_transcript_match_whole_run(self, cfg, n, eve, tmp_path):
        cfg = replace(cfg, seed=10)
        res = simulate_bb84(cfg, n_frames=n, flux=2.0, visibility_cap=0.93, eve=eve)
        frames = res.frames
        assert (np.diff(frames) > 0).all() and np.isin(res.bits, (0, 1)).all()
        assert len(frames) == 0 or 0 <= frames[0] <= frames[-1] < n
        if n > 2 * BATCH:  # conclusive frames on both sides of a batch boundary
            assert frames[0] < BATCH <= frames[-1]
        # the keys sift the whole-run state at the conclusive frames
        bits, alice_x, bob_x, _ = _whole_run_state(cfg.seed, n, eve)
        key_a, key_b, qber = sift(bits[frames], alice_x[frames], bob_x[frames], res.bits)
        np.testing.assert_array_equal(res.key_a, key_a)
        np.testing.assert_array_equal(res.key_b, key_b)
        assert (res.n_frames, res.n_detected, res.n_sifted) == (n, len(frames), len(key_a))
        assert res.qber == qber or (math.isnan(res.qber) and math.isnan(qber))
        write_transcript(tmp_path / "t.csv", res)
        assert (tmp_path / "t.csv").read_bytes() == _whole_run_transcript(
            cfg.seed, n, eve, frames, res.bits).encode()

    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("n", [1, 64, BATCH + 1, 5 * BATCH + 37])
    def test_spans_give_the_same_state(self, n, eve):
        # whole-run streams: the state is the same whatever the span
        def planes(span, name):
            chunks = list(exchange_batches(9, n, eve, span))
            assert [b.start for b in chunks] == list(range(0, n, span))
            got = [getattr(b, name) for b in chunks]
            return None if got[0] is None else np.concatenate([p.unpack() for p in got])

        for name in ("bits", "alice_x", "eve_x", "eve_bits", "bob_x", "cls"):
            one, four = planes(BATCH, name), planes(4 * BATCH, name)
            if not eve and name.startswith("eve"):
                assert one is four is None
            else:
                np.testing.assert_array_equal(one, four)

    @pytest.mark.parametrize("span", [0, 1, 63, 100, BATCH + 32])
    def test_span_off_whole_words_raises(self, span):
        with pytest.raises(ValueError, match="multiple of 64"):
            next(exchange_batches(9, BATCH, False, span))

    def test_dead_time_carried_across_batches(self, cfg, monkeypatch):
        # a runner detector gated `always` on the Poisson path, one batch a
        # span: a click late in every frame blocks the next frame's first
        # 149 ns, where its other clicks land at 10 ns, across spans too
        n, period = 2 * BATCH + 5, cfg.frame_period_ps
        cfg = replace(cfg, dead_time_ps=150_000)
        key, comps = (ROLE_PHOTONS, 0), [[(3.0, Pulse(10_000)), (16.0, Pulse(199_000))]]
        calls, sim = [], pipeline._simulate_detector

        def traced(*args):
            calls.append((args[4], args[5], sim(*args)))
            return calls[-1][2]

        monkeypatch.setattr(pipeline, "_simulate_detector", traced)
        cells = _detector_cells(key, comps, cfg, "always", n, np.array([0, 100_000, period]),
                                histogram=True)
        monkeypatch.undo()
        assert [frames for frames, _, _ in calls] == [range(0, BATCH), range(BATCH, 2 * BATCH),
                                                      range(2 * BATCH, n)]
        # each later span starts blocked by the last one's last click
        assert calls[0][1] == 0
        for (_, _, ((fr, t, _), blocked)), (_, carried, _) in zip(calls, calls[1:]):
            assert carried == blocked == int(fr[-1]) * period + int(t[-1]) + cfg.dead_time_ps
        # every frame keeps its late click, and an early click is kept in the
        # run's first frame alone, where spans drawn without the dead time
        # carried over would keep one in their first
        assert cells.count(100_000, period) == n and cells.count(0, 100_000) <= 1
        bins = cells.histogram.bins
        assert bins.sum() == cells.count(0, period)
        assert bins[:100_000 // cfg.hist_res_ps].sum() == cells.count(0, 100_000)


def _bb84(cfg, seed, v, n=200_000):
    return simulate_bb84(
        replace(cfg, seed=seed), n_frames=n, flux=0.5, visibility_cap=v,
    )


def _per_frame(res):
    """Alice's bits and basis coins, Bob's coins and his bits (``NULL_BIT``
    where inconclusive) in every frame of ``res``."""
    bits, alice_x, bob_x = (np.concatenate([p.unpack() for p in c]) for c in
                            zip(*((b.bits, b.alice_x, b.bob_x) for b in res.batches())))
    return bits, alice_x, bob_x, res.bob_bits_in(0, res.n_frames)


def _outcomes(res, alice_basis, bob_basis, bit=None):
    """Bob's conclusive bits in frames with the given bases (and Alice bit)."""
    bits, alice_x, bob_x, bob = _per_frame(res)
    sel = (alice_x == (alice_basis == BASIS_X)) & (bob_x == (bob_basis == BASIS_X))
    sel &= bob != NULL_BIT
    if bit is not None:
        sel &= bits == bit
    return bob[sel]


class TestAlicePrepare:
    def test_mapping_and_balance(self, cfg):
        res = _bb84(cfg, 12, v=1.0, n=1_000_000)
        bits, alice_x, _, _ = _per_frame(res)
        # uniform basis balance within 3 sigma (0.0015 at n=1e6)
        assert abs(np.mean(alice_x) - 0.5) < 0.0015
        assert abs(bits.mean() - 0.5) < 0.0015
        # at unit visibility every sifted bit decodes to Alice's bit
        assert res.n_sifted > 10_000
        assert np.array_equal(res.key_a, res.key_b)


class TestBobMeasure:
    def test_matched_basis_deterministic_bit(self, cfg):
        # X basis, bit 1: destructive on port P, so conclusive outcomes are
        # always 1 at unit visibility
        conclusive = _outcomes(_bb84(cfg, 2, v=1.0), BASIS_X, BASIS_X, bit=1)
        assert len(conclusive) > 50
        assert set(conclusive.tolist()) == {1}

    def test_matched_basis_bit0_both_bases(self, cfg):
        res = _bb84(cfg, 3, v=1.0)
        for basis in (BASIS_X, BASIS_Z):
            conclusive = _outcomes(res, basis, basis, bit=0)
            assert len(conclusive) > 50
            assert set(conclusive.tolist()) == {0}

    def test_matched_basis_wrong_port_floor(self, cfg):
        # wrong-port click probability per conclusive outcome is (1 - V)/2
        v = 0.93
        conclusive = _outcomes(_bb84(cfg, 5, v=v), BASIS_X, BASIS_X, bit=1)
        total = len(conclusive)
        wrong = int(np.sum(conclusive == 0))  # correct bit is 1
        expect = (1 - v) / 2
        assert total > 400
        assert abs(wrong / total - expect) < 3 * math.sqrt(expect * (1 - expect) / total)

    def test_mismatched_basis_uniform(self, cfg):
        res = _bb84(cfg, 4, v=1.0)
        outcomes = _outcomes(res, BASIS_Z, BASIS_X, bit=0)
        assert len(outcomes) > 500
        frac = np.mean(outcomes)
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / len(outcomes))


class TestEveIntercept:
    def test_half_of_frames_resent_in_other_basis(self, cfg):
        # at unit visibility a matched-basis bit is wrong only in a frame Eve
        # re-sent in the other basis, and then half the time: in each of
        # Alice's bases, twice the wrong share is the re-sent share, 1/2
        res = simulate_bb84(
            replace(cfg, seed=22), n_frames=400_000, flux=0.5, visibility_cap=1.0, eve=True,
        )
        bits, alice_x, bob_x, bob = _per_frame(res)
        for basis_x in (True, False):
            sel = (alice_x == basis_x) & (bob_x == basis_x) & (bob != NULL_BIT)
            n = int(np.sum(sel))
            assert n > 5000
            resent = 2 * np.mean(bob[sel] != bits[sel])
            assert abs(resent - 0.5) < 2 * 3 * math.sqrt(0.25 * 0.75 / n)


class TestSift:
    def test_all_matched_noiseless(self):
        a = np.array([0, 1, 1, 0])
        b = np.array(["X", "Z", "X", "Z"])
        key_a, key_b, q = sift(a, b, b.copy(), a.copy())
        assert np.array_equal(key_a, a)
        assert np.array_equal(key_b, a)
        assert q == 0.0

    def test_null_bits_dropped(self):
        a = np.array([0, 1, 1])
        b = np.array(["X", "X", "Z"])
        bob = np.array([0, NULL_BIT, 1])
        key_a, key_b, q = sift(a, b, b.copy(), bob)
        assert list(key_a) == [0, 1]
        assert list(key_b) == [0, 1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            sift([0], ["X"], ["X", "Z"], [0, 1])

    def test_random_bases_sift_half(self):
        n = 200_000
        gen = RandomSource(31).generator()
        a = gen.integers(0, 2, n)
        b = np.where(gen.random(n) < 0.5, "X", "Z")
        b2 = np.where(gen.random(n) < 0.5, "X", "Z")
        key_a, _, _ = sift(a, b, b2, a.copy())
        assert abs(len(key_a) / n - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_exhaustive_small_against_brute_force(self):
        # every (basis, basis', bob_bit) combination over 3 frames
        opts_b = ["X", "Z"]
        opts_bob = [0, 1, NULL_BIT]
        for b in itertools.product(opts_b, repeat=3):
            for b2 in itertools.product(opts_b, repeat=3):
                for bob in itertools.product(opts_bob, repeat=3):
                    a = [0, 1, 0]
                    key_a, key_b, _ = sift(a, list(b), list(b2), list(bob))
                    ref_a, ref_b = [], []
                    for i in range(3):
                        if b[i] == b2[i] and bob[i] != NULL_BIT:
                            ref_a.append(a[i])
                            ref_b.append(bob[i])
                    assert list(key_a) == ref_a
                    assert list(key_b) == ref_b


class TestKeyRate:
    def test_reference_point(self):
        assert key_rate(KeyRateParams(n=10**6)) >= 0.64

    def test_maximal_error_tolerance_aborts(self):
        assert key_rate(KeyRateParams(n=10**6, q_tol=0.5)) == 0.0

    def test_small_block_below_target(self):
        assert key_rate(KeyRateParams(n=10**3)) < 0.64

    def test_monotone_in_n(self):
        rates = [key_rate(KeyRateParams(n=n)) for n in (10**3, 10**4, 10**5, 10**6, 10**7)]
        assert all(r1 >= r0 for r0, r1 in zip(rates, rates[1:]))

    def test_monotone_in_q_tol(self):
        rates = [
            key_rate(KeyRateParams(n=10**6, q_tol=q))
            for q in (0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 0.5)
        ]
        assert all(r1 <= r0 for r0, r1 in zip(rates, rates[1:]))

    def test_robustness_scales_expected_rate(self):
        r0 = key_rate(KeyRateParams(n=10**6, eps_rob=0.0))
        r = key_rate(KeyRateParams(n=10**6, eps_rob=0.18))
        assert r == pytest.approx(0.82 * r0, rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            key_rate(KeyRateParams(n=0))
        with pytest.raises(ValueError):
            key_rate(KeyRateParams(eps_sec=0.0))
        with pytest.raises(ValueError):
            key_rate(KeyRateParams(f_ec=0.9))


def _port_tables(cfg, flux, v, floor):
    """Per frame class, the chance ``q`` that a frame is conclusive, one of
    Bob's ports usable and the other not, and the share of those on port P.
    A port is usable with ``e^{-B} (1 - e^{-I})``, ``B`` and ``I`` its mean
    clicks before and on the interior positions, summed here per ps over
    its components' ``runs``."""
    law = delay_interferometer_rates(cfg.eta * flux, cfg.d, v, PHASE_TABLE, "none", floor)
    lo, hi = cfg.pulse_period_ps, cfg.d * cfg.pulse_period_ps  # positions 1 .. d-1
    usable = []
    for port in ("p", "p_prime"):
        before = inside = 0.0
        for rate, placement in _phase_components(cfg, law, port, "none", 0):
            row = np.zeros(cfg.frame_period_ps)
            for a, b, p in placement.runs(cfg):
                row[a:b] += p
            before = before + rate * row[:lo].sum()
            inside = inside + rate * row[lo:hi].sum()
        usable.append(np.exp(-before) * (1 - np.exp(-inside)))
    p, pp = usable
    q = p * (1 - pp) + pp * (1 - p)
    return q, p * (1 - pp) / q


class TestSimulateBb84:
    def test_no_eve_wrong_port_floor(self, cfg):
        res = simulate_bb84(
            replace(cfg, seed=41), n_frames=300_000, flux=0.5, visibility_cap=0.93,
        )
        assert res.n_sifted > 5000
        expect = (1 - 0.93) / 2
        tol = 3 * math.sqrt(expect * (1 - expect) / res.n_sifted)
        assert abs(res.qber - expect) < tol

    def test_ideal_matched_noiseless_zero_qber(self, cfg):
        res = simulate_bb84(
            replace(cfg, seed=42), n_frames=100_000, flux=0.5, visibility_cap=1.0,
        )
        assert res.n_sifted > 1000
        assert res.qber == 0.0

    def test_intercept_resend_signature(self, cfg):
        res = simulate_bb84(
            replace(cfg, seed=43), n_frames=400_000, flux=0.5, visibility_cap=1.0, eve=True,
        )
        assert res.n_sifted >= 10_000
        tol = 3 * math.sqrt(0.25 * 0.75 / res.n_sifted)
        assert abs(res.qber - 0.25) < tol

    # every class's frames are conclusive and light port P by the law of
    # two independent ports, each usable where its first gated click lands
    # on an interior position; pooled over two seeds, at the canned flux
    # and at two where the ports are dense
    @pytest.mark.parametrize("v,floor", [(0.93, 0.0), (1.0, 0.05)])
    def test_port_outcomes_per_class(self, cfg, v, floor):
        for flux, eve in itertools.product((0.148, 2.0, 7.4), (False, True)):
            q, share = _port_tables(cfg, flux, v, floor)
            frames_of = conclusive = on_p = 0
            for seed in (46, 47):
                res = simulate_bb84(replace(cfg, seed=seed), n_frames=1 << 21, flux=flux,
                                    visibility_cap=v, eve=eve, phase_floor=floor)
                assert (np.diff(res.frames) > 0).all()
                for b in res.batches():
                    cls, bob_x = b.cls.unpack(), b.bob_x.unpack()
                    lo, hi = np.searchsorted(res.frames, (b.start, b.start + len(cls)))
                    at = res.frames[lo:hi] - b.start
                    frames_of += np.bincount(cls, minlength=len(PHASE_TABLE))
                    conclusive += np.bincount(cls[at], minlength=len(PHASE_TABLE))
                    # Bob's bit is 0 on port P in X and on port P' in Z
                    on_p += np.bincount(cls[at], res.bits[lo:hi] != bob_x[at],
                                        minlength=len(PHASE_TABLE))
            case = (flux, eve)
            mean, var = frames_of * q, frames_of * q * (1 - q)
            assert (np.abs(conclusive - mean) <= 5 * np.sqrt(var)).all(), (case, conclusive, mean)
            assert abs(conclusive.sum() - mean.sum()) <= 5 * math.sqrt(var.sum()), case
            mean, var = conclusive * share, conclusive * share * (1 - share)
            assert (np.abs(on_p - mean) <= 5 * np.sqrt(var)).all(), (case, on_p, mean)

    def test_dead_time_past_the_blank_half_raises(self, cfg):
        # one ps more and a port's click late in a frame's gate could block
        # the next frame's first ps, so frames would not be independent
        window = cfg.frame_window_ps
        simulate_bb84(replace(cfg, dead_time_ps=window + 1), 1000, 2.0)
        with pytest.raises(ConfigError, match="dead_time_ps must be at most"):
            simulate_bb84(replace(cfg, dead_time_ps=window + 2), 1000, 2.0)

    def test_dead_time_short_of_the_window_raises(self, cfg):
        # one ps less and a port's click at a frame's first gated ps would
        # not block its last, so a frame could keep two clicks
        window = cfg.frame_window_ps
        simulate_bb84(replace(cfg, dead_time_ps=window), 1000, 2.0)
        with pytest.raises(ConfigError, match="dead_time_ps must be at least frame_window_ps"):
            simulate_bb84(replace(cfg, dead_time_ps=window - 1), 1000, 2.0)

    def test_zero_frames_give_an_empty_exchange(self, cfg, tmp_path):
        res = simulate_bb84(cfg, 0, 2.0, eve=True)
        assert (res.n_frames, res.n_detected, res.n_sifted) == (0, 0, 0)
        assert math.isnan(res.qber)
        for arr in (res.key_a, res.key_b, res.frames, res.bits):
            assert len(arr) == 0
        write_transcript(tmp_path / "t.csv", res)
        assert (tmp_path / "t.csv").read_bytes() == _whole_run_transcript(
            cfg.seed, 0, True, res.frames, res.bits).encode()

    def test_eve_with_imperfect_visibility(self, cfg):
        # full oracle: 1/2 * (1-V)/2 + 1/2 * 1/2
        v = 0.93
        res = simulate_bb84(
            replace(cfg, seed=44), n_frames=400_000, flux=0.5, visibility_cap=v, eve=True,
        )
        expect = 0.5 * (1 - v) / 2 + 0.25
        tol = 3 * math.sqrt(expect * (1 - expect) / res.n_sifted)
        assert abs(res.qber - expect) < tol


class TestCannedBias:
    """The canned exchanges over 12 held-out seeds at their 1.2 M frames:
    the pooled sifted QBER against its law and the sift ratio against 1/2."""

    # bb84 at V = 0.93 errs on the wrong port, (1 - V)/2; bb84_eve at V = 1
    # errs in half of the frames Eve re-sends in the other basis
    @pytest.mark.parametrize("name", ["bb84", "bb84_eve"])
    def test_pooled_qber_and_sift_ratio(self, name):
        expect = {"bb84": (1 - 0.93) / 2, "bb84_eve": 0.25}[name]
        scenario = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.ini")
        errors = sifted = detected = 0
        for seed in range(3001, 3013):
            rep = run_scenario(scenario.with_overrides(seed=seed)).report
            n = rep.extra["n_sifted"]
            errors += round(rep.qber_sifted * n)
            sifted += n
            detected += rep.extra["n_detected"]
        assert sifted > 100_000
        assert abs(errors / sifted - expect) <= 4 * math.sqrt(expect * (1 - expect) / sifted)
        assert abs(sifted / detected - 0.5) <= 4 * math.sqrt(0.25 / detected)
