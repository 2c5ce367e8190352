import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sdmqsim.config import RandomSource, SimConfig, validate_config
from sdmqsim.pipeline import BATCH, _coin, simulate_bb84
from sdmqsim.protocol import (
    BASIS_X,
    BASIS_Z,
    KeyRateParams,
    NULL_BIT,
    PHASE_TABLE,
    PHASES,
    decode,
    key_rate,
    phase_index,
    sift,
)
from sdmqsim.receiver import delay_interferometer_rates


@pytest.fixture(scope="module")
def cfg():
    return validate_config(SimConfig())


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


def _old_decode(usable_p, usable_pp, bob_x):
    """Per-frame boolean decode over every frame: Bob's bit or NULL_BIT."""
    conclusive = usable_p ^ usable_pp
    bob_bits = np.full(len(bob_x), NULL_BIT, dtype=np.int8)
    p_clicked = conclusive & usable_p
    pp_clicked = conclusive & usable_pp
    bob_bits[p_clicked & bob_x] = 0
    bob_bits[p_clicked & ~bob_x] = 1
    bob_bits[pp_clicked & bob_x] = 1
    bob_bits[pp_clicked & ~bob_x] = 0
    return bob_bits


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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40))
    def test_decode_on_click_frames_matches_per_frame_decode(self, data, n):
        frames = st.sets(st.integers(0, n - 1))
        set_p = data.draw(frames)
        set_pp = data.draw(st.one_of(frames, st.just(set_p), st.just(set())))
        bools = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
        bits = data.draw(bools).astype(np.int8)
        alice_x, bob_x = data.draw(bools), data.draw(bools)

        usable_p, usable_pp = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        usable_p[list(set_p)] = True
        usable_pp[list(set_pp)] = True
        old_bits = _old_decode(usable_p, usable_pp, bob_x)
        old_a, old_b, old_q = sift(bits, alice_x, bob_x, old_bits)

        conc, conc_bits = decode(np.flatnonzero(usable_p), np.flatnonzero(usable_pp), bob_x)
        key_a, key_b, q = sift(bits[conc], alice_x[conc], bob_x[conc], conc_bits)
        assert np.array_equal(key_a, old_a)
        assert np.array_equal(key_b, old_b)
        assert q == old_q or (math.isnan(q) and math.isnan(old_q))
        assert len(conc) == int(np.sum(old_bits != NULL_BIT))

    @pytest.mark.parametrize("n", [1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 5])
    def test_chunked_coin(self, n):
        gen, ref = RandomSource(8).generator(), RandomSource(8).generator()
        coin = _coin(gen, n)
        assert coin.dtype == bool
        assert np.array_equal(coin, ref.random(n) < 0.5)
        assert gen.random() == ref.random()  # the stream continues in step


def _bb84(cfg, seed, v, n=200_000):
    return simulate_bb84(
        replace(cfg, seed=seed), n_frames=n, flux=0.5, visibility_cap=v,
    )


def _outcomes(res, alice_basis, bob_basis, bit=None):
    """Bob's conclusive bits in frames with the given bases (and Alice bit)."""
    sel = (res.alice_bases == alice_basis) & (res.bob_bases == bob_basis)
    sel &= res.bob_bits != NULL_BIT
    if bit is not None:
        sel &= res.alice_bits == bit
    return res.bob_bits[sel]


class TestAlicePrepare:
    def test_mapping_and_balance(self, cfg):
        res = _bb84(cfg, 12, v=1.0, n=1_000_000)
        # uniform basis balance within 3 sigma (0.0015 at n=1e6)
        assert abs(np.mean(res.alice_bases == BASIS_X) - 0.5) < 0.0015
        assert abs(res.alice_bits.mean() - 0.5) < 0.0015
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
        for basis in (BASIS_X, BASIS_Z):
            sel = (res.alice_bases == basis) & (res.bob_bases == basis)
            sel &= res.bob_bits != NULL_BIT
            n = int(np.sum(sel))
            assert n > 5000
            resent = 2 * np.mean(res.bob_bits[sel] != res.alice_bits[sel])
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

    def test_eve_with_imperfect_visibility(self, cfg):
        # full oracle: 1/2 * (1-V)/2 + 1/2 * 1/2
        v = 0.93
        res = simulate_bb84(
            replace(cfg, seed=44), n_frames=400_000, flux=0.5, visibility_cap=v, eve=True,
        )
        expect = 0.5 * (1 - v) / 2 + 0.25
        tol = 3 * math.sqrt(expect * (1 - expect) / res.n_sifted)
        assert abs(res.qber - expect) < tol
