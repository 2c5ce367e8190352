import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from law_reference import per_ps
from sdmqsim import pipeline, protocol
from sdmqsim.config import (
    ROLE_PHOTONS,
    ROLE_TRANSCRIPT,
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
    N_CELLS,
    N_STATES,
    N_WORDS,
    PHASE_TABLE,
    PHASES,
    cell_law,
    key_rate,
    state_table,
    write_transcript,
)
from sdmqsim.receiver import delay_interferometer_rates
from sdmqsim.scenarios import load_scenario


NULL_BIT = -1  # Bob's bit in an inconclusive frame, as the tests decode it


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


class TestStateTable:
    """The 32 state words' classes and the 24 tally cells' law against a
    brute-force build from ``PHASES``, ``PHASE_TABLE`` and the
    intercept-resend rule."""

    @pytest.mark.parametrize("eve", [False, True])
    def test_matches_brute_force(self, eve):
        table = state_table(eve)
        assert len(table) == N_STATES
        for word in range(N_STATES):
            bit, alice_x, bob_x, eve_x, eve_bit = (word >> k & 1 for k in range(5))
            sent = PHASES[2 * bit + (not alice_x)]
            if eve and eve_x != alice_x:  # Eve re-sends her own bit in her basis
                sent = PHASES[2 * eve_bit + (not eve_x)]
            # the class adds Bob's basis: 0 to measure X, pi/2 to measure Z
            phase = sent + (0.0 if bob_x else math.pi / 2)
            cls = [c for c in range(len(PHASE_TABLE))
                   if c % 2 == (not bob_x) and math.isclose(PHASE_TABLE[c], phase)]
            assert cls == [table[word]], word
        # each class holds four words, so every class is an eighth of frames
        assert (np.bincount(table, minlength=len(PHASE_TABLE)) == N_STATES // 8).all()

    @pytest.mark.parametrize("eve", [False, True])
    def test_cell_law_matches_brute_force(self, eve):
        # each state word adds its class's chances, a 32nd each, into the
        # cells of its low three bits: inconclusive, lit P' alone, lit P alone
        gen = np.random.default_rng(7)
        lights_p, lights_pp = gen.uniform(0, 0.5, (2, len(PHASE_TABLE)))
        law = np.zeros(N_CELLS)
        for word, c in enumerate(state_table(eve)):
            outcome = (1 - lights_p[c] - lights_pp[c], lights_pp[c], lights_p[c])
            for k, chance in enumerate(outcome):
                law[3 * (word % N_WORDS) + k] += chance / N_STATES
        np.testing.assert_allclose(cell_law(lights_p, lights_pp, eve), law, rtol=1e-14)
        assert math.isclose(law.sum(), 1.0)


def _exchange(monkeypatch, cfg, seed, n, usable, eve):
    """An ``n``-frame exchange whose ports are usable, per class, with the
    chances ``usable`` (P, then P') in place of the ports' law."""
    monkeypatch.setattr(pipeline, "_port_usable", lambda cfg, law: usable)
    return simulate_bb84(replace(cfg, seed=seed), n, 2.0, eve=eve)


def _law_by_hand(usable, eve):
    """The cell law of ports usable per class with the chances ``usable``,
    summed word by word: each of the 32 state words adds its class's
    chances, a 32nd each, to the cells of its low three bits (inconclusive,
    lit P' alone, lit P alone), the class worked out from its bits."""
    p, pp = usable
    law = np.zeros(N_CELLS)
    for word in range(N_STATES):
        bit, alice_x, bob_x, eve_x, eve_bit = (word >> k & 1 for k in range(5))
        if eve and eve_x != alice_x:  # Eve re-sends her own bit in her basis
            bit, alice_x = eve_bit, eve_x
        c = 4 * bit + 2 * (1 - alice_x) + (1 - bob_x)
        lp, lpp = p[c] * (1 - pp[c]), pp[c] * (1 - p[c])
        for k, chance in enumerate((1 - lp - lpp, lpp, lp)):
            law[3 * (word % N_WORDS) + k] += chance / N_STATES
    return law


def _tallies_by_hand(seed, n, law):
    """Every batch's tally of an ``n``-frame exchange over ``law``, drawn by
    hand one batch at a time, each a multinomial call on stream
    ``(ROLE_PHOTONS,)``."""
    gen = RandomSource(seed).stream(ROLE_PHOTONS).generator()
    return np.array([gen.multinomial(min(BATCH, n - b0), law)
                     for b0 in range(0, n, BATCH)]).reshape(-1, N_CELLS)


def _frames_by_hand(seed, tallies):
    """Per frame, the visible word and Bob's bit (``NULL_BIT`` where
    inconclusive) of the batches' cells, each batch one permutation of its
    tally's, drawn by hand from stream ``(ROLE_TRANSCRIPT,)``."""
    gen = RandomSource(seed).stream(ROLE_TRANSCRIPT).generator()
    cells = np.concatenate([gen.permutation(np.repeat(np.arange(N_CELLS), tally))
                            for tally in tallies])
    word, outcome = np.divmod(cells, 3)
    return word, np.where(outcome == 0, NULL_BIT, (outcome == 2) != (word >> 2 & 1))


# per class, the chances that port P and port P' are usable: each class
# its own, so a class read wrong draws another law
USABLE = (np.linspace(0.05, 0.9, len(PHASE_TABLE)), np.linspace(0.6, 0.02, len(PHASE_TABLE)))


class TestRawDraws:
    """An exchange's tallies are numpy's multinomial draws of stream
    ``(ROLE_PHOTONS,)`` over the cell law; the transcript's frames take
    their coins and bits from numpy's permutation of each batch's cells,
    drawn from stream ``(ROLE_TRANSCRIPT,)``, one batch at a time."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, BATCH - 1, BATCH, BATCH + 1])
    @pytest.mark.parametrize("seed", range(5))
    def test_coins_and_bits_match_numpy(self, cfg, seed, n, monkeypatch, tmp_path):
        res = _exchange(monkeypatch, cfg, seed, n, USABLE, eve=True)
        law = _law_by_hand(USABLE, eve=True)
        np.testing.assert_allclose(cell_law(USABLE[0] * (1 - USABLE[1]),
                                            USABLE[1] * (1 - USABLE[0]), True), law, rtol=1e-14)
        tallies = _tallies_by_hand(seed, n, law)
        np.testing.assert_array_equal(res.tallies, tallies)
        word, bob = _frames_by_hand(seed, tallies)
        bits, alice_x, bob_x, bob_bits = _per_frame(res, tmp_path)
        for k, column in enumerate((bits, alice_x, bob_x)):
            np.testing.assert_array_equal(column, word >> k & 1)
        np.testing.assert_array_equal(bob_bits, bob)


class TestDrawBalance:
    """The visible words of an exchange are fair and independent."""

    @pytest.mark.parametrize("seed", range(2001, 2006))
    def test_joint_table_and_bit_positions(self, cfg, seed):
        # at flux 50 with Eve, over 2^21 frames: each of the 8 visible words
        # (Alice's bit and basis, Bob's basis) within 5 sigma of an eighth
        # of the frames, and each of their three bits set in half
        res = simulate_bb84(replace(cfg, seed=seed), 1 << 21, 50.0, eve=True)
        words = res.tallies.sum(0).reshape(N_WORDS, 3).sum(1)
        n, p = res.n_frames, 1 / N_WORDS
        assert n == 1 << 21
        assert np.all(np.abs(words - n * p) <= 5 * math.sqrt(n * p * (1 - p))), words
        ones = np.array([words[np.arange(N_WORDS) >> k & 1 == 1].sum() for k in range(3)])
        assert np.all(np.abs(ones - n / 2) <= 5 * math.sqrt(n / 4)), ones


class TestPlanes:
    """The transcript's per-frame planes, Alice's bit and basis, Bob's basis
    and bit and the sifted flag, written one batch at a time, against the
    whole run's laid out at once from the tallies."""

    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 37])
    def test_batches_match_whole_run(self, cfg, n, eve, tmp_path):
        res = simulate_bb84(replace(cfg, seed=9), n_frames=n, flux=2.0, eve=eve)
        # every batch's cells, one permutation of its tally's, then decoded
        # at once: a cell is 3 * (bit + 2 alice_x + 4 bob_x) + outcome, the
        # outcome inconclusive, lit P' or lit P, and Bob's bit 0 on P in X
        # and on P' in Z
        gen = RandomSource(9).stream(ROLE_TRANSCRIPT).generator()
        cells = np.concatenate([gen.permutation(np.repeat(np.arange(N_CELLS), tally))
                                for tally in res.tallies])
        word, outcome = np.divmod(cells, 3)
        bits, alice_x, bob_x = (word >> k & 1 for k in range(3))
        bob = np.where(outcome == 0, NULL_BIT, (outcome == 2) != bob_x)
        sifted = (alice_x == bob_x) & (outcome > 0)
        basis = {1: BASIS_X, 0: BASIS_Z}
        lines = ["frame,alice_basis,alice_bit,bob_basis,bob_bit,sifted"]
        lines += [
            f"{i},{basis[ax]},{a},{basis[bx]},{'-' if o == NULL_BIT else o},{int(s)}"
            for i, (ax, a, bx, o, s) in enumerate(zip(
                alice_x.tolist(), bits.tolist(), bob_x.tolist(), bob.tolist(), sifted.tolist()))
        ]
        write_transcript(tmp_path / "t.csv", res)
        assert (tmp_path / "t.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def _counts(res):
    """The result's detected, sifted and wrong sifted frames, the last
    ``qber * n_sifted``."""
    errors = round(res.qber * res.n_sifted) if res.n_sifted else 0
    return res.n_detected, res.n_sifted, errors


class TestStreamSplit:
    """The exchange's tallies, one a batch, against the transcript's rows,
    and a runner detector drawn one span at a time with the dead time
    carried across."""

    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("n", [1, 7, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 5])
    def test_per_frame_state_matches_whole_run(self, cfg, n, eve, monkeypatch, tmp_path):
        # the run's tallies, one multinomial call over every batch, as drawn
        # by hand one batch at a time; its frames as laid out by hand.
        # Each class lights the port of its sent bit alone (P on 1 in X and
        # on 0 in Z), so every frame is conclusive and Bob's bit is that of
        # the state he receives: Alice's without Eve, and with her wrong in
        # a quarter of the frames, those she re-sends in the other basis
        # with the other bit
        cls = np.arange(len(PHASE_TABLE))
        on_p = ((cls >> 2) != 1 - (cls & 1)).astype(float)
        usable = (on_p, 1 - on_p)
        res = _exchange(monkeypatch, cfg, 9, n, usable, eve)
        tallies = _tallies_by_hand(9, n, _law_by_hand(usable, eve))
        np.testing.assert_array_equal(res.tallies, tallies)
        word, ref_bob = _frames_by_hand(9, tallies)
        bits, alice_x, bob_x, bob = _per_frame(res, tmp_path)
        np.testing.assert_array_equal(bits + 2 * alice_x + 4 * bob_x, word)
        np.testing.assert_array_equal(bob, ref_bob)
        assert (bob != NULL_BIT).all() and res.n_detected == n
        wrong = np.count_nonzero(bob != bits)
        if not eve:
            assert wrong == 0
        else:
            assert abs(wrong - n / 4) <= 5 * math.sqrt(n * 3 / 16), (wrong, n)

    # the transcript's rows count the detected, sifted and wrong frames the
    # result read from its tallies, and each batch's rows tally to its row.
    # Cases: the canned flux at V = 0.93 (ids: the frame count), dense ports
    # (flux 50) and a phase floor of 0.05
    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("n,flux,floor", [
        *(pytest.param(n, 2.0, 0.0, id=str(n))
          for n in (1, 7, BATCH - 1, BATCH + 1, 2 * BATCH + 5, 5 * BATCH + 37)),
        *(pytest.param(n, 50.0, 0.0, id=f"{n}-dense") for n in (BATCH + 1, 5 * BATCH + 37)),
        *(pytest.param(n, 2.0, 0.05, id=f"{n}-floor") for n in (BATCH + 1, 5 * BATCH + 37)),
    ])
    def test_result_and_transcript_match_whole_run(self, cfg, n, flux, floor, eve, tmp_path):
        res = simulate_bb84(replace(cfg, seed=10), n_frames=n, flux=flux, eve=eve,
                            phase_floor=floor)
        bits, alice_x, bob_x, bob = _per_frame(res, tmp_path)
        rows = (tmp_path / "transcript.csv").read_bytes().splitlines()[1:]
        assert [int(row.split(b",", 1)[0]) for row in rows] == list(range(n))
        sifted = np.array([row.endswith(b",1") for row in rows], dtype=bool)
        assert np.array_equal(sifted, (alice_x == bob_x) & (bob != NULL_BIT))
        assert (np.count_nonzero(bob != NULL_BIT), np.count_nonzero(sifted),
                np.count_nonzero(bits[sifted] != bob[sifted])) == _counts(res)
        qber = np.mean(bits[sifted] != bob[sifted]) if sifted.any() else math.nan
        assert res.qber == qber or (math.isnan(res.qber) and math.isnan(qber))
        # lit P' gives Bob's basis as his bit, lit P the other
        outcome = np.where(bob == NULL_BIT, 0, 1 + (bob != bob_x))
        cells = 3 * (bits + 2 * alice_x + 4 * bob_x) + outcome
        assert len(res.tallies) == len(range(0, n, BATCH))
        for b, tally in enumerate(res.tallies):
            np.testing.assert_array_equal(
                np.bincount(cells[b * BATCH:(b + 1) * BATCH], minlength=N_CELLS), tally)

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
        for (_, _, ((fr, t), blocked)), (_, carried, _) in zip(calls, calls[1:]):
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


TRANSCRIPT_HEADER = b"frame,alice_basis,alice_bit,bob_basis,bob_bit,sifted\n"


def _per_frame(res, tmp_path):
    """Alice's bits and basis coins, Bob's coins and his bits (``NULL_BIT``
    where inconclusive) in every frame of ``res``, read from its transcript.
    A row ends in ``,B,b,B,b,s``: ten bytes of fixed width before its
    newline."""
    path = tmp_path / "transcript.csv"
    write_transcript(path, res)
    buf = np.frombuffer(path.read_bytes(), np.uint8)
    assert buf[:len(TRANSCRIPT_HEADER)].tobytes() == TRANSCRIPT_HEADER
    ends = np.flatnonzero(buf == ord("\n"))[1:]
    assert len(ends) == res.n_frames
    assert (buf[ends[:, None] - np.arange(2, 12, 2)] == ord(",")).all()
    bits = (buf[ends - 7] - ord("0")).view(np.int8)
    bob = np.where(buf[ends - 3] == ord("-"), NULL_BIT, buf[ends - 3] - ord("0")).astype(np.int8)
    assert np.isin(bits, (0, 1)).all() and np.isin(bob, (NULL_BIT, 0, 1)).all()
    return bits, buf[ends - 9] == ord(BASIS_X), buf[ends - 5] == ord(BASIS_X), bob


def _outcomes(res, tmp_path, alice_basis, bob_basis, bit=None):
    """Bob's conclusive bits in frames with the given bases (and Alice bit)."""
    bits, alice_x, bob_x, bob = _per_frame(res, tmp_path)
    sel = (alice_x == (alice_basis == BASIS_X)) & (bob_x == (bob_basis == BASIS_X))
    sel &= bob != NULL_BIT
    if bit is not None:
        sel &= bits == bit
    return bob[sel]


class TestAlicePrepare:
    def test_mapping_and_balance(self, cfg, tmp_path):
        res = _bb84(cfg, 12, v=1.0, n=1_000_000)
        bits, alice_x, _, _ = _per_frame(res, tmp_path)
        # uniform basis balance within 3 sigma (0.0015 at n=1e6)
        assert abs(np.mean(alice_x) - 0.5) < 0.0015
        assert abs(bits.mean() - 0.5) < 0.0015
        # at unit visibility every sifted bit decodes to Alice's bit
        assert res.n_sifted > 10_000
        assert res.qber == 0.0


class TestBobMeasure:
    def test_matched_basis_deterministic_bit(self, cfg, tmp_path):
        # X basis, bit 1: destructive on port P, so conclusive outcomes are
        # always 1 at unit visibility
        conclusive = _outcomes(_bb84(cfg, 2, v=1.0), tmp_path, BASIS_X, BASIS_X, bit=1)
        assert len(conclusive) > 50
        assert set(conclusive.tolist()) == {1}

    def test_matched_basis_bit0_both_bases(self, cfg, tmp_path):
        res = _bb84(cfg, 3, v=1.0)
        for basis in (BASIS_X, BASIS_Z):
            conclusive = _outcomes(res, tmp_path, basis, basis, bit=0)
            assert len(conclusive) > 50
            assert set(conclusive.tolist()) == {0}

    def test_matched_basis_wrong_port_floor(self, cfg, tmp_path):
        # wrong-port click probability per conclusive outcome is (1 - V)/2
        v = 0.93
        conclusive = _outcomes(_bb84(cfg, 5, v=v), tmp_path, BASIS_X, BASIS_X, bit=1)
        total = len(conclusive)
        wrong = int(np.sum(conclusive == 0))  # correct bit is 1
        expect = (1 - v) / 2
        assert total > 400
        assert abs(wrong / total - expect) < 3 * math.sqrt(expect * (1 - expect) / total)

    def test_mismatched_basis_uniform(self, cfg, tmp_path):
        res = _bb84(cfg, 4, v=1.0)
        outcomes = _outcomes(res, tmp_path, BASIS_Z, BASIS_X, bit=0)
        assert len(outcomes) > 500
        frac = np.mean(outcomes)
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / len(outcomes))


class TestEveIntercept:
    def test_half_of_frames_resent_in_other_basis(self, cfg, tmp_path):
        # at unit visibility a matched-basis bit is wrong only in a frame Eve
        # re-sent in the other basis, and then half the time: in each of
        # Alice's bases, twice the wrong share is the re-sent share, 1/2
        res = simulate_bb84(
            replace(cfg, seed=22), n_frames=400_000, flux=0.5, visibility_cap=1.0, eve=True,
        )
        bits, alice_x, bob_x, bob = _per_frame(res, tmp_path)
        for basis_x in (True, False):
            sel = (alice_x == basis_x) & (bob_x == basis_x) & (bob != NULL_BIT)
            n = int(np.sum(sel))
            assert n > 5000
            resent = 2 * np.mean(bob[sel] != bits[sel])
            assert abs(resent - 0.5) < 2 * 3 * math.sqrt(0.25 * 0.75 / n)


class TestKeyRate:
    def test_bound_term_by_term(self):
        # Tomamichel et al. (2012) written out with the literal settings:
        # eps_sec = eps_corr = 1e-14 (eps_bar = eps_pe = eps_sec / 3),
        # preparation quality 1, eps_rob 0.18, f_ec 1.1 and k = n
        n, q_tol = 10**6, 0.01

        def h2(p):
            return -p * math.log2(p) - (1 - p) * math.log2(1 - p)

        eps = 1e-14 / 3
        mu = math.sqrt((n + n) * (n + 1) / n**3 * math.log(1 / eps) / 2)
        ell = n * (1.0 - h2(q_tol + mu)) - 1.1 * n * h2(q_tol) - math.log2(2 / (1e-14 * eps**2))
        assert key_rate(n, q_tol) == pytest.approx((1 - 0.18) * ell / n, rel=1e-12)

    def test_reference_point(self):
        assert key_rate(10**6) >= 0.64

    def test_maximal_error_tolerance_aborts(self):
        assert key_rate(10**6, q_tol=0.5) == 0.0

    def test_small_block_below_target(self):
        assert key_rate(10**3) < 0.64

    def test_monotone_in_n(self):
        rates = [key_rate(n) for n in (10**3, 10**4, 10**5, 10**6, 10**7)]
        assert all(r1 >= r0 for r0, r1 in zip(rates, rates[1:]))

    def test_monotone_in_q_tol(self):
        rates = [key_rate(10**6, q) for q in (0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 0.5)]
        assert all(r1 <= r0 for r0, r1 in zip(rates, rates[1:]))

    def test_robustness_scales_expected_rate(self, monkeypatch):
        r = key_rate(10**6)
        monkeypatch.setattr(protocol, "EPS_ROB", 0.0)
        assert r == pytest.approx(0.82 * key_rate(10**6), rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            key_rate(0)
        for q_tol in (-0.1, 0.6, math.nan):
            with pytest.raises(ValueError, match="q_tol must be in"):
                key_rate(10**6, q_tol)


def _port_tables(cfg, flux, v, floor):
    """Per frame class, the chance ``q`` that a frame is conclusive, one of
    Bob's ports usable and the other not, and the share of those on port P.
    A port is usable with ``e^{-B} (1 - e^{-I})``, ``B`` and ``I`` its mean
    clicks before and on the interior positions, summed here per ps over
    its components' per-ps law (``per_ps``)."""
    law = delay_interferometer_rates(cfg.eta * flux, cfg.d, v, PHASE_TABLE, "none", floor)
    lo, hi = cfg.pulse_period_ps, cfg.d * cfg.pulse_period_ps  # positions 1 .. d-1
    usable = []
    for port in ("p", "p_prime"):
        before = inside = 0.0
        for rate, placement in _phase_components(cfg, law, port, "none", 0):
            row = per_ps(placement, cfg)
            before = before + rate * row[:lo].sum()
            inside = inside + rate * row[lo:hi].sum()
        usable.append(np.exp(-before) * (1 - np.exp(-inside)))
    p, pp = usable
    q = p * (1 - pp) + pp * (1 - p)
    return q, p * (1 - pp) / q


def _cell_law(cfg, flux, v=0.93, floor=0.0, eve=False):
    """The exchange's law by hand, a row a visible word (Alice's bit and
    basis, Bob's basis), columns inconclusive, lit P' and lit P: each state
    word's chances from its class's ``_port_tables``, averaged over Eve's
    two bits (bits 3 and 4), and each visible word an eighth of frames."""
    q, share = _port_tables(cfg, flux, v, floor)
    cls = state_table(eve).reshape(4, N_WORDS)  # a row a value of Eve's bits
    q, share = q[cls], share[cls]
    return np.stack([1 - q, q * (1 - share), q * share], axis=-1).mean(0) / N_WORDS


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

    # every visible word's frames are conclusive and light port P by the
    # law of two independent ports, each usable where its first gated
    # click lands on an interior position, averaged over Eve's bits;
    # pooled over two seeds, at the canned flux and at three where the
    # ports are dense.  Every visible word is an eighth of the frames, so
    # its conclusive count is binomial in all frames
    @pytest.mark.parametrize("v,floor", [(0.93, 0.0), (1.0, 0.05)])
    def test_port_outcomes_per_class(self, cfg, v, floor):
        for flux, eve in itertools.product((0.148, 2.0, 7.4, 50.0), (False, True)):
            law = _cell_law(cfg, flux, v, floor, eve)
            n = 2 * (1 << 21)
            total = sum(simulate_bb84(replace(cfg, seed=seed), 1 << 21, flux, v, eve,
                                      floor).tallies.sum(0) for seed in (46, 47))
            total = total.reshape(N_WORDS, 3)
            conclusive, on_p = total[:, 1:].sum(1), total[:, 2]
            case = (flux, eve)
            p = law[:, 1:].sum(1)
            mean, var = n * p, n * p * (1 - p)
            assert (np.abs(conclusive - mean) <= 5 * np.sqrt(var)).all(), (case, conclusive, mean)
            assert abs(conclusive.sum() - mean.sum()) <= 5 * math.sqrt(var.sum()), case
            share = law[:, 2] / p
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
        assert res.tallies.shape == (0, N_CELLS)
        write_transcript(tmp_path / "t.csv", res)
        assert (tmp_path / "t.csv").read_bytes() == TRANSCRIPT_HEADER

    def test_transcript_other_frames_balanced(self, cfg, tmp_path):
        # inconclusive frames: their (Alice's bit, Alice's basis, Bob's
        # basis) in each of 8 cells within 5 sigma of its share of them
        res = simulate_bb84(replace(cfg, seed=11), n_frames=1 << 20, flux=0.5, eve=True)
        bits, alice_x, bob_x, bob = _per_frame(res, tmp_path)
        other = bob == NULL_BIT
        n = np.count_nonzero(other)
        assert n > 0.9 * res.n_frames
        law = _cell_law(cfg, 0.5, eve=True)[:, 0]
        p = law / law.sum()
        counts = np.bincount(bits[other] + 2 * alice_x[other] + 4 * bob_x[other], minlength=8)
        assert np.all(np.abs(counts - n * p) <= 5 * np.sqrt(n * p * (1 - p))), (counts, n * p)

    def test_eve_with_imperfect_visibility(self, cfg):
        # full oracle: 1/2 * (1-V)/2 + 1/2 * 1/2
        v = 0.93
        res = simulate_bb84(
            replace(cfg, seed=44), n_frames=400_000, flux=0.5, visibility_cap=v, eve=True,
        )
        expect = 0.5 * (1 - v) / 2 + 0.25
        tol = 3 * math.sqrt(expect * (1 - expect) / res.n_sifted)
        assert abs(res.qber - expect) < tol


class TestExchangeTally:
    """The exchange draws one tally a batch over the ``N_CELLS`` cells: its
    cost and memory go with the batches, not the frames."""

    @pytest.mark.parametrize("flux", [0.5, 50.0])
    @pytest.mark.parametrize("n", [1, BATCH - 1, BATCH, BATCH + 1, 5 * BATCH + 37])
    def test_tallies_tile_the_run(self, cfg, n, flux):
        res = simulate_bb84(replace(cfg, seed=2002), n, flux)
        assert res.tallies.shape == (-(-n // BATCH), N_CELLS)
        np.testing.assert_array_equal(res.tallies.sum(1),
                                      [min(BATCH, n - b0) for b0 in range(0, n, BATCH)])
        assert res.n_detected == res.tallies.reshape(-1, N_WORDS, 3)[:, :, 1:].sum()

    def test_large_run_allocates_little(self, cfg):
        # 2^31 frames: 32768 tallies of 24 cells (6.3 MB), and the counts
        # within 5 sigma of the frames times the law
        n, flux = 1 << 31, 2.0
        tracemalloc.start()
        try:
            res = simulate_bb84(replace(cfg, seed=2005), n, flux, eve=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak
        law = _cell_law(cfg, flux, eve=True)
        total = res.tallies.sum(0).reshape(N_WORDS, 3)
        assert (np.abs(total - n * law) <= 5 * np.sqrt(n * law * (1 - law))).all(), total
        sifted = np.array([(w >> 1 & 1) == (w >> 2 & 1) for w in range(N_WORDS)])
        for count, p in ((res.n_detected, law[:, 1:].sum()), (res.n_sifted, law[sifted, 1:].sum())):
            assert abs(count - n * p) <= 5 * math.sqrt(n * p * (1 - p)), (count, n * p)


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
            n = rep["extra"]["n_sifted"]
            errors += round(rep["qber_sifted"] * n)
            sifted += n
            detected += rep["extra"]["n_detected"]
        assert sifted > 100_000
        assert abs(errors / sifted - expect) <= 4 * math.sqrt(expect * (1 - expect) / sifted)
        assert abs(sifted / detected - 0.5) <= 4 * math.sqrt(0.25 / detected)
