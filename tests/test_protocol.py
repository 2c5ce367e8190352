import itertools
import math
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from sdmqsim import pipeline
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
    Bb84Result,
    ExchangeSpan,
    KeyRateParams,
    N_STATES,
    NULL_BIT,
    PHASE_TABLE,
    PHASES,
    key_rate,
    state_table,
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


class TestStateTable:
    """The 32 state words' tables against a brute-force build from
    ``PHASES``, ``PHASE_TABLE`` and the intercept-resend rule."""

    @pytest.mark.parametrize("eve", [False, True])
    def test_matches_brute_force(self, eve):
        table = state_table(eve)
        assert [len(t) for t in table] == [N_STATES] * 4
        for word in range(N_STATES):
            bit, alice_x, bob_x, eve_x, eve_bit = (word >> k & 1 for k in range(5))
            sent = PHASES[2 * bit + (not alice_x)]
            if eve and eve_x != alice_x:  # Eve re-sends her own bit in her basis
                sent = PHASES[2 * eve_bit + (not eve_x)]
            # the class adds Bob's basis: 0 to measure X, pi/2 to measure Z
            phase = sent + (0.0 if bob_x else math.pi / 2)
            cls = [c for c in range(len(PHASE_TABLE))
                   if c % 2 == (not bob_x) and math.isclose(PHASE_TABLE[c], phase)]
            assert cls == [table.cls[word]], word
            assert table.alice_bit[word] == bit and table.bob_x[word] == bob_x
            # a conclusive frame sifts where Alice's and Bob's bases match
            assert table.sifted[word] == (alice_x == bob_x)
        assert table.alice_bit.dtype == np.int8 and table.sifted.sum() == N_STATES // 2
        # each class holds four words, so every class is an eighth of frames
        assert (np.bincount(table.cls, minlength=len(PHASE_TABLE)) == N_STATES // 8).all()


def _spans(cfg, n, flux, eve, seed, v=0.93, floor=0.0):
    return list(simulate_bb84(replace(cfg, seed=seed), n_frames=n, flux=flux,
                              visibility_cap=v, eve=eve, phase_floor=floor).spans())


class TestExchangeDraws:
    """The exchange draws a state word at each frame holding a photon
    candidate, one span at a time."""

    @pytest.mark.parametrize("flux,batches", [(0.5, pipeline.EXCHANGE_SPAN_BATCHES), (50.0, 1)])
    def test_spans_tile_the_run(self, cfg, flux, batches):
        n = 5 * BATCH + 37
        spans = _spans(cfg, n, flux, False, 2002)
        assert [(s.start, s.stop) for s in spans] == [
            (b0, min(b0 + batches * BATCH, n)) for b0 in range(0, n, batches * BATCH)]
        for s in spans:
            assert (np.diff(s.frames) > 0).all() and s.start <= s.frames[0] <= s.frames[-1] < s.stop
            assert len(s.state) == len(s.frames) and (np.diff(s.conclusive) > 0).all()
            assert len(s.bob_bits) == len(s.conclusive) and np.isin(s.bob_bits, (0, 1)).all()
            assert len(s.kept) == len(s.state) and len(s.lit_p) == len(s.conclusive_state)

    def test_frames_are_the_distinct_candidates(self, cfg):
        for s in _spans(cfg, 5 * BATCH + 37, 0.5, False, 2003):
            np.testing.assert_array_equal(s.frames, s.start + s.candidates[s.first])
            np.testing.assert_array_equal(s.frames, s.start + np.unique(s.candidates))
            np.testing.assert_array_equal(s.conclusive_state, s.state[s.conclusive])

    def test_exchange_forms_no_frames(self, cfg, monkeypatch, tmp_path):
        # the counts read the tally of the conclusive states and lit ports
        # the draw gathered: only the transcript forms a span's frames,
        # conclusive frames and Bob's bits, each once a span
        formed = {name: [] for name in ("frames", "conclusive", "bob_bits")}
        for name, log in formed.items():
            monkeypatch.setattr(ExchangeSpan, name, property(
                lambda span, log=log, get=getattr(ExchangeSpan, name).fget:
                    log.append(span.start) or get(span)))
        res = simulate_bb84(replace(cfg, seed=2004), 5 * BATCH + 37, 0.5, eve=True)
        assert res.n_sifted > 0 and formed == {name: [] for name in formed}
        write_transcript(tmp_path / "t.csv", res)
        starts = list(range(0, res.n_frames, pipeline.EXCHANGE_SPAN_BATCHES * BATCH))
        assert formed == {name: starts for name in formed}


class TestDrawBalance:
    """The state words of an exchange are fair and independent."""

    @pytest.mark.parametrize("seed", range(2001, 2006))
    def test_joint_table_and_bit_positions(self, cfg, seed):
        # at flux 50 most frames hold a candidate: over 10^6 words, each of
        # the 32 (Alice's bit and basis, Bob's basis, Eve's basis and bit)
        # within 5 sigma of its share, and each of the five bits set in half
        words = np.concatenate([span.state for span in _spans(cfg, 1 << 21, 50.0, True, seed)])
        n, p = len(words), 1 / N_STATES
        assert n > 10**6
        counts = np.bincount(words, minlength=N_STATES)
        assert len(counts) == N_STATES
        assert np.all(np.abs(counts - n * p) <= 5 * math.sqrt(n * p * (1 - p))), counts
        ones = np.array([np.count_nonzero(words >> k & 1) for k in range(5)])
        assert np.all(np.abs(ones - n / 2) <= 5 * math.sqrt(n / 4)), ones


def _exchange(seed, n, rate):
    """An ``n``-frame exchange over the 32-entry table ``rate`` of kept
    candidates a frame by state word, half of each state's conclusive frames
    lighting port P: a result for its spans and its transcript."""
    conclusive = -np.expm1(-rate)
    spans = partial(pipeline._exchange_spans, seed, n, rate, conclusive, conclusive / 2)
    return Bb84Result(n, 0, 0, math.nan, seed, spans)


def _drawn_by_hand(seed, n, rate):
    """Per frame of ``_exchange``, drawn by hand one span at a time, each
    from stream ``(ROLE_PHOTONS, first batch)``: its state word (-1 without
    a candidate) and Bob's bit (``NULL_BIT`` where inconclusive).  The words
    are laid out a frame and every candidate is thinned on its own."""
    conclusive = -np.expm1(-rate)
    r_max = rate.max()
    span = min(pipeline.EXCHANGE_SPAN_BATCHES * BATCH, pipeline._span(r_max))
    word = np.full(n, -1, np.int64)
    bob = np.full(n, NULL_BIT, np.int8)
    for start in range(0, n, span):
        nb = min(span, n - start)
        gen = RandomSource(seed).stream(ROLE_PHOTONS, start // BATCH).generator()
        idx = start + np.sort(gen.integers(0, nb, size=gen.poisson(r_max * nb)))
        frames = np.unique(idx)
        word[frames] = gen.bit_generator.random_raw(len(frames)) & (N_STATES - 1)
        kept = np.unique(idx[gen.random(len(idx)) * r_max < rate[word[idx]]])
        s = word[kept]
        on_p = gen.random(len(kept)) * conclusive[s] < conclusive[s] / 2
        bob[kept] = on_p != (s >> 2 & 1)  # bit 2 is Bob's basis, 1 -> X
    return word, bob


def _per_frame_words(res):
    """``_drawn_by_hand``'s per-frame words and Bob's bits from the spans
    of ``res``."""
    word = np.full(res.n_frames, -1, np.int64)
    bob = np.full(res.n_frames, NULL_BIT, np.int8)
    for span in res.spans():
        word[span.frames] = span.state
        bob[span.frames[span.conclusive]] = span.bob_bits
    return word, bob


# a rate table topping at one kept candidate a frame: spans of one batch
RATES = np.linspace(0.05, 1.0, N_STATES)


class TestRawDraws:
    """A candidate frame's state word is the low five bits of one of numpy's
    raw Philox words, drawn after the candidates; the transcript's other
    frames take their coins and bits from numpy's draws of stream
    ``(ROLE_TRANSCRIPT,)``, three bits a frame, one batch at a time."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, BATCH - 1, BATCH, BATCH + 1])
    @pytest.mark.parametrize("seed", range(5))
    def test_coins_and_bits_match_numpy(self, seed, n, tmp_path):
        res = _exchange(seed, n, RATES)
        word, bob = _drawn_by_hand(seed, n, RATES)
        got_word, got_bob = _per_frame_words(res)
        np.testing.assert_array_equal(got_word, word)
        np.testing.assert_array_equal(got_bob, bob)
        gen = RandomSource(seed).stream(ROLE_TRANSCRIPT).generator()
        other = np.concatenate([gen.integers(0, 8, min(BATCH, n - b0), dtype=np.uint8)
                                for b0 in range(0, n, BATCH)])
        state = np.where(word < 0, other, word)
        bits, alice_x, bob_x, bob_bits = _per_frame(res, tmp_path)
        for k, column in enumerate((bits, alice_x, bob_x)):
            np.testing.assert_array_equal(column, state >> k & 1)
        np.testing.assert_array_equal(bob_bits, bob)


class TestPlanes:
    """The transcript's per-frame planes, Alice's bit and basis, Bob's basis
    and bit and the sifted flag, written one batch at a time, against the
    whole run's laid out at once."""

    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 37])
    def test_batches_match_whole_run(self, cfg, n, eve, tmp_path):
        res = simulate_bb84(replace(cfg, seed=9), n_frames=n, flux=2.0, eve=eve)
        # the other frames' words drawn at once, then the candidates' words
        gen = RandomSource(9).stream(ROLE_TRANSCRIPT).generator()
        state = gen.integers(0, 8, n, dtype=np.uint8).astype(np.int64)
        bob = np.full(n, NULL_BIT, dtype=np.int8)
        for span in res.spans():
            state[span.frames] = span.state
            bob[span.frames[span.conclusive]] = span.bob_bits
        bits, alice_x, bob_x = (state >> k & 1 for k in range(3))
        sifted = (alice_x == bob_x) & (bob != NULL_BIT)
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


def _span_counts(spans, table):
    """``_counts`` recounted from the spans: their conclusive states and
    Bob's bits, read through ``table``."""
    detected = sifted = errors = 0
    for span in spans:
        words = span.state[span.conclusive]
        keep = table.sifted[words]
        detected, sifted = detected + len(words), sifted + np.count_nonzero(keep)
        errors += np.count_nonzero(table.alice_bit[words[keep]] != span.bob_bits[keep])
    return detected, sifted, errors


class TestStreamSplit:
    """The exchange drawn one span at a time, each span from a stream of its
    own, against the whole run, and a runner detector drawn one span at a
    time with the dead time carried across."""

    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("n", [1, 7, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 5])
    def test_per_frame_state_matches_whole_run(self, n, eve):
        # the run's words and Bob's bits as drawn by hand span by span, and
        # each word's class that of the state Bob receives: Alice's, or
        # Eve's where her basis differs
        table = state_table(eve)
        rate = RATES[::4][table.cls]
        res = _exchange(9, n, rate)
        assert [s.start for s in res.spans()] == list(range(0, n, BATCH))
        word, bob = _per_frame_words(res)
        ref_word, ref_bob = _drawn_by_hand(9, n, rate)
        np.testing.assert_array_equal(word, ref_word)
        np.testing.assert_array_equal(bob, ref_bob)
        w = word[word >= 0]
        bits, eve_bits = (w & 1).astype(np.int8), (w >> 4 & 1).astype(np.int8)
        alice_x, bob_x, eve_x = ((w >> k & 1).astype(bool) for k in (1, 2, 3))
        sent = phase_index(alice_x, bits)
        if eve:
            sent = np.where(eve_x == alice_x, sent, phase_index(eve_x, eve_bits))
        np.testing.assert_array_equal(table.cls[w], phase_index(bob_x, sent))

    # the transcript replays the exchange: its rows count the detected,
    # sifted and wrong frames the result's tally read; a frame with a
    # candidate shows the state the exchange drew there.  Cases: the canned
    # flux at V = 0.93 (ids: the frame count), dense ports (flux 50, spans
    # of one batch) and a phase floor of 0.05
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
        for span in res.spans():
            words = span.state
            np.testing.assert_array_equal(bits[span.frames], words & 1)
            np.testing.assert_array_equal(alice_x[span.frames], words >> 1 & 1)
            np.testing.assert_array_equal(bob_x[span.frames], words >> 2 & 1)
            np.testing.assert_array_equal(bob[span.frames[span.conclusive]], span.bob_bits)
        assert _span_counts(res.spans(), state_table(eve)) == _counts(res)

    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("n", [1, 64, BATCH + 1, 5 * BATCH + 37])
    def test_spans_give_the_same_state(self, cfg, n, eve):
        # the transcript draws the exchange's spans again: each time the
        # same, and they hold the result's counts
        res = simulate_bb84(replace(cfg, seed=9), n_frames=n, flux=2.0, eve=eve)
        spans, again = list(res.spans()), list(res.spans())
        assert [s.start for s in spans] == [s.start for s in again]
        for span, other in zip(spans, again, strict=True):
            for got, want in zip(span, other, strict=True):
                np.testing.assert_array_equal(got, want)
        assert _span_counts(spans, state_table(eve)) == _counts(res)

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
    # and at three where the ports are dense.  Every class is an eighth of
    # the frames, so a class's conclusive count is binomial in all frames
    @pytest.mark.parametrize("v,floor", [(0.93, 0.0), (1.0, 0.05)])
    def test_port_outcomes_per_class(self, cfg, v, floor):
        for flux, eve in itertools.product((0.148, 2.0, 7.4, 50.0), (False, True)):
            q, share = _port_tables(cfg, flux, v, floor)
            table = state_table(eve)
            conclusive = on_p = 0
            n = 2 * (1 << 21)
            for seed in (46, 47):
                for span in _spans(cfg, 1 << 21, flux, eve, seed, v, floor):
                    cls = table.cls[span.conclusive_state]
                    conclusive += np.bincount(cls, minlength=len(PHASE_TABLE))
                    on_p += np.bincount(cls, span.lit_p, minlength=len(PHASE_TABLE))
            case = (flux, eve)
            p = q / len(PHASE_TABLE)
            mean, var = n * p, n * p * (1 - p)
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
        assert list(res.spans()) == []
        write_transcript(tmp_path / "t.csv", res)
        assert (tmp_path / "t.csv").read_bytes() == TRANSCRIPT_HEADER

    def test_transcript_other_frames_balanced(self, cfg, tmp_path):
        # frames with no candidate: inconclusive, and their (Alice's bit,
        # Alice's basis, Bob's basis) in each of 8 cells within 5 sigma
        res = simulate_bb84(replace(cfg, seed=11), n_frames=1 << 20, flux=0.5, eve=True)
        bits, alice_x, bob_x, bob = _per_frame(res, tmp_path)
        other = np.ones(res.n_frames, dtype=bool)
        for span in res.spans():
            other[span.frames] = False
        assert (bob[other] == NULL_BIT).all()
        n, p = np.count_nonzero(other), 1 / 8
        assert n > 0.9 * res.n_frames
        counts = np.bincount(bits[other] + 2 * alice_x[other] + 4 * bob_x[other], minlength=8)
        assert np.all(np.abs(counts - n * p) <= 5 * math.sqrt(n * p * (1 - p))), counts

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
