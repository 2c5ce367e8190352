"""Differential-phase BB84 over phase frames: the protocol layer.

Alice encodes one qubit per frame in the differential phase of the pulse
train (X basis: {0, pi}; Z basis: {pi/2, 3pi/2}); Bob measures with a
one-pulse-delay interferometer whose extra phase selects his basis
(phi_b = 0 measures X, pi/2 measures Z).  A frame-level click on one of the
two output ports is the measurement outcome; double or missing clicks give
a null bit.  Clicks in the two edge positions of the train carry no phase
information and are discarded before the bit decision.  Each frame's
outcome is drawn by ``pipeline.simulate_bb84``; this module holds the
state's class table, the tally cells' law and counts, the encoding table,
the finite-key bound and the transcript.

A frame's state is one word of five fair bits: Alice's bit and basis,
Bob's basis, and Eve's basis and bit; a 32-entry table reads its class,
which indexes the eight values of phi_a + phi_b in ``PHASE_TABLE``
(``state_table``).  No output reads Eve's bits, so the exchange sums
them out: its law has ``N_CELLS`` cells, a visible word (Alice's bit and
basis, Bob's basis) by outcome (inconclusive, lit P' or lit P), and it
draws each batch's tally over them.  No per-frame array is built: the
counts and the sifted error rate are read from the summed tallies, and
the transcript lays each batch's frames out in an order of its own.

Port convention: port P carries the ``1 + V cos(phi_a + phi_b)`` lobe.  A
matched-basis bit 0 therefore lights port P in the X basis but port P' in
the Z basis: Bob's bit is 0 on P in X and on P' in Z.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import ascii_digits, csv_bytes, csv_header
from .config import BATCH, ROLE_TRANSCRIPT, RandomSource

__all__ = [
    "BASIS_X",
    "BASIS_Z",
    "state_table",
    "cell_law",
    "key_rate",
    "Bb84Result",
    "write_transcript",
]

BASIS_X = "X"
BASIS_Z = "Z"

# Alice's phase by 2*bit + (basis is Z) (X0, Z0, X1, Z1); Bob adds 0 (X) or
# pi/2 (Z), so 2*that + (Bob measures Z) is the frame class
PHASES = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
PHASE_TABLE = (PHASES[:, None] + np.array([0.0, math.pi / 2])).ravel()
# a frame's state is a word of five fair bits (see ``state_table``), of
# which the low three are visible; a tally cell is 3 * visible word +
# outcome (inconclusive, lit P', lit P)
N_STATES = 32
N_WORDS = 8
N_CELLS = 3 * N_WORDS


def state_table(eve: bool) -> np.ndarray:
    """The class into ``PHASE_TABLE`` of the state Bob receives, for each of
    the 32 state words: bit 0 is Alice's bit, bit 1 her basis, bit 2 Bob's
    basis (1 -> X for each), bit 3 Eve's basis and bit 4 Eve's bit.  An
    intercept-resend Eve measures in her basis; where it differs from
    Alice's she re-sends her own bit in it, so the sent basis is hers and
    the sent bit hers where the bases differ.  The class is ``4 * sent bit
    + 2 * (sent basis Z) + (Bob measures Z)``.  Without Eve, bits 3 and 4
    are ignored."""
    bit, alice_x, bob_x, eve_x, eve_bit = np.arange(N_STATES) >> np.arange(5)[:, None] & 1
    sent_bit, sent_x = bit, alice_x
    if eve:
        sent_bit, sent_x = np.where(eve_x == alice_x, bit, eve_bit), eve_x
    return 4 * sent_bit + 2 * (1 - sent_x) + (1 - bob_x)


def cell_law(lights_p: np.ndarray, lights_pp: np.ndarray, eve: bool) -> np.ndarray:
    """A frame's law over the ``N_CELLS`` tally cells, given per class its
    chances of lighting port P alone and port P' alone (inconclusive
    otherwise): read per state word through ``state_table`` and summed
    over Eve's two bits, which no output reads."""
    outcome = np.stack([1 - lights_p - lights_pp, lights_pp, lights_p], axis=1)
    return outcome[state_table(eve)].reshape(-1, N_WORDS, 3).sum(0).ravel() / N_STATES


def _cell_bits() -> tuple:
    """Per tally cell, Alice's bit, her basis and Bob's (1 -> X) and Bob's
    bit: -1 where inconclusive, else lit P xor his basis (0 on P in X and
    on P' in Z)."""
    word, outcome = np.divmod(np.arange(N_CELLS), 3)
    bit, alice_x, bob_x = (word >> k & 1 for k in range(3))
    return bit, alice_x, bob_x, np.where(outcome == 0, -1, (outcome == 2) ^ bob_x)


# Settings of the finite-key bound that no run varies: the secrecy and
# correctness failure probabilities, the preparation quality (1 for ideal
# BB84 states), the robustness (the chance that the protocol aborts with no
# eavesdropper) and the error-correction inefficiency.  The
# parameter-estimation sample ``k`` is the raw key's ``n``.
EPS_SEC = 1e-14
EPS_CORR = 1e-14
Q = 1.0
EPS_ROB = 0.18
F_EC = 1.1


def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def key_rate(n: int, q_tol: float = 0.01) -> float:
    """Expected secret bits per raw key bit from the finite-key bound, for
    ``n`` raw key bits at channel error tolerance ``q_tol``.

    Implements the key-length bound of Tomamichel, Lim, Gisin & Renner,
    "Tight finite-key analysis for quantum cryptography", Nat. Commun. 3,
    634 (2012), term by term, with the module's settings ``EPS_SEC``,
    ``EPS_CORR``, ``Q``, ``EPS_ROB`` and ``F_EC`` and ``k = n``
    parameter-estimation bits:

    * ``n (Q - h2(q_tol + mu))`` -- smooth min-entropy of the raw key given
      the adversary, from the entropic uncertainty relation; ``Q`` is the
      preparation quality (1 for ideal BB84) and ``mu`` the statistical
      fluctuation between the k sampled and n unsampled positions
      (Serfling-type bound for sampling without replacement):
      ``mu = sqrt((n + k)(k + 1) / (n k^2) * ln(1/eps_pe) / 2)``.
    * ``leak_ec = F_EC * n * h2(q_tol)`` -- error-correction leakage model.
    * ``log2(2 / (EPS_CORR * eps_bar^2))`` -- correctness verification plus
      leftover-hash privacy-amplification cost.
    * The secrecy budget is split ``EPS_SEC = 2 eps_bar + eps_pe`` with
      ``eps_bar = eps_pe = EPS_SEC / 3``.
    * The expected rate is scaled by ``(1 - EPS_ROB)``: with probability
      ``EPS_ROB`` the protocol aborts even without an eavesdropper and
      yields no key.

    Returns 0 when the bound is non-positive (abort regime).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= q_tol <= 0.5:
        raise ValueError(f"q_tol must be in [0, 0.5], got {q_tol}")
    k = n
    eps_bar = eps_pe = EPS_SEC / 3.0
    mu = math.sqrt((n + k) * (k + 1) / (n * k * k) * math.log(1.0 / eps_pe) / 2.0)
    q_err = q_tol + mu
    if q_err >= 0.5:
        return 0.0
    ell = (n * (Q - _h2(q_err)) - F_EC * n * _h2(q_tol)
           - math.log2(2.0 / (EPS_CORR * eps_bar * eps_bar)))
    if ell <= 0:
        return 0.0
    return (1.0 - EPS_ROB) * ell / n


# ---------------------------------------------------------------------------
# BB84 session record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bb84Result:
    """Counts and sifted error rate of one exchange, and its ``tallies``:
    a row a batch of ``BATCH`` frames, the batch's frames in each tally
    cell (``3 * visible word + outcome``, see ``N_CELLS``)."""

    n_frames: int
    n_detected: int
    n_sifted: int
    qber: float
    seed: int
    tallies: np.ndarray

    @classmethod
    def from_tallies(cls, seed: int, tallies: np.ndarray) -> Bb84Result:
        """The counts and the QBER, ``errors / n_sifted``, of the summed
        tallies: a conclusive frame sifts where the bases match, and errs
        where Bob's bit is not Alice's."""
        bit, alice_x, bob_x, bob = _cell_bits()
        total = tallies.sum(0)
        conclusive = bob >= 0
        sifted = conclusive & (alice_x == bob_x)
        n_sifted = int(total[sifted].sum())
        qber = total[sifted & (bob != bit)].sum() / n_sifted if n_sifted else math.nan
        return cls(int(total.sum()), int(total[conclusive].sum()), n_sifted, float(qber), seed,
                   tallies)


def _row_ends() -> np.ndarray:
    """Per tally cell, the bytes of a transcript row after its frame
    number: Alice's basis and bit, Bob's basis and bit ('-' where
    inconclusive) and the sifted flag."""
    basis = (BASIS_Z, BASIS_X)
    ends = "".join(
        f",{basis[ax]},{b},{basis[bx]},{'-' if o < 0 else o},{int(o >= 0 and ax == bx)}\n"
        for b, ax, bx, o in zip(*(column.tolist() for column in _cell_bits())))
    return np.frombuffer(ends.encode(), np.uint8).reshape(N_CELLS, -1)


def write_transcript(path, result: Bb84Result) -> None:
    """Dump the announced bases and detection outcomes (audit log).

    One row per frame under the declared header (``analysis.ARTIFACTS``),
    written one batch at a time: the bit column is what
    Bob would announce having detected ('-' for an inconclusive frame);
    sifted marks basis-matched conclusive positions.  A batch's rows are
    one permutation of its tally's cells, each repeated its count, drawn
    from stream ``(ROLE_TRANSCRIPT,)``: given a batch's counts, its i.i.d.
    frames are in uniform order, so each frame has the exchange's law and
    the rows tally exactly to the result.
    """
    gen = RandomSource(result.seed).stream(ROLE_TRANSCRIPT).generator()
    ends = _row_ends()
    with open(path, "wb") as out:
        out.write(csv_header("transcript.csv"))
        for b0, tally in zip(range(0, result.n_frames, BATCH), result.tallies):
            cells = gen.permutation(np.repeat(np.arange(N_CELLS, dtype=np.uint8), tally))
            out.write(csv_bytes(ascii_digits(np.arange(b0, b0 + len(cells))), ends[cells]))
