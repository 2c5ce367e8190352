"""Differential-phase BB84 over phase frames: the protocol layer.

Alice encodes one qubit per frame in the differential phase of the pulse
train (X basis: {0, pi}; Z basis: {pi/2, 3pi/2}); Bob measures with a
one-pulse-delay interferometer whose extra phase selects his basis
(phi_b = 0 measures X, pi/2 measures Z).  A frame-level click on one of the
two output ports is the measurement outcome; double or missing clicks give
a null bit.  Clicks in the two edge positions of the train carry no phase
information and are discarded before the bit decision.  Each frame's
outcome is drawn by ``pipeline.simulate_bb84``; this module holds the
per-frame state's tables, the encoding table, the finite-key bound and the
transcript.

A frame's state is one word of five fair bits: Alice's bit and basis,
Bob's basis, and Eve's basis and bit (``state_table``).  The exchange draws
it only at the frames that hold a photon candidate, one span at a time
(``ExchangeSpan``), and tallies its conclusive frames by state word and
lit port; the 32-entry tables read the class, which indexes the eight
values of phi_a + phi_b in ``PHASE_TABLE``, and from the tally the counts
and the sifted error rate.  No per-frame array is built, and the result
keeps no key and no record of frames: the transcript draws the spans
again and fills the other frames from a stream of its own.

Port convention: port P carries the ``1 + V cos(phi_a + phi_b)`` lobe.  A
matched-basis bit 0 therefore lights port P in the X basis but port P' in
the Z basis: Bob's bit is 0 on P in X and on P' in Z.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .analysis import ascii_digits, csv_bytes
from .config import BATCH, ROLE_TRANSCRIPT, RandomSource

__all__ = [
    "BASIS_X",
    "BASIS_Z",
    "KeyRateParams",
    "StateTable",
    "state_table",
    "ExchangeSpan",
    "key_rate",
    "Bb84Result",
    "write_transcript",
]

BASIS_X = "X"
BASIS_Z = "Z"
NULL_BIT = -1  # array representation of a null outcome

# Alice's phase by 2*bit + (basis is Z) (X0, Z0, X1, Z1); Bob adds 0 (X) or
# pi/2 (Z), so 2*that + (Bob measures Z) is the frame class
PHASES = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
PHASE_TABLE = (PHASES[:, None] + np.array([0.0, math.pi / 2])).ravel()
# a frame's state is a word of five fair bits (see ``state_table``)
N_STATES = 32


class StateTable(NamedTuple):
    """A frame's state word read through 32-entry tables: the class into
    ``PHASE_TABLE`` of the state Bob receives, Alice's bit, Bob's basis
    (1 -> X) and whether the two bases match (the frame sifts if
    conclusive)."""

    cls: np.ndarray
    alice_bit: np.ndarray
    bob_x: np.ndarray
    sifted: np.ndarray


def state_table(eve: bool) -> StateTable:
    """The tables of the 32 state words: bit 0 is Alice's bit, bit 1 her
    basis, bit 2 Bob's basis (1 -> X for each), bit 3 Eve's basis and bit 4
    Eve's bit.  An intercept-resend Eve measures in her basis; where it
    differs from Alice's she re-sends her own bit in it, so the sent basis
    is hers and the sent bit hers where the bases differ.  The class is
    ``4 * sent bit + 2 * (sent basis Z) + (Bob measures Z)``.  Without Eve,
    bits 3 and 4 are ignored."""
    bit, alice_x, bob_x, eve_x, eve_bit = np.arange(N_STATES) >> np.arange(5)[:, None] & 1
    sent_bit, sent_x = bit, alice_x
    if eve:
        sent_bit, sent_x = np.where(eve_x == alice_x, bit, eve_bit), eve_x
    cls = 4 * sent_bit + 2 * (1 - sent_x) + (1 - bob_x)
    return StateTable(cls, bit.astype(np.int8), bob_x.astype(bool), alice_x == bob_x)


class ExchangeSpan(NamedTuple):
    """Frames ``start .. stop`` of an exchange, as its draw made them: its
    photon candidates as frames from ``start``, sorted, the index of each
    frame's first one, the frames' state words, which frames are conclusive
    (``kept``), their states and whether each lit port P."""

    start: int
    stop: int
    candidates: np.ndarray
    first: np.ndarray
    state: np.ndarray
    kept: np.ndarray
    conclusive_state: np.ndarray
    lit_p: np.ndarray

    # formed only where read, by the transcript
    @property
    def frames(self) -> np.ndarray:
        """The frames holding a candidate, sorted and distinct."""
        return self.start + self.candidates[self.first]

    @property
    def conclusive(self) -> np.ndarray:
        """The conclusive frames, as indices into ``frames``."""
        return np.flatnonzero(self.kept)

    @property
    def bob_bits(self) -> np.ndarray:
        """Bob's bit at each conclusive frame: 0 on port P in X and on P' in
        Z (bit 2 of the word is Bob's basis, 1 -> X)."""
        return (self.lit_p != (self.conclusive_state >> 2 & 1)).astype(np.int8)


@dataclass(frozen=True)
class KeyRateParams:
    """Inputs of the finite-key secret-fraction bound.

    ``eps_sec``/``eps_corr`` are the secrecy and correctness failure
    probabilities, ``q_tol`` the channel error tolerance, ``n`` the raw key
    bits, ``k`` the parameter-estimation bits (defaults to n), ``q`` the
    preparation quality (1 for ideal BB84 states), ``eps_rob`` the
    robustness (probability the protocol aborts with no eavesdropper) and
    ``f_ec`` the error-correction inefficiency.
    """

    n: int = 1_000_000
    k: int | None = None
    eps_sec: float = 1e-14
    eps_corr: float = 1e-14
    q_tol: float = 0.01
    q: float = 1.0
    eps_rob: float = 0.18
    f_ec: float = 1.1

    @property
    def k_eff(self) -> int:
        return self.n if self.k is None else self.k

    def validate(self) -> None:
        if self.n < 1 or self.k_eff < 1:
            raise ValueError("n and k must be >= 1")
        for name in ("eps_sec", "eps_corr"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must be in (0, 1)")
        if not 0 <= self.q_tol <= 0.5:
            raise ValueError("q_tol must be in [0, 0.5]")
        if not 0 <= self.eps_rob < 1:
            raise ValueError("eps_rob must be in [0, 1)")
        if not 0 < self.q <= 1:
            raise ValueError("q must be in (0, 1]")
        if self.f_ec < 1:
            raise ValueError("f_ec must be >= 1")


def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def key_rate(params: KeyRateParams) -> float:
    """Expected secret bits per raw key bit from the finite-key bound.

    Implements the key-length bound of Tomamichel, Lim, Gisin & Renner,
    "Tight finite-key analysis for quantum cryptography", Nat. Commun. 3,
    634 (2012), term by term:

    * ``n (q - h2(q_tol + mu))`` -- smooth min-entropy of the raw key given
      the adversary, from the entropic uncertainty relation; ``q`` is the
      preparation quality (1 for ideal BB84) and ``mu`` the statistical
      fluctuation between the k sampled and n unsampled positions
      (Serfling-type bound for sampling without replacement):
      ``mu = sqrt((n + k)(k + 1) / (n k^2) * ln(1/eps_pe) / 2)``.
    * ``leak_ec = f_ec * n * h2(q_tol)`` -- error-correction leakage model.
    * ``log2(2 / (eps_corr * eps_bar^2))`` -- correctness verification plus
      leftover-hash privacy-amplification cost.
    * The secrecy budget is split ``eps_sec = 2 eps_bar + eps_pe`` with
      ``eps_bar = eps_pe = eps_sec / 3``.
    * The expected rate is scaled by ``(1 - eps_rob)``: with probability
      ``eps_rob`` the protocol aborts even without an eavesdropper and
      yields no key.

    Returns 0 when the bound is non-positive (abort regime).
    """
    params.validate()
    n, k = params.n, params.k_eff
    eps_bar = eps_pe = params.eps_sec / 3.0
    mu = math.sqrt(
        (n + k) * (k + 1) / (n * k * k) * math.log(1.0 / eps_pe) / 2.0
    )
    q_err = params.q_tol + mu
    if q_err >= 0.5:
        return 0.0
    leak_ec = params.f_ec * n * _h2(params.q_tol)
    ell = (
        n * (params.q - _h2(q_err))
        - leak_ec
        - math.log2(2.0 / (params.eps_corr * eps_bar * eps_bar))
    )
    if ell <= 0:
        return 0.0
    return (1.0 - params.eps_rob) * ell / n


# ---------------------------------------------------------------------------
# BB84 session record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bb84Result:
    """Counts and sifted error rate of one exchange; ``spans()`` draws its
    spans again, as the exchange drew them, for the transcript."""

    n_frames: int
    n_detected: int
    n_sifted: int
    qber: float
    seed: int
    spans: Callable[[], Iterator[ExchangeSpan]]


def _basis_chars(basis_x: np.ndarray) -> np.ndarray:
    return np.where(basis_x, np.uint8(ord(BASIS_X)), np.uint8(ord(BASIS_Z)))


def _bit_chars(bits: np.ndarray) -> np.ndarray:
    """``0``/``1`` for int8 bits, ``-`` for ``NULL_BIT``."""
    return np.where(bits == NULL_BIT, np.uint8(ord("-")), bits.view(np.uint8) + np.uint8(48))


def write_transcript(path, result: Bb84Result) -> None:
    """Dump the announced bases and detection outcomes (audit log).

    One row per frame, written one batch at a time as the exchange's spans
    are drawn again: the bit column is what Bob would announce having
    detected ('-' for an inconclusive frame); sifted marks basis-matched
    conclusive positions.  A frame with a photon candidate shows the state
    the exchange drew.  Every other frame is inconclusive, and its bases
    and Alice's bit are drawn for the transcript alone, three bits of a
    state word a frame from stream ``(ROLE_TRANSCRIPT,)``.
    """
    gen = RandomSource(result.seed).stream(ROLE_TRANSCRIPT).generator()
    with open(path, "wb") as out:
        out.write(b"frame,alice_basis,alice_bit,bob_basis,bob_bit,sifted\n")
        for span in result.spans():
            frames, conclusive, bob_bits = span.frames, span.conclusive, span.bob_bits
            for b0 in range(span.start, span.stop, BATCH):
                b1 = min(b0 + BATCH, span.stop)
                state = gen.integers(0, 8, b1 - b0, dtype=np.uint8)
                lo, hi = np.searchsorted(frames, (b0, b1))
                state[frames[lo:hi] - b0] = span.state[lo:hi]
                bob = np.full(b1 - b0, NULL_BIT, dtype=np.int8)
                lo, hi = np.searchsorted(conclusive, (lo, hi))
                bob[frames[conclusive[lo:hi]] - b0] = bob_bits[lo:hi]
                bits, alice_x, bob_x = (state >> k & 1 for k in range(3))
                sifted = (alice_x == bob_x) & (bob != NULL_BIT)
                out.write(csv_bytes(
                    ascii_digits(np.arange(b0, b1)), b",", _basis_chars(alice_x), b",",
                    _bit_chars(bits.view(np.int8)), b",", _basis_chars(bob_x), b",",
                    _bit_chars(bob), b",", _bit_chars(sifted.view(np.int8)), b"\n",
                ))
