"""Differential-phase BB84 over phase frames: the protocol layer.

Alice encodes one qubit per frame in the differential phase of the pulse
train (X basis: {0, pi}; Z basis: {pi/2, 3pi/2}); Bob measures with a
one-pulse-delay interferometer whose extra phase selects his basis
(phi_b = 0 measures X, pi/2 measures Z).  A frame-level click on one of the
two output ports is the measurement outcome; double or missing clicks give
a null bit.  Clicks in the two edge positions of the train carry no phase
information and are discarded before the bit decision.  Each frame's
outcome is drawn by ``pipeline.simulate_bb84``; this module holds the
per-frame state, the encoding table, sifting, the finite-key bound and
the transcript.

Per-frame state lives one span at a time as bit planes: ``exchange_batches``
draws each stream's raw 64-bit Philox words, 64 draws to a word (draw
``i`` of a stream is bit ``i % 64`` of word ``i // 64``, least significant
first), and builds the frame class, which indexes the eight values of
phi_a + phi_b in ``PHASE_TABLE``, as three more planes of words with
``&``, ``^`` and ``~``.  No per-frame array is built: the exchange reads
classes at candidate frames and bits and bases at conclusive frames, and
reduces each span to its conclusive frames; only the transcript, which
draws the state again, unpacks a batch (``Planes.unpack``).

Port convention: port P carries the ``1 + V cos(phi_a + phi_b)`` lobe.  A
matched-basis bit 0 therefore lights port P in the X basis but port P' in
the Z basis: Bob's bit is 0 on P in X and on P' in Z.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .analysis import ascii_digits, csv_bytes
from .config import BATCH, ROLE_ALICE, ROLE_BOB, ROLE_EVE, RandomSource

__all__ = [
    "BASIS_X",
    "BASIS_Z",
    "KeyRateParams",
    "Planes",
    "FrameBatch",
    "exchange_batches",
    "sift",
    "error_rate",
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


class Planes:
    """``n`` frames' small unsigned values held as bit planes of raw words:
    bit ``k`` of frame ``i``'s value is bit ``i % 64`` of ``words[k, i //
    64]``, least significant first.  ``planes[idx]`` looks the values up at
    frame indices, as in a uint8 array.  The bits past ``n`` in the last
    word are never read."""

    __slots__ = ("words", "n")

    def __init__(self, words: np.ndarray, n: int):
        self.words, self.n = words, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, idx):
        idx = np.asarray(idx)
        byte, shift = idx >> 3, idx.astype(np.uint8) & 7
        planes = self.words.view(np.uint8)
        v = planes[-1].take(byte) >> shift & 1
        for plane in planes[-2::-1]:
            v += v
            v |= plane.take(byte) >> shift & 1
        return v

    def unpack(self) -> np.ndarray:
        """Every frame's value as uint8."""
        planes = _unpack(self.words, self.n).view(np.uint8)
        v = planes[-1]
        for plane in planes[-2::-1]:
            v += v
            v |= plane
        return v


class FrameBatch(NamedTuple):
    """The state of frames ``start .. start + len(cls)``, each stream's raw
    words as one plane; Eve's are None without her."""

    start: int
    bits: Planes  # Alice's bits
    alice_x: Planes  # basis coins, 1 -> X
    eve_x: Planes | None
    eve_bits: Planes | None
    bob_x: Planes
    cls: Planes  # class into PHASE_TABLE of the state Bob receives


def _words(gen: np.random.Generator, n: int) -> np.ndarray:
    """The ``ceil(n / 64)`` raw words of ``n`` coins or bits, little-endian."""
    return gen.bit_generator.random_raw(-(-n // 64)).astype("<u8", copy=False)


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Draws ``0 .. n`` of each plane of ``words`` as bool: draw ``i`` is bit
    ``i % 64`` of word ``i // 64``, read through a little-endian view from
    the least significant bit up."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def _generator_at(source: RandomSource, k: int) -> np.random.Generator:
    """``source``'s generator after ``k`` raw 64-bit words (a Philox counter
    step makes four): the words of ``64 k`` coins or bits."""
    gen = source.generator()
    gen.bit_generator.advance(k // 4)
    gen.bit_generator.random_raw(k % 4)
    return gen


def exchange_batches(seed: int, n_frames: int, eve: bool,
                     span: int = BATCH) -> Iterator[FrameBatch]:
    """Draw the exchange's state ``span`` frames at a time.

    The draws are those of whole-run streams, the same whatever the span:
    Alice's stream yields every bit and then her basis coins, Eve's stream
    her coins and then her bits, Bob's stream his coins.  ``n`` coins or
    bits take ``ceil(n / 64)`` raw words, so a second generator on Alice's
    and Eve's key starts ``ceil(n_frames / 64)`` words in, at the later
    part; ``span`` is a multiple of 64, so every chunk but the last takes
    whole words.  An intercept-resend Eve measures in a random basis; where
    it differs from Alice's she re-sends a uniformly random state of her
    own basis.  The class planes are Bob's Z, the sent Z and the sent bit:
    ``4 * sent bit + 2 * (sent basis Z) + (Bob measures Z)``.
    """
    if span <= 0 or span % 64:
        raise ValueError(f"span must be a positive multiple of 64 frames, not {span}")
    root = RandomSource(seed)
    alice, eve_src = root.stream(ROLE_ALICE), root.stream(ROLE_EVE)
    words = -(-n_frames // 64)
    gen_bits, gen_alice_x = alice.generator(), _generator_at(alice, words)
    gen_eve_x, gen_eve_bits = eve_src.generator(), _generator_at(eve_src, words)
    gen_bob_x = root.stream(ROLE_BOB).generator()
    for b0 in range(0, n_frames, span):
        nb = min(span, n_frames - b0)
        bits, alice_x, bob_x = (_words(gen, nb) for gen in (gen_bits, gen_alice_x, gen_bob_x))
        eve_x = eve_bits = None
        cls = np.empty((3, len(bits)), np.uint64)
        np.invert(bob_x, out=cls[0])
        if eve:
            eve_x, eve_bits = _words(gen_eve_x, nb), _words(gen_eve_bits, nb)
            # where the bases agree Eve re-sends Alice's state, so the sent
            # basis is Eve's everywhere and the sent bit hers where they differ
            np.invert(eve_x, out=cls[1])
            np.bitwise_xor(bits, (bits ^ eve_bits) & (eve_x ^ alice_x), out=cls[2])
        else:
            np.invert(alice_x, out=cls[1])
            cls[2] = bits
        yield FrameBatch(b0, *(None if w is None else Planes(w[None], nb)
                               for w in (bits, alice_x, eve_x, eve_bits, bob_x)),
                         Planes(cls, nb))


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


def sift(a, b, b_prime, bob_bits):
    """Keep basis-matched, conclusive frames; estimate the error rate.

    Returns ``(key_a, key_b, qber_est)``.  ``qber_est`` is the mismatch
    fraction over every sifted position (NaN with none).
    """
    a, b, b_prime, bob_bits = map(np.asarray, (a, b, b_prime, bob_bits))
    if not (len(a) == len(b) == len(b_prime) == len(bob_bits)):
        raise ValueError("sequence lengths differ")
    keep = (b == b_prime) & (bob_bits != NULL_BIT)
    key_a = a[keep].astype(np.int8)
    key_b = bob_bits[keep].astype(np.int8)
    return key_a, key_b, error_rate(key_a, key_b)


def error_rate(key_a, key_b) -> float:
    """Mismatch fraction of two sifted keys (NaN with none)."""
    return float(np.mean(key_a != key_b)) if len(key_a) else math.nan


# ---------------------------------------------------------------------------
# BB84 session record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bb84Result:
    """Keys and record of one exchange: the conclusive ``frames`` and Bob's
    ``bits`` there.  ``batches`` draws the per-frame state of ``seed``'s
    exchange (with an intercept-resend Eve if ``eve``) again."""

    n_frames: int
    n_detected: int
    n_sifted: int
    qber: float
    key_a: np.ndarray
    key_b: np.ndarray
    seed: int
    eve: bool
    frames: np.ndarray
    bits: np.ndarray

    def batches(self) -> Iterator[FrameBatch]:
        return exchange_batches(self.seed, self.n_frames, self.eve)

    def bob_bits_in(self, start: int, stop: int) -> np.ndarray:
        """Bob's bit in frames ``start .. stop``, ``NULL_BIT`` where
        inconclusive."""
        lo, hi = np.searchsorted(self.frames, (start, stop))
        out = np.full(stop - start, NULL_BIT, dtype=np.int8)
        out[self.frames[lo:hi] - start] = self.bits[lo:hi]
        return out


def _basis_chars(basis_x: np.ndarray) -> np.ndarray:
    return np.where(basis_x, np.uint8(ord(BASIS_X)), np.uint8(ord(BASIS_Z)))


def _bit_chars(bits: np.ndarray) -> np.ndarray:
    """``0``/``1`` for int8 bits, ``-`` for ``NULL_BIT``."""
    return np.where(bits == NULL_BIT, np.uint8(ord("-")), bits.view(np.uint8) + np.uint8(48))


def write_transcript(path, result: Bb84Result) -> None:
    """Dump the announced bases and detection outcomes (audit log).

    One row per frame, written one batch at a time: the bit column is what
    Bob would announce having detected ('-' for an inconclusive frame);
    sifted marks basis-matched conclusive positions.
    """
    with open(path, "wb") as out:
        out.write(b"frame,alice_basis,alice_bit,bob_basis,bob_bit,sifted\n")
        for b in result.batches():
            stop = b.start + len(b.cls)
            bits, alice_x, bob_x = (p.unpack() for p in (b.bits, b.alice_x, b.bob_x))
            bob = result.bob_bits_in(b.start, stop)
            sifted = (alice_x == bob_x) & (bob != NULL_BIT)
            out.write(csv_bytes(
                ascii_digits(np.arange(b.start, stop)), b",", _basis_chars(alice_x), b",",
                _bit_chars(bits.view(np.int8)), b",", _basis_chars(bob_x), b",",
                _bit_chars(bob), b",", _bit_chars(sifted.view(np.int8)), b"\n",
            ))
