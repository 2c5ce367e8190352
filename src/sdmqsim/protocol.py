"""Differential-phase BB84 over phase frames: the protocol layer.

Alice encodes one qubit per frame in the differential phase of the pulse
train (X basis: {0, pi}; Z basis: {pi/2, 3pi/2}); Bob measures with a
one-pulse-delay interferometer whose extra phase selects his basis
(phi_b = 0 measures X, pi/2 measures Z).  A frame-level click on one of the
two output ports is the measurement outcome; double or missing clicks give
a null bit.  Clicks in the two edge positions of the train carry no phase
information and are discarded before the bit decision.  The clicks
themselves are drawn by ``pipeline.simulate_bb84``; this module holds the
encoding table, sifting, the finite-key bound and the transcript.

Port convention: port P carries the ``1 + V cos(phi_a + phi_b)`` lobe.  A
matched-basis bit 0 therefore lights port P in the X basis but port P' in
the Z basis, so the port-to-bit decode table is basis dependent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "BASIS_X",
    "BASIS_Z",
    "SiftOutcome",
    "KeyRateParams",
    "sift",
    "key_rate",
    "Bb84Result",
    "write_transcript",
]

BASIS_X = "X"
BASIS_Z = "Z"
NULL_BIT = -1  # array representation of a null outcome


@dataclass(frozen=True)
class SiftOutcome:
    alice_bit: int
    alice_basis: str
    bob_basis: str
    bob_bit: int  # NULL_BIT when no conclusive click


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


def sift(a, b, b_prime, bob_bits, k_fraction: float = 1.0):
    """Keep basis-matched, conclusive frames; estimate the error rate.

    Returns ``(key_a, key_b, qber_est)``.  ``qber_est`` is the mismatch
    fraction over the first ``k_fraction`` share of the sifted positions
    (parameter-estimation sample; 1.0 = use everything).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    b_prime = np.asarray(b_prime)
    bob_bits = np.asarray(bob_bits)
    if not (len(a) == len(b) == len(b_prime) == len(bob_bits)):
        raise ValueError("sequence lengths differ")
    keep = (b == b_prime) & (bob_bits != NULL_BIT)
    key_a = a[keep].astype(np.int8)
    key_b = bob_bits[keep].astype(np.int8)
    n_pe = max(1, int(round(k_fraction * len(key_a)))) if len(key_a) else 0
    qber = float(np.mean(key_a[:n_pe] != key_b[:n_pe])) if n_pe else math.nan
    return key_a, key_b, qber


# ---------------------------------------------------------------------------
# BB84 session record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bb84Result:
    n_frames: int
    n_detected: int
    n_sifted: int
    qber: float
    key_a: np.ndarray
    key_b: np.ndarray
    alice_bits: np.ndarray | None = None
    alice_bases: np.ndarray | None = None
    bob_bases: np.ndarray | None = None
    bob_bits: np.ndarray | None = None

    def outcomes(self):
        """Per-frame public-channel view of the exchange."""
        for a, ba, bb, o in zip(
            self.alice_bits, self.alice_bases, self.bob_bases, self.bob_bits
        ):
            yield SiftOutcome(
                alice_bit=int(a),
                alice_basis=str(ba),
                bob_basis=str(bb),
                bob_bit=int(o),
            )


def write_transcript(path, result: Bb84Result) -> None:
    """Dump the announced bases and detection outcomes (audit log).

    One row per frame: the bit column is what Bob would announce having
    detected ('-' for an inconclusive frame); sifted marks basis-matched
    conclusive positions.
    """
    lines = ["frame,alice_basis,alice_bit,bob_basis,bob_bit,sifted"]
    for i, rec in enumerate(result.outcomes()):
        bob = "-" if rec.bob_bit == NULL_BIT else str(rec.bob_bit)
        sifted = int(rec.alice_basis == rec.bob_basis and rec.bob_bit != NULL_BIT)
        lines.append(
            f"{i},{rec.alice_basis},{rec.alice_bit},{rec.bob_basis},{bob},{sifted}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _phase_of(basis_x: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Differential phase of (basis, bit): X {0, pi}, Z {pi/2, 3pi/2}."""
    return np.where(
        basis_x,
        np.where(bits == 0, 0.0, math.pi),
        np.where(bits == 0, math.pi / 2, 3 * math.pi / 2),
    )
