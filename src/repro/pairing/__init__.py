"""Bilinear-pairing substrate: fields, BN curves, optimal-ate pairing.

This subpackage is a from-scratch replacement for the pairing library the
paper's authors would have used (MIRACL/charm-style).  Public surface:

* :func:`repro.pairing.bn.bn254` / :func:`repro.pairing.bn.toy_curve` -
  curve construction.
* :func:`repro.pairing.pairing.pairing` - the pairing map e: G1 x G2 -> GT.
* :mod:`repro.pairing.hashing` - hash-to-group and hash-to-scalar oracles.
* :class:`repro.pairing.groups.PairingContext` - a charm-crypto-style
  facade with operation counting, used by the signature schemes.
"""

from repro.pairing.bn import BNCurve, bn254, default_test_curve, toy_curve
from repro.pairing.curve import point_key
from repro.pairing.groups import PairingContext
from repro.pairing.pairing import PairingEngine, multi_pairing, pairing

__all__ = [
    "BNCurve",
    "bn254",
    "toy_curve",
    "default_test_curve",
    "pairing",
    "multi_pairing",
    "PairingEngine",
    "PairingContext",
    "point_key",
]
