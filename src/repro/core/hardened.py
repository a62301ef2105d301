"""McCLS+ - a hardened variant repairing the universal forgery.

:mod:`repro.core.games` shows the published McCLS is universally forgeable
because nothing ties the signature's S component to the signer: ANY
multiple of Q_ID passes.  McCLS+ adds one public parameter and one
(cacheable) pairing check that pins S to the exact secret value behind the
claimed public key:

* **Setup** additionally publishes  T_pub = s^2 * P  (in G1).
* **Verify** additionally requires  e(P_ID, S) == e(T_pub, Q_ID).

Why this binds: a valid S = x^{-1} * D_ID gives
e(P_ID, S) = e(x*s*P, x^{-1}*s*Q_ID) = e(P, Q_ID)^(s^2) = e(T_pub, Q_ID),
and conversely with P_ID = x*s*P fixed, the relation forces
S = (s/x) * Q_ID exactly - the one honest value.  Both sides of the new
check are constant per (signer, identity), so a verifier caches them and
the warm verification cost stays at ONE fresh pairing, preserving the
paper's efficiency claim.

What it achieves, and honestly does not:

* The :class:`~repro.core.games.UniversalForgeryAttack` and the
  no-signature :class:`~repro.core.games.MaliciousKGCForger` both fail
  (tests assert this): outsiders and a curious KGC can no longer forge
  from public values alone.
* A **malicious KGC that has observed one legitimate signature** can still
  forge: S is signer-constant and public after one signature, and knowing
  s the KGC computes x*P = s^{-1}*P_ID and solves V*P - h*R = h*x*P (the
  :class:`KGCSignatureReplayForger` below demonstrates it).  Full Type II
  security needs a message-bound S, i.e. a structurally different scheme
  (YHG's (r + h*x)^{-1} binding is the canonical fix).

This is exactly the kind of "future work" delta the paper's Section 7
leaves open; EXPERIMENTS.md records the measured outcomes.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.games import Adversary, Challenger, ForgeryAttempt
from repro.core.mccls import McCLS, McCLSSignature
from repro.errors import SignatureError
from repro.pairing.curve import CurvePoint
from repro.pairing.groups import PairingContext
from repro.schemes.base import Identity, Message, normalize_message


class McCLSPlus(McCLS):
    """McCLS with the S-binding check (see module docstring)."""

    name = "mccls-plus"
    h1_compat_name = "mccls"  # identity hashes shared with plain McCLS
    paper_sign_profile = (0, 2, 0)
    paper_verify_profile = (1, 1, 0)  # warm, with both constants cached

    def __init__(
        self,
        ctx: PairingContext,
        master_secret: Optional[int] = None,
        precompute_s: bool = False,
    ):
        super().__init__(ctx, master_secret, precompute_s=precompute_s)
        s = self.master_secret
        self.t_pub = ctx.curve.g1 * ((s * s) % ctx.order)

    def verify(
        self,
        message: Message,
        signature: McCLSSignature,
        identity: Identity,
        public_key: CurvePoint,
        public_key_extra: Optional[CurvePoint] = None,
    ) -> bool:
        """McCLS verification plus the S-binding check (see class docs)."""
        msg = normalize_message(message)
        if not isinstance(signature, McCLSSignature):
            raise SignatureError("expected a McCLSSignature")
        # The binding check first: S must be the unique honest value for
        # this (public key, identity) pair.
        if signature.s.is_infinity():
            return False
        if public_key.is_infinity() or not self.ctx.curve.g1_curve.contains(
            public_key
        ):
            return False
        if not self.ctx.curve.g2_curve.contains(signature.s):
            return False
        q_id = self.q_of(identity)
        binding_lhs = self.ctx.pair_cached(public_key, signature.s)
        binding_rhs = self.ctx.pair_cached(self.t_pub, q_id)
        if binding_lhs != binding_rhs:
            return False
        return super().verify(
            msg, signature, identity, public_key, public_key_extra
        )


#: Unified-API name for the hardened variant (the class predates the
#: SchemeProtocol naming; both stay importable).
HardenedMcCLS = McCLSPlus


class KGCSignatureReplayForger(Adversary):
    """The residual Type II attack against McCLS+.

    Requires: the master key s (the adversary IS the KGC) and ONE observed
    legitimate signature of the target (to learn the signer-constant S).
    Then x*P = s^{-1} * P_ID is computable and (V, R) can be solved for any
    message:  pick v freely, set R = h^{-1} * (V*P - h*x*P)... concretely
    pick a, set R = a*P - x*P, h = H2(M, R, P_ID), V = h*a.
    Check: V*P - h*R = h*a*P - h*(a*P - x*P) = h*x*P.
    """

    name = "kgc-signature-replay"

    def attempt(self, challenger: Challenger) -> Optional[ForgeryAttempt]:
        """Forge using the master key plus one observed signature."""
        scheme = challenger.scheme
        if not isinstance(scheme, McCLS):
            return None
        ctx = scheme.ctx
        n = ctx.order
        target = challenger.target_identity
        public_key = challenger.public_key_oracle(target)
        # Step 1: observe one legitimate signature to learn S.
        observed = challenger.sign_oracle(target, b"any old routing message")
        s_component = observed.s
        # Step 2: use the master key to compute x*P = s^{-1} * P_ID.
        s_master = scheme.master_secret
        x_times_p = public_key * pow(s_master, -1, n)
        # Step 3: solve for (V, R) on a fresh message.
        message = b"forged by the KGC after one observation"
        a = self.rng.randrange(1, n)
        big_r = ctx.g1 * a - x_times_p
        h = ctx.hash_scalar(b"H2/mccls", message, big_r, public_key)
        v = (h * a) % n
        return ForgeryAttempt(
            message=message,
            signature=McCLSSignature(v=v, s=s_component, r=big_r),
            identity=target,
            public_key=public_key,
        )


def demo_hardening(curve=None, seed: int = 0x5AFE) -> dict:
    """Run the full adversary battery against McCLS and McCLS+.

    Returns {adversary_name: (rate_against_mccls, rate_against_plus)};
    used by tests and the hardening example.
    """
    from repro.core.games import (
        ALGEBRAIC_ADVERSARIES,
        PROTOCOL_ADVERSARIES,
        run_game,
    )
    from repro.pairing.bn import default_test_curve

    curve = curve if curve is not None else default_test_curve()
    results = {}
    battery = list(PROTOCOL_ADVERSARIES) + list(ALGEBRAIC_ADVERSARIES) + [
        KGCSignatureReplayForger
    ]
    for adversary_cls in battery:
        rates = []
        for scheme_cls in (McCLS, McCLSPlus):
            scheme = scheme_cls(PairingContext(curve, random.Random(seed)))
            outcome = run_game(
                scheme, adversary_cls(random.Random(seed + 1)), trials=3
            )
            rates.append(outcome.forgery_rate)
        results[adversary_cls.name] = tuple(rates)
    return results
