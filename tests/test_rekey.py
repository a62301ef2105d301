"""KGC master-secret rotation: cache invalidation end to end.

The bug these tests pin down: a rekey that only swaps the master secret
leaves two caches poisoned or leaking -

* the :class:`~repro.pairing.groups.PairingContext` pairing/Miller caches
  keep entries keyed by the *old* P_pub (never matched again: a pure leak),
* McCLS's signer-side ``S = x^{-1} * D_ID`` cache still holds values
  derived from partial keys the old secret issued - signatures minted from
  them can **never** verify after re-enrolment.

``rotate_master_secret`` must clear both, and the first verify after
a rekey must run cold exactly once per identity, then warm again.
"""

from __future__ import annotations

import random

import pytest

from repro.core.mccls import McCLS
from repro.core.params import KeyGenerationCenter
from repro.netsim.faults import FaultPlan, KGCOutage
from repro.netsim.scenario import ScenarioConfig, build_scenario
from repro.pairing.bn import toy_curve
from repro.pairing.curve import point_key
from repro.pairing.groups import PairingContext

MSG = b"route request 42"


def make_scheme(curve, seed=0xBEEF, **kwargs):
    ctx = PairingContext(curve, random.Random(seed))
    return McCLS(ctx, **kwargs)


class TestRotateMasterSecret:
    def test_p_pub_changes_and_caches_are_cleared(self, curve32):
        scheme = make_scheme(curve32, precompute_s=True)
        ctx = scheme.ctx
        keys = scheme.generate_user_keys("node-1")
        sig = scheme.sign(MSG, keys)
        assert scheme.verify(MSG, sig, keys.identity, keys.public_key)
        assert len(ctx._miller_cache) > 0
        assert len(scheme._s_cache) > 0
        old_p_pub_key = point_key(scheme.p_pub_g1)

        scheme.rotate_master_secret()

        assert point_key(scheme.p_pub_g1) != old_p_pub_key
        assert len(ctx._pairing_cache) == 0
        assert len(ctx._miller_cache) == 0
        assert scheme._s_cache == {}

    def test_explicit_secret_is_honoured(self, curve32):
        scheme = make_scheme(curve32)
        scheme.rotate_master_secret(12345)
        assert scheme.master_secret == 12345
        assert scheme.p_pub_g1 == scheme.ctx.g1 * 12345

    def test_zero_secret_rejected(self, curve32):
        scheme = make_scheme(curve32)
        with pytest.raises(Exception):
            scheme.rotate_master_secret(scheme.ctx.order)  # 0 mod n

    def test_old_signatures_fail_new_ones_verify(self, curve32):
        scheme = make_scheme(curve32, precompute_s=True)
        keys = scheme.generate_user_keys("node-1")
        old_sig = scheme.sign(MSG, keys)
        assert scheme.verify(MSG, old_sig, keys.identity, keys.public_key)

        scheme.rotate_master_secret()
        new_keys = scheme.generate_user_keys("node-1")

        # The old signature is bound to the old master secret.
        assert not scheme.verify(MSG, old_sig, keys.identity, keys.public_key)
        assert not scheme.verify(
            MSG, old_sig, new_keys.identity, new_keys.public_key
        )
        # Re-enrolment under the new secret works - which requires the
        # stale S-component cache to have been dropped (precompute_s=True
        # would otherwise replay the poisoned entry).
        new_sig = scheme.sign(MSG, new_keys)
        assert scheme.verify(MSG, new_sig, new_keys.identity, new_keys.public_key)

    def test_post_rekey_verify_misses_once_then_hits(self, curve32):
        scheme = make_scheme(curve32, precompute_s=True)
        ctx = scheme.ctx
        keys = scheme.generate_user_keys("node-1")
        sig = scheme.sign(MSG, keys)
        assert scheme.verify(MSG, sig, keys.identity, keys.public_key)
        assert scheme.verify(MSG, sig, keys.identity, keys.public_key)
        assert ctx.ops.cached_pairing_hits > 0

        scheme.rotate_master_secret()
        new_keys = scheme.generate_user_keys("node-1")
        new_sig = scheme.sign(MSG, new_keys)

        # First post-rekey verify: cold (cache was invalidated) - exactly
        # one miss, no stale hit.
        before = ctx.ops.cached_pairing_hits
        misses_before = ctx._miller_cache.misses
        assert scheme.verify(MSG, new_sig, new_keys.identity, new_keys.public_key)
        assert ctx.ops.cached_pairing_hits == before
        assert ctx._miller_cache.misses == misses_before + 1
        # Second verify: warm again under the new P_pub.
        assert scheme.verify(MSG, new_sig, new_keys.identity, new_keys.public_key)
        assert ctx.ops.cached_pairing_hits == before + 1


class TestKGCRekey:
    def test_rekey_reissues_every_enrolled_identity(self, curve32):
        kgc = KeyGenerationCenter(McCLS, curve=curve32, seed=7)
        identities = ["node-1", "node-2", "node-3"]
        old = {ident: kgc.enroll(ident) for ident in identities}
        old_params = kgc.public_params()

        new_params = kgc.rekey()

        assert new_params.p_pub_g1 != old_params.p_pub_g1
        assert kgc.issued_identities() == sorted(identities)
        for ident in identities:
            fresh = kgc.keys_for(ident)
            assert fresh.partial.d_id != old[ident].partial.d_id
            sig = kgc.scheme.sign(MSG, fresh)
            assert kgc.scheme.verify(MSG, sig, ident, fresh.public_key)

    def test_rekey_returns_refreshed_params(self, curve32):
        kgc = KeyGenerationCenter(McCLS, curve=curve32, seed=7)
        kgc.enroll("node-1")
        params = kgc.rekey(new_secret=99991)
        assert params.p_pub_g1 == kgc.ctx.g1 * 99991


class TestFaultInjectedRekey:
    """A KGC outage with ``rekey=True`` rotates the live simulation's
    scheme on recovery and leaves no stale cache entries behind."""

    CONFIG = ScenarioConfig(
        seed=11,
        protocol="mccls",
        real_crypto=True,
        n_nodes=6,
        n_flows=2,
        sim_time_s=8.0,
        traffic_start_s=1.0,
        faults=FaultPlan(kgc_outages=(KGCOutage(2.0, 4.0, rekey=True),)),
    )

    def test_rekey_fires_and_invalidates_caches(self):
        sim, nodes, flows, metrics, _ = build_scenario(self.CONFIG)
        material = next(
            node.material for node in nodes.values() if node.material.real
        )
        scheme = material.scheme
        ctx = scheme.ctx
        old_p_pub_key = point_key(scheme.p_pub_g1)
        old_keys = {
            node_id: node.material.keys for node_id, node in nodes.items()
        }

        sim.run(until=self.CONFIG.sim_time_s + 5.0)

        summary = sim.faults.summary()
        assert summary.get("fault.kgc_rekey") == 1
        # Master secret rotated exactly once across the shared scheme.
        assert point_key(scheme.p_pub_g1) != old_p_pub_key
        # No pairing/Miller entry keyed by the old P_pub survives.
        for g1_key, _g2_key in ctx._miller_cache:
            assert g1_key != old_p_pub_key
        for g1_key, _g2_key in ctx._pairing_cache:
            assert g1_key != old_p_pub_key
        # Every honest node was re-issued and the shared directory updated.
        for node_id, node in nodes.items():
            fresh = node.material.keys
            assert fresh is not old_keys[node_id]
            assert node.material.directory[fresh.identity] == fresh.public_key
            sig = scheme.sign(MSG, fresh)
            assert scheme.verify(MSG, sig, fresh.identity, fresh.public_key)

    def test_post_rekey_traffic_still_authenticates(self):
        sim, nodes, flows, metrics, _ = build_scenario(self.CONFIG)
        sim.run(until=self.CONFIG.sim_time_s + 5.0)
        # The network keeps routing after the rotation: deliveries happen
        # and at least some of them land after the rekey at t=4.
        assert metrics.data_received > 0

    def test_rekey_flag_round_trips_through_spec(self):
        plan = self.CONFIG.faults
        assert FaultPlan.from_spec(plan.to_spec()) == plan
