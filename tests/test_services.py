"""Trusted clock and nonce services, and the checker registry."""

import base64
import dataclasses
import json

import pytest

from cyberlogic import codec, parser, scenarios
from cyberlogic import evidence as E
from cyberlogic import syntax as S
from cyberlogic.crypto import Directory, verify_attestation
from cyberlogic.node import MAX_FRAME, decode_frame
from cyberlogic.services import CheckerEndpoint, Registry, TrustedServices, remote_check


def test_clock_is_monotonic():
    svc = TrustedServices(seed=0, start=1)
    assert svc.now() == 1
    svc.advance(4)
    assert svc.now() == 5
    with pytest.raises(ValueError):
        svc.advance(-1)


def test_time_attestation_verifies():
    svc = TrustedServices(seed=0, start=3)
    d = Directory()
    svc.register_keys(d)
    sa = svc.attest_time()
    got = verify_attestation(d.public_key("T"), sa)
    assert got == S.Attest(S.Const("T", "Principal"), S.Atom("time", (S.Const("3", "Time"),)))


def test_time_receipt_only_before_deadline():
    svc = TrustedServices(seed=0, start=3)
    assert svc.time_receipt(S.Const("5", "Time")) is not None
    assert svc.time_receipt(S.Const("3", "Time")) is None
    assert svc.time_receipt(S.Const("2", "Time")) is None


def test_nonces_unique_over_ten_thousand():
    svc = TrustedServices(seed=0)
    names = [svc.fresh_nonce() for _ in range(10_000)]
    assert len(set(names)) == len(names)
    assert all(n in svc.issued for n in names)


def test_nonce_attestation_only_for_issued_values():
    svc = TrustedServices(seed=0)
    d = Directory()
    svc.register_keys(d)
    n = svc.fresh_nonce()
    atom = S.Atom("nonce", (S.Const(n, "Nonce"),))
    (sa,) = svc.attest_candidates("N", atom)
    assert verify_attestation(d.public_key("N"), sa) is not None
    unknown = S.Atom("nonce", (S.Const("n_unseen", "Nonce"),))
    assert svc.attest_candidates("N", unknown) == []


def _policy(owner: str, i: int):
    return parser.parse_policy(f"pred p(Principal).\nprincipal {owner}.\nk{i}: p({owner}).\n", owner)


def test_registry_chain_appends_and_verifies():
    reg = Registry()
    for i in range(5):
        pol = _policy("K", i)
        ep = CheckerEndpoint(f"ep{i}", [pol])
        reg.register(pol.digest, ep)
    assert reg.verify_chain()
    assert len(reg.entries) == 5
    # entries are hash-chained: replacing one breaks the chain
    broken = list(reg.entries)
    broken[2] = dataclasses.replace(broken[2], prev=b"\0" * 32)
    reg.entries = broken
    assert not reg.verify_chain()


def test_registry_entries_name_the_policy_owner():
    reg = Registry()
    pol = _policy("K", 0)
    entry = reg.register(pol.digest, CheckerEndpoint("ep", [pol]))
    assert entry.owner == "K" and entry.endpoint == "ep"
    assert dataclasses.replace(entry, owner="L").entry_hash != entry.entry_hash
    with pytest.raises(ValueError):
        reg.register(_policy("K", 1).digest, CheckerEndpoint("ep", [pol]))


def test_registry_returns_newest_endpoint_but_keeps_stale_digests():
    reg = Registry()
    old, new = _policy("K", 1), _policy("K", 2)
    ep_old = CheckerEndpoint("old", [old])
    ep_new = CheckerEndpoint("new", [new])
    reg.register(old.digest, ep_old)
    reg.register(new.digest, ep_new)  # policy updated, digest changed
    assert reg.endpoint_for(new.digest) is ep_new
    assert reg.endpoint_for(old.digest) is ep_old  # stale digest still resolves
    assert reg.endpoint_for(b"\x03" * 32) is None


def _registry_for(world):
    reg = Registry()
    for owner, pol in world.policies.items():
        ep = CheckerEndpoint(owner, [pol], world.directory, reg)
        reg.register(pol.digest, ep)
    return reg


def test_remote_check_matches_local_check():
    for name, run in sorted(scenarios.SCENARIOS.items()):
        r = run(0)
        local = E.check_certificate(r.certificate, r.world.policy_map(), r.world.directory)
        reg = _registry_for(r.world)
        assert bool(remote_check(reg, r.certificate)) == bool(local) == True  # noqa: E712
        # Entering at any pinned owner's endpoint gives the same verdict,
        # also when a clause application is forwarded under hypotheses.
        for d in sorted(r.certificate.policy_digests):
            remote = remote_check(reg, r.certificate, d)
            assert remote.ok, (name, d.hex()[:12], remote.reason)


def test_remote_check_names_foreign_owners_from_the_registry():
    # A's certificate for a goal restricted to {A, B} applies only B's
    # clauses; A's endpoint learns that B owns them from the registry.
    world = scenarios.run_hospital(0).world
    node = world.node("A")
    goal, free = parser.parse_goal("knows {A, B} B says isHospital(B)", node.policy.signature)
    cert = node.certify(node.ask_first(goal, free))
    local = E.check_certificate(cert, world.policy_map(), world.directory)
    assert local.ok
    reg = _registry_for(world)
    assert len(cert.policy_digests) == 2
    for d in sorted(cert.policy_digests):
        assert remote_check(reg, cert, d) == local, d.hex()[:12]


def disclosed_payloads(frames) -> list:
    """Each frame, as sent and with its JSON string escapes undone, and the
    certificate it carries base64-encoded."""
    payloads = list(frames)
    for frame in frames:
        payloads.append(frame.decode("unicode_escape").encode())
        cert_b64 = decode_frame(frame).get("cert_b64")
        if cert_b64:
            payloads.append(base64.b64decode(cert_b64))
    return payloads


def test_remote_check_frames_never_contain_policy_bytes():
    r = scenarios.run_hospital(0)
    frames = []
    verdict = remote_check(_registry_for(r.world), r.certificate, frame_log=frames)
    assert verdict
    assert frames
    policy_blobs = [codec.encode_policy(p) for p in r.world.policies.values()]
    clause_bodies = [p.source.encode() for p in r.world.policies.values() if p.source]
    assert len(clause_bodies) == len(r.world.policies)
    payloads = disclosed_payloads(frames)
    assert len(payloads) > 2 * len(frames)
    for payload in payloads:
        for blob in policy_blobs:
            assert blob not in payload
        for body in clause_bodies:
            assert body not in payload


def test_remote_check_rejects_tampered_certificate():
    r = scenarios.run_hospital(0)
    cert = r.certificate
    bad = E.Certificate(
        S.Atom("time", (S.Const("1", "Time"),)),  # swapped root formula
        cert.root_evidence,
        cert.policy_digests,
        cert.directory,
        cert.created_at,
    )
    assert not remote_check(_registry_for(r.world), bad)


def test_stale_digest_certificate_verifies_after_policy_update():
    r = scenarios.run_hospital(0)
    reg = _registry_for(r.world)
    # A later re-registration with a changed policy must not break
    # certificates pinned to the old digest.
    updated = parser.parse_policy(
        scenarios.HOSPITAL_A + "a5: A says isHospital(A).\n", "A"
    )
    old = r.world.policies["A"]
    # the owner's endpoint keeps old versions so stale pins stay checkable
    reg.register(updated.digest, CheckerEndpoint("A", [updated, old], r.world.directory, reg))
    assert reg.verify_chain()
    assert remote_check(reg, r.certificate)


def test_a_new_endpoint_under_an_old_name_keeps_the_old_digest_routed():
    r = scenarios.run_hospital(0)
    reg = _registry_for(r.world)
    updated = parser.parse_policy(
        scenarios.HOSPITAL_A + "a5: A says isHospital(A).\n", "A"
    )
    # Same endpoint name, but this endpoint holds only the updated policy:
    # the old digest stays routed to the endpoint that holds it.
    reg.register(updated.digest, CheckerEndpoint("A", [updated], r.world.directory, reg))
    verdict = remote_check(reg, r.certificate)
    assert verdict.ok, verdict.reason


def test_checker_frames_have_the_node_frame_limit():
    r = scenarios.run_hospital(0)
    reg = _registry_for(r.world)
    cert = r.certificate
    big = E.Certificate(cert.root_formula, E.ClauseApp("x" * MAX_FRAME, None),
                        cert.policy_digests, cert.directory, cert.created_at)
    frames = []
    verdict = remote_check(reg, big, frame_log=frames)
    assert not verdict and "exceeds" in verdict.reason
    assert frames == []  # nothing was sent
    # an endpoint refuses an oversize request that did not come through remote_check
    req = {"type": "CHECK_REQ", "cert_b64": base64.b64encode(codec.encode_certificate(big)).decode()}
    endpoint = reg.endpoint_for(min(cert.policy_digests))
    resp = decode_frame(endpoint.handle_frame((json.dumps(req) + "\n").encode()))
    assert resp["verdict"] == "nok" and "exceeds" in resp["reason"]
