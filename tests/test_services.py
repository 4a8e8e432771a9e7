"""Trusted clock and nonce services, and the checker registry."""

import base64
import dataclasses
import json

import pytest

import test_evidence
from canonical import at
from cyberlogic import codec, crypto, parser, scenarios
from cyberlogic import evidence as E
from cyberlogic import syntax as S
from cyberlogic.crypto import Directory, sha256, verify_attestation
from cyberlogic.node import MAX_FRAME, decode_frame, encode_frame
from cyberlogic.services import CheckerEndpoint, Registry, TrustedServices, remote_check

# SHA-256 of the frames that check hospital's seed-0 certificate, then its
# `knows {A, B}` certificate entering at each pinned digest.  CI also runs
# this file under fixed hash seeds, so no set or dict order reaches a frame.
# Moved when a policy digest came to be written in full only once per
# encoding: each certificate and evidence the frames carry decodes to the
# value it did before (6,408 bytes of frames became 6,240).  Moved again
# with CYL3 (6,240 bytes became 5,880): the same frames and verdicts, and
# each request, with the clause arguments filled in as the checker matches
# them, decodes to the value of the CYL2 request.  Moved again with CYL4
# (5,880 bytes became 5,812): the same frames and verdicts, and each
# certificate and evidence they carry, with each clause position mapped to
# the label of the clause it names, decodes to the value of the CYL3 one.
FRAMES_SHA256 = "c2079a3d70ed9ad35d085c42c2e4f0a8faabe3810cbb9eb204c662bc633ce070"


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


def _time_reading(t):
    return S.Attest(S.Const("T", "Principal"), S.Atom("time", (S.Const(str(t), "Time"),)))


def test_a_clock_reading_is_signed_once_per_tick(monkeypatch):
    signed = []
    real = crypto.sign
    monkeypatch.setattr(crypto, "sign", lambda kp, m: signed.append(m) or real(kp, m))
    svc = TrustedServices(seed=0, start=3)
    first = svc.attest_time()
    assert svc.attest_time() is first and len(signed) == 1
    assert svc.attest_candidates("T", S.Atom("time", (S.Var("t", "Time"),))) == [first]
    assert svc.time_receipt(S.Const("5", "Time")) is first and len(signed) == 1


def test_advancing_the_clock_signs_a_new_reading():
    svc = TrustedServices(seed=0, start=3)
    d = Directory()
    svc.register_keys(d)
    old = svc.attest_time()
    svc.advance(0)
    assert svc.attest_time() is old
    svc.advance(1)
    new = svc.attest_time()
    assert new != old and new.issued_at == 4
    assert verify_attestation(d.public_key("T"), new) == _time_reading(4)
    assert verify_attestation(d.public_key("T"), old) == _time_reading(3)
    # the reused reading is the one a fresh service at that tick signs
    assert TrustedServices(seed=0, start=4).attest_time() == new


def test_a_reused_reading_is_no_receipt_at_or_after_the_deadline():
    svc = TrustedServices(seed=0, start=3)
    assert svc.time_receipt(S.Const("5", "Time")).issued_at == 3
    svc.advance(1)
    assert svc.time_receipt(S.Const("5", "Time")).issued_at == 4
    svc.advance(1)
    assert svc.time_receipt(S.Const("5", "Time")) is None
    svc.advance(1)
    assert svc.time_receipt(S.Const("5", "Time")) is None


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


def _knows_certificate(world):
    """A's certificate for a goal restricted to {A, B}: it applies only B's
    clauses, which A's endpoint knows only from the registry."""
    node = world.node("A")
    goal, free = parser.parse_goal("knows {A, B} B says isHospital(B)", node.policy.signature)
    return node.certify(node.ask_first(goal, free))


def test_remote_check_matches_local_check():
    # Field by field, on each scenario certificate (and hospital's `knows`
    # one) and on every single-node tamper of it, entering at every pinned
    # digest: each obligation goes where the registry routes it, also under
    # hypotheses or a restriction, and the failure is the local one.
    for name, run in sorted(scenarios.SCENARIOS.items()):
        r = run(0)
        reg = _registry_for(r.world)
        certs = [r.certificate] + ([_knows_certificate(r.world)] if name == "hospital" else [])
        for cert in certs:
            assert E.check_certificate(cert, r.world.policy_map(), r.world.directory).ok, name
            tampered = [dataclasses.replace(cert, root_evidence=ev)
                        for _, ev in test_evidence._mutations(cert.root_evidence, r.world.policy_map())]
            for c in [cert, *tampered]:
                local = E.check_certificate(c, r.world.policy_map(), r.world.directory)
                for d in [None, *sorted(c.policy_digests)]:
                    assert remote_check(reg, c, d) == local, (name, d and d.hex()[:12])


def test_remote_check_names_foreign_owners_from_the_registry():
    world = scenarios.run_hospital(0).world
    cert = _knows_certificate(world)
    local = E.check_certificate(cert, world.policy_map(), world.directory)
    assert local.ok
    reg = _registry_for(world)
    assert len(cert.policy_digests) == 2
    for d in sorted(cert.policy_digests):
        assert remote_check(reg, cert, d) == local, d.hex()[:12]


def _owners_registry(*policies):
    """A registry with one endpoint per policy, named after its owner."""
    reg = Registry()
    for pol in policies:
        reg.register(pol.digest, CheckerEndpoint(pol.owner, [pol], None, reg))
    return reg


def _alternating(steps: int, last: int = 1, knows: bool = False):
    """The local policy map, a registry with one endpoint per owner, and a
    certificate of `steps` clause applications that alternate between K1's
    `r1: q(a) => p(a)` and K2's `r2: p(a) => q(a)` above K1's clause at
    position `last` (`f1`'s is 1), restricted to `knows {K1, K2}` if `knows`."""
    sig = "sort Thing. pred p(Thing). pred q(Thing).\n"
    k1 = parser.parse_policy(sig + "r1: q(a) => p(a).\nf1: p(a).\n", "K1")
    k2 = parser.parse_policy(sig + "r2: p(a) => q(a).\n", "K2")
    ev = E.ClauseApp(last, k1.digest)
    for i in range(steps):
        ev = E.ClauseApp(0, k1.digest if i % 2 else k2.digest, (), (ev,))
    goal = S.Atom("q" if steps % 2 else "p", (S.Const("a", "Thing"),))
    if knows:
        group = frozenset({S.Const("K1", "Principal"), S.Const("K2", "Principal")})
        goal, ev = S.Knows(group, goal), E.KnowsWrap(group, ev)
    cert = E.Certificate(goal, ev, frozenset({k1.digest, k2.digest}))
    return {k1.digest: k1, k2.digest: k2}, _owners_registry(k1, k2), cert


def test_alternating_endpoints_check_in_frames_linear_in_the_chain():
    # Each alternation between two owners is one more request of the
    # worklist, not one more nested call, and each node crosses the wire
    # once: 3,000 alternations get the local verdict at the default
    # recursion limit, also inside a restriction that every request after
    # the first carries, and ten times the chain sends at most 11 times the
    # bytes.
    sent = {}
    for steps, knows in [(200, False), (200, True), (300, False), (3000, False), (3000, True)]:
        policies, reg, cert = _alternating(steps, knows=knows)
        frames = []
        local = E.check_certificate(cert, policies)
        assert local.ok and remote_check(reg, cert, frame_log=frames) == local
        sent[steps, knows] = sum(map(len, frames))
        policies, reg, broken = _alternating(steps, last=2, knows=knows)
        local = E.check_certificate(broken, policies)
        assert local.path == (0,) * (steps + knows) and local.reason == "no clause #2 in policy of 'K1'"
        assert remote_check(reg, broken) == local
    assert sent[3000, False] <= 11 * sent[300, False]


def test_the_lowest_failure_wins_though_another_endpoint_answers_first():
    # K1 answers first, failing at premise 1; K2's part fails at premise 0,
    # lower in pre-order, and that is the local checker's verdict.
    sig = "sort Thing. pred p(Thing). pred q(Thing). pred s(Thing).\n"
    k1 = parser.parse_policy(sig + "r1: q(a) => s(a) => p(a).\nf1: s(a).\n", "K1")
    k2 = parser.parse_policy(sig + "f2: q(a).\n", "K2")
    ev = E.ClauseApp(0, k1.digest, (), (E.ClauseApp(1, k2.digest), E.ClauseApp(2, k1.digest)))
    cert = E.Certificate(S.Atom("p", (S.Const("a", "Thing"),)), ev, frozenset({k1.digest, k2.digest}))
    local = E.check_certificate(cert, {k1.digest: k1, k2.digest: k2})
    assert local == E.CheckResult(False, (0,), "no clause #1 in policy of 'K2'")
    assert remote_check(_owners_registry(k1, k2), cert, k1.digest) == local


def _requests(monkeypatch, reg, cert, digest=None):
    """The verdict of `remote_check`, and the names of the endpoints its
    requests went to, in order."""
    names, serve = [], CheckerEndpoint.handle_frame

    def spy(endpoint, data):
        names.append(endpoint.name)
        return serve(endpoint, data)

    monkeypatch.setattr(CheckerEndpoint, "handle_frame", spy)
    return remote_check(reg, cert, digest), names


@pytest.mark.parametrize("name, sent", [
    ("delegation", ["V", "CA", "HMO", "B"]),
    ("hospital", ["A", "B", "C", "B"]),
    ("revocation", ["K", "L"]),
])
def test_a_check_enters_at_the_root_clause_owner(monkeypatch, name, sent):
    # Entered at the first sorted pin, revocation's check went to L first,
    # which only cut K's root clause and handed it on: 3 requests.
    # Delegation's went to CA first, for 5.
    r = scenarios.SCENARIOS[name](0)
    verdict, names = _requests(monkeypatch, _registry_for(r.world), r.certificate)
    assert verdict and names == sent


def test_a_check_with_no_routed_policy_clause_enters_at_the_first_sorted_pin(monkeypatch):
    # The first clause application is a hypothesis, and the only policy
    # clause applied is under a digest no endpoint is registered for: both
    # leave the entry to the sorted pins, of which only K2's has an endpoint.
    sig = "sort Thing. pred p(Thing). pred q(Thing).\n"
    k1 = parser.parse_policy(sig + "f1: q(a).\n", "K1")
    k2 = parser.parse_policy(sig + "f2: q(a).\n", "K2")
    k3 = parser.parse_policy(sig + "f3: q(a).\n", "K3")
    reg = _owners_registry(k2, k3)
    pa, qa = (S.Atom(n, (S.Const("a", "Thing"),)) for n in "pq")
    for premises in [(), (E.ClauseApp(0, k1.digest),)]:
        hyp = S.Implies(qa, pa) if premises else pa
        cert = E.Certificate(S.Implies(hyp, pa), E.Abstraction("h1", E.ClauseApp("h1", None, (), premises)),
                             frozenset({k1.digest, k2.digest, k3.digest}))
        local = E.check_certificate(cert, {k2.digest: k2, k3.digest: k3})
        first = min(d for d in cert.policy_digests if d != k1.digest)
        verdict, names = _requests(monkeypatch, reg, cert)
        assert verdict == local and local.ok == (not premises)
        assert names[0] == reg.endpoint_for(first).name
    # With K1 registered, its clause application is where the check enters.
    reg.register(k1.digest, CheckerEndpoint("K1", [k1], None, reg))
    verdict, names = _requests(monkeypatch, reg, cert)
    assert verdict == E.check_certificate(cert, {p.digest: p for p in (k1, k2, k3)}) and verdict
    assert names == ["K1"]


def test_a_stale_re_registered_digest_gets_the_local_verdict():
    # K1 updates its policy, then registers the old digest again; K2's
    # endpoint knows that digest only by the registry's newest record of it.
    # Under the old digest, the position of `f1`, which the update
    # appended, names no clause.
    sig = "sort Thing. pred p(Thing). pred q(Thing).\n"
    old = parser.parse_policy(sig + "r1: q(a) => p(a).\n", "K1")
    new = parser.parse_policy(sig + "r1: q(a) => p(a).\nf1: p(a).\n", "K1")
    k2 = parser.parse_policy(sig + "f2: q(a).\n", "K2")
    reg = Registry()
    k1_end, k2_end = CheckerEndpoint("K1", [old, new], None, reg), CheckerEndpoint("K2", [k2], None, reg)
    for pol, endpoint in [(old, k1_end), (k2, k2_end), (new, k1_end), (old, k1_end)]:
        reg.register(pol.digest, endpoint)
    assert reg.verify_chain() and reg.entry_for(old.digest) is reg.entries[3]
    policies = {p.digest: p for p in (old, new, k2)}
    group = frozenset({S.Const("K2", "Principal")})
    verdicts = []
    for position, knows in [(0, False), (at(new, "f1"), False), (0, True)]:
        goal, ev = S.Atom("p", (S.Const("a", "Thing"),)), E.ClauseApp(position, old.digest, (), (E.ClauseApp(0, k2.digest),))
        if knows:
            goal, ev = S.Knows(group, goal), E.KnowsWrap(group, ev)
        cert = E.Certificate(goal, ev, frozenset({old.digest, k2.digest}))
        local = E.check_certificate(cert, policies)
        assert remote_check(reg, cert, k2.digest) == local
        verdicts.append((local.ok, local.path, local.reason))
    assert verdicts == [
        (True, (), None),
        (False, (), "no clause #1 in policy of 'K1'"),
        (False, (0,), "evidence draws on a policy of 'K1', outside the restriction"),
    ]

def disclosed_payloads(frames) -> list:
    """Each frame, as sent and with its JSON string escapes undone, and each
    certificate or evidence it carries base64-encoded: a request's, and a
    reply's obligations."""
    payloads = list(frames)
    for frame in frames:
        payloads.append(frame.decode("unicode_escape").encode())
        msg = decode_frame(frame)
        for part in [msg, *msg.get("obligations", [])]:
            for key in ("cert_b64", "evidence_b64"):
                if part.get(key):
                    payloads.append(base64.b64decode(part[key]))
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


def test_frame_log_holds_every_endpoint_frame(monkeypatch):
    seen = []
    serve = CheckerEndpoint.handle_frame

    def spy(endpoint, data):
        resp = serve(endpoint, data)
        seen.extend((data, resp))
        return resp

    monkeypatch.setattr(CheckerEndpoint, "handle_frame", spy)
    r = scenarios.run_hospital(0)
    frames = []
    assert remote_check(_registry_for(r.world), r.certificate, frame_log=frames)
    assert len(frames) > 2 and frames == seen


def test_remote_check_frames_match_golden_digest():
    r = scenarios.run_hospital(0)
    reg = _registry_for(r.world)
    knows = _knows_certificate(r.world)
    frames = []
    assert remote_check(reg, r.certificate, frame_log=frames)
    for d in sorted(knows.policy_digests):
        assert remote_check(reg, knows, d, frame_log=frames)
    assert sha256(b"".join(frames)).hex() == FRAMES_SHA256


def _resp(honest: bytes, **fields) -> bytes:
    return encode_frame({**decode_frame(honest), **fields})


def _obligations(honest: bytes) -> list:
    return decode_frame(honest)["obligations"]


HOSTILE_REPLIES = {
    "not json": (lambda honest: b"not json\n", "malformed checker response"),
    "not a reply": (lambda honest: encode_frame({"type": "ANSWER"}), "malformed checker response"),
    "nok without a reason": (lambda honest: _resp(honest, verdict="nok", reason=None), "malformed checker response"),
    "path not a list": (lambda honest: _resp(honest, verdict="nok", path="0"), "malformed checker response"),
    "obligations not a list": (lambda honest: _resp(honest, obligations=7), "malformed checker response"),
    "obligation without a certificate": (
        lambda honest: _resp(honest, obligations=[{"path": o["path"]} for o in _obligations(honest)]),
        "malformed checker response",
    ),
    "obligation at a path not cut": (
        lambda honest: _resp(honest, obligations=[{**o, "path": [9, 9]} for o in _obligations(honest)]),
        "sent an unknown or repeated obligation",
    ),
    "repeated obligation": (
        lambda honest: _resp(honest, obligations=_obligations(honest) * 2),
        "sent an unknown or repeated obligation",
    ),
    "obligations left out": (lambda honest: _resp(honest, obligations=[]), "unchecked"),
    "obligation certificate garbled": (
        lambda honest: _resp(honest, obligations=[{**o, "cert_b64": "!!"} for o in _obligations(honest)]),
        "malformed request",
    ),
    "obligation eigenvariables not a list": (
        lambda honest: _resp(honest, obligations=[{**o, "eigens": "c9"} for o in _obligations(honest)]),
        "malformed request",
    ),
    "obligation eigenvariable not a name": (
        lambda honest: _resp(honest, obligations=[{**o, "eigens": [9]} for o in _obligations(honest)]),
        "malformed request",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_REPLIES))
def test_a_hostile_checker_reply_ends_in_a_refusal_with_a_reason(case):
    reply, reason = HOSTILE_REPLIES[case]
    r = scenarios.run_hospital(0)
    reg = _registry_for(r.world)
    a_digest = r.world.policies["A"].digest
    frames = []
    assert remote_check(reg, r.certificate, a_digest, frame_log=frames)
    assert len(_obligations(frames[1])) == 3  # A's reply leaves three clause applications to B and C
    a = reg.endpoint_for(a_digest)
    honest = a.handle_frame
    a.handle_frame = lambda data: reply(honest(data))
    res = remote_check(reg, r.certificate, a_digest)
    assert not res and reason in res.reason, res


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
