"""End-to-end acceptance gate: one test per shipped guarantee."""

import random

import test_evidence
import test_oracle
import test_services

from cyberlogic import codec, parser, scenarios
from cyberlogic import evidence as E
from cyberlogic import syntax as S
from cyberlogic.engine import Prover
from cyberlogic.node import decode_frame, encode_frame
from cyberlogic.services import CheckerEndpoint, Registry, remote_check


def _clause_apps(ev):
    return [x for x in E.nodes(ev) if isinstance(x, E.ClauseApp)]


def test_01_hospital_scenario():
    r = scenarios.run_hospital(0)
    assert r.ok
    assert r.elapsed < 1.0
    assert r.check and r.check.ok
    # the medical-record derivation instantiates the trusted-hospital
    # clause at Z = B and the cross-vouching clause at Z1 = B, Z2 = C; the
    # other arguments are in the clauses' heads, which the checker matches
    # against the goal, so they are not written
    apps = {a.label: a for a in _clause_apps(r.certificate.root_evidence)}
    B = S.Const("B", "Principal")
    C = S.Const("C", "Principal")
    assert apps["a3"].args == (B,)  # Z
    assert apps["a4"].args == (B, C)  # Z1, Z2
    assert r.details["spine"] == "a2(a3(B)(a4(B)(C)(_)(inr(a1))((b2,c1)))(b3))"


def test_02_delegation_scenario():
    r = scenarios.run_delegation(0)
    assert r.ok and r.check.ok
    labels = {a.label for a in _clause_apps(r.certificate.root_evidence)}
    assert {"hmo1", "ca1"} <= labels
    # without the certification authority's delegation the trust query fails
    r_bad = scenarios.run_delegation(0, include_authority=False)
    assert not r_bad.ok
    assert r_bad.certificate is None


def test_03_needham_schroeder():
    r = scenarios.run_ns(0)
    assert r.ok
    assert r.elapsed < 1.0
    na = r.details["initiator_nonces"][0]
    (nb,) = [n for n in r.details["all_nonces"] if n != na]
    assert r.transcript == [
        f"A -> B: B says msg1(A, {na})",
        f"B -> A: A says msg2(B, {na}, {nb})",
        f"A -> B: B says msg3({nb})",
    ]

    # the responder's callback only succeeds with the right session chain
    w = r.world
    a = w.node("A")
    (frame,) = [
        decode_frame(data)
        for frm, to, data in w.network.frames
        if data and frm == "B" and to == "A" and b'"QUERY"' in data
    ]
    fresh = dict(frame, qid="acc-replay")
    assert decode_frame(a.handle_frame(encode_frame(fresh))[0])["type"] == "ANSWER"
    stripped = dict(frame, qid="acc-replay2", session=[])
    assert decode_frame(a.handle_frame(encode_frame(stripped))[0])["type"] == "FAIL"

    # two rounds issue four pairwise-distinct nonces
    r2 = scenarios.run_ns(1, rounds=2)
    assert r2.ok
    assert len(r2.details["all_nonces"]) == 4
    assert len(set(r2.details["all_nonces"])) == 4


def test_04_oracle_equivalence():
    rng = random.Random(97)
    programs = 0
    while programs < 200:
        src, clauses, arities, consts = test_oracle._random_program(rng)
        pol = parser.parse_policy(src, "K")
        prover = Prover({"K": pol})
        derivable = test_oracle._fixpoint(clauses)
        for pred, args in test_oracle._all_atoms(arities, consts):
            goal = S.Atom(pred, tuple(S.Const(a, "Obj") for a in args))
            answer = next(iter(prover.ask(goal, depth=32)), None)
            assert (answer is not None) == ((pred, args) in derivable)
            if answer is not None:
                assert E.check({pol.digest: pol}, E.HypothesisEnv(), answer.evidence, answer.goal)
        programs += 1


LAW_SIG = """
sort Thing.
pred p(Thing).
pred q(Thing).
principal K, L.
const a: Thing.
"""


def test_05_law_suite():
    def holds(extra, text):
        pol = parser.parse_policy(LAW_SIG + extra, "K")
        p = Prover({"K": pol})
        goal, _ = parser.parse_goal(text, pol.signature)
        return next(iter(p.ask(goal, depth=64)), None) is not None

    # distribution-law directions
    assert holds("f1: K says p(a).\nf2: K says q(a).\n", "K says (p(a) /\\ q(a))")
    assert holds("f1: K says p(a).\nf2: K says q(a).\n", "(K says p(a)) /\\ (K says q(a))")
    assert holds("f1: K says p(a).\n", "K says (K says p(a))")
    # non-theorems, bounded-search failure at depth 64
    assert not holds("f1: K says p(a).\n", "p(a)")  # attestation is not truth
    assert holds("f1: K says (L says p(a)).\n", "L says p(a)")
    assert not holds("f1: K says (L says p(a)).\n", "K says p(a)")  # commuted
    pol_k = parser.parse_policy(LAW_SIG + "f1: p(a).\n", "K")
    pol_l = parser.parse_policy(LAW_SIG, "L")
    pv = Prover({"K": pol_k, "L": pol_l})
    for text, want in (
        ("knows {K} p(a)", True),
        ("knows {L} knows {K} p(a)", False),  # knowledge does not commute out
    ):
        goal, _ = parser.parse_goal(text, pol_k.signature)
        assert (next(iter(pv.ask(goal, depth=64)), None) is not None) == want


def test_06_tamper_suite():
    for run in (scenarios.run_hospital, scenarios.run_ns):
        r = run(0)
        cert = r.certificate
        assert E.check_certificate(cert, r.world.policy_map(), r.world.directory)
        total = rejected = 0
        for tag, mutated in test_evidence._mutations(cert.root_evidence):
            bad = E.Certificate(cert.root_formula, mutated,
                                cert.policy_digests, cert.directory, cert.created_at)
            res = E.check_certificate(bad, r.world.policy_map(), r.world.directory)
            total += 1
            if not res and res.reason:
                rejected += 1
        assert total > 0
        assert rejected == total  # 100% of mutations rejected, each with a report


def test_07_timed_and_revocation():
    r = scenarios.run_timed(0, clock=5)
    assert r.ok
    assert r.details["outcomes"] == {
        "past(3)": True, "future(3)": False, "future(9)": True, "curr(5)": True,
    }
    cert, res = r.details["certs"]["future(9)"]
    assert res.ok
    # the deadline certificate embeds a signed clock reading
    holes = [
        x for x in E.nodes(cert.root_evidence)
        if isinstance(x, E.TheoryHole) and x.pred == "time_not_elapsed"
    ]
    assert holes and all(h.receipt is not None for h in holes)

    rev = scenarios.run_revocation(0, revoked_at=4, uses=(2, 3, 4, 5))
    assert rev.ok
    assert rev.details["outcomes"] == {2: True, 3: True, 4: False, 5: False}


def test_08_privacy_registry():
    for run in scenarios.SCENARIOS.values():
        r = run(0)
        reg = Registry()
        for owner, pol in r.world.policies.items():
            reg.register(pol.digest, CheckerEndpoint(owner, [pol], r.world.directory, reg))
        local = E.check_certificate(r.certificate, r.world.policy_map(), r.world.directory)
        frames = []
        remote = remote_check(reg, r.certificate, frame_log=frames)
        assert bool(remote) == bool(local)
        blobs = [codec.encode_policy(p) for p in r.world.policies.values()]
        sources = [p.source.encode() for p in r.world.policies.values() if p.source.strip()]
        assert len(sources) == len(r.world.policies)
        payloads = test_services.disclosed_payloads(frames)
        assert len(payloads) > 2 * len(frames)
        for payload in payloads:
            for blob in blobs:
                assert blob not in payload
            for src in sources:
                assert src not in payload
        # a policy update appends a new digest; the stale pin still verifies
        owner = next(iter(r.world.policies))
        pol = r.world.policies[owner]
        updated = parser.parse_policy(
            pol.source + "\npred policy_updated().\n", owner, parser.base_signature()
        )
        assert updated.digest != pol.digest
        reg.register(updated.digest, CheckerEndpoint(owner, [updated, pol], r.world.directory, reg))
        assert reg.verify_chain()
        assert bool(remote_check(reg, r.certificate)) == bool(local)


def test_09_determinism():
    for name, run in scenarios.SCENARIOS.items():
        a, b = run(3), run(3)
        assert a.transcript == b.transcript, name
        assert (a.certificate is None) == (b.certificate is None)
        if a.certificate is not None:
            assert codec.encode_certificate(a.certificate) == codec.encode_certificate(b.certificate), name
