"""End-to-end scenarios: worlds of nodes with policies, run over the
in-process simulator.

Each runner builds a fresh world from a seed, proves its query, packages
the answer as a certificate, and checks it.  Identical seeds give
byte-identical transcripts and certificates.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field

from . import evidence as E
from . import parser
from . import syntax as S
from .crypto import Directory, keygen
from .node import Node, SimNetwork
from .services import TrustedServices
from .engine import DEFAULT_DEPTH


@dataclass
class World:
    network: SimNetwork
    nodes: dict
    services: TrustedServices
    directory: Directory
    policies: dict  # owner -> Policy

    def policy_map(self) -> dict:
        """digest -> Policy, for checking."""
        return {p.digest: p for p in self.policies.values()}

    def node(self, name: str) -> Node:
        return self.nodes[name]


def build_world(policy_texts, seed: int = 0, depth: int = DEFAULT_DEPTH) -> World:
    """`policy_texts` is an ordered list of (owner, source); the order fixes
    key generation and the broadcast order."""
    rng = random.Random(seed)
    services = TrustedServices(seed=rng.randrange(2**31), start=1)
    directory = Directory()
    keys = {}
    base = parser.base_signature()
    policies = {}
    for owner, text in policy_texts:
        kp, _ = keygen(owner, rng)
        keys[owner] = kp
        directory.add(owner, kp.public)
        policies[owner] = parser.parse_policy(text, owner, base)
    services.register_keys(directory)
    network = SimNetwork()
    nodes = {}
    for owner in policies:
        node = Node(
            owner,
            policies[owner],
            keys[owner],
            directory,
            services=services,
            seed=seed,
            depth=depth,
        )
        network.register(node)
        nodes[owner] = node
    return World(network, nodes, services, directory, policies)


@dataclass
class ScenarioResult:
    name: str
    ok: bool
    transcript: list
    certificate: E.Certificate | None
    check: E.CheckResult | None
    world: World
    elapsed: float
    details: dict = field(default_factory=dict)


def _finish(name, world, node, answer, t0, details=None) -> ScenarioResult:
    details = details or {}
    if answer is None:
        return ScenarioResult(
            name, False, world.network.query_transcript(), None, None, world,
            _time.monotonic() - t0, details,
        )
    cert = node.certify(answer)
    result = E.check_certificate(cert, world.policy_map(), world.directory)
    details["answer"] = answer
    details["spine"] = E.render_spine(cert.root_evidence)
    return ScenarioResult(
        name, bool(result), world.network.query_transcript(), cert, result, world,
        _time.monotonic() - t0, details,
    )


# ---------------------------------------------------------------------------
# Hospital (three mutually attesting hospitals, medical-record access)

_HOSPITAL_DECLS = """
sort Physician. sort Patient.
pred isHospital(Principal).
pred isPhysicianOf(Physician, Patient).
pred readMedRec(Physician, Patient).
principal A, B, C.
const Alice: Physician.
const Peter: Patient.
"""

HOSPITAL_A = _HOSPITAL_DECLS + """
a1: A says isHospital(C).
a2: forall X:Physician, Y:Patient.
    (A says isPhysicianOf(X, Y)) => A says readMedRec(X, Y).
a3: forall X:Physician, Y:Patient, Z:Principal.
    (A says isHospital(Z)) => (Z says isPhysicianOf(X, Y))
    => A says isPhysicianOf(X, Y).
a4: forall H:Principal, Z1:Principal, Z2:Principal.
    (Z1 != Z2 /\\ Z1 != A /\\ Z2 != A)
    => (A says isHospital(Z1) \\/ A says isHospital(Z2))
    => (Z1 says isHospital(H) /\\ Z2 says isHospital(H))
    => A says isHospital(H).
"""

HOSPITAL_B = _HOSPITAL_DECLS + """
b1: B says isHospital(A).
b2: B says isHospital(B).
b3: B says isPhysicianOf(Alice, Peter).
"""

HOSPITAL_C = _HOSPITAL_DECLS + """
c1: C says isHospital(B).
"""

HOSPITAL_QUERY = "A says readMedRec(Alice, Peter)"


def run_hospital(seed: int = 0) -> ScenarioResult:
    t0 = _time.monotonic()
    world = build_world([("A", HOSPITAL_A), ("B", HOSPITAL_B), ("C", HOSPITAL_C)], seed)
    a = world.node("A")
    goal, free = parser.parse_goal(HOSPITAL_QUERY, a.policy.signature)
    answer = a.ask_first(goal, free)
    return _finish("hospital", world, a, answer, t0)


# ---------------------------------------------------------------------------
# Delegation (certification authority -> HMO -> member hospitals)

_DELEG_DECLS = """
pred isHospital(Principal).
principal A, B, C, CA, HMO, V.
"""

DELEG_B = _DELEG_DECLS + """
db: B says isHospital(B).
"""

DELEG_C = _DELEG_DECLS + """
dc: C says isHospital(B).
"""

DELEG_CA = _DELEG_DECLS + """
ca1: delegate(CA, HMO, isHospital).
"""

DELEG_HMO = _DELEG_DECLS + """
hmo1: forall K:Principal, x:Principal.
    (K = A \\/ (K = B \\/ K = C))
    => (K says isHospital(x))
    => HMO says isHospital(x).
"""

DELEG_V = _DELEG_DECLS + """
v1: forall x:Principal. (CA says isHospital(x)) => isHospital(x).
"""

DELEG_QUERY = "isHospital(B)"


def run_delegation(seed: int = 0, include_authority: bool = True) -> ScenarioResult:
    t0 = _time.monotonic()
    ca_text = DELEG_CA if include_authority else _DELEG_DECLS
    world = build_world(
        [("B", DELEG_B), ("C", DELEG_C), ("CA", ca_text), ("HMO", DELEG_HMO), ("V", DELEG_V)],
        seed,
    )
    v = world.node("V")
    goal, free = parser.parse_goal(DELEG_QUERY, v.policy.signature)
    answer = v.ask_first(goal, free)
    return _finish("delegation", world, v, answer, t0)


# ---------------------------------------------------------------------------
# Needham-Schroeder (nonce handshake as nested hypothetical queries)

_NS_DECLS = """
pred msg1(Principal, Nonce).
pred msg2(Principal, Nonce, Nonce).
pred msg3(Nonce).
principal A, B.
"""

NS_A = _NS_DECLS

NS_B = _NS_DECLS + """
nsp: forall xa:Nonce.
    ((forall xb:Nonce. (B says msg3(xb)) => A says msg2(B, xa, xb)))
    => B says msg1(A, xa).
"""


def ns_goal_text(na: str) -> str:
    return (
        f"(forall xb:Nonce. (B says msg3(xb)) => A says msg2(B, {na}, xb))"
        f" => B says msg1(A, {na})"
    )


def run_ns(seed: int = 0, rounds: int = 1) -> ScenarioResult:
    t0 = _time.monotonic()
    world = build_world([("A", NS_A), ("B", NS_B)], seed)
    a = world.node("A")
    answers = []
    nonces = []
    for _ in range(rounds):
        na = world.services.fresh_nonce()
        nonces.append(na)
        sig = a.policy.signature.copy()
        sig.note_const(na, "Nonce")
        goal, free = parser.parse_goal(ns_goal_text(na), sig)
        answers.append(a.ask_first(goal, free))
    details = {"initiator_nonces": nonces, "all_nonces": list(world.services.issued)}
    last = answers[-1] if answers and answers[-1] is not None else None
    if any(ans is None for ans in answers):
        last = None
    result = _finish("needham-schroeder", world, a, last, t0, details)
    result.details["answers"] = answers
    return result


# ---------------------------------------------------------------------------
# Timed attestations (logical clock, receipts for deadlines)

_TIMED_DECLS = """
pred noop(Time).
principal K.
"""


def run_timed(seed: int = 0, clock: int = 5) -> ScenarioResult:
    t0 = _time.monotonic()
    world = build_world([("K", _TIMED_DECLS)], seed)
    world.services.advance(clock - world.services.now())
    k = world.node("K")
    outcomes = {}
    certs = {}
    for text in ("past(3)", "future(3)", "future(9)", "curr(5)"):
        goal, free = parser.parse_goal(text, k.policy.signature)
        answer = k.ask_first(goal, free)
        outcomes[text] = answer is not None
        if answer is not None:
            cert = k.certify(answer)
            certs[text] = (cert, E.check_certificate(cert, world.policy_map(), world.directory))
    ok = outcomes == {"past(3)": True, "future(3)": False, "future(9)": True, "curr(5)": True}
    ok = ok and all(bool(r) for _, r in certs.values())
    return ScenarioResult(
        "timed", ok, world.network.query_transcript(),
        certs["future(9)"][0] if "future(9)" in certs else None,
        certs["future(9)"][1] if "future(9)" in certs else None,
        world, _time.monotonic() - t0,
        {"outcomes": outcomes, "certs": certs},
    )


# ---------------------------------------------------------------------------
# Revocable delegation

_REVOKE_DECLS = """
pred access(Time).
principal K, L.
"""


def revoke_policy_k(revoked_at: int) -> str:
    facts = "\n".join(
        f"nr{t}: K says notRevoked(L, {t})." for t in range(revoked_at, 0, -1)
    )
    return _REVOKE_DECLS + "rd: revocable_delegate(K, L, access).\n" + facts + "\n"


def revoke_policy_l(uses) -> str:
    facts = "\n".join(f"u{s}: L says access({s})." for s in uses)
    return _REVOKE_DECLS + facts + "\n"


def run_revocation(seed: int = 0, revoked_at: int = 4, uses=(2, 5)) -> ScenarioResult:
    t0 = _time.monotonic()
    world = build_world(
        [("K", revoke_policy_k(revoked_at)), ("L", revoke_policy_l(uses))], seed
    )
    k = world.node("K")
    outcomes = {}
    cert = result = None
    for s in uses:
        goal, free = parser.parse_goal(f"K says access({s})", k.policy.signature)
        answer = k.ask_first(goal, free)
        outcomes[s] = answer is not None
        if answer is not None and cert is None:
            cert = k.certify(answer)
            result = E.check_certificate(cert, world.policy_map(), world.directory)
    ok = all(outcomes[s] == (s < revoked_at) for s in uses)
    ok = ok and (cert is None or bool(result))
    return ScenarioResult(
        "revocation", ok, world.network.query_transcript(), cert, result, world,
        _time.monotonic() - t0, {"outcomes": outcomes},
    )


SCENARIOS = {
    "hospital": run_hospital,
    "delegation": run_delegation,
    "ns": run_ns,
    "timed": run_timed,
    "revocation": run_revocation,
}
