"""The independent checker: positives, provenance, tamper completeness,
and scaling."""

import dataclasses
import gc
import random
import statistics
import sys
import threading
import time
import types

import pytest

import test_golden
from cyberlogic import codec, crypto, parser, scenarios
from cyberlogic import evidence as E
from cyberlogic import syntax as S
from cyberlogic.crypto import Directory, keygen, sign_attestation
from cyberlogic.errors import CodecError, ParseError
from cyberlogic.services import CheckerEndpoint, Registry, remote_check


def _hospital():
    return scenarios.run_hospital(0)


def _ns():
    return scenarios.run_ns(0)


def test_scenario_certificates_check():
    for run in (scenarios.run_hospital, scenarios.run_delegation, scenarios.run_ns,
                scenarios.run_timed, scenarios.run_revocation):
        r = run(0)
        assert r.ok, r.name
        assert E.check_certificate(r.certificate, r.world.policy_map(), r.world.directory)


def test_unit_proves_top_only():
    assert E.check({}, E.HypothesisEnv(), E.Unit(), S.TOP)
    res = E.check({}, E.HypothesisEnv(), E.Unit(), S.Atom("p", ()))
    assert not res and res.reason


def test_pair_checks_each_side_with_path():
    phi = S.And(S.TOP, S.Atom("p", ()))
    res = E.check({}, E.HypothesisEnv(), E.PairEv(E.Unit(), E.Unit()), phi)
    assert not res
    assert res.path  # pinpoints the failing conjunct


def test_inl_inr_select_disjunct():
    phi = S.Or(S.Atom("p", ()), S.TOP)
    assert E.check({}, E.HypothesisEnv(), E.Inr(E.Unit()), phi)
    assert not E.check({}, E.HypothesisEnv(), E.Inl(E.Unit()), phi)


def test_witness_substitutes_term():
    x = S.Var("x", "Time")
    phi = S.Exists(x, S.Atom("<", (S.Const("1", "Time"), x)))
    good = E.Witness(S.Const("5", "Time"),
                     E.TheoryHole("<", (S.Const("1", "Time"), S.Const("5", "Time"))))
    assert E.check({}, E.HypothesisEnv(), good, phi)
    bad = E.Witness(S.Const("0", "Time"),
                    E.TheoryHole("<", (S.Const("1", "Time"), S.Const("0", "Time"))))
    assert not E.check({}, E.HypothesisEnv(), bad, phi)


def test_hypothesis_lookup():
    clause = S.Clause("h1", (), (), S.Atom("p", ()))
    env = E.HypothesisEnv().extend([clause])
    assert E.check({}, env, E.ClauseApp("h1", None), S.Atom("p", ()))
    assert not E.check({}, env, E.ClauseApp("h2", None), S.Atom("p", ()))
    assert not E.check({}, env, E.ClauseApp("h1", None), S.Atom("q", ()))


def test_abstraction_eigenvariable_must_be_fresh():
    x = S.Var("x", "Thing")
    phi = S.Forall(x, S.Atom("=", (x, x)))
    ok = E.Abstraction("e9", E.TheoryHole("=", (S.Const("e9", "Thing"), S.Const("e9", "Thing"))))
    assert E.check({}, E.HypothesisEnv(), ok, phi)
    # reusing a constant that already occurs in the formula is unsound
    phi2 = S.Forall(x, S.Atom("=", (x, S.Const("e9", "Thing"))))
    bad = E.Abstraction("e9", E.TheoryHole("=", (S.Const("e9", "Thing"), S.Const("e9", "Thing"))))
    assert not E.check({}, E.HypothesisEnv(), bad, phi2)


def test_knows_provenance_must_stay_inside_the_group():
    r = _hospital()
    cert = r.certificate
    b_const = S.Const("B", "Principal")
    wrapped = E.KnowsWrap(frozenset({b_const}), cert.root_evidence)
    phi = S.Knows(frozenset({b_const}), cert.root_formula)
    res = E.check(r.world.policy_map(), E.HypothesisEnv(), wrapped, phi,
                  directory=r.world.directory)
    assert not res  # the proof uses A's and C's clauses too
    # the first clause application met outside the group is A's, at the root
    assert res.path == (0,)
    assert res.reason == "evidence draws on a policy of 'A', outside the restriction"


def test_a_policy_known_by_its_owner_record_is_left_as_an_obligation():
    r = _hospital()
    cert = r.certificate
    a = r.world.policies["A"]
    # A's checker: B's and C's policies known only by a record naming the owner
    known = {d: p if p is a else types.SimpleNamespace(owner=p.owner)
             for d, p in r.world.policy_map().items()}
    result, obligations = E.check_part(cert, known, r.world.directory)
    assert result.ok
    assert [o.path for o in obligations] == [(0, 0, 2, 0), (0, 0, 2, 1), (0, 1)]
    assert all(o.node.policy_digest != a.digest and o.scope == () for o in obligations)
    first = obligations[0]
    assert E.check_certificate(cert, known, r.world.directory) == E.CheckResult(
        False, first.path, f"unknown policy digest {first.node.policy_digest.hex()[:12]}")


def test_certificates_are_immutable_and_have_no_store():
    cert = _hospital().certificate
    assert dict(cert.store) == {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.store = {b"\0" * 32: E.Unit()}


def test_a_creation_stamp_must_name_the_time_source():
    r = _hospital()
    cert = r.certificate
    stamp = cert.created_at
    renamed = dataclasses.replace(stamp, principal=dataclasses.replace(stamp.principal, name="A"))
    bad = dataclasses.replace(cert, created_at=renamed)
    res = E.check_certificate(bad, r.world.policy_map(), r.world.directory)
    assert not res
    assert res.reason == "creation stamp is not a reading signed by T"


def _registry(world, directory=None) -> Registry:
    """One checker endpoint per policy of `world`, on `directory` (the world's by default)."""
    registry = Registry()
    for owner, pol in world.policies.items():
        registry.register(pol.digest, CheckerEndpoint(owner, [pol], directory or world.directory, registry))
    return registry


def _cold(directory) -> Directory:
    """A directory with the keys of `directory` that has verified nothing."""
    cold = Directory()
    for name in directory.names():
        cold.add(name, directory.public_key(name))
    return cold


def _timed(goal):
    r = scenarios.run_timed(0)
    return r.world, r.details["certs"][goal][0]


def _certified(r):
    return r.world, r.certificate


_ONE_READING = {  # certificates whose signed attestations are all one
    "curr(5)": lambda: _timed("curr(5)"),  # stamp, attestation leaf and receipt
    "past(3)": lambda: _timed("past(3)"),  # stamp and attestation leaf
    "future(9)": lambda: _timed("future(9)"),  # stamp and receipt
    "hospital": lambda: _certified(_hospital()),  # stamp
    "chain-50": test_golden._chain50,  # stamp
}


@pytest.mark.parametrize("name", _ONE_READING)
def test_each_distinct_attestation_is_verified_once_per_directory(monkeypatch, name):
    world, cert = _ONE_READING[name]()
    calls, verify = [], crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or verify(*args))
    # The first check verifies the reading, and no later one, local or
    # remote; a fresh directory with the same keys verifies it again.
    for order in (["local", "remote"] * 2, ["remote", "local"] * 2):
        directory = _cold(world.directory)
        registry = _registry(world, directory)
        checks = {"local": lambda: E.check_certificate(cert, world.policy_map(), directory),
                  "remote": lambda: remote_check(registry, cert)}
        for i, how in enumerate(order):
            calls.clear()
            assert checks[how]().ok
            assert len(calls) == (1 if i == 0 else 0), (i, how)


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


def _signed_by_t(atom):
    """An edit that puts T's signature over `atom`, issued at 5, in place of a reading."""
    return lambda sa, svc: sign_attestation(svc.time_keys, svc.time_id, atom, issued_at=5)


_FIVE = S.Const("5", "Time")
# Edits of T's reading `time(5)`, issued at 5; `svc` holds T's key.
_READING_EDITS = {
    "signature bit": lambda sa, svc: dataclasses.replace(sa, signature=_flip(sa.signature)),
    "payload bit": lambda sa, svc: dataclasses.replace(sa, payload=_flip(sa.payload)),
    "issued_at, not re-signed": lambda sa, svc: dataclasses.replace(sa, issued_at=6),
    "principal renamed": lambda sa, svc: dataclasses.replace(
        sa, principal=dataclasses.replace(sa.principal, name="K")),
    "fingerprint bit": lambda sa, svc: dataclasses.replace(
        sa, principal=dataclasses.replace(sa.principal, fingerprint=_flip(sa.principal.fingerprint))),
    "signed again, issued at 4": lambda sa, svc: sign_attestation(
        svc.time_keys, svc.time_id, sa.atom(), issued_at=4),
    "T signs noop(5)": _signed_by_t(S.Atom("noop", (_FIVE,))),
    "T signs time(5, 5)": _signed_by_t(S.Atom("time", (_FIVE, _FIVE))),
    "T signs time(succ(4))": _signed_by_t(S.Atom("time", (S.FunApp("succ", (S.Const("4", "Time"),)),))),
}
_STAMP = (False, (), "creation stamp is not a reading signed by T")
_LEAF = (False, (0,), "signature by 'T' does not verify")
_RECEIPT = (False, (1,), "clock receipt is not a reading signed by T")
_ACCEPTED = (True, (), None)

# (copies of curr(5)'s reading edited, edit, (ok, path, reason)), as the
# checker gave them when it verified every copy.
_READING_ROWS = [
    ("stamp", "signature bit", _STAMP),
    ("stamp", "payload bit", _STAMP),
    ("stamp", "issued_at, not re-signed", _STAMP),
    ("stamp", "principal renamed", _STAMP),
    ("stamp", "fingerprint bit", _STAMP),
    ("stamp", "signed again, issued at 4", _ACCEPTED),
    ("leaf", "signature bit", _LEAF),
    ("leaf", "payload bit", _LEAF),
    ("leaf", "issued_at, not re-signed", _LEAF),
    ("leaf", "principal renamed", (False, (0,), "attested formula differs from the goal")),
    ("leaf", "fingerprint bit", _LEAF),
    ("leaf", "signed again, issued at 4", _ACCEPTED),
    ("receipt", "signature bit", _RECEIPT),
    ("receipt", "payload bit", _RECEIPT),
    ("receipt", "issued_at, not re-signed", _RECEIPT),
    ("receipt", "principal renamed", _RECEIPT),
    ("receipt", "fingerprint bit", _RECEIPT),
    ("receipt", "signed again, issued at 4", _ACCEPTED),
    ("stamp leaf receipt", "signature bit", _STAMP),
    ("stamp leaf receipt", "payload bit", _STAMP),
    ("stamp leaf receipt", "issued_at, not re-signed", _STAMP),
    ("stamp leaf receipt", "principal renamed", _STAMP),
    ("stamp leaf receipt", "fingerprint bit", _STAMP),
    ("stamp leaf receipt", "signed again, issued at 4", _ACCEPTED),
    ("stamp", "T signs noop(5)", _STAMP),
    ("stamp", "T signs time(5, 5)", _STAMP),
    ("stamp", "T signs time(succ(4))", _STAMP),
    ("receipt", "T signs noop(5)", _RECEIPT),
    ("receipt", "T signs time(5, 5)", _RECEIPT),
    ("receipt", "T signs time(succ(4))", _RECEIPT),
]


@pytest.mark.parametrize("copies, edit, verdict", _READING_ROWS, ids=[f"{c}: {e}" for c, e, _ in _READING_ROWS])
def test_an_edited_copy_of_a_repeated_reading_gets_the_verdict_of_a_check_of_every_copy(copies, edit, verdict):
    # The stamp is checked first, then the attestation leaf at (0,), then
    # the receipt at (1,): an edited later copy must not pass as the
    # reading verified before it.
    world, cert = _timed("curr(5)")

    def change(sa):
        return _READING_EDITS[edit](sa, world.services)

    def swap(x, kids):
        if isinstance(x, E.AttLeaf) and "leaf" in copies:
            return E.AttLeaf(change(x.attestation))
        if isinstance(x, E.TheoryHole) and "receipt" in copies:
            return dataclasses.replace(x, receipt=change(x.receipt))
        return E.rebuild(x, kids, lambda t: t)

    stamp = change(cert.created_at) if "stamp" in copies else cert.created_at
    bad = dataclasses.replace(cert, root_evidence=E.fold(cert.root_evidence, swap), created_at=stamp)
    assert bad != cert
    for result in (E.check_certificate(bad, world.policy_map(), world.directory), remote_check(_registry(world), bad)):
        assert (result.ok, result.path, result.reason) == verdict


def _with_reading(cert, copies, sa):
    """`cert` with `sa` in place of the copies of its reading that `copies` names."""
    def swap(x, kids):
        if isinstance(x, E.AttLeaf) and "leaf" in copies:
            return E.AttLeaf(sa)
        if isinstance(x, E.TheoryHole) and "receipt" in copies:
            return dataclasses.replace(x, receipt=sa)
        return E.rebuild(x, kids, lambda t: t)

    stamp = sa if "stamp" in copies else cert.created_at
    return dataclasses.replace(cert, root_evidence=E.fold(cert.root_evidence, swap), created_at=stamp)


@pytest.mark.parametrize("edit", _READING_EDITS)
def test_a_directory_that_verified_a_reading_judges_its_edits_as_a_fresh_one_does(edit):
    world, cert = _timed("curr(5)")
    warm, reading = world.directory, cert.created_at
    assert (warm.public_key("T"), reading) in warm._attested
    edited = _READING_EDITS[edit](reading, world.services)
    assert warm.attested("T", edited) == _cold(warm).attested("T", edited)
    for copies in ("stamp", "leaf", "receipt", "stamp leaf receipt"):
        bad = _with_reading(cert, copies, edited)
        verdicts = [E.check_certificate(bad, world.policy_map(), d) for d in (warm, _cold(warm))]
        verdicts += [remote_check(_registry(world, d), bad) for d in (warm, _cold(warm))]
        assert verdicts[1:] == verdicts[:-1], copies


def test_a_reading_verified_under_a_replaced_key_is_refused():
    world, cert = _timed("curr(5)")
    directory, reading = world.directory, cert.created_at
    assert directory.attested("T", reading) is not None
    other, _ = keygen("T", random.Random(1))
    directory.add("T", other.public)
    assert directory.attested("T", reading) is None
    goal = S.Attest(S.TIME_SOURCE, reading.atom())
    assert E.check({}, E.HypothesisEnv(), E.AttLeaf(reading), goal, directory) == E.CheckResult(
        False, (), "signature by 'T' does not verify")
    assert E.check_certificate(cert, world.policy_map(), directory) == E.CheckResult(
        False, (), "pinned key for 'T' does not match the directory")


def _signed_readings(n):
    """A directory holding K's key, and `n` distinct attestations K signed."""
    kp, pid = keygen("K", random.Random(0))
    directory = Directory()
    directory.add("K", kp.public)
    return directory, [sign_attestation(kp, pid, S.Atom("time", (S.Const(str(t), "Time"),))) for t in range(n)]


def test_a_directory_keeps_only_the_newest_verified_attestations():
    directory, signed = _signed_readings(crypto.ATTESTED_CACHE + 5)
    for sa in signed:
        assert directory.attested("K", sa) is not None
    assert [sa for _, sa in directory._attested] == signed[5:]


def test_a_directory_shared_by_threads_keeps_every_verdict_and_the_cap():
    # More threads than cores, switching often: a lost update or a race
    # between two evictions would raise, lose a verdict or pass the cap.
    directory, signed = _signed_readings(crypto.ATTESTED_CACHE + 200)
    workers = 4
    results = [[] for _ in range(workers)]

    def run(i):
        results[i] = [directory.attested("K", sa) is not None for sa in signed[i::workers]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sum(map(len, results)) == len(signed) and all(map(all, results))
    assert len(directory._attested) == crypto.ATTESTED_CACHE


def test_a_forged_attestation_is_never_remembered(monkeypatch):
    directory, (sa,) = _signed_readings(1)
    forged = dataclasses.replace(sa, signature=_flip(sa.signature))
    calls, verify = [], crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or verify(*args))
    for _ in range(2):
        assert directory.attested("K", forged) is None
    assert len(calls) == 2 and not directory._attested
    assert directory.attested("B", sa) is None  # no key for B
    assert directory.attested("K", sa) is not None
    assert list(directory._attested) == [(directory.public_key("K"), sa)]


def test_a_large_attestation_is_verified_on_every_call_and_never_kept(monkeypatch):
    # The principal name is not signed, so it pads an attestation that
    # still verifies: at ATTESTED_SIZE it is kept, one byte more it is not.
    directory, (sa,) = _signed_readings(1)
    pid = sa.principal
    fits, large = (dataclasses.replace(sa, principal=dataclasses.replace(
        pid, name="K" * (crypto.ATTESTED_SIZE - len(sa.payload) + extra))) for extra in (0, 1))
    calls, verify = [], crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or verify(*args))
    for _ in range(2):
        assert directory.attested("K", large) == S.Attest(S.Const(large.principal.name, "Principal"), sa.atom())
    assert len(calls) == 2 and not directory._attested
    for _ in range(2):
        assert directory.attested("K", fits) is not None
    assert len(calls) == 3 and list(directory._attested) == [(directory.public_key("K"), fits)]


def test_remote_verdicts_equal_local_ones_with_warm_and_cold_directories():
    # Each golden scenario's world has checked its certificate; every
    # single-node tamper of it gets one verdict from the world's directory
    # and from fresh ones, local and remote.
    for name, run in sorted(scenarios.SCENARIOS.items()):
        r = run(0)
        world, cert = r.world, r.certificate
        for _, ev in [("", cert.root_evidence), *_mutations(cert.root_evidence)]:
            c = dataclasses.replace(cert, root_evidence=ev)
            local = E.check_certificate(c, world.policy_map(), _cold(world.directory))
            for directory in (world.directory, _cold(world.directory)):
                assert remote_check(_registry(world, directory), c) == local, name
            assert E.check_certificate(c, world.policy_map(), world.directory) == local, name


def test_one_attestation_under_two_names_is_verified_under_each():
    world, cert = _timed("curr(5)")
    time5 = cert.created_at.atom()
    goal = S.And(S.Attest(S.Const("T", "Principal"), time5), S.Attest(S.Const("K", "Principal"), time5))
    ev = E.PairEv(E.AttLeaf(cert.created_at), E.AttLeaf(cert.created_at))
    assert E.check({}, E.HypothesisEnv(), ev, goal, world.directory) == E.CheckResult(
        False, (1,), "signature by 'K' does not verify")


def _rejection_rows():
    """(evidence, goal, hypotheses or directory, path, reason): one row for
    each rejection of the checker that no other test names."""
    rng = random.Random(0)
    keys = {name: keygen(name, rng) for name in ("K", "T")}
    directory = Directory()
    for name, (kp, _) in keys.items():
        directory.add(name, kp.public)
    k, b = S.Const("K", "Principal"), S.Const("B", "Principal")
    p, q = S.Atom("p", ()), S.Atom("q", ())
    sa = sign_attestation(*keys["K"], p)
    forged = dataclasses.replace(sa, signature=bytes([sa.signature[0] ^ 1]) + sa.signature[1:])
    three = S.Const("3", "Time")
    clock = sign_attestation(*keys["T"], S.Atom("time", (three,)))
    not_clock = sign_attestation(*keys["K"], S.Atom("time", (three,)))
    x, t = S.Var("x", "Thing"), S.Var("t", "Time")
    lt = S.Atom("<", (t, three))
    deadline = S.Atom("time_not_elapsed", (three,))
    hyps = E.HypothesisEnv().extend([S.Clause("h", (x,), (q,), S.Atom("r", (x,)))])
    r_a = S.Atom("r", (S.Const("a", "Thing"),))
    return [
        (E.AttLeaf(sa), p, directory, (), "attestation evidence for a non-attestation goal"),
        (E.AttLeaf(sa), S.Attest(S.Var("z", "Principal"), p), directory, (), "attesting principal is not ground"),
        (E.AttLeaf(sa), S.Attest(b, p), directory, (), "no public key for 'B'"),
        (E.AttLeaf(forged), S.Attest(k, p), directory, (), "signature by 'K' does not verify"),
        (E.AttLeaf(sa), S.Attest(k, q), directory, (), "attested formula differs from the goal"),
        (E.TheoryHole("<", lt.args), p, None, (), "theory evidence for a non-interpreted goal"),
        (E.TheoryHole("<", (three, t)), lt, None, (), "theory evidence does not match the goal atom"),
        (E.TheoryHole("<", lt.args), lt, None, (), "< needs 2 ground arguments"),
        (E.TheoryHole("time_not_elapsed", deadline.args), deadline, directory, (), "missing clock receipt"),
        (E.TheoryHole("time_not_elapsed", deadline.args, not_clock), deadline, directory, (),
         "clock receipt is not a reading signed by T"),
        (E.TheoryHole("time_not_elapsed", deadline.args, clock), deadline, directory, (),
         "clock receipt is not earlier than the deadline"),
        # `x` is read off the goal: a Time, and then a term of no sort
        (E.ClauseApp("h", None, (), (E.Unit(),)), S.Atom("r", (three,)), hyps, (),
         "argument for 'x' has the wrong sort"),
        (E.ClauseApp("h", None, (), (E.Unit(),)), S.Atom("r", (S.FunApp("f", ()),)), hyps, (),
         "unintelligible argument for 'x'"),
        (E.ClauseApp("h", None), r_a, hyps, (), "clause 'h': 1 premises expected"),
        (E.PairEv(E.Unit(), E.Unit()), S.TOP, None, (), "pair evidence for a non-conjunction"),
        (E.PairEv(E.Unit(), E.Witness(three, E.Unit())), S.And(S.TOP, S.TOP), None, (1,),
         "witness evidence for a non-existential"),
        (E.Witness(r_a.args[0], E.Unit()), S.Exists(t, S.TOP), None, (), "witness has the wrong sort"),
        (E.Abstraction("h", E.Unit()), S.Implies(S.Or(p, q), S.TOP), None, (),
         "hypothesis is not a program: clause head is not atomic: p \\/ q"),
        (E.Inl(E.Abstraction("e", E.Unit())), S.Or(S.TOP, S.TOP), None, (0,),
         "abstraction evidence for a non-binder goal"),
        (E.KnowsWrap(frozenset({k}), E.Unit()), S.TOP, None, (), "restriction evidence for a non-restricted goal"),
        (E.KnowsWrap(frozenset({k}), E.Unit()), S.Knows(frozenset({b}), S.TOP), None, (),
         "restriction sets differ"),
        ("tt", S.TOP, None, (), "unrecognized evidence node str"),
        (E.Abstraction("c9", E.TheoryHole("!=", (S.Const("c9", "Thing"), r_a.args[0]))),
         S.Forall(x, S.Atom("!=", (x, r_a.args[0]))), None, (0,),
         "!= does not hold for every value of eigenvariable 'c9'"),
    ]


_REJECTIONS = _rejection_rows()


@pytest.mark.parametrize("evidence, goal, context, path, reason", _REJECTIONS, ids=[r[-1] for r in _REJECTIONS])
def test_each_rejection_names_its_reason(evidence, goal, context, path, reason):
    env = context if isinstance(context, E.HypothesisEnv) else E.HypothesisEnv()
    directory = context if isinstance(context, Directory) else None
    assert E.check({}, env, evidence, goal, directory) == E.CheckResult(False, path, reason)


_MATCH_POLICY = (
    "sort Thing. principal K. const a: Thing. const b: Thing.\n"
    "pred p2(Thing, Thing). pred s(Thing). pred t(Thing). pred u(Thing).\n"
    "r2: forall x:Thing. p2(x, x).\n"
    "rs: forall k:Principal, x:Thing. k says s(x).\n"
    "rw: forall x:Thing, y:Thing. t(y) => u(x).\n"  # `y` is written, `x` read off the goal
)
_A, _B = S.Const("a", "Thing"), S.Const("b", "Thing")
_HOSTILE_MATCHES = {
    "a goal row shorter than the head": (
        "r2", (), S.Atom("p2", (_A,)), "clause 'r2' head does not match the goal"),
    "a conjunction goal": (
        "r2", (), S.And(S.TOP, S.TOP), "clause 'r2' head does not match the goal"),
    "a says head facing a bare atom": (
        "rs", (), S.Atom("s", (_A,)), "clause 'rs' head does not match the goal"),
    "a repeated universal facing unequal terms": (
        "r2", (), S.Atom("p2", (_A, _B)), "clause 'r2' head does not match the goal"),
    "a read constant of the wrong sort": (
        "r2", (), S.Atom("p2", (S.Const("a", "Int"),) * 2), "argument for 'x' has the wrong sort"),
    "a principal of the wrong sort": (
        "rs", (), S.Attest(S.Const("K", "Thing"), S.Atom("s", (_A,))), "argument for 'k' has the wrong sort"),
    "a written argument too many": (
        "rw", (_A, _B), S.Atom("u", (_A,)), "clause 'rw' expects 1 arguments"),
    "a written argument too few": (
        "rw", (), S.Atom("u", (_A,)), "clause 'rw' expects 1 arguments"),
    "a head argument written": (
        "r2", (_A,), S.Atom("p2", (_A, _A)), "clause 'r2' expects 0 arguments"),
}


@pytest.mark.parametrize("case", sorted(_HOSTILE_MATCHES))
def test_the_checker_refuses_a_goal_the_head_does_not_match(case):
    label, written, goal, reason = _HOSTILE_MATCHES[case]
    world = scenarios.build_world([("K", _MATCH_POLICY)], seed=0)
    pol = world.policies["K"]
    ev = E.ClauseApp(label, pol.digest, written, (E.Unit(),) if label == "rw" else ())
    cert = E.Certificate(goal, ev, frozenset({pol.digest}))
    local = E.check_certificate(cert, world.policy_map(), world.directory)
    remote = remote_check(_registry(world), cert)
    assert (local.ok, local.path, local.reason) == (remote.ok, remote.path, remote.reason) == (False, (), reason)


def test_the_checker_reads_head_arguments_off_the_goal():
    world = scenarios.build_world([("K", _MATCH_POLICY + "t1: t(b).\n")], seed=0)
    pol, k = world.policies["K"], S.Const("K", "Principal")
    for label, written, goal, premises in [
        ("r2", (), S.Atom("p2", (_A, _A)), ()),
        ("rs", (), S.Attest(k, S.Atom("s", (_B,))), ()),
        ("rw", (_B,), S.Atom("u", (_A,)), (E.ClauseApp("t1", pol.digest),)),
    ]:
        cert = E.Certificate(goal, E.ClauseApp(label, pol.digest, written, premises), frozenset({pol.digest}))
        assert E.check_certificate(cert, world.policy_map(), world.directory)
        assert remote_check(_registry(world), cert)


_EIGEN_POLICY = (
    "sort Thing. principal K. const c1: Thing. const c2: Thing.\n"
    "pred p(Thing). pred q(Thing). pred r(Thing, Thing). pred s().\n"
    "f: p(c1).\n"
    "g: forall y:Thing. p(c1) => q(y).\n"
    "h: s().\n"
    "u: forall y:Thing, z:Thing. r(y, z).\n"
    "g2: forall y:Thing. y != c2 => q(y).\n"
)
_C9 = S.Const("c9", "Thing")
_EIGEN_CASES = {  # goal, evidence under K's policy, verdict
    "a fact names it": (
        "forall x:Thing. p(x)", lambda d: E.Abstraction("c1", E.ClauseApp("f", d)),
        (False, (0,), "eigenvariable 'c1' is not fresh")),
    "a premise of the clause names it": (
        "forall x:Thing. q(x)", lambda d: E.Abstraction("c1", E.ClauseApp("g", d, (), (E.ClauseApp("f", d),))),
        (False, (0,), "eigenvariable 'c1' is not fresh")),
    "the clause names another constant": (
        "forall x:Thing. q(x)", lambda d: E.Abstraction("c9", E.ClauseApp("g", d, (), (E.ClauseApp("f", d),))),
        (True, (), None)),
    "the clause's owner is the eigenvariable": (
        "forall x:Principal. x says s()", lambda d: E.Abstraction("K", E.ClauseApp("h", d)),
        (False, (0,), "eigenvariable 'K' is not fresh")),
    "a numeral": (
        "forall x:Int. x < 4",
        lambda d: E.Abstraction("3", E.TheoryHole("<", (S.Const("3", "Int"), S.Const("4", "Int")))),
        (False, (), "eigenvariable '3' is not fresh")),
    # A comparison on an eigenvariable must hold for every value of it.
    "it differs from a constant": (
        "forall x:Thing. x != c2", lambda d: E.Abstraction("c9", E.TheoryHole("!=", (_C9, S.Const("c2", "Thing")))),
        (False, (0,), "!= does not hold for every value of eigenvariable 'c9'")),
    "it differs from a numeral": (
        "forall x:Int. x != 4",
        lambda d: E.Abstraction("c9", E.TheoryHole("!=", (S.Const("c9", "Int"), S.Const("4", "Int")))),
        (False, (0,), "!= does not hold for every value of eigenvariable 'c9'")),
    "it equals a constant": (
        "forall x:Thing. x = c2", lambda d: E.Abstraction("c9", E.TheoryHole("=", (_C9, S.Const("c2", "Thing")))),
        (False, (0,), "= does not hold for every value of eigenvariable 'c9'")),
    "it equals itself": (
        "forall x:Thing. x = x", lambda d: E.Abstraction("c9", E.TheoryHole("=", (_C9, _C9))), (True, (), None)),
    "a premise compares it": (
        "forall x:Thing. q(x)",
        lambda d: E.Abstraction("c9", E.ClauseApp("g2", d, (), (E.TheoryHole("!=", (_C9, S.Const("c2", "Thing"))),))),
        (False, (0, 0), "!= does not hold for every value of eigenvariable 'c9'")),
    "a comparison without it": (
        "forall x:Thing. c1 != c2",
        lambda d: E.Abstraction("c9", E.TheoryHole("!=", (S.Const("c1", "Thing"), S.Const("c2", "Thing")))),
        (True, (), None)),
}


@pytest.mark.parametrize("case", sorted(_EIGEN_CASES))
def test_an_eigenvariable_is_fresh_for_the_policy_clauses_applied_under_it(case):
    text, evidence, verdict = _EIGEN_CASES[case]
    world = scenarios.build_world([("K", _EIGEN_POLICY), ("L", "sort Thing.\n")], seed=0)
    k, l = world.policies["K"], world.policies["L"]
    goal, _ = parser.parse_goal(text, k.signature)
    cert = E.Certificate(goal, evidence(k.digest), frozenset({k.digest}))
    local = E.check_certificate(cert, world.policy_map(), world.directory)
    assert (local.ok, local.path, local.reason) == verdict
    assert remote_check(_registry(world), cert) == local
    # from L's endpoint, K's clauses are obligations checked at K under the eigenvariables in scope
    assert remote_check(_registry(world), cert, l.digest) == local


@pytest.mark.parametrize("text, eigen", [
    ("forall x:Thing. p(x)", None),  # K's policy names `c1`
    ("forall x:Thing. r(x, c2)", "c3"),  # K's policy names `c1`, the goal `c2`
    ("r(c2, c2) => forall x:Thing. r(x, x)", "c3"),  # the hypothesis (labelled `h1`) names `c2`
])
def test_the_prover_names_no_eigenvariable_the_checker_would_refuse(text, eigen):
    world = scenarios.build_world([("K", _EIGEN_POLICY)], seed=0)
    node = world.node("K")
    answer = node.ask_first(*parser.parse_goal(text, node.policy.signature))
    if eigen is None:
        assert answer is None
        return
    abstraction = next(x for x in E.nodes(answer.evidence) if isinstance(x, E.Abstraction) and x.var[0] == "c")
    assert abstraction.var == eigen
    cert = node.certify(answer)
    assert E.check_certificate(cert, world.policy_map(), world.directory) == E.CheckResult(True)
    assert remote_check(_registry(world), cert) == E.CheckResult(True)


def test_nested_restrictions_admit_only_the_owners_both_admit():
    policy = parser.parse_policy("pred ok(Principal).\nprincipal A.\na1: ok(A).\n", "A")
    a, b = S.Const("A", "Principal"), S.Const("B", "Principal")
    proof = E.KnowsWrap(frozenset({a}), E.ClauseApp("a1", policy.digest))
    inner = S.Knows(frozenset({a}), S.Atom("ok", (a,)))
    assert E.check({policy.digest: policy}, E.HypothesisEnv(), proof, inner)
    res = E.check({policy.digest: policy}, E.HypothesisEnv(), E.KnowsWrap(frozenset({b}), proof),
                  S.Knows(frozenset({b}), inner))
    assert res == E.CheckResult(False, (0, 0), "evidence draws on a policy of 'A', outside the restriction")


# ---------------------------------------------------------------------------
# Tamper suite


def _tree_addresses(ev, path=()):
    """All (path, node) pairs."""
    yield path, ev
    if isinstance(ev, E.PairEv):
        yield from _tree_addresses(ev.left, path + ("l",))
        yield from _tree_addresses(ev.right, path + ("r",))
    elif isinstance(ev, (E.Inl, E.Inr, E.Witness, E.Abstraction, E.KnowsWrap)):
        yield from _tree_addresses(ev.body, path + ("b",))
    elif isinstance(ev, E.ClauseApp):
        for i, p in enumerate(ev.premises):
            yield from _tree_addresses(p, path + (i,))


def _replace(ev, path, new):
    if not path:
        return new
    step, rest = path[0], path[1:]
    if isinstance(ev, E.PairEv):
        if step == "l":
            return E.PairEv(_replace(ev.left, rest, new), ev.right)
        return E.PairEv(ev.left, _replace(ev.right, rest, new))
    if isinstance(ev, (E.Inl, E.Inr)):
        return type(ev)(_replace(ev.body, rest, new))
    if isinstance(ev, E.Witness):
        return E.Witness(ev.term, _replace(ev.body, rest, new))
    if isinstance(ev, E.Abstraction):
        return E.Abstraction(ev.var, _replace(ev.body, rest, new))
    if isinstance(ev, E.KnowsWrap):
        return E.KnowsWrap(ev.principals, _replace(ev.body, rest, new))
    if isinstance(ev, E.ClauseApp):
        premises = list(ev.premises)
        premises[step] = _replace(premises[step], rest, new)
        return E.ClauseApp(ev.label, ev.policy_digest, ev.args, tuple(premises))
    raise AssertionError(f"bad path {path!r} at {type(ev).__name__}")


def _flip_str_bit(text, bit):
    raw = bytearray(text.encode())
    raw[bit // 8] ^= 1 << (bit % 8)
    try:
        return raw.decode()
    except UnicodeDecodeError:
        return None


def _flip_const_bit(t, bit):
    if isinstance(t, S.Const):
        name = _flip_str_bit(t.name, bit)
        return None if name is None else S.Const(name, t.sort)
    return None


def _mutations(ev):
    """Yield single-bit structural mutations: signature bits, clause-label
    bits, policy-digest bits, written term-arg bits."""
    for path, node in _tree_addresses(ev):
        if isinstance(node, E.AttLeaf):
            sa = node.attestation
            for bit in range(len(sa.signature) * 8):
                sig = bytearray(sa.signature)
                sig[bit // 8] ^= 1 << (bit % 8)
                bad = type(sa)(sa.principal, sa.payload, bytes(sig), sa.issued_at)
                yield f"sig[{bit}]@{path}", _replace(ev, path, E.AttLeaf(bad))
        elif isinstance(node, E.ClauseApp):
            for bit in range(len(node.label.encode()) * 8):
                label = _flip_str_bit(node.label, bit)
                if label is None or label == node.label:
                    continue
                bad = E.ClauseApp(label, node.policy_digest, node.args, node.premises)
                yield f"label[{bit}]@{path}", _replace(ev, path, bad)
            for bit in range(0, len(node.policy_digest or b"") * 8, 4):  # each byte twice; any miss is alike
                digest = bytearray(node.policy_digest)
                digest[bit // 8] ^= 1 << (bit % 8)
                bad = E.ClauseApp(node.label, bytes(digest), node.args, node.premises)
                yield f"digest[{bit}]@{path}", _replace(ev, path, bad)
            for i, arg in enumerate(node.args):
                if not isinstance(arg, S.Const):
                    continue
                for bit in range(len(arg.name.encode()) * 8):
                    mutated = _flip_const_bit(arg, bit)
                    if mutated is None or mutated == arg:
                        continue
                    args = list(node.args)
                    args[i] = mutated
                    bad = E.ClauseApp(node.label, node.policy_digest, tuple(args), node.premises)
                    yield f"arg{i}[{bit}]@{path}", _replace(ev, path, bad)


@pytest.mark.parametrize("runner", [_hospital, _ns], ids=["hospital", "ns"])
def test_tamper_completeness(runner):
    r = runner()
    cert = r.certificate
    baseline = E.check_certificate(cert, r.world.policy_map(), r.world.directory)
    assert baseline
    total = 0
    for tag, mutated in _mutations(cert.root_evidence):
        bad = E.Certificate(cert.root_formula, mutated,
                            cert.policy_digests, cert.directory, cert.created_at)
        res = E.check_certificate(bad, r.world.policy_map(), r.world.directory)
        assert not res, f"mutation accepted: {tag}"
        assert res.reason, f"no failure report for {tag}"
        if tag.startswith("digest"):
            assert res.reason.startswith("unknown policy digest"), tag
        total += 1
    assert total > 100  # the suite actually exercised many mutations


# ---------------------------------------------------------------------------
# Scaling


def _balanced(depth):
    """(formula, evidence) for a complete binary And-tree of `ok` leaves."""
    leaf_phi = S.Atom("=", (S.Const("1", "Time"), S.Const("1", "Time")))
    leaf_ev = E.TheoryHole("=", leaf_phi.args)
    phi, ev = leaf_phi, leaf_ev
    for _ in range(depth):
        phi = S.And(phi, phi)
        ev = E.PairEv(ev, ev)
    return phi, ev


def test_check_scales_roughly_linearly():
    depths = (8, 9, 10)  # 256, 512, 1024 leaves
    trees = {depth: _balanced(depth) for depth in depths}
    spreads = []
    # Sizes are compared within a round, so a shared host that changes
    # speed between rounds slows the sizes of a round alike.  A round times
    # each size three times over, back to back, and keeps each size's best;
    # the garbage collector is off for the round.
    for _ in range(30):
        best = dict.fromkeys(depths, float("inf"))
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                for depth in depths:
                    phi, ev = trees[depth]
                    t0 = time.perf_counter()
                    ok = E.check({}, E.HypothesisEnv(), ev, phi)
                    best[depth] = min(best[depth], time.perf_counter() - t0)
                    assert ok
        finally:
            gc.enable()
        rates = [best[depth] / 2**depth for depth in depths]
        spreads.append(max(rates) / min(rates))
    # cost per evidence node stays flat as the tree doubles
    assert statistics.median(spreads) <= 1.5


def test_checker_ignores_how_evidence_was_found():
    # the same evidence term checks no matter what order clauses appear in
    r = _hospital()
    cert = r.certificate
    pol_map = r.world.policy_map()
    shuffled = {}
    for d, p in pol_map.items():
        q = S.Policy(p.owner, p.signature, list(reversed(p.clauses)), p.source)
        shuffled[d] = q
    assert E.check_certificate(cert, shuffled, r.world.directory)


# ---------------------------------------------------------------------------
# Depth: evidence nests as deep as a proof is long; terms and formulas
# nest at most syntax.MAX_NESTING deep


LOOP = "sort Thing. pred p(Thing).\nr: p(a) => p(a).\nf: p(a).\n"


def _looping_chain(last="f", steps=3000):
    """A certificate of `steps` applications of `r: p(a) => p(a)` above one
    application of clause `last`."""
    pol = parser.parse_policy(LOOP, "K")
    ev = E.ClauseApp(last, pol.digest)
    for _ in range(steps):
        ev = E.ClauseApp("r", pol.digest, (), (ev,))
    goal = S.Atom("p", (S.Const("a", "Thing"),))
    registry = Registry()
    registry.register(pol.digest, CheckerEndpoint("K", [pol], None, registry))
    return pol, registry, E.Certificate(goal, ev, frozenset({pol.digest}))


def test_a_3001_step_certificate_round_trips_and_checks():
    pol, registry, cert = _looping_chain()
    data = codec.encode_certificate(cert)
    back = codec.decode_certificate(data)
    assert codec.encode_certificate(back) == data
    assert E.check_certificate(back, {pol.digest: pol})
    assert remote_check(registry, back)


def test_a_3001_step_certificate_is_rejected_at_its_innermost_step():
    pol, registry, cert = _looping_chain(last="g")
    decoded = codec.decode_certificate(codec.encode_certificate(cert))
    for res in (E.check_certificate(decoded, {pol.digest: pol}), remote_check(registry, cert)):
        assert not res
        assert res.path == (0,) * 3000
        assert res.reason == "no clause 'g' in policy of 'K'"


def _disjunctions(depth: int) -> str:
    """`q \\/ (q \\/ (... \\/ p))`, `depth` deep, proved by its last disjunct."""
    return "q \\/ (" * (depth - 2) + "q \\/ p" + ")" * (depth - 2)


def _successors(depth: int) -> str:
    """`n(succ(...succ(0)...))`, `depth` deep."""
    return "n(" + "succ(" * (depth - 2) + "0" + ")" * (depth - 1)


@pytest.mark.parametrize("text", [_disjunctions, _successors])
def test_a_goal_at_the_nesting_limit_proves_certifies_and_checks(text):
    world = scenarios.build_world(
        [("K", "pred p(). pred q(). pred n(Int).\nf: p.\nm: forall x:Int. n(x).\n")], seed=0
    )
    node = world.node("K")
    goal, free = parser.parse_goal(text(S.MAX_NESTING), node.policy.signature)
    assert S.nesting(goal) == S.MAX_NESTING
    cert = node.certify(node.ask_first(goal, free))
    data = codec.encode_certificate(cert)
    back = codec.decode_certificate(data)
    assert codec.encode_certificate(back) == data
    assert E.check_certificate(back, world.policy_map(), world.directory)
    # one level deeper
    with pytest.raises(ParseError):
        parser.parse_goal(text(S.MAX_NESTING + 1), node.policy.signature)
    deeper = S.Or(S.Atom("q"), goal)
    with pytest.raises(CodecError):
        codec.encode_formula(deeper)
    with pytest.raises(CodecError):
        codec.decode_formula(b"\x16" + codec.encode_formula(S.Atom("q")) + codec.encode_formula(goal))


def test_deep_evidence_compares_and_hashes_at_the_default_recursion_limit():
    def chain(leaf):
        for _ in range(3000):
            leaf = E.Inl(leaf)
        return leaf

    a, b = S.Const("a", "Thing"), S.Const("b", "Thing")
    x, y = chain(E.TheoryHole("=", (a, a))), chain(E.TheoryHole("=", (a, a)))
    z = chain(E.TheoryHole("=", (a, b)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert x == y and hash(x) == hash(y)
        assert x != z and not x == z
    finally:
        sys.setrecursionlimit(limit)
    app = E.ClauseApp("r", b"d", (a,), (E.Unit(), x))
    assert app == E.ClauseApp("r", b"d", (a,), (E.Unit(), y))
    assert app != E.ClauseApp("r", b"d", (b,), (E.Unit(), y))
    assert app != E.ClauseApp("r", b"d", (a,), (E.Unit(), z))


def test_deep_evidence_prints_at_the_default_recursion_limit():
    ev = E.Unit()
    for _ in range(3000):
        ev = E.Inl(ev)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = repr(ev)
    except RecursionError:
        text = None
    finally:
        sys.setrecursionlimit(limit)
    assert text == "Inl(body=" * 3000 + "Unit()" + ")" * 3000
    a = S.Const("a", "Thing")
    app = E.ClauseApp("r", None, (a,), (E.PairEv(E.Unit(), E.Inr(E.Unit())),))
    assert repr(app) == (
        f"ClauseApp(label='r', policy_digest=None, args=({a!r},), "
        "premises=(PairEv(left=Unit(), right=Inr(body=Unit())),))"
    )


@pytest.mark.parametrize("args", [(), (S.Const("1", "Int"), S.Const("2", "Int"))])
def test_a_comparison_of_an_ill_formed_successor_gets_a_verdict(args):
    # The codec reads `succ` with any number of arguments.
    atom = S.Atom("<", (S.FunApp("succ", args), S.Const("3", "Int")))
    cert = E.Certificate(atom, E.TheoryHole("<", atom.args))
    cert = codec.decode_certificate(codec.encode_certificate(cert))
    res = E.check_certificate(cert, {})
    assert not res and res.reason == "< does not hold"


# ---------------------------------------------------------------------------
# Clause templates: the checker instantiates each applied clause from a
# template made once per clause, or through `substitute` for a part that is
# not an atom over variables and constants.  The verdicts below were
# recorded when every part went through `substitute`.

_SHAPE_HEADER = (
    "sort Thing. principal K. const a: Thing. const b: Thing.\n"
    "pred p(Thing). pred p2(Thing, Thing). pred n(Int). pred q(Thing).\n"
    "pred q2(Thing, Thing). pred g(Thing). pred h(Thing).\n"
)
_HEAD = "clause 'r' head does not match the goal"

# (clauses, goal, verdict on the certificate with each written argument of
# its root clause application replaced in turn, or with one added to none).
# An application writes only the arguments its head does not fix, so a
# head that fixes them all gets one added.
_SHAPES = {
    "a fact with no universals": (
        "f: p(a).", "p(a)", [(False, (), "clause 'f' expects 0 arguments")]),
    "a repeated head variable": (
        "r: forall x:Thing. p2(x, x).", "p2(a, a)", [(False, (), "clause 'r' expects 0 arguments")]),
    "a succ(x) argument": (
        "r: forall x:Int. n(succ(x)).", "n(succ(4))", [(False, (), _HEAD)]),
    "an owner's bare head for K says": (
        "r: forall x:Thing. p(x).", "K says p(a)", [(False, (), "clause 'r' expects 0 arguments")]),
    "a conjunction slot": (
        "r: forall x:Thing, y:Thing. (q(x) /\\ q(y)) => p(x).\nq1: q(a).", "p(a)",
        [(False, (0, 1), "clause 'q1' head does not match the goal")]),
    "a forall slot whose binder is a universal": (
        "r: forall x:Thing, y:Thing. (forall x:Thing. q2(x, y)) => p(x).\n"
        "q1: forall z:Thing. q2(z, a).", "p(a)",
        [(False, (0, 0), "clause 'q1' head does not match the goal")]),
    "an implication slot whose hypothesis binds a universal": (
        "r: forall x:Thing, y:Thing. ((forall x:Thing. h(x)) => g(y)) => q(y) => p(x).\n"
        "q1: q(a).\ng1: forall y:Thing. h(y) => g(y).", "p(a)",
        [(False, (1,), "clause 'q1' head does not match the goal")]),  # g(b) holds under h(b)
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_clause_templates_keep_every_verdict(shape):
    clauses, goal_text, tampered = _SHAPES[shape]
    world = scenarios.build_world([("K", _SHAPE_HEADER + clauses + "\n")], seed=0)
    node = world.node("K")
    goal, free = parser.parse_goal(goal_text, node.policy.signature)
    cert = codec.decode_certificate(codec.encode_certificate(node.certify(node.ask_first(goal, free))))
    check = lambda c: E.check_certificate(c, world.policy_map(), world.directory)
    assert check(cert) == E.CheckResult(True)
    root = cert.root_evidence
    verdicts = []
    for i in range(max(1, len(root.args))):
        args = list(root.args) or [S.Const("a", "Thing")]
        args[i] = S.Const("7" if args[i].sort == "Int" else "b", args[i].sort)
        bad = dataclasses.replace(root, args=tuple(args))
        verdicts.append(dataclasses.astuple(check(dataclasses.replace(cert, root_evidence=bad))))
    assert verdicts == tampered
    # every clause instantiates as `substitute` does
    for c in node.policy.clauses:
        args = tuple(S.Const(f"c{i}", v.sort) for i, v in enumerate(c.universals))
        inst = dict(zip(c.universals, args))
        assert c.instantiate(args) == (S.substitute(c.head, inst), tuple(S.substitute(s, inst) for s in c.slots))


def test_a_clause_without_universals_is_its_own_instance():
    c = S.Clause("f", (), (S.Atom("q", ()),), S.Atom("p", (S.Const("a", "Thing"),)))
    head, slots = c.instantiate(())
    assert head is c.head and slots is c.slots
    assert c._cache is None  # no template made


def test_a_clause_record_places_the_universals_the_head_determines():
    k, x, y = S.Var("k", "Principal"), S.Var("x", "Thing"), S.Var("y", "Int")
    a = S.Const("a", "Thing")
    # places count from the end of the row: an attestation's principal,
    # then the atom's arguments; `y` first occurs under `succ`, so it is the
    # first written argument, and the goal row must hold all five
    head = S.Attest(k, S.Atom("p", (x, S.FunApp("succ", (y,)), x, y)))
    places, keep, need, fill = S.Clause("r", (k, x, y), (), head).matcher
    assert (places, keep((k, x, y)), need) == ((-5, -4, 0), (y,), 5)
    row = (S.Const("K", "Principal"), a, S.FunApp("succ", (S.Const("1", "Int"),)), a, S.Const("1", "Int"))
    assert fill((S.Const("1", "Int"),) + row) == (row[0], a, S.Const("1", "Int"))
    # a bare head's row is its arguments; a repeated universal shares its place
    c = S.Clause("r", (x, x), (S.Atom("q", (x,)),), S.Atom("p", (x,)))
    places, keep, need, _ = c.matcher
    assert (places, keep((x, x)), need) == ((-1, -1), (), 1)
    # the encoding, computed after the record, keeps it
    compiled = c.instantiate((a, a)), c.matcher
    assert c.encoding == codec.encode_clause(c)
    assert (c.instantiate((a, a)), c.matcher) == compiled
    assert compiled[0] == (S.Atom("p", (a,)), (S.Atom("q", (a,)),))


def test_a_digest_the_checker_does_not_hold_is_unknown():
    pol, _, cert = _looping_chain(steps=2)
    res = E.check_certificate(cert, {})
    assert res == E.CheckResult(False, (), f"unknown policy digest {pol.digest.hex()[:12]}")


@pytest.mark.parametrize("side", [E.Inl, E.Inr])
def test_injection_evidence_needs_a_disjunction(side):
    res = E.check({}, E.HypothesisEnv(), side(E.Unit()), S.And(S.TOP, S.TOP))
    assert res == E.CheckResult(False, (), "injection evidence for a non-disjunction")
