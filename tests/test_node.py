"""Node behavior over the simulated and TCP transports: sessions,
broadcasts, duplicate delivery, routing."""

import base64
import socket
import time

import pytest

from cyberlogic import codec, engine, parser, scenarios
from cyberlogic import node as node_mod
from cyberlogic import evidence as E
from cyberlogic import syntax as S
from cyberlogic.crypto import SignedAttestation, sha256, sign, verify, verify_attestation
from cyberlogic.errors import TransportError
from cyberlogic.node import ANSWER_CACHE, TcpTransport, decode_frame, encode_frame, serve_node
from cyberlogic.services import CheckerEndpoint, Registry, remote_check


BCAST_DECLS = """
pred good(Principal).
principal A, B, C.
"""


def _bcast_world(seed=0):
    return scenarios.build_world(
        [("A", BCAST_DECLS), ("B", BCAST_DECLS + "b1: B says good(B).\n"),
         ("C", BCAST_DECLS + "c1: C says good(C).\n")],
        seed,
    )


def test_broadcast_binds_unbound_principal_in_directory_order():
    w = _bcast_world()
    a = w.node("A")
    goal, free = parser.parse_goal("z says good(z)", a.policy.signature)
    answers = list(a.ask(goal, free))
    zs = [ans.bindings[S.Var("z", "Principal")].name for ans in answers]
    assert zs == ["B", "C"]  # registration order drives the broadcast


def test_replacing_a_node_policy_takes_effect_on_the_next_query():
    w = _bcast_world()
    b = w.node("B")
    goal, _ = parser.parse_goal("B says good(A)", b.policy.signature)
    assert b.ask_first(goal) is None
    added = parser.parse_policy("b2: B says good(A).", "B", b.policy.signature)
    b.policy = S.Policy("B", added.signature, b.policy.clauses + added.clauses)
    answer = b.ask_first(goal)
    assert answer is not None
    assert answer.evidence.policy_digest == b.policy.digest


def test_a_suspended_ask_survives_an_appended_policy():
    w = _bcast_world()
    b = w.node("B")
    added = parser.parse_policy("b2: good(A).\nb3: good(B).\nb4: good(C).\n", "B", b.policy.signature)
    b.policy = S.Policy("B", added.signature, b.policy.clauses + added.clauses)
    old = b.policy
    first, _ = parser.parse_goal("good(B)", old.signature)
    assert b.ask_first(first) is not None  # builds the index of `old`
    goal, free = parser.parse_goal("good(z)", old.signature)
    suspended = b.ask(goal, free)
    answers = [next(suspended)]
    more = parser.parse_policy("b5: good(A).\n", "B", old.signature)
    b.policy = S.Policy("B", more.signature, old.clauses + more.clauses)
    answer = b.ask_first(first)  # extends the old index
    assert answer.evidence.policy_digest == b.policy.digest
    answers += suspended
    assert answers == list(engine.Prover({"B": old}).ask(goal, free))
    assert len(answers) == 3


def test_targeted_dispatch_goes_to_one_peer():
    w = _bcast_world()
    a = w.node("A")
    goal, _ = parser.parse_goal("B says good(B)", a.policy.signature)
    assert a.ask_first(goal) is not None
    queried = {
        to for _, to, data in w.network.frames
        if data and decode_frame(data).get("type") == "QUERY"
    }
    assert queried == {"B"}


def test_no_route_for_unknown_principal():
    w = _bcast_world()
    a = w.node("A")
    sig = a.policy.signature.copy()
    sig.declare_principal("Zed")
    goal, _ = parser.parse_goal("Zed says good(Zed)", sig)
    assert a.ask_first(goal) is None  # declined without crashing


def test_duplicate_query_delivery_is_idempotent():
    w = _bcast_world()
    w.network.fault_rules.append(
        lambda frm, to, frame: "duplicate" if b'"QUERY"' in frame else None
    )
    a = w.node("A")
    goal, free = parser.parse_goal("z says good(z)", a.policy.signature)
    ans = a.ask_first(goal, free)
    assert ans is not None
    assert ans.bindings[S.Var("z", "Principal")].name == "B"
    # the queried peer saw the redelivery and served it from its cache
    assert w.node("B").metrics["duplicates_ignored"] > 0
    assert w.node("B").metrics["queries_handled"] == 1


def test_dropped_frames_fall_through_to_the_next_peer():
    w = _bcast_world()
    w.network.fault_rules.append(lambda frm, to, frame: "drop" if to == "B" else None)
    a = w.node("A")
    goal, free = parser.parse_goal("z says good(z)", a.policy.signature)
    ans = a.ask_first(goal, free)
    assert ans is not None
    assert ans.bindings[S.Var("z", "Principal")].name == "C"


def _query_frame(frm, to, goal, qid, session=()):
    return encode_frame(
        {
            "type": "QUERY",
            "qid": qid,
            "from": frm,
            "to": to,
            "session": list(session),
            "goal_b64": base64.b64encode(codec.encode_formula(goal)).decode(),
            "vars": [],
            "budget": 16,
        }
    )


def test_answers_carry_verifiable_countersignature():
    w = _bcast_world()
    a = w.node("A")
    goal, _ = parser.parse_goal("B says good(B)", a.policy.signature)
    assert a.ask_first(goal) is not None
    (query,) = [data for frm, to, data in w.network.frames if data and frm == "A"]
    (answer,) = [
        decode_frame(data)
        for frm, to, data in w.network.frames
        if data and frm == "B" and b'"ANSWER"' in data
    ]
    assert answer["request"] == sha256(query).hex()
    sig = base64.b64decode(answer.pop("sig_b64"))
    assert verify(w.directory.public_key("B"), sig, encode_frame(answer))


def _unsigned(w, frm, to, frame, obj):
    obj.pop("sig_b64", None)
    return encode_frame(obj)


def _altered(w, frm, to, frame, obj):
    obj["evidence_b64"] = base64.b64encode(codec.encode_evidence(E.ClauseApp("b1", None))).decode()
    return encode_frame(obj)


def _for_another_request(w, frm, to, frame, obj):
    other = decode_frame(frame)
    other["qid"] += "-again"
    (resp,) = w.network.nodes[to].handle_frame(encode_frame(other))
    return resp


@pytest.mark.parametrize("tamper", [_unsigned, _altered, _for_another_request])
def test_unsigned_altered_or_misdirected_answers_are_dropped(tamper):
    w = _bcast_world()
    request = w.network.request

    def tampered(frm, to, frame):
        out = []
        for resp in request(frm, to, frame):
            obj = decode_frame(resp)
            out.append(tamper(w, frm, to, frame, obj) if obj["type"] == "ANSWER" else resp)
        return out

    w.network.request = tampered
    a = w.node("A")
    goal, _ = parser.parse_goal("B says good(B)", a.policy.signature)
    assert a.ask_first(goal) is None


def test_a_reused_qid_gets_its_own_reply():
    b = _bcast_world().node("B")
    replies = []
    for text in ("B says good(A)", "B says good(B)"):
        goal, _ = parser.parse_goal(text, b.policy.signature)
        (resp,) = b.handle_frame(_query_frame("A", "B", goal, "A-1"))
        replies.append(decode_frame(resp)["type"])
    assert replies == ["FAIL", "ANSWER"]


def test_the_reply_cache_keeps_only_the_newest_queries():
    b = _bcast_world().node("B")
    goal, _ = parser.parse_goal("B says good(B)", b.policy.signature)
    frames = [_query_frame("A", "B", goal, f"A-{i}") for i in range(ANSWER_CACHE + 1)]
    for frame in frames:
        b.handle_frame(frame)
    b.handle_frame(frames[-1])
    assert b.metrics["duplicates_ignored"] == 1
    b.handle_frame(frames[0])  # evicted: served again
    assert b.metrics["duplicates_ignored"] == 1
    assert b.metrics["queries_handled"] == ANSWER_CACHE + 2


def test_a_good_answer_after_a_corrupt_copy_is_accepted():
    w = _bcast_world()
    request = w.network.request

    def corrupt_copy_first(frm, to, frame):
        good = request(frm, to, frame)
        bad = []
        for resp in good:
            obj = decode_frame(resp)
            if obj.get("type") == "ANSWER":
                obj["evidence_b64"] = base64.b64encode(b"\xff").decode()
                bad.append(encode_frame(obj))
        return bad + good  # same qid, the corrupt copy first

    w.network.request = corrupt_copy_first
    a = w.node("A")
    goal, _ = parser.parse_goal("B says good(B)", a.policy.signature)
    assert a.ask_first(goal) is not None
    assert a.metrics["duplicates_ignored"] == 0


def _resigned(w, to, obj):
    """`obj` as an ANSWER frame correctly signed by `to`."""
    obj.pop("sig_b64", None)
    obj["sig_b64"] = base64.b64encode(sign(w.node(to).keys, encode_frame(obj))).decode()
    return encode_frame(obj)


@pytest.mark.parametrize(
    "field, value",
    [
        ("bindings", ["x"]),
        ("bindings", {"x": 7}),
        ("bindings", {"x": "abc"}),  # bad base64 padding
        ("bindings", {"x": base64.b64encode(b"\xff").decode()}),  # not a term
        ("evidence_b64", None),
        ("evidence_b64", "\u00e9"),  # not ASCII
        ("evidence_b64", base64.b64encode(b"\x22").decode()),  # truncated evidence
    ],
)
def test_a_signed_answer_with_malformed_fields_is_skipped(field, value):
    w = _bcast_world()
    request = w.network.request

    def malformed_copy_first(frm, to, frame):
        good = request(frm, to, frame)
        bad = []
        for resp in good:
            obj = decode_frame(resp)
            if obj.get("type") == "ANSWER":
                obj[field] = value
                bad.append(_resigned(w, to, obj))
        return bad + good

    w.network.request = malformed_copy_first
    a = w.node("A")
    goal, free = parser.parse_goal("B says good(x)", a.policy.signature)
    assert a.ask_first(goal, free).bindings == {free[0]: S.Const("B", "Principal")}


def test_an_internal_error_reading_an_answer_is_not_taken_for_a_bad_peer(monkeypatch):
    def broken(data):
        raise RuntimeError("decoder bug")

    w = _bcast_world()
    monkeypatch.setattr(codec, "decode_evidence", broken)
    a = w.node("A")
    goal, _ = parser.parse_goal("B says good(B)", a.policy.signature)
    with pytest.raises(RuntimeError, match="decoder bug"):
        a.ask_first(goal)


def test_a_peer_answering_with_3000_deep_evidence_gets_a_verdict():
    w = _bcast_world()
    request = w.network.request
    deep = E.Unit()
    for _ in range(3000):
        deep = E.Inl(deep)

    def deep_answer(frm, to, frame):
        out = []
        for resp in request(frm, to, frame):
            obj = decode_frame(resp)
            if obj["type"] == "ANSWER":
                obj["evidence_b64"] = base64.b64encode(codec.encode_evidence(deep)).decode()
                resp = _resigned(w, to, obj)
            out.append(resp)
        return out

    w.network.request = deep_answer
    a = w.node("A")
    goal, _ = parser.parse_goal("B says good(B)", a.policy.signature)
    answer = a.ask_first(goal)
    assert codec.encode_evidence(answer.evidence) == codec.encode_evidence(deep)
    res = E.check_certificate(a.certify(answer), w.policy_map(), w.directory)
    assert not res and res.reason == "injection evidence for a non-disjunction"


def test_broadcast_query_lists_free_variables_in_first_occurrence_order():
    decls = "pred rel(Principal, Principal).\nprincipal A, B, C.\n"
    w = scenarios.build_world(
        [("A", decls), ("B", decls + "b1: B says rel(C, A).\n"), ("C", decls)], 0
    )
    a = w.node("A")
    goal, free = parser.parse_goal("z says rel(y, x)", a.policy.signature)
    assert [v.name for v in free] == ["z", "y", "x"]
    assert a.ask_first(goal, free) is not None
    queries = [
        decode_frame(data) for _, _, data in w.network.frames
        if data and decode_frame(data).get("type") == "QUERY"
    ]
    # recorded before the engine's own ordered walk was replaced
    assert [(q["to"], q["vars"]) for q in queries] == [
        ("B", [["y", "Principal"], ["x", "Principal"]])
    ]


# ---------------------------------------------------------------------------
# The answer table: one request per distinct question in a query


def _queries(world, to=None):
    """(to, goal text) of each QUERY sent, in order; a dropped one is None."""
    out = []
    for _, dest, data in world.network.frames:
        if to is not None and dest != to:
            continue
        if not data:
            out.append(None)
            continue
        obj = decode_frame(data)
        if obj.get("type") == "QUERY":
            out.append((dest, S.fmt_formula(codec.decode_formula(base64.b64decode(obj["goal_b64"])))))
    return out


def test_b_serves_the_repeated_hospital_question_once_per_query():
    # A's broadcasts `_3 says isHospital(B)` and `_4 says isHospital(B)`
    # both become `B says isHospital(B)` to B.  Each top-level query keeps
    # its own table, so the second query asks again.
    w = scenarios.run_hospital(0).world
    a, b = w.node("A"), w.node("B")
    assert _queries(w).count(("B", "B says isHospital(B)")) == 1
    assert b.metrics["queries_handled"] == 2
    dispatches = a.metrics["dispatches"]
    goal, free = parser.parse_goal(scenarios.HOSPITAL_QUERY, a.policy.signature)
    assert a.ask_first(goal, free) is not None
    assert _queries(w).count(("B", "B says isHospital(B)")) == 2
    assert len(_queries(w)) == 6 and b.metrics["queries_handled"] == 4
    assert a.metrics["dispatches"] - dispatches == 3  # the prover's calls still count


TWICE_DECLS = "pred ok(). pred bad(). pred good(). principal A, B.\n"
# A asks B the same question from two clauses: B fails `bad` and answers `ok`.
TWICE_A = TWICE_DECLS + "a1: (B says bad) => good.\na2: (B says bad) => good.\na3: (B says ok) => good.\n"


def test_a_repeated_failure_sends_no_second_frame():
    w = scenarios.build_world([("A", TWICE_A), ("B", TWICE_DECLS + "b1: B says ok.\n")], 0)
    a = w.node("A")
    goal, _ = parser.parse_goal("good", a.policy.signature)
    answer = a.ask_first(goal)
    assert E.render_spine(answer.evidence, w.policy_map()).startswith("a3")
    assert _queries(w) == [("B", "B says bad"), ("B", "B says ok")]
    assert a.metrics["dispatches"] == 3


def test_a_question_asked_again_with_more_budget_is_sent_again():
    # Through a1, a3 and a4 A asks B for `p` with too little budget for
    # B's three steps; through a2 it asks with enough.
    decls = "pred good(). pred m1(). pred m2(). pred p(). pred q(). pred r(). principal A, B.\n"
    w = scenarios.build_world([
        ("A", decls + "a1: m1 => good.\na3: m2 => m1.\na4: (B says p) => m2.\na2: (B says p) => good.\n"),
        ("B", decls + "b1: q => B says p.\nb2: r => q.\nb3: r.\n"),
    ], 0)
    a = w.node("A")
    goal, _ = parser.parse_goal("good", a.policy.signature)
    answer = a.ask_first(goal, depth=5)
    assert E.render_spine(answer.evidence, w.policy_map()) == "a2(b1(b2(b3)))"
    frames = [decode_frame(data) for _, _, data in w.network.frames]
    assert [(f["type"], f.get("budget", f.get("reason"))) for f in frames] == [
        ("QUERY", 1), ("FAIL", "depth exhausted"), ("QUERY", 3), ("ANSWER", None)]


@pytest.mark.parametrize("fault", ["drop", "transport error"])
def test_a_request_that_got_no_reply_is_asked_again(fault):
    w = scenarios.build_world([("A", TWICE_A), ("B", TWICE_DECLS + "b1: B says bad.\n")], 0)
    first = []

    def once(frm, to, frame):
        first.append(frame)
        return "drop" if len(first) == 1 else None

    if fault == "drop":
        w.network.fault_rules.append(once)
    else:
        request = w.network.request

        def refused_once(frm, to, frame):
            if not first:
                first.append(frame)
                raise TransportError("connection reset")
            return request(frm, to, frame)

        w.network.request = refused_once
    a = w.node("A")
    goal, _ = parser.parse_goal("good", a.policy.signature)
    answer = a.ask_first(goal)
    assert E.render_spine(answer.evidence, w.policy_map()).startswith("a2")
    # the network logs a dropped frame as empty, and a refused one not at all
    assert _queries(w) == ([None] if fault == "drop" else []) + [("B", "B says bad")]
    assert a.metrics["transport_errors"] == (fault == "transport error")


def test_a_hypothesis_assumed_between_two_identical_dispatches_sends_the_second():
    # B proves `p` only with A's `s`; the left disjunct asks B before A
    # assumes `A says s`, the right one after, and B's callback to A sees it.
    decls = "pred p(). pred s(). principal A, B.\n"
    w = scenarios.build_world([("A", decls), ("B", decls + "b1: (A says s) => B says p.\n")], 0)
    a = w.node("A")
    goal, _ = parser.parse_goal("B says p \\/ ((A says s) => B says p)", a.policy.signature)
    answer = a.ask_first(goal)
    assert answer is not None
    assert _queries(w, "B") == [("B", "B says p")] * 2
    assert E.check_certificate(a.certify(answer), w.policy_map(), w.directory)


def test_nothing_is_remembered_across_queries():
    w = _bcast_world()
    a = w.node("A")
    goal, _ = parser.parse_goal("B says good(B)", a.policy.signature)
    for _ in range(2):
        assert a.ask_first(goal) is not None
    assert _queries(w) == [("B", "B says good(B)")] * 2
    assert w.node("B").metrics["queries_handled"] == 2


CHAIN_DECLS = "pred p(). principal A, B, C, D.\n"


def _chain_world(d_src):
    """B asks C, and C asks D, for `p`."""
    return scenarios.build_world(
        [("A", CHAIN_DECLS), ("B", CHAIN_DECLS + "b: (C says p) => B says p.\n"),
         ("C", CHAIN_DECLS + "c: (D says p) => C says p.\n"), ("D", CHAIN_DECLS + d_src)],
        0,
    )


@pytest.mark.parametrize("depth, reason", [(4, "depth exhausted"), (5, "depth exhausted"), (60, "no proof")])
def test_a_peer_chain_longer_than_the_budget_fails_for_depth(depth, reason):
    # At depth 4 C's premise `D says p` is cut for depth; at 5 C has no
    # budget left to ask D.  Either way each served search says so.
    w = _chain_world("" if reason == "no proof" else "d: D says p.\n")
    a = w.node("A")
    goal, _ = parser.parse_goal("B says p", a.policy.signature)
    assert a.ask_first(goal, depth=depth) is None
    replies = [decode_frame(data) for _, _, data in w.network.frames]
    replies = [(r["type"], r["reason"]) for r in replies if r["type"] != "QUERY"]
    assert replies == [("FAIL", reason)] * (2 if depth < 6 else 3)  # C's, then B's; or D's too
    if reason == "depth exhausted":
        assert a.ask_first(goal, depth=6) is not None  # each hop takes two levels


# ---------------------------------------------------------------------------
# Session isolation


def _ns_query_frames(world):
    out = []
    for frm, to, data in world.network.frames:
        if not data:
            continue
        obj = decode_frame(data)
        if obj.get("type") == "QUERY":
            goal = codec.decode_formula(base64.b64decode(obj["goal_b64"]))
            out.append((frm, to, obj, goal))
    return out


def test_session_hypotheses_need_the_token_chain():
    r = scenarios.run_ns(0)
    w = r.world
    a = w.node("A")
    frames = _ns_query_frames(w)
    # the responder's callback: B -> A asking for A's msg2 attestation
    callbacks = [(frm, to, obj, g) for frm, to, obj, g in frames if frm == "B" and to == "A"]
    assert len(callbacks) == 1
    _, _, obj, _ = callbacks[0]
    assert obj["session"], "the callback must carry a session chain"

    # replay with a fresh qid and the original chain: still answerable
    good = dict(obj)
    good["qid"] = "replay-good"
    assert decode_frame(a.handle_frame(encode_frame(good))[0])["type"] == "ANSWER"

    # same query without the token chain: the hypothesis is invisible
    bad = dict(obj)
    bad["qid"] = "replay-bad"
    bad["session"] = []
    assert decode_frame(a.handle_frame(encode_frame(bad))[0])["type"] == "FAIL"

    # or with a token minted for some other session
    other = dict(obj)
    other["qid"] = "replay-other"
    other["session"] = ["A:" + "0" * 32]
    assert decode_frame(a.handle_frame(encode_frame(other))[0])["type"] == "FAIL"


def test_a_query_that_assumed_nothing_keeps_no_session():
    r = scenarios.run_hospital(0)
    a = r.world.node("A")
    goal, free = parser.parse_goal(scenarios.HOSPITAL_QUERY, a.policy.signature)
    for _ in range(3):
        assert a.ask_first(goal, free) is not None
    assert [len(r.world.node(n).sessions) for n in "ABC"] == [0, 0, 0]


def test_sessions_that_assumed_hypotheses_are_kept_oldest_first():
    b = _bcast_world().node("B")
    goal, _ = parser.parse_goal("good(A) => good(A)", b.policy.signature)
    assert b.ask_first(goal) is not None
    (oldest,) = b.sessions
    for _ in range(ANSWER_CACHE):
        assert b.ask_first(goal) is not None
    assert len(b.sessions) == ANSWER_CACHE and oldest not in b.sessions


def test_malformed_frame_fails_cleanly():
    w = _bcast_world()
    b = w.node("B")
    (resp,) = b.handle_frame(b"not json\n")
    assert decode_frame(resp)["type"] == "FAIL"
    (resp,) = b.handle_frame(encode_frame({"type": "QUERY", "qid": "x", "goal_b64": "!!"}))
    assert decode_frame(resp)["type"] == "FAIL"


def test_a_query_for_a_non_goal_is_malformed():
    w = _bcast_world()
    b = w.node("B")
    (resp,) = b.handle_frame(_query_frame("A", "B", S.BOTTOM, "A-1"))
    assert decode_frame(resp) == {
        "type": "FAIL",
        "qid": "A-1",
        "reason": "malformed query: false is not a goal",
    }
    assert b.trace == []


def test_a_query_that_flounders_says_so():
    b = _bcast_world().node("B")
    goal, free = parser.parse_goal("x < 3", b.policy.signature)
    query = decode_frame(_query_frame("A", "B", goal, "A-1"))
    query["vars"] = [[v.name, v.sort] for v in free]
    (resp,) = b.handle_frame(encode_frame(query))
    resp = decode_frame(resp)
    assert resp["type"] == "FAIL" and resp["reason"].startswith("flounder: "), resp
    assert [line.split()[:2] for line in b.trace if line.startswith("ERROR")] == [["ERROR", "A-1"]]


# ---------------------------------------------------------------------------
# Names made at a hop of a distributed search carry the hop

HOP_DECLS = "sort Thing. pred p(Thing). pred q(). pred r(Thing). pred s(). pred t().\nprincipal A, B.\n"


def _hop_answer(a_src, b_src, goal_text):
    """The spine of A's first answer to `goal_text`, and its certificate's
    local and remote verdicts as (ok, path, reason), with A's policy `a_src`
    and B's `b_src`."""
    w = scenarios.build_world([("A", HOP_DECLS + a_src), ("B", HOP_DECLS + b_src)], 0)
    a = w.node("A")
    goal, free = parser.parse_goal(goal_text, a.policy.signature)
    answer = a.ask_first(goal, free)
    if answer is None:
        return None, None, None
    cert = a.certify(answer)
    registry = Registry()
    for owner, pol in w.policies.items():
        registry.register(pol.digest, CheckerEndpoint(owner, [pol], w.directory, registry))
    local, remote = E.check_certificate(cert, w.policy_map(), w.directory), remote_check(registry, cert)
    spine = E.render_spine(answer.evidence, w.policy_map())
    return spine, (local.ok, local.path, local.reason), (remote.ok, remote.path, remote.reason)


def test_hypothesis_labels_made_at_a_hop_carry_it():
    # A assumes `h1`; B, asked for `B says t()`, assumes its own hypothesis
    # and asks A for `A says s()`, which A proves with `h1` from B's
    # hypothesis.  Numbered per query, B's label was `h1` too, and the
    # checker read `h1(h1)` as B's hypothesis applied to itself.
    goal = "((B says q()) => A says s()) => B says t()"
    spine, local, remote = _hop_answer("", "nb: ((B says q()) => A says s()) => B says t().\n", goal)
    assert spine == "\\h1.nb(\\h1@1.h1(h1@1))"
    assert local == remote == (True, (), None)


def test_an_eigenconstant_made_at_a_hop_is_not_one_made_before_it():
    # `p(c1)` is assumed at A for A's eigenconstant; B's, for `forall z`,
    # must not be taken for it, or `A says r(...)` holds for the one value
    # that A assumed `p` of rather than for every value.
    a_src = "ar: forall w:Thing. p(w) => A says r(w).\n"
    b_src = "nb: (forall z:Thing. A says r(z)) => B says q().\n"
    assert _hop_answer(a_src, b_src, "forall x:Thing. (p(x) => B says q())") == (None, None, None)
    # A hypothesis about the goal's own eigenconstant still serves.
    spine, local, remote = _hop_answer(a_src, "nb: forall z:Thing. A says r(z) => B says r(z).\n",
                                        "forall x:Thing. (p(x) => B says r(x))")
    assert spine == "\\c1.\\h3.nb(ar(h3))"
    assert local == remote == (True, (), None)


# ---------------------------------------------------------------------------
# A node signs answers, never attestations a peer asked it to assume


def _hospital_eve():
    w = scenarios.build_world(
        [("A", scenarios.HOSPITAL_A), ("B", scenarios.HOSPITAL_B), ("C", scenarios.HOSPITAL_C)], 0
    )
    sig = w.node("A").policy.signature.copy()
    sig.note_const("Eve", "Physician")
    return w, sig


def _attestations_by_a(w, reply, atom):
    """A's verifying attestations of `atom` that a reply carries: signature
    leaves in its evidence, or any field that is A's signature on `atom`."""
    obj = decode_frame(reply)
    if obj["type"] != "ANSWER":
        return []
    pub, pid = w.directory.public_key("A"), w.directory.principal_id("A")
    ev = codec.decode_evidence(base64.b64decode(obj["evidence_b64"]))
    found = [x.attestation for x in E.nodes(ev) if isinstance(x, E.AttLeaf)]
    payload = codec.encode_formula(atom)
    for key, value in obj.items():
        if key.endswith("_b64"):
            raw = base64.b64decode(value)
            found += [SignedAttestation(pid, payload, raw, t) for t in (None, w.services.now())]
    return [sa for sa in found if verify_attestation(pub, sa) is not None]


def test_assumed_atom_is_not_attested_by_the_node():
    w, sig = _hospital_eve()
    goal, _ = parser.parse_goal("readMedRec(Eve, Peter) => A says readMedRec(Eve, Peter)", sig)
    (reply,) = w.node("A").handle_frame(_query_frame("B", "A", goal, "B-1"))
    assert _attestations_by_a(w, reply, goal.left) == []


def test_a_leaked_session_token_yields_no_attestation():
    w, sig = _hospital_eve()
    a = w.node("A")
    # A assumes the atom under its session token and sends that token to B
    # while asking B for the conclusion.
    goal, _ = parser.parse_goal("readMedRec(Eve, Peter) => B says isHospital(B)", sig)
    (reply,) = a.handle_frame(_query_frame("B", "A", goal, "B-1"))
    assert decode_frame(reply)["type"] == "ANSWER"
    (leaked,) = [decode_frame(d)["session"] for frm, to, d in w.network.frames if frm == "A"]
    ask, _ = parser.parse_goal("A says readMedRec(Eve, Peter)", sig)
    (reply,) = a.handle_frame(_query_frame("B", "A", ask, "B-2", leaked))
    assert _attestations_by_a(w, reply, goal.left) == []


# ---------------------------------------------------------------------------
# TCP transport


def test_tcp_round_trip():
    w = _bcast_world()
    b = w.node("B")
    server, thread, port = serve_node(b, "127.0.0.1", 0)
    try:
        a = w.node("A")
        a.network = TcpTransport({"B": ("127.0.0.1", port)})
        goal, _ = parser.parse_goal("B says good(B)", a.policy.signature)
        ans = a.ask_first(goal)
        assert ans is not None
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_request_times_out_on_a_silent_peer():
    # The kernel completes the handshake on a listening socket; nothing ever
    # accepts, reads or replies.
    with socket.create_server(("127.0.0.1", 0)) as silent:
        transport = TcpTransport({"B": silent.getsockname()}, timeout=0.2)
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            transport.request("A", "B", encode_frame({"type": "QUERY"}))
        assert 0.1 <= time.monotonic() - t0 < 2.0


def test_served_node_drops_a_client_that_stops_sending():
    b = _bcast_world().node("B")
    server, thread, port = serve_node(b, "127.0.0.1", 0, timeout=0.2)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b'{"type": ')  # never finished, never shut down
            assert sock.recv(1) == b""  # closed without a reply
    finally:
        server.shutdown()
        server.server_close()


def test_served_node_closes_connections_past_the_handler_cap(monkeypatch):
    monkeypatch.setattr(node_mod, "MAX_HANDLERS", 1)
    b = _bcast_world().node("B")
    server, thread, port = serve_node(b, "127.0.0.1", 0)
    frame = encode_frame({"type": "PING"})
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as held:
            held.sendall(frame)  # not shut down: its handler waits for more
            with socket.create_connection(("127.0.0.1", port), timeout=5) as refused:
                assert refused.recv(1) == b""  # closed without a reply
            held.shutdown(socket.SHUT_WR)
            assert decode_frame(held.recv(65536))["type"] == "FAIL"
        # The held handler's slot is free again once its thread ends.
        transport = TcpTransport({"B": ("127.0.0.1", port)}, timeout=5)
        for _ in range(100):
            try:
                replies = transport.request("A", "B", frame)
            except TimeoutError:
                raise
            except OSError:  # refused: the slot was not free yet
                replies = []
            if replies:
                break
            time.sleep(0.02)
        assert [decode_frame(r)["type"] for r in replies] == ["FAIL"]
    finally:
        server.shutdown()
        server.server_close()


def test_a_silent_peer_counts_as_no_answer():
    decls = "pred ok(). pred good(). principal A, B, S.\n"
    w = scenarios.build_world(
        [("A", decls + "a1: (S says ok) => good.\na2: (B says ok) => good.\n"),
         ("B", decls + "b1: B says ok.\n")],
        0,
    )
    server, thread, port = serve_node(w.node("B"), "127.0.0.1", 0)
    try:
        with socket.create_server(("127.0.0.1", 0)) as silent:  # never replies
            a = w.node("A")
            a.network = TcpTransport(
                {"S": silent.getsockname(), "B": ("127.0.0.1", port)}, timeout=0.3
            )
            goal, _ = parser.parse_goal("good", a.policy.signature)
            ans = a.ask_first(goal)
        assert ans is not None
        assert E.render_spine(ans.evidence, w.policy_map()).startswith("a2")
        assert a.metrics["transport_errors"] == 1
    finally:
        server.shutdown()
        server.server_close()


DEEP_DECLS = "pred n(Time).\nprincipal A, B.\n"
# B tries the recursive clause first, so it binds X to the deepest chain
# its depth budget reaches: `succ` nested far past MAX_NESTING
DEEP_B = DEEP_DECLS + "b1: forall t:Time. (B says n(t)) => B says n(succ(t)).\nb0: B says n(0).\n"


@pytest.mark.parametrize("transport", ["sim", "tcp"])
def test_an_answer_too_deep_to_encode_is_an_internal_failure(transport):
    w = scenarios.build_world([("A", DEEP_DECLS), ("B", DEEP_B)], 0, depth=300)
    a, b = w.node("A"), w.node("B")
    goal, free = parser.parse_goal("B says n(X)", a.policy.signature)
    if transport == "sim":
        assert a.ask_first(goal, free) is None
        (_, _, query), (_, _, reply) = w.network.frames
        assert b.handle_frame(query) == [reply]  # cached like any other reply
    else:
        server, thread, port = serve_node(b, "127.0.0.1", 0)
        try:
            a.network = TcpTransport({"B": ("127.0.0.1", port)}, timeout=30)
            assert a.ask_first(goal, free) is None
        finally:
            server.shutdown()
            server.server_close()
        (reply,) = b._answered.values()
        assert a.metrics["transport_errors"] == 0  # B replied
        (reply,) = reply
    fail = decode_frame(reply)
    assert fail["type"] == "FAIL" and fail["qid"] == "A-1"
    assert fail["reason"] == "internal: CodecError: term or formula nested deeper than 128"
