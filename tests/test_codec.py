"""Canonical encoding: round trips, injectivity, and malformed input."""

import base64
import dataclasses
import functools
import hashlib
import random
import struct

import pytest
import test_evidence
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberlogic import codec, parser, scenarios
from cyberlogic import evidence as E
from cyberlogic import syntax as S
from cyberlogic.crypto import PrincipalId
from cyberlogic.errors import CodecError
from cyberlogic.node import decode_frame, encode_frame
from cyberlogic.services import CheckerEndpoint, TrustedServices, remote_check


SORTS = ("Principal", "Thing", "Time")


def _random_term(rng, depth=2):
    r = rng.random()
    if depth == 0 or r < 0.4:
        return S.Const(f"c{rng.randrange(6)}", rng.choice(SORTS))
    if r < 0.6:
        return S.Var(f"v{rng.randrange(4)}", rng.choice(SORTS))
    return S.FunApp("succ", (_random_term(rng, depth - 1),))


def _random_formula(rng, depth=3):
    r = rng.random()
    if depth == 0 or r < 0.30:
        return S.Atom(
            f"p{rng.randrange(4)}",
            tuple(_random_term(rng, 1) for _ in range(rng.randrange(3))),
        )
    if r < 0.40:
        return S.Attest(S.Const(f"K{rng.randrange(3)}", "Principal"), _random_formula(rng, depth - 1))
    if r < 0.50:
        return S.And(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if r < 0.60:
        return S.Or(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if r < 0.70:
        return S.Implies(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if r < 0.80:
        v = S.Var(f"x{rng.randrange(3)}", rng.choice(SORTS))
        return S.Forall(v, _random_formula(rng, depth - 1))
    if r < 0.90:
        v = S.Var(f"x{rng.randrange(3)}", rng.choice(SORTS))
        return S.Exists(v, _random_formula(rng, depth - 1))
    ps = frozenset(S.Const(f"K{i}", "Principal") for i in range(1 + rng.randrange(2)))
    return S.Knows(ps, _random_formula(rng, depth - 1))


def test_term_round_trip():
    rng = random.Random(0)
    for _ in range(500):
        t = _random_term(rng, 3)
        assert codec.decode_term(codec.encode_term(t)) == t


def test_formula_round_trip():
    rng = random.Random(1)
    for _ in range(500):
        f = _random_formula(rng)
        assert codec.decode_formula(codec.encode_formula(f)) == f


def test_encoding_injective_on_large_corpus():
    rng = random.Random(2)
    seen = {}
    collisions = 0
    for _ in range(10_000):
        f = _random_formula(rng)
        enc = codec.encode_formula(f)
        if enc in seen:
            if seen[enc] != f:
                collisions += 1
        seen[enc] = f
    assert collisions == 0


def test_digests_distinct_on_corpus():
    rng = random.Random(3)
    by_digest = {}
    for _ in range(10_000):
        f = _random_formula(rng)
        d = codec.sha256(codec.encode_formula(f))
        if d in by_digest:
            assert by_digest[d] == f
        by_digest[d] = f


def test_knows_encoding_is_order_independent():
    a = S.Const("A", "Principal")
    b = S.Const("B", "Principal")
    body = S.Atom("p", ())
    assert codec.encode_formula(S.Knows(frozenset((a, b)), body)) == codec.encode_formula(
        S.Knows(frozenset((b, a)), body)
    )


def test_principal_sets_encode_to_recorded_bytes():
    # Bytes recorded when `knows` and KnowsWrap each had their own encoder.
    ps = frozenset(
        (S.Const("C", "Principal"), S.Const("A", "Principal"),
         S.Const("Bob", "Principal"), S.Var("k", "Principal"))
    )
    members = (
        "0000000401000000016b000000095072696e636970616c020000000141000000095072696e636970616c"
        "020000000143000000095072696e636970616c0200000003426f62000000095072696e636970616c"
    )
    f = S.Knows(ps, S.Atom("ok", (S.Const("A", "Principal"),)))
    assert codec.encode_formula(f).hex() == (
        "14" + members
        + "12000000026f6b00000001020000000141000000095072696e636970616c"
    )
    assert codec.encode_evidence(E.KnowsWrap(ps, E.Unit())).hex() == "2a" + members + "20"
    assert codec.decode_formula(codec.encode_formula(f)) == f


def test_evidence_round_trip():
    ev = E.PairEv(
        E.ClauseApp(3, b"\x01" * 32, (S.Const("a", "Thing"),), (E.Unit(),)),
        E.Inr(E.Witness(S.Const("b", "Thing"), E.ClauseApp("h1", None))),
    )
    assert codec.decode_evidence(codec.encode_evidence(ev)) == ev


def test_certificate_round_trip_scenario():
    cert = scenarios.run_hospital(0).certificate
    enc = codec.encode_certificate(cert)
    back = codec.decode_certificate(enc)
    assert codec.encode_certificate(back) == enc
    assert back.root_formula == cert.root_formula
    assert back.policy_digests == cert.policy_digests


def test_truncated_input_rejected():
    cert = scenarios.run_hospital(0).certificate
    enc = codec.encode_certificate(cert)
    for cut in (0, 1, 4, len(enc) // 2, len(enc) - 1):
        with pytest.raises(CodecError):
            codec.decode_certificate(enc[:cut])


def test_bad_magic_rejected():
    cert = scenarios.run_hospital(0).certificate
    enc = bytearray(codec.encode_certificate(cert))
    enc[0] ^= 0xFF
    with pytest.raises(CodecError):
        codec.decode_certificate(bytes(enc))


def test_trailing_garbage_rejected():
    t = S.Const("a", "Thing")
    with pytest.raises(CodecError):
        codec.decode_term(codec.encode_term(t) + b"\x00")


def _clause_app(k, digest, args, premises):
    """The application of hypothesis `r<k>`, or of clause `k` of the policy `digest` pins."""
    return E.ClauseApp(f"r{k}" if digest is None else k, digest, args, premises)


def _random_evidence(rng, pool, depth=4):
    r = rng.random()
    if pool and r < 0.45:
        x = rng.choice(pool)  # the same object again, or an equal copy
        return x if rng.random() < 0.5 else codec.decode_evidence(codec.encode_evidence(x))
    if depth == 0 or r < 0.4:
        leaf = rng.choice([
            E.Unit(),
            E.ClauseApp(f"h{rng.randrange(3)}", None),
            E.TheoryHole("<", (S.Const("1", "Int"), S.Const(str(rng.randrange(2, 4)), "Int"))),
        ])
        pool.append(leaf)
        return leaf
    kids = lambda n: tuple(_random_evidence(rng, pool, depth - 1) for _ in range(n))
    x = rng.choice([
        lambda: E.PairEv(*kids(2)),
        lambda: E.Inl(*kids(1)),
        lambda: E.Inr(*kids(1)),
        lambda: E.Witness(_random_term(rng), *kids(1)),
        lambda: E.Abstraction(f"c{rng.randrange(3)}", *kids(1)),
        lambda: E.KnowsWrap(frozenset({S.Const("K", "Principal")}), *kids(1)),
        lambda: _clause_app(
            rng.randrange(3), rng.choice([None, b"\x07" * 32]),
            tuple(_random_term(rng) for _ in range(rng.randrange(3))),
            kids(rng.randrange(4)),
        ),
    ])()
    pool.append(x)
    return x


# SHA-256 of the encodings of the 300 trees below, in order.  Recorded when
# the evidence writer still recursed, so it pins the writer's bytes; the
# hypothesis leaves, once a node of their own, were mapped to the clause
# applications that replaced them and encoded by that writer.  Moved when
# a repeated policy digest became a reference to the first: each tree
# decodes to the value its earlier bytes decoded to.  CI runs this file
# under two hash seeds, so the references' numbering is not hash order.
# Moved when an application under a digest came to name its clause by
# position: the trees drew `r<k>` there, and with each position k mapped
# back to `r<k>` each decodes to the value of its earlier bytes (18,836
# bytes became 18,732).
RANDOM_TREES_SHA256 = "e05b7ba2601bf77c92e2e4e09b319a7fedcba002c85f20bd53b35796161afb56"


def test_random_trees_round_trip_to_recorded_bytes():
    rng = random.Random(4)
    digest = hashlib.sha256()
    for _ in range(300):
        ev = _random_evidence(rng, [], depth=rng.randrange(3, 7))
        enc = codec.encode_evidence(ev)
        assert codec.decode_evidence(enc) == ev
        digest.update(enc)
    assert digest.hexdigest() == RANDOM_TREES_SHA256


def test_deep_evidence_encodes():
    ev = E.Unit()
    for _ in range(3000):
        ev = E.Inl(ev)
    assert codec.encode_evidence(ev) == b"\x22" * 3000 + b"\x20"


def test_deep_evidence_decodes():
    back, depth = codec.decode_evidence(b"\x22" * 3000 + b"\x20"), 0
    while isinstance(back, E.Inl):
        back, depth = back.body, depth + 1
    assert (depth, back) == (3000, E.Unit())


def test_store_reference_tag_rejected():
    # 0x2B was a reference into a certificate's shared-subtree store
    with pytest.raises(CodecError, match="bad evidence tag 0x2b"):
        codec.decode_evidence(b"\x2b" + struct.pack(">I", 32) + b"\x00" * 32)


def test_hypothesis_tag_rejected():
    # 0x27 was a hypothesis leaf, now a clause application with no digest
    with pytest.raises(CodecError, match="bad evidence tag 0x27"):
        codec.decode_evidence(b"\x27" + struct.pack(">I", 2) + b"h1")


# The certificate `Unit` for `true`, with no pins, in the retired CYL1
# layout: magic, tag, formula, evidence, an empty store, no digests, no
# directory, no creation stamp.
CYL1_TOP = b"CYL1\x40\x10\x20" + bytes(12) + b"\x00"
# The same certificate in the retired CYL2 layout: magic, tag, formula,
# evidence, no pins, no directory, no creation stamp.  CYL3 writes the pins
# first.
CYL2_TOP = b"CYL2\x40\x10\x20" + bytes(9)
CYL3_TOP = b"CYL3\x40" + bytes(4) + b"\x10\x20" + bytes(5)
# CYL4 names a policy clause by its position; a certificate that applies
# none has the CYL3 layout.
CYL4_TOP = b"CYL4" + CYL3_TOP[4:]


def test_cyl1_certificate_rejected():
    with pytest.raises(CodecError, match="not a certificate"):
        codec.decode_certificate(CYL1_TOP)
    cert = codec.decode_certificate(CYL4_TOP)
    assert cert == E.Certificate(S.TOP, E.Unit())
    assert codec.encode_certificate(cert) == CYL4_TOP


def test_a_cyl2_certificate_is_refused():
    with pytest.raises(CodecError, match="not a certificate"):
        codec.decode_certificate(CYL2_TOP)
    with pytest.raises(CodecError, match="not a certificate"):  # the CYL4 layout under the old magic
        codec.decode_certificate(b"CYL2" + CYL4_TOP[4:])
    with pytest.raises(CodecError, match="truncated"):  # the CYL2 layout under the new magic
        codec.decode_certificate(b"CYL4" + CYL2_TOP[4:])


def test_a_cyl3_certificate_is_refused():
    # CYL3 named policy clauses by label, where CYL4 reads a position.
    with pytest.raises(CodecError, match="not a certificate"):
        codec.decode_certificate(CYL3_TOP)


def test_policy_digest_changes_with_any_clause():
    src = "pred p(Principal). principal K.\nk1: p(K).\n"
    sig = parser.base_signature()
    p1 = parser.parse_policy(src, "K", sig.copy())
    p2 = parser.parse_policy(src + "k2: K says p(K).\n", "K", sig.copy())
    assert p1.digest != p2.digest
    p1b = parser.parse_policy(src, "K", sig.copy())
    assert p1.digest == p1b.digest


def test_an_appended_policy_encodes_only_its_new_clause(monkeypatch):
    lines = ["sort Obj.", "pred e(Obj, Obj)."] + [f"const o{i}: Obj." for i in range(2001)]
    lines += [f"e{i}: e(o{i}, o{i + 1})." for i in range(2000)]
    old = parser.parse_policy("\n".join(lines) + "\n", "W")
    assert len(old.clauses) == 2000
    old_digest = old.digest
    update = "const o2001: Obj. upd1: e(o2001, o7)."
    added = parser.parse_policy(update, "W", old.signature)
    new = S.Policy("W", added.signature, old.clauses + added.clauses)
    calls = []
    encode_clause = codec.encode_clause
    monkeypatch.setattr(codec, "encode_clause", lambda c: calls.append(c.label) or encode_clause(c))
    digest = new.digest
    assert calls == ["upd1"]
    assert digest != old_digest
    monkeypatch.undo()
    fresh = parser.parse_policy("\n".join(lines + [update]) + "\n", "W")
    assert digest == hashlib.sha256(codec.encode_policy(fresh)).digest()


# ---------------------------------------------------------------------------
# Hostile input: every reader raises CodecError and nothing else, and what
# it reads encodes back to the same bytes


DECODERS = {
    codec.decode_term: codec.encode_term,
    codec.decode_formula: codec.encode_formula,
    codec.decode_evidence: codec.encode_evidence,
    codec.decode_certificate: codec.encode_certificate,
}


@functools.cache
def _scenario_cert(name: str) -> bytes:
    return codec.encode_certificate(scenarios.SCENARIOS[name](0).certificate)


@functools.cache
def _endpoint() -> CheckerEndpoint:
    world = scenarios.run_hospital(0).world
    return CheckerEndpoint("A", world.policies.values(), world.directory)


def _read_or_refuse(data: bytes):
    """Each reader either refuses `data` with CodecError or reads a value
    whose encoding reads back to itself."""
    for decode, encode in DECODERS.items():
        try:
            value = decode(data)
        except CodecError:
            continue
        again = encode(value)
        assert encode(decode(again)) == again


def _answered(data: bytes):
    """A checker endpoint answers a request carrying `data` with a verdict."""
    frame = encode_frame({"type": "CHECK_REQ", "cert_b64": base64.b64encode(data).decode()})
    assert decode_frame(_endpoint().handle_frame(frame))["type"] == "CHECK_RESP"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.binary(max_size=200))
def test_random_bytes(data):
    _read_or_refuse(data)
    _read_or_refuse(codec.MAGIC + b"\x40" + data)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(scenarios.SCENARIOS)),
    st.integers(min_value=0),
    st.integers(min_value=0, max_value=255),
    st.booleans(),
)
def test_truncated_or_edited_scenario_certificates(name, where, byte, truncate):
    data = _scenario_cert(name)
    where %= len(data)
    bad = data[:where] if truncate else data[:where] + bytes((byte,)) + data[where + 1 :]
    _read_or_refuse(bad)
    _answered(bad)


def test_scenario_certificates_round_trip_byte_for_byte():
    for name in scenarios.SCENARIOS:
        data = _scenario_cert(name)
        assert codec.encode_certificate(codec.decode_certificate(data)) == data


_EVIDENCE_STEP = {  # one level of evidence whose first child follows
    0x21: (b"\x21", b"\x20"),  # a pair, its right child after the left one
    0x22: (b"\x22", b""),
    0x26: (b"\x26" + struct.pack(">I", 1) + b"r\x00" + bytes(4) + struct.pack(">I", 1), b""),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from(sorted(_EVIDENCE_STEP)), min_size=1, max_size=8),
    st.integers(1, 4000),
    st.integers(0, 10),
)
def test_evidence_nests_to_any_depth(pattern, depth, cut):
    tags = (pattern * depth)[:depth]
    data = b"".join(_EVIDENCE_STEP[t][0] for t in tags) + b"\x20"
    data += b"".join(_EVIDENCE_STEP[t][1] for t in reversed(tags))
    assert codec.encode_evidence(codec.decode_evidence(data)) == data
    with pytest.raises(CodecError):
        codec.decode_evidence(data[: len(data) - 1 - cut])
    cert = codec.MAGIC + b"\x40" + bytes(4) + b"\x10" + data + bytes(5)  # pins nothing, proves `true`
    _read_or_refuse(cert)
    _answered(cert)


_ATOM = codec.encode_formula(S.Atom("p"))
_FORMULA_STEP = {  # one formula level, its first child following
    0x13: b"\x13" + codec.encode_term(S.Const("K", "Principal")),
    0x14: b"\x14" + struct.pack(">I", 0),
    0x16: b"\x16" + _ATOM,  # the left disjunct, then the right one
    0x18: b"\x18" + codec.encode_term(S.Var("x", "Int")),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(sorted(_FORMULA_STEP)), min_size=1, max_size=400), st.booleans())
def test_formulas_nest_at_most_max_nesting_deep(tags, as_term):
    if as_term:
        data = b"\x03" + struct.pack(">I", 4) + b"succ" + struct.pack(">I", 1)
        data = data * len(tags) + codec.encode_term(S.Const("0", "Int"))
        decode = codec.decode_term
    else:
        data = b"".join(_FORMULA_STEP[t] for t in tags) + _ATOM
        decode = codec.decode_formula
    if len(tags) + 1 > S.MAX_NESTING:
        with pytest.raises(CodecError, match="nested deeper"):
            decode(data)
    else:
        assert S.nesting(decode(data)) == len(tags) + 1
    _read_or_refuse(data)


def test_a_count_beyond_the_input_is_refused_before_reading():
    with pytest.raises(CodecError):
        codec.decode_formula(b"\x12" + struct.pack(">I", 1) + b"p" + b"\xff" * 4)


# ---------------------------------------------------------------------------
# Canonical decoding: a value has one encoding, so the reader refuses the
# lists it reads as sets unless their items strictly increase


def _pid_bytes(name: str) -> bytes:
    return b"\x31" + struct.pack(">I", len(name)) + name.encode() + struct.pack(">I", 1) + b"\x00"


def _cert_bytes(digests=(), pids=(), formula=b"\x10") -> bytes:
    out = codec.MAGIC + b"\x40" + struct.pack(">I", len(digests))
    out += b"".join(struct.pack(">I", len(d)) + d for d in digests) + formula + b"\x20"
    return out + struct.pack(">I", len(pids)) + b"".join(map(_pid_bytes, pids)) + b"\x00"


_A, _B = (codec.encode_term(S.Const(n, "Principal")) for n in "AB")
_KNOWS = b"\x14" + struct.pack(">I", 2) + b"%s%s" + b"\x10"


@pytest.mark.parametrize("data, reason", [
    (_cert_bytes(digests=(b"\x02" * 32, b"\x01" * 32)), "out of order"),
    # a pin enters the digest references as it is read, so a repeat is a
    # digest written in full twice before the set is complete
    (_cert_bytes(digests=(b"\x01" * 32, b"\x01" * 32)), "digest written in full twice"),
    (_cert_bytes(pids=("B", "A")), "out of order"),
    (_cert_bytes(pids=("A", "A")), "out of order"),
    (_cert_bytes(formula=_KNOWS % (_B, _A)), "out of order"),
    (_cert_bytes(formula=_KNOWS % (_A, _A)), "out of order"),
], ids=["digests swapped", "digest twice", "ids swapped", "id twice", "knows swapped", "knows twice"])
def test_a_set_out_of_order_is_refused(data, reason):
    with pytest.raises(CodecError, match=reason):
        codec.decode_certificate(data)


def test_a_set_in_order_is_read():
    data = _cert_bytes(digests=(b"\x01" * 32, b"\x02" * 32), pids=("A", "B"), formula=_KNOWS % (_A, _B))
    assert codec.encode_certificate(codec.decode_certificate(data)) == data


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(scenarios.SCENARIOS)),
    st.integers(min_value=0),
    st.integers(min_value=0, max_value=255),
    st.booleans(),
    st.booleans(),
)
def test_an_edited_certificate_is_refused_or_read_back_to_itself(name, where, byte, truncate, from_end):
    # The lists read as sets (digests, principal ids) sit near the end.
    data = _scenario_cert(name)
    where %= len(data)
    if from_end:
        where = len(data) - 1 - where
    _refused_or_canonical(data[:where] if truncate else data[:where] + bytes((byte,)) + data[where + 1 :])


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_each_byte_set_to_0_or_255_is_refused_or_read_back_to_itself(name):
    # An item of a set moved below its predecessor or above its successor.
    data = _scenario_cert(name)
    for where in range(len(data)):
        for byte in (0x00, 0xFF):
            _refused_or_canonical(data[:where] + bytes((byte,)) + data[where + 1 :])


def _refused_or_canonical(data: bytes):
    try:
        cert = codec.decode_certificate(data)
    except CodecError:
        return
    assert codec.encode_certificate(cert) == data


# ---------------------------------------------------------------------------
# A clause position is a u32 with its top bit set.  Each of a scenario
# certificate's positions, its bytes edited, is refused by the reader, or
# read back to itself and refused by the checker, here and remotely alike.

_MARK = 0x2BADF00D  # a position no scenario's policy reaches, found by its bytes


def _marked(ev, app):
    """`ev` with the clause application `app`, wherever it occurs, at position `_MARK`."""
    def node(x, kids):
        if x is app:
            return E.ClauseApp(_MARK, x.policy_digest, x.args, tuple(kids))
        return E.rebuild(x, kids, lambda t: t)

    return E.fold(ev, node)


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_an_edited_clause_position_is_refused_by_the_reader_or_the_checker(name):
    r = scenarios.SCENARIOS[name](0)
    cert, policies, registry = r.certificate, r.world.policy_map(), test_evidence._registry(r.world)
    apps = [x for x in E.nodes(cert.root_evidence) if x.__class__ is E.ClauseApp and x.policy_digest is not None]
    edits = 0
    for app in apps:
        data = codec.encode_certificate(dataclasses.replace(cert, root_evidence=_marked(cert.root_evidence, app)))
        n = len(policies[app.policy_digest].clauses)
        # one off either way, one past the end, the last the codec writes,
        # and the position with its top bit clear, read as a label's length
        for v in [p | 1 << 31 for p in (app.ref - 1, app.ref + 1, n, 2**31 - 1) if p >= 0] + [app.ref]:
            bad = data.replace(struct.pack(">I", _MARK | 1 << 31), struct.pack(">I", v))
            try:
                back = codec.decode_certificate(bad)
            except CodecError:
                continue
            assert codec.encode_certificate(back) == bad
            local = E.check_certificate(back, policies, r.world.directory)
            assert not local.ok and local.reason
            assert remote_check(registry, back) == local
            edits += 1
    assert edits >= 3 * len(apps)



def _consts(cert) -> list:
    out, todo = [], [cert.root_formula, *E.nodes(cert.root_evidence)]
    while todo:
        x = todo.pop()
        if isinstance(x, S.Const):
            out.append(x)
        elif isinstance(x, E.ClauseApp):
            todo += x.args
        elif not isinstance(x, tuple(E.Evidence.__args__)):
            todo += S.parts(x)
    return out


def test_a_decoded_chain_certificate_holds_one_const_per_name_and_sort():
    # Each rule's `y` is not in its head, so each application writes `t`.
    lines = ["sort Key. sort Tag.", "principal P.", "const k: Key.", "const t: Tag.", "pred q(Key, Tag)."]
    lines += [f"pred p{i}(Key)." for i in range(21)]
    lines += [f"r{i}: forall x:Key, y:Tag. q(x, y) /\\ p{i + 1}(x) => p{i}(x)." for i in range(20)]
    lines += ["f: p20(k).", "g: q(k, t)."]
    world = scenarios.build_world([("P", "\n".join(lines) + "\n")], seed=0, depth=60)
    node = world.node("P")
    goal, free = parser.parse_goal("p0(k)", node.policy.signature)
    data = codec.encode_certificate(node.certify(node.ask_first(goal, free)))
    first, second = codec.decode_certificate(data), codec.decode_certificate(data)
    consts = _consts(first)
    assert len(consts) == 1 + 20  # one in the goal, one written by each rule
    assert {(c.name, c.sort) for c in consts} == {("k", "Key"), ("t", "Tag")}
    assert len({id(c) for c in consts}) == 2
    assert not {id(c) for c in consts} & {id(c) for c in _consts(second)}


@pytest.mark.parametrize("decode, data, reason", [
    (codec.decode_formula, b"\x12" + struct.pack(">I", 2) + b"\xc3", "truncated input"),  # half a character
    (codec.decode_term, b"\x02" + struct.pack(">I", 1) + b"a" + struct.pack(">I", 9) + b"T", "truncated input"),
    (codec.decode_formula, b"\x12" + struct.pack(">I", 1) + b"\xff" + struct.pack(">I", 0), "invalid utf-8"),
    (codec.decode_term, b"\x02" + struct.pack(">I", 1) + b"\xff" + struct.pack(">I", 1) + b"T", "invalid utf-8"),
], ids=["string too long", "constant too long", "string not utf-8", "constant not utf-8"])
def test_a_malformed_string_is_refused(decode, data, reason):
    with pytest.raises(CodecError, match=reason):
        decode(data)


@pytest.mark.parametrize("depth", [S.MAX_NESTING, S.MAX_NESTING + 1])
@pytest.mark.parametrize("as_term", [False, True], ids=["disjunctions", "successors"])
def test_a_term_or_formula_deeper_than_max_nesting_is_refused(depth, as_term):
    if as_term:  # the constant at the bottom is the item of a list
        data = (b"\x03" + struct.pack(">I", 4) + b"succ" + struct.pack(">I", 1)) * (depth - 1)
        data, decode = data + codec.encode_term(S.Const("0", "Int")), codec.decode_term
    else:  # each disjunction has an atom on the left
        data, decode = _FORMULA_STEP[0x16] * (depth - 1) + _ATOM, codec.decode_formula
    if depth > S.MAX_NESTING:
        with pytest.raises(CodecError, match="nested deeper"):
            decode(data)
    else:
        assert S.nesting(decode(data)) == depth


def test_an_option_flag_above_one_is_refused():
    # A theory hole's receipt, flag 2 then a whole attestation: read as
    # "present", flag 2 would be taken for flag 1.  (A clause application's
    # digest slot takes flag 2, a reference: see below.)
    receipt = TrustedServices(seed=0).attest_time()
    data = bytearray(codec.encode_evidence(E.TheoryHole("<", (), receipt)))
    assert data[10] == 1 and codec.decode_evidence(bytes(data)).receipt == receipt
    data[10] = 2
    with pytest.raises(CodecError, match="bad option flag"):
        codec.decode_evidence(bytes(data))


# ---------------------------------------------------------------------------
# A policy digest is written in full once per encoding, then referred to by
# its index among the distinct digests written before


def _app(digest: bytes, *kids: bytes) -> bytes:
    """A clause application `r`, with no arguments, whose digest field is
    `digest` and whose premises are encoded as `kids`."""
    return b"\x26" + struct.pack(">I", 1) + b"r" + digest + struct.pack(">II", 0, len(kids)) + b"".join(kids)


def _full(d: bytes) -> bytes:
    return b"\x01" + struct.pack(">I", len(d)) + d


def _ref(k: int) -> bytes:
    return b"\x02" + struct.pack(">I", k)


_D1, _D2 = b"\x01" * 32, b"\x02" * 32


def test_a_repeated_digest_is_written_as_a_reference_to_its_first_writing():
    ev = E.ClauseApp("r", _D1, (), (
        E.ClauseApp("r", _D2), E.ClauseApp("r", None), E.ClauseApp("r", _D1), E.ClauseApp("r", _D2[:16] + _D2[16:]),
    ))
    data = _app(_full(_D1), _app(_full(_D2)), _app(b"\x00"), _app(_ref(0)), _app(_ref(1)))
    assert codec.encode_evidence(ev) == data
    assert codec.decode_evidence(data) == ev


@pytest.mark.parametrize("data, reason", [
    (_app(_full(_D1), _app(_full(_D1))), "written in full twice"),
    (_app(_full(_D1), _app(_full(_D2)), _app(_full(_D1))), "written in full twice"),
    (_app(_ref(0)), "not read yet"),
    (_app(_full(_D1), _app(_ref(1))), "not read yet"),
    (_app(_full(_D1), _app(_full(_D2)), _app(_ref(2))), "not read yet"),
    (_app(_full(_D1), _app(_ref(2**32 - 1))), "not read yet"),
    (_app(b"\x03" + _full(_D1)[1:]), "bad digest flag"),
    (_app(b"\xff" + _ref(0)[1:]), "bad digest flag"),
], ids=["full twice", "full twice, apart", "first as a reference", "reference at the count",
        "reference at the count of two", "reference far beyond", "flag 3", "flag 255"])
def test_a_digest_repeated_in_full_referred_ahead_or_flagged_above_two_is_refused(data, reason):
    with pytest.raises(CodecError, match=reason):
        codec.decode_evidence(data)


def test_a_decoded_chain_certificate_holds_one_digest_object():
    lines = ["sort Key. sort Tag.", "principal P.", "const k: Key."]
    lines += [f"pred p{i}(Key, Tag)." for i in range(21)]
    lines += [f"r{i}: forall x:Key, y:Tag. p{i + 1}(x, y) => p{i}(x, y)." for i in range(20)]
    lines += ["f: forall y:Tag. p20(k, y)."]
    world = scenarios.build_world([("P", "\n".join(lines) + "\n")], seed=0, depth=40)
    node = world.node("P")
    goal, free = parser.parse_goal('p0(k, "t")', node.policy.signature)
    data = codec.encode_certificate(node.certify(node.ask_first(goal, free)))
    assert data.count(node.policy.digest) == 1  # the pin; every application refers to it
    digests = [x.policy_digest for x in E.nodes(codec.decode_certificate(data).root_evidence)]
    assert len(digests) == 21 and digests[0] == node.policy.digest
    assert len({id(d) for d in digests}) == 1


_DIGESTS = st.sampled_from([None, _D1, _D2, b"\x03" * 32, b"", b"\x02"])
# The codec writes a label or a position with a digest or without; the
# checker refuses a position without a digest and a label with one.
_REFS = st.sampled_from(["r", "s"]) | st.integers(0, 2**31 - 1)
_EVIDENCE = st.recursive(
    st.builds(E.ClauseApp, st.just("h") | st.just(0), _DIGESTS) | st.just(E.Unit()),
    lambda kids: st.one_of(
        st.builds(E.PairEv, kids, kids),
        st.builds(E.Inl, kids),
        st.builds(E.ClauseApp, _REFS, _DIGESTS, st.just(()),
                  st.lists(kids, max_size=3).map(tuple)),
    ),
    max_leaves=20,
)


def _without_digests(ev):
    def node(x, kids):
        if isinstance(x, E.ClauseApp):
            return E.ClauseApp(x.ref, None, x.args, tuple(kids))
        return E.rebuild(x, kids, lambda t: t)

    return E.fold(ev, node)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_EVIDENCE)
def test_evidence_with_repeated_and_mixed_digests_reads_back_to_its_bytes(ev):
    # Each distinct digest takes its length and 4 bytes once, and 4 bytes
    # each time after: the bytes beyond the same evidence with no digests.
    data = codec.encode_evidence(ev)
    back = codec.decode_evidence(data)
    assert back == ev and codec.encode_evidence(back) == data
    seen, extra = set(), 0
    for x in E.nodes(ev):
        if isinstance(x, E.ClauseApp) and x.policy_digest is not None:
            extra += 4 if x.policy_digest in seen else 4 + len(x.policy_digest)
            seen.add(x.policy_digest)
    assert len(data) == len(codec.encode_evidence(_without_digests(ev))) + extra


# ---------------------------------------------------------------------------
# The writer refuses what the reader would refuse, and values it has no
# node for


def _succ(depth: int):
    """A term `depth` deep: successors of a constant."""
    t = S.Const("0", "Int")
    for _ in range(depth - 1):
        t = S.FunApp("succ", (t,))
    return t


def _disjunctions(depth: int, last=S.Atom("p")):
    """`last` under `depth - 1` disjunctions, each with an atom without
    arguments on its left."""
    f = last
    for _ in range(depth - 1):
        f = S.Or(S.Atom("p"), f)
    return f


@pytest.mark.parametrize("encode, value, reason", [
    (codec.encode_formula, S.Forall(S.Const("x", "Int"), S.TOP), "not a var node"),
    (codec.encode_formula, S.Atom("p", (S.TOP,)), "not a term node"),
    (codec.encode_evidence, E.PairEv(S.TOP, E.Unit()), "not a evidence node"),
    (codec.encode_evidence, S.TOP, "not a evidence node"),
    (codec.encode_evidence, E.AttLeaf("x"), "not a attestation node"),
    (codec.encode_evidence, E.Witness(_succ(S.MAX_NESTING + 1), E.Unit()), "nested deeper"),
    (codec.encode_evidence, E.ClauseApp("r", None, (_succ(S.MAX_NESTING + 1),)), "nested deeper"),
    (codec.encode_evidence, E.ClauseApp(2**31, _D1), "clause position 2147483648 out of range"),
    (codec.encode_evidence, E.ClauseApp(-1, _D1), "clause position -1 out of range"),
    (codec.encode_formula, _disjunctions(S.MAX_NESTING + 1), "nested deeper"),
    (codec.encode_formula, _disjunctions(S.MAX_NESTING - 1, S.Knows(frozenset({_succ(2)}), S.TOP)),
     "nested deeper"),
], ids=["constant as binder", "formula as term", "formula in a pair", "formula as evidence",
        "string as attestation", "deep witness", "deep clause argument", "position read as a label",
        "negative position", "deep disjunctions",
        "deep principal in a knows set"])
def test_the_writer_refuses_what_it_has_no_encoding_for(encode, value, reason):
    with pytest.raises(CodecError, match=reason):
        encode(value)


def test_the_writer_writes_a_term_and_a_formula_max_nesting_deep():
    term, formula = _succ(S.MAX_NESTING), _disjunctions(S.MAX_NESTING)
    assert S.nesting(term) == S.nesting(formula) == S.MAX_NESTING
    assert codec.decode_term(codec.encode_term(term)) == term
    assert codec.decode_formula(codec.encode_formula(formula)) == formula


@pytest.mark.parametrize("keys", [(b"1", b"2"), (b"2", b"1")], ids=["ascending", "descending"])
def test_two_pinned_ids_with_one_name_are_refused_by_the_writer(keys):
    # The reader refuses ids that do not strictly increase by name, so the
    # writer does not write them.
    pids = [PrincipalId("A", k * 32) for k in keys]
    cert = E.Certificate(S.TOP, E.Unit(), frozenset(), frozenset(pids))
    with pytest.raises(CodecError, match="repeated"):
        codec.encode_certificate(cert)
