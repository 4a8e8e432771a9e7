"""Canonical binary encoding.

Every value is encoded as a one-byte type tag followed by length-prefixed
fields in a fixed order, so encodings are injective and deterministic and
decode(encode(x)) == x.  Signatures and digests are always computed over
these bytes.
"""

from __future__ import annotations

import struct

from .errors import CodecError
from . import evidence as E
from . import syntax as S
from .crypto import PrincipalId, SignedAttestation, sha256

MAGIC = b"CYL2"


class _W:
    def __init__(self):
        self.parts = []

    def u8(self, v):
        self.parts.append(struct.pack("B", v))

    def u32(self, v):
        self.parts.append(struct.pack(">I", v))

    def i64(self, v):
        self.parts.append(struct.pack(">q", v))

    def bytes_(self, b):
        self.u32(len(b))
        self.parts.append(b)

    def str_(self, s):
        self.bytes_(s.encode("utf-8"))

    def opt(self, v, emit):
        if v is None:
            self.u8(0)
        else:
            self.u8(1)
            emit(v)

    def out(self) -> bytes:
        return b"".join(self.parts)


class _R:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n) -> bytes:
        if self.pos + n > len(self.data):
            raise CodecError("truncated input")
        b = self.data[self.pos : self.pos + n]
        self.pos += n
        return b

    def u8(self):
        return self.take(1)[0]

    def u32(self):
        return struct.unpack(">I", self.take(4))[0]

    def i64(self):
        return struct.unpack(">q", self.take(8))[0]

    def bytes_(self):
        return self.take(self.u32())

    def str_(self):
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError as e:
            raise CodecError("invalid utf-8") from e

    def opt(self, read):
        flag = self.u8()
        if flag == 0:
            return None
        if flag != 1:
            raise CodecError("bad option flag")
        return read()

    def done(self):
        if self.pos != len(self.data):
            raise CodecError("trailing bytes")


# ---------------------------------------------------------------------------
# Terms


def _emit_term(w: _W, t):
    if isinstance(t, S.Var):
        w.u8(0x01)
        w.str_(t.name)
        w.str_(t.sort)
    elif isinstance(t, S.Const):
        w.u8(0x02)
        w.str_(t.name)
        w.str_(t.sort)
    elif isinstance(t, S.FunApp):
        w.u8(0x03)
        w.str_(t.symbol)
        w.u32(len(t.args))
        for a in t.args:
            _emit_term(w, a)
    else:
        raise CodecError(f"not a term: {t!r}")


def _read_term(r: _R):
    tag = r.u8()
    if tag == 0x01:
        return S.Var(r.str_(), r.str_())
    if tag == 0x02:
        return S.Const(r.str_(), r.str_())
    if tag == 0x03:
        sym = r.str_()
        n = r.u32()
        return S.FunApp(sym, tuple(_read_term(r) for _ in range(n)))
    raise CodecError(f"bad term tag {tag:#x}")


def encode_term(t) -> bytes:
    w = _W()
    _emit_term(w, t)
    return w.out()


def decode_term(data: bytes):
    r = _R(data)
    t = _read_term(r)
    r.done()
    return t


def _emit_principals(w: _W, principals):
    """A principal set (of `knows` and `KnowsWrap`), in sorted byte order."""
    enc = sorted(encode_term(p) for p in principals)
    w.u32(len(enc))
    w.parts.extend(enc)


def _read_principals(r: _R) -> frozenset:
    return frozenset(_read_term(r) for _ in range(r.u32()))


# ---------------------------------------------------------------------------
# Formulas


def _emit_formula(w: _W, f):
    if isinstance(f, S.Top):
        w.u8(0x10)
    elif isinstance(f, S.Bottom):
        w.u8(0x11)
    elif isinstance(f, S.Atom):
        w.u8(0x12)
        w.str_(f.pred)
        w.u32(len(f.args))
        for a in f.args:
            _emit_term(w, a)
    elif isinstance(f, S.Attest):
        w.u8(0x13)
        _emit_term(w, f.principal)
        _emit_formula(w, f.body)
    elif isinstance(f, S.Knows):
        w.u8(0x14)
        _emit_principals(w, f.principals)
        _emit_formula(w, f.body)
    elif isinstance(f, (S.And, S.Or, S.Implies)):
        w.u8({S.And: 0x15, S.Or: 0x16, S.Implies: 0x17}[type(f)])
        _emit_formula(w, f.left)
        _emit_formula(w, f.right)
    elif isinstance(f, (S.Forall, S.Exists)):
        w.u8(0x18 if isinstance(f, S.Forall) else 0x19)
        _emit_term(w, f.var)
        _emit_formula(w, f.body)
    else:
        raise CodecError(f"not an encodable formula: {f!r}")


def _read_formula(r: _R):
    tag = r.u8()
    if tag == 0x10:
        return S.TOP
    if tag == 0x11:
        return S.BOTTOM
    if tag == 0x12:
        pred = r.str_()
        n = r.u32()
        return S.Atom(pred, tuple(_read_term(r) for _ in range(n)))
    if tag == 0x13:
        return S.Attest(_read_term(r), _read_formula(r))
    if tag == 0x14:
        return S.Knows(_read_principals(r), _read_formula(r))
    if tag in (0x15, 0x16, 0x17):
        ctor = {0x15: S.And, 0x16: S.Or, 0x17: S.Implies}[tag]
        return ctor(_read_formula(r), _read_formula(r))
    if tag in (0x18, 0x19):
        var = _read_term(r)
        if not isinstance(var, S.Var):
            raise CodecError("quantifier binder is not a variable")
        return (S.Forall if tag == 0x18 else S.Exists)(var, _read_formula(r))
    raise CodecError(f"bad formula tag {tag:#x}")


def encode_formula(f) -> bytes:
    w = _W()
    _emit_formula(w, f)
    return w.out()


def decode_formula(data: bytes):
    r = _R(data)
    f = _read_formula(r)
    r.done()
    return f


# ---------------------------------------------------------------------------
# Clauses and policies


def _emit_clause(w: _W, c: S.Clause):
    w.u8(0x50)
    w.str_(c.label)
    w.u32(len(c.universals))
    for v in c.universals:
        _emit_term(w, v)
    w.u32(len(c.slots))
    for s in c.slots:
        _emit_formula(w, s)
    _emit_formula(w, c.head)


def encode_policy(p: S.Policy) -> bytes:
    w = _W()
    w.u8(0x51)
    w.str_(p.owner)
    sig = p.signature
    for group in (sorted(sig.sorts), sorted(sig.principals)):
        w.u32(len(group))
        for name in group:
            w.str_(name)
    w.u32(len(sig.preds))
    for name in sorted(sig.preds):
        w.str_(name)
        w.u32(len(sig.preds[name]))
        for s in sig.preds[name]:
            w.str_(s)
    w.u32(len(p.clauses))
    for c in p.clauses:
        _emit_clause(w, c)
    return w.out()


def policy_digest(p: S.Policy) -> bytes:
    return sha256(encode_policy(p))


# ---------------------------------------------------------------------------
# Principal ids and signed attestations


def _emit_principal_id(w: _W, pid: PrincipalId):
    w.u8(0x31)
    w.str_(pid.name)
    w.bytes_(pid.fingerprint)


def _read_principal_id(r: _R) -> PrincipalId:
    if r.u8() != 0x31:
        raise CodecError("bad principal id tag")
    return PrincipalId(r.str_(), r.bytes_())


def _emit_signed_attestation(w: _W, sa: SignedAttestation):
    w.u8(0x30)
    _emit_principal_id(w, sa.principal)
    w.bytes_(sa.payload)
    w.bytes_(sa.signature)
    w.opt(sa.issued_at, w.i64)


def _read_signed_attestation(r: _R) -> SignedAttestation:
    if r.u8() != 0x30:
        raise CodecError("bad attestation tag")
    return SignedAttestation(
        principal=_read_principal_id(r),
        payload=r.bytes_(),
        signature=r.bytes_(),
        issued_at=r.opt(r.i64),
    )


# ---------------------------------------------------------------------------
# Evidence


def _emit_evidence_node(w: _W, e):
    """Emit an evidence node without its sub-evidence.  A tree's encoding
    is that of each of its nodes in the pre-order of `E.nodes`."""
    if isinstance(e, E.Unit):
        w.u8(0x20)
    elif isinstance(e, E.PairEv):
        w.u8(0x21)
    elif isinstance(e, E.Inl):
        w.u8(0x22)
    elif isinstance(e, E.Inr):
        w.u8(0x23)
    elif isinstance(e, E.Witness):
        w.u8(0x24)
        _emit_term(w, e.term)
    elif isinstance(e, E.Abstraction):
        w.u8(0x25)
        w.str_(e.var)
    elif isinstance(e, E.ClauseApp):
        w.u8(0x26)
        w.str_(e.label)
        w.opt(e.policy_digest, w.bytes_)
        w.u32(len(e.args))
        for t in e.args:
            _emit_term(w, t)
        w.u32(len(e.premises))
    elif isinstance(e, E.Hyp):
        w.u8(0x27)
        w.str_(e.label)
    elif isinstance(e, E.AttLeaf):
        w.u8(0x28)
        _emit_signed_attestation(w, e.attestation)
    elif isinstance(e, E.TheoryHole):
        w.u8(0x29)
        w.str_(e.pred)
        w.u32(len(e.args))
        for t in e.args:
            _emit_term(w, t)
        w.opt(e.receipt, lambda sa: _emit_signed_attestation(w, sa))
    elif isinstance(e, E.KnowsWrap):
        w.u8(0x2A)
        _emit_principals(w, e.principals)
    else:
        raise CodecError(f"not evidence: {e!r}")


def _emit_evidence(w: _W, e):
    for x in E.nodes(e):
        _emit_evidence_node(w, x)


def _read_evidence(r: _R):
    tag = r.u8()
    if tag == 0x20:
        return E.Unit()
    if tag == 0x21:
        return E.PairEv(_read_evidence(r), _read_evidence(r))
    if tag == 0x22:
        return E.Inl(_read_evidence(r))
    if tag == 0x23:
        return E.Inr(_read_evidence(r))
    if tag == 0x24:
        return E.Witness(_read_term(r), _read_evidence(r))
    if tag == 0x25:
        return E.Abstraction(r.str_(), _read_evidence(r))
    if tag == 0x26:
        label = r.str_()
        digest = r.opt(r.bytes_)
        n = r.u32()
        args = tuple(_read_term(r) for _ in range(n))
        m = r.u32()
        premises = tuple(_read_evidence(r) for _ in range(m))
        return E.ClauseApp(label, digest, args, premises)
    if tag == 0x27:
        return E.Hyp(r.str_())
    if tag == 0x28:
        return E.AttLeaf(_read_signed_attestation(r))
    if tag == 0x29:
        pred = r.str_()
        n = r.u32()
        args = tuple(_read_term(r) for _ in range(n))
        receipt = r.opt(lambda: _read_signed_attestation(r))
        return E.TheoryHole(pred, args, receipt)
    if tag == 0x2A:
        return E.KnowsWrap(_read_principals(r), _read_evidence(r))
    raise CodecError(f"bad evidence tag {tag:#x}")


def encode_evidence(e) -> bytes:
    w = _W()
    _emit_evidence(w, e)
    return w.out()


def decode_evidence(data: bytes):
    r = _R(data)
    e = _read_evidence(r)
    r.done()
    return e


# ---------------------------------------------------------------------------
# Certificates


def encode_certificate(c) -> bytes:
    w = _W()
    w.parts.append(MAGIC)
    w.u8(0x40)
    _emit_formula(w, c.root_formula)
    _emit_evidence(w, c.root_evidence)
    digests = sorted(c.policy_digests)
    w.u32(len(digests))
    for d in digests:
        w.bytes_(d)
    pids = sorted(c.directory, key=lambda p: p.name)
    w.u32(len(pids))
    for pid in pids:
        _emit_principal_id(w, pid)
    w.opt(c.created_at, lambda sa: _emit_signed_attestation(w, sa))
    return w.out()


def decode_certificate(data: bytes):
    r = _R(data)
    if r.take(4) != MAGIC or r.u8() != 0x40:
        raise CodecError("not a certificate")
    root_formula = _read_formula(r)
    root_evidence = _read_evidence(r)
    policy_digests = frozenset(r.bytes_() for _ in range(r.u32()))
    directory = frozenset(_read_principal_id(r) for _ in range(r.u32()))
    created_at = r.opt(lambda: _read_signed_attestation(r))
    r.done()
    return E.Certificate(root_formula, root_evidence, policy_digests, directory, created_at)
