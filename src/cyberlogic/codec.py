"""Canonical binary encoding (`CYL2`): a node is a one-byte tag, then its
fields in the order of its class's fields, so encodings are injective and
deterministic and decode(encode(x)) == x.  Signatures and digests are
computed over these bytes.

`FORMAT` is the only statement of the format: for each node kind it maps a
tag to the node's class and the kinds of its fields.  One writer and one
reader interpret it, each with an explicit work stack and no recursion, so
evidence, whose depth grows with the proof, may nest to any depth.  Terms
and formulas come from people: both refuse, with CodecError, one nested
deeper than `syntax.MAX_NESTING`, as the parser does.  Every error the
reader raises is a CodecError.
"""

from __future__ import annotations

import struct
from dataclasses import fields as _class_fields
from functools import partial

from .errors import CodecError
from . import evidence as E
from . import syntax as S
from .crypto import PrincipalId, SignedAttestation, sha256

MAGIC = b"CYL2"

# Field kinds: "s" a UTF-8 string and "b" a byte string, each after its u32
# length; "q" an i64; "?k" an optional k (flag byte 0, or 1 then k); "*k" a
# counted list of k (u32 count, then the items); "{term}" a set of terms (a
# list in sorted byte order, read as a frozenset); else a node of that kind.
FORMAT = {
    "term": {0x01: (S.Var, "s s"), 0x02: (S.Const, "s s"), 0x03: (S.FunApp, "s *term")},
    "var": {0x01: (S.Var, "s s")},  # a quantifier's binder
    "formula": {
        0x10: (S.Top, ""), 0x11: (S.Bottom, ""),
        0x12: (S.Atom, "s *term"),
        0x13: (S.Attest, "term formula"),
        0x14: (S.Knows, "{term} formula"),
        0x15: (S.And, "formula formula"), 0x16: (S.Or, "formula formula"),
        0x17: (S.Implies, "formula formula"),
        0x18: (S.Forall, "var formula"), 0x19: (S.Exists, "var formula"),
    },
    "evidence": {
        0x20: (E.Unit, ""),
        0x21: (E.PairEv, "evidence evidence"),
        0x22: (E.Inl, "evidence"), 0x23: (E.Inr, "evidence"),
        0x24: (E.Witness, "term evidence"),
        0x25: (E.Abstraction, "s evidence"),
        0x26: (E.ClauseApp, "s ?b *term *evidence"),
        0x28: (E.AttLeaf, "attestation"),
        0x29: (E.TheoryHole, "s *term ?attestation"),
        0x2A: (E.KnowsWrap, "{term} evidence"),
    },
    "attestation": {0x30: (SignedAttestation, "pid b b ?q")},
    "pid": {0x31: (PrincipalId, "s b")},
    "clause": {0x50: (S.Clause, "s *term *formula formula")},
}
NESTED = ("term", "var", "formula")  # the kinds whose depth is bounded

# The reader's view: kind -> tag -> (class, field kinds, only string or byte fields)
_BY_TAG = {
    kind: {tag: (cls, tuple(ks.split()), set(ks.split()) <= {"s", "b"}) for tag, (cls, ks) in tags.items()}
    for kind, tags in FORMAT.items()
}


def _field(name, kind):
    """The writer's view of a field: (name, "s" | "b" | "q" | "{term}", None), (name,
    "n", nodes by class), or (name, "*" | "?", the field of an item or of the value)."""
    if kind[0] in "*?":
        return name, kind[0], _field(None, kind[1:])
    return (name, "n", _BY_CLASS[kind]) if kind in FORMAT else (name, kind, None)


# The writer's view: kind -> class -> (tag byte, fields, flat, depth counts);
# `flat` is (name, is a string) of each field of a node with only string or
# byte fields, else None.
_BY_CLASS = {kind: {} for kind in FORMAT}
for _kind, _tags in _BY_TAG.items():
    for _tag, (_cls, _ks, _flat) in _tags.items():
        _fs = tuple(_field(f.name, k) for f, k in zip(_class_fields(_cls), _ks))
        _flat = tuple((f[0], f[1] == "s") for f in _fs) if _flat else None
        _BY_CLASS[_kind][_cls] = (bytes((_tag,)), _fs, _flat, _kind in NESTED)
_U32 = struct.Struct(">I").pack
_I64 = struct.Struct(">q").pack
_U32_AT = struct.Struct(">I").unpack_from
_I64_AT = struct.Struct(">q").unpack_from
_TOO_DEEP = f"term or formula nested deeper than {S.MAX_NESTING}"


def _fields(kinds) -> tuple:
    return tuple(_field(None, k) for k in kinds)


# ---------------------------------------------------------------------------
# Writer


def _write(out: list, values, fields, d: int = 1):
    """Append to `out` the encoding of each value as the field at the same
    position of `fields`.  The state is (x, fields, i, d): the fields[i:]
    of x (a node, or a sequence whose fields are named None), with their
    nodes at depth d.  A flat node is written in place; before any other
    node or a list is entered, the state after it goes on the work stack."""
    put, limit = out.append, S.MAX_NESTING
    todo = []
    x, i, n = values, 0, len(fields)
    while True:
        while i < n:
            name, op, sub = fields[i]
            v = x[i] if name is None else getattr(x, name)
            i += 1
            if op == "?":
                put(b"\x00" if v is None else b"\x01")
                if v is None:
                    continue
                _, op, sub = sub  # the field of the value
            if op == "s":
                v = v.encode()
                put(_U32(len(v)))
                put(v)
            elif sub is not None:  # a node or a list: its flat nodes in place
                if op == "n":
                    spec = sub.get(v.__class__)
                    if spec is not None and spec[2] is None and d <= limit:
                        put(spec[0])  # enter a node that is not flat
                        if i < n:
                            todo.append((x, fields, i, d))
                        x, fields, i, d = v, spec[1], 0, d + 1 if spec[3] else 1
                        n = len(fields)
                        continue
                    v = (v,)
                else:
                    put(_U32(len(v)))
                    if not v:
                        continue
                    op, sub = sub, sub[2]  # the field of an item, its nodes
                    if sub is None:  # strings or bytes, one by one
                        if i < n:
                            todo.append((x, fields, i, d))
                        x, fields, i, n = v, (op,) * len(v), 0, len(v)
                        continue
                if d > limit:
                    raise CodecError(_TOO_DEEP)
                j = 0
                for y in v:
                    spec = sub.get(y.__class__)
                    if spec is None:
                        kind = next(k for k, specs in _BY_CLASS.items() if specs is sub)
                        raise CodecError(f"not a {kind} node: {type(y).__name__}")
                    put(spec[0])
                    if spec[2] is None:
                        break
                    for name, is_str in spec[2]:
                        a = getattr(y, name)
                        if is_str:
                            a = a.encode()
                        put(_U32(len(a)))
                        put(a)
                    j += 1
                if j < len(v):
                    if i < n:
                        todo.append((x, fields, i, d))
                    if j + 1 < len(v):
                        todo.append((v, (op,) * len(v), j + 1, d))
                    x, fields, i, d = v[j], spec[1], 0, d + 1 if spec[3] else 1
                    n = len(fields)
            elif op == "b":
                put(_U32(len(v)))
                put(v)
            elif op == "q":
                put(_I64(v))
            else:  # {term}
                v = sorted(_encode("term", t, d) for t in v)
                put(_U32(len(v)))
                out += v
        if not todo:
            return
        x, fields, i, d = todo.pop()
        n = len(fields)


_ROOT = {kind: _fields((kind,)) for kind in FORMAT}


def _encode(kind, x, d: int = 1) -> bytes:
    out = []
    _write(out, (x,), _ROOT[kind], d)
    return b"".join(out)


# ---------------------------------------------------------------------------
# Reader


def _read(data: bytes, kinds, pos: int = 0) -> list:
    """The values of the field kinds `kinds`, read in turn from `data` at
    `pos` to its end.  The work stack holds (field kind, depth of its nodes)
    to read and (constructor, count) to apply to the last count values."""
    vals = []
    put = vals.append
    todo = [(k, 1) for k in reversed(kinds)]
    pop, push = todo.pop, todo.append
    end = len(data)
    try:
        while todo:
            k, d = pop()
            tags = _BY_TAG.get(k)
            if tags is not None:
                tag = data[pos]
                pos += 1
                spec = tags.get(tag)
                if spec is None:
                    raise CodecError(f"bad {k} tag {tag:#x}")
                if d > S.MAX_NESTING:
                    raise CodecError(_TOO_DEEP)
                cls, fks, flat = spec
                if flat:
                    args = []
                    for fk in fks:
                        (n,) = _U32_AT(data, pos)
                        pos += 4 + n
                        if pos > end:
                            raise CodecError("truncated input")
                        args.append(data[pos - n : pos].decode() if fk == "s" else data[pos - n : pos])
                    put(cls(*args))
                    continue
                push((cls, len(fks)))
                d = d + 1 if k in NESTED else 1
                for fk in reversed(fks):
                    push((fk, d))
            elif k.__class__ is not str:  # d is the count; no constructor makes a tuple
                args = vals[len(vals) - d :]
                del vals[len(vals) - d :]
                put(tuple(args) if k is None else k(*args))
            elif k == "s" or k == "b":
                (n,) = _U32_AT(data, pos)
                pos += 4 + n
                if pos > end:
                    raise CodecError("truncated input")
                put(data[pos - n : pos].decode() if k == "s" else data[pos - n : pos])
            elif k == "q":
                put(_I64_AT(data, pos)[0])
                pos += 8
            elif k[0] == "?":
                pos += 1
                if data[pos - 1] > 1:
                    raise CodecError("bad option flag")
                if data[pos - 1]:
                    push((k[1:], d))
                else:
                    put(None)
            else:  # a list or {term}
                (n,) = _U32_AT(data, pos)
                pos += 4
                if n > end - pos:  # every item takes at least one byte
                    raise CodecError("truncated input")
                if k == "{term}":
                    push((frozenset, 1))
                push((None, n))
                todo += [(k[1:] if k[0] == "*" else "term", d)] * n
    except (IndexError, struct.error) as ex:
        raise CodecError("truncated input") from ex
    except UnicodeDecodeError as ex:
        raise CodecError("invalid utf-8") from ex
    if pos != end:
        raise CodecError("trailing bytes")
    return vals


def _decode(kind, data: bytes):
    return _read(data, (kind,))[0]


encode_term, decode_term = partial(_encode, "term"), partial(_decode, "term")
encode_formula, decode_formula = partial(_encode, "formula"), partial(_decode, "formula")
encode_evidence, decode_evidence = partial(_encode, "evidence"), partial(_decode, "evidence")
encode_clause = partial(_encode, "clause")


def encode_policy(p: S.Policy) -> bytes:
    """Tag 0x51, the owner, the signature's sorts and principals, its
    predicates as (name, argument sorts) by name, then the clauses.

    A clause's encoding does not depend on the policy around it (a clause
    node starts at depth 1), so each clause's bytes are taken from
    `Clause.encoding`, computed once per clause: a policy that shares
    clauses with an encoded one encodes only the others."""
    sig = p.signature
    preds = sorted(sig.preds.items())
    out = [b"\x51"]
    _write(out, (p.owner, sorted(sig.sorts), sorted(sig.principals)), _fields(("s", "*s", "*s")))
    out.append(_U32(len(preds)))
    _write(out, tuple(x for kv in preds for x in kv), _fields(("s", "*s") * len(preds)))
    out.append(_U32(len(p.clauses)))
    out += [c.encoding for c in p.clauses]
    return b"".join(out)


def policy_digest(p: S.Policy) -> bytes:
    return sha256(encode_policy(p))


# A certificate is MAGIC, tag 0x40, then these fields, with the digests in
# byte order and the principal ids by name.
CERTIFICATE = ("formula", "evidence", "*b", "*pid", "?attestation")
_CERTIFICATE = _fields(CERTIFICATE)


def encode_certificate(c) -> bytes:
    pids = sorted(c.directory, key=lambda p: p.name)
    values = (c.root_formula, c.root_evidence, sorted(c.policy_digests), pids, c.created_at)
    out = [MAGIC, b"\x40"]
    _write(out, values, _CERTIFICATE)
    return b"".join(out)


def decode_certificate(data: bytes):
    if data[:5] != MAGIC + b"\x40":
        raise CodecError("not a certificate")
    f, e, digests, pids, stamp = _read(data, CERTIFICATE, 5)
    return E.Certificate(f, e, frozenset(digests), frozenset(pids), stamp)
