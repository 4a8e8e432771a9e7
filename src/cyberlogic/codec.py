"""Canonical binary encoding (`CYL2`): a node is a one-byte tag, then its
fields in the order of its class's fields, so encodings are injective and
deterministic and decode(encode(x)) == x.  Signatures and digests are
computed over these bytes.

`FORMAT` is the only statement of the format: for each node kind it maps a
tag to the node's class and the kinds of its fields.  The writer interprets
it; the reader is compiled from it at import, one reader per tag.  Both
keep an explicit work stack and do not recurse, so evidence, whose depth
grows with the proof, may nest to any depth.  Terms and formulas come from
people: both refuse, with CodecError, one nested deeper than
`syntax.MAX_NESTING`, as the parser does.  Every error the reader raises is
a CodecError.

Decoding is canonical: the reader refuses, with CodecError, what the writer
would not write, so encode(decode(b)) == b for all bytes b it reads.  The
lists read as sets must strictly increase: a `{term}` set by the bytes of
its terms, a certificate's digests by their bytes and its principal ids by
name.  One decode makes one value of each node with only string and byte
fields, such as one `Const` per (name, sort).
"""

from __future__ import annotations

import struct
from dataclasses import fields as _class_fields
from functools import partial
from operator import attrgetter, lt

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
for _kind, _tags in FORMAT.items():
    for _tag, (_cls, _ks) in _tags.items():
        _fs = tuple(_field(f.name, k) for f, k in zip(_class_fields(_cls), _ks.split()))
        _flat = tuple((f[0], f[1] == "s") for f in _fs) if set(_ks.split()) <= {"s", "b"} else None
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
#
# A field kind compiles to an op (rd, sub, many).  A string, byte string or
# i64 has a reader `rd(data, pos, memo) -> (value, pos)`.  A node has its
# kind's table `sub`: tag -> (the tag's reader or None, class, field ops,
# whether the fields are one level deeper).  A list or an optional has its
# item's op `sub` and `many`, (count reader, build from the items).  A node
# with only string and byte fields is read in place: `memo`, local to one
# decode, maps its bytes, tag included, to its one value (a tag byte names
# one class in every kind it belongs to).


def _string(decode):
    def read(data, pos, memo):
        (n,) = _U32_AT(data, pos)
        pos += 4 + n
        if pos > len(data):
            raise CodecError("truncated input")
        return decode(data[pos - n : pos]), pos

    return read


def _i64(data, pos, memo):
    return _I64_AT(data, pos)[0], pos + 8


def _interned(cls, kinds):
    """The reader, after its tag, of a node with only string and byte
    fields: its bytes are looked up before any field is decoded."""
    rds = [_PLAIN[k] for k in kinds]

    def read(data, pos, memo):
        start = pos - 1
        for _ in rds:
            pos += 4 + _U32_AT(data, pos)[0]
        v = memo.get(data[start:pos])  # a node cut short is never found: `rd` refuses it
        if v is None:
            args, i = [], start + 1
            for rd in rds:
                a, i = rd(data, i, memo)
                args.append(a)
            v = memo[data[start:pos]] = cls(*args)
        return v, pos

    return read


def _count(data, pos) -> tuple:
    (n,) = _U32_AT(data, pos)
    if n > len(data) - pos - 4:  # every item takes at least one byte
        raise CodecError("truncated input")
    return n, pos + 4


def _flag(data, pos) -> tuple:
    if data[pos] > 1:
        raise CodecError("bad option flag")
    return data[pos], pos + 1


def _values(*items) -> tuple:
    return items


def _ascending(key=None):
    """The build of a list read as a set: the items, or their keys,
    strictly increase."""

    def build(*items):
        keys = list(map(key, items)) if key else items
        if len(items) > 1 and not all(map(lt, keys, keys[1:])):
            raise CodecError("set out of order")
        return frozenset(items)

    return build


_PLAIN = {"s": _string(bytes.decode), "b": _string(bytes), "q": _i64}
_MANY = {  # (count reader, build) of a list, an optional and a {term} set
    "*": (_count, _values),
    "?": (_flag, lambda *x: x[0] if x else None),
    "{": (_count, _ascending(partial(_encode, "term"))),
}
_READ = {kind: {} for kind in FORMAT}


def _op(kind) -> tuple:
    if kind in _PLAIN:
        return _PLAIN[kind], None, None
    if kind[0] in _MANY:
        return None, _op(kind[1:] if kind[0] != "{" else "term"), _MANY[kind[0]]
    return None, _READ[kind], None


for _kind, _tags in FORMAT.items():
    for _tag, (_cls, _ks) in _tags.items():
        _rd = _interned(_cls, _ks.split()) if set(_ks.split()) <= {"s", "b"} else None
        _READ[_kind][_tag] = (_rd, _cls, tuple(map(_op, _ks.split())), _kind in NESTED)


def _read(data: bytes, ops, pos: int) -> tuple:
    """The values of the fields `ops`, read from `data` at `pos` to its end.
    The node or list being read is (build, its values so far, its ops, the
    next op, the depth of its nodes); those around it wait on a stack."""
    memo, stack, limit = {}, [], S.MAX_NESTING
    build, vals, i, d = _values, [], 0, 1
    try:
        while True:
            while i < len(ops):
                rd, sub, many = ops[i]
                i += 1
                if many is not None:  # a list: the items read in place, then the rest as ops
                    count, pos = many[0](data, pos)
                    items = []
                    while len(items) < count:
                        rd = sub[0]
                        if rd is None:  # a node: read in place if its tag has a reader
                            spec = sub[1].get(data[pos])
                            if spec is None or spec[0] is None or d > limit:
                                break
                            rd, pos = spec[0], pos + 1
                        v, pos = rd(data, pos, memo)
                        items.append(v)
                    else:
                        vals.append(many[1](*items))
                        continue
                    stack.append((build, vals, ops, i, d))
                    build, vals, ops, i = many[1], items, (sub,) * (count - len(items)), 0
                    continue
                if rd is None:
                    spec = sub.get(data[pos])
                    if spec is None:
                        kind = next(k for k, t in _READ.items() if t is sub)
                        raise CodecError(f"bad {kind} tag {data[pos]:#x}")
                    if d > limit:
                        raise CodecError(_TOO_DEEP)
                    rd, cls, sub, nests = spec
                    pos += 1
                    if rd is None:  # enter the node
                        stack.append((build, vals, ops, i, d))
                        build, vals, ops, i, d = cls, [], sub, 0, d + 1 if nests else 1
                        continue
                v, pos = rd(data, pos, memo)
                vals.append(v)
            v = build(*vals)
            if not stack:
                break
            build, vals, ops, i, d = stack.pop()
            vals.append(v)
    except (IndexError, struct.error) as ex:
        raise CodecError("truncated input") from ex
    except UnicodeDecodeError as ex:
        raise CodecError("invalid utf-8") from ex
    if pos != len(data):
        raise CodecError("trailing bytes")
    return v


_ROOT_OPS = {kind: (_op(kind),) for kind in FORMAT}


def _decode(kind, data: bytes):
    return _read(data, _ROOT_OPS[kind], 0)[0]


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
# byte order and the principal ids by name: the reader reads both as sets.
CERTIFICATE = ("formula", "evidence", "*b", "*pid", "?attestation")
_CERTIFICATE = _fields(CERTIFICATE)
_CERTIFICATE_OPS = (
    *map(_op, CERTIFICATE[:2]),
    (None, _op("b"), (_count, _ascending())),
    (None, _op("pid"), (_count, _ascending(attrgetter("name")))),
    _op(CERTIFICATE[4]),
)


def encode_certificate(c) -> bytes:
    pids = sorted(c.directory, key=lambda p: p.name)
    values = (c.root_formula, c.root_evidence, sorted(c.policy_digests), pids, c.created_at)
    out = [MAGIC, b"\x40"]
    _write(out, values, _CERTIFICATE)
    return b"".join(out)


def decode_certificate(data: bytes):
    if data[:5] != MAGIC + b"\x40":
        raise CodecError("not a certificate")
    return E.Certificate(*_read(data, _CERTIFICATE_OPS, 5))
