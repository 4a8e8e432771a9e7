"""Canonical binary encoding (`CYL4`): a node is a one-byte tag, then its
fields in the order of its class's fields (a certificate's pins first), so
encodings are injective and deterministic and decode(encode(x)) == x.
Signatures and digests are computed over these bytes.

`FORMAT` is the only statement of the format: for each node kind it maps a
tag to the node's class and the kinds of its fields.  It is compiled once,
at import, into one table per kind that maps each tag and each class to
the node's spec, whose field ops both the writer and the reader walk.
Both keep an explicit work stack and do not recurse, so evidence, whose
depth grows with the proof, may nest to any depth.  Terms and formulas
come from people: both refuse, with CodecError, one nested deeper than
`syntax.MAX_NESTING`, as the parser does.  Every error the reader raises
is a CodecError.

Decoding is canonical: the reader refuses, with CodecError, what the writer
would not write, so encode(decode(b)) == b for all bytes b it reads.  A
list read as a set has one op that carries its order key: the writer
sorts by it and the reader checks it, and both refuse a repeated key.  One
decode makes one value of each node with only string and byte fields,
such as one `Const` per (name, sort).

A policy digest is written in full once per encoding, a certificate's pins
first, then as its index among the distinct digests written so far.  The
reader refuses a digest written in full twice, a reference to an index not
read yet and a flag above 2; decoded applications share one digest object.
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

MAGIC = b"CYL4"  # a certificate is MAGIC, then its node

# Field kinds: "s" a UTF-8 string and "b" a byte string, each after its u32
# length; "@" a clause reference: a label as an "s", or a position below
# 2**31 as a u32 with its top bit set (a string would need 2 GiB for that
# length); "q" an i64; "?k" an optional k (flag byte 0, or 1 then k); "p" a
# policy digest new to this encoding, as a "b"; "#" an optional policy
# digest: flag 0; 1 then a "p"; 2 then the u32 index, by first writing, of
# one it has; the reader refuses a digest in full twice, an index not read
# yet, any other flag; "*k" a counted list of k (u32 count, then the items);
# "{k}" a set of k (a counted list whose items strictly increase by
# `_ORDER`'s key for k, else by value, read as a frozenset); else a node of
# that kind.  A third item lists the fields in writing order.
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
        0x26: (E.ClauseApp, "@ # *term *evidence"),
        0x28: (E.AttLeaf, "attestation"),
        0x29: (E.TheoryHole, "s *term ?attestation"),
        0x2A: (E.KnowsWrap, "{term} evidence"),
    },
    "attestation": {0x30: (SignedAttestation, "pid b b ?q")},
    "pid": {0x31: (PrincipalId, "s b")},
    "clause": {0x50: (S.Clause, "s *term *formula formula")},
    "certificate": {0x40: (E.Certificate, "{p} formula evidence {pid} ?attestation",
                           "policy_digests root_formula root_evidence directory created_at")},
}
NESTED = ("term", "var", "formula")  # the kinds whose depth is bounded
_U32 = struct.Struct(">I").pack
_I64 = struct.Struct(">q").pack
_U32_AT = struct.Struct(">I").unpack_from
_I64_AT = struct.Struct(">q").unpack_from
_TOO_DEEP = f"term or formula nested deeper than {S.MAX_NESTING}"
_POSITION = 1 << 31  # the top bit of a "@" that holds a position

# ---------------------------------------------------------------------------
# Ops
#
# A field kind compiles to an op (rd, sub, many, name), `name` being the
# field's attribute, or None for an item of a sequence.  A string, byte
# string or i64 has a reader `rd(data, pos, memo) -> (value, pos)`.  A
# node has its kind's table `sub`: tag and class -> spec (the tag's reader
# or None, builder, field ops, whether the fields are one level deeper, tag
# byte).  A list, a set or an optional has its item's op `sub` and `many`,
# (count reader, build from the items, the writer's sort or None).  A node
# with only string and byte fields is written and read in place: the
# reader's `memo`, local to one decode, maps its bytes, tag included, to
# its one value (a tag byte names one class in every kind it belongs to).


def _string(decode):
    def read(data, pos, memo):
        (n,) = _U32_AT(data, pos)
        pos += 4 + n
        if pos > len(data):
            raise CodecError("truncated input")
        return decode(data[pos - n : pos]), pos

    return read


def _clause_ref(data, pos, memo):
    """A "@" field."""
    (n,) = _U32_AT(data, pos)
    return (n ^ _POSITION, pos + 4) if n & _POSITION else _TEXT(data, pos, memo)


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


def _pin(data, pos, memo):
    """A "p" field.  `memo[None]` maps each digest read, and its index, to it."""
    (v, pos), seen = _BYTES(data, pos, memo), memo[None]
    if v in seen:
        raise CodecError("digest written in full twice")
    seen[len(seen) // 2] = seen[v] = v  # its index, then itself
    return v, pos


def _digest(data, pos, memo):
    """A "#" field."""
    flag = data[pos]
    if flag == 2:
        v = memo[None].get(_U32_AT(data, pos + 1)[0])
        if v is None:
            raise CodecError("digest reference to a digest not read yet")
        return v, pos + 5
    if flag == 1:
        return _pin(data, pos + 1, memo)
    if flag:
        raise CodecError("bad digest flag")
    return None, pos + 1


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


def _set(key) -> tuple:
    """The `many` of a list read as a set: its items' keys (or the items)
    strictly increase, checked as the reader builds it and after the
    writer sorts it.  The writer sorts a set of terms, keyed by their
    encodings, as its items' encodings at the set's depth."""

    def ascending(items, key=key):
        if len(items) > 1:
            keys = list(map(key, items)) if key else items
            if not all(map(lt, keys, keys[1:])):
                raise CodecError("set item repeated or out of order")
        return items

    def sort(v, d):
        if key is encode_term:
            return ascending(sorted(_encode("term", t, d) for t in v), None)
        return ascending(sorted(v, key=key))

    return _count, lambda *items: frozenset(ascending(items)), sort


_TEXT, _BYTES = _string(bytes.decode), _string(bytes)
_PLAIN = {"s": _TEXT, "b": _BYTES, "@": _clause_ref, "q": _i64, "p": _pin, "#": _digest}
_LIST, _OPTION = (_count, _values, None), (_flag, lambda *x: x[0] if x else None, None)
_TABLES = {kind: {} for kind in FORMAT}


def _op(kind, name=None) -> tuple:
    if kind in _PLAIN:
        return _PLAIN[kind], None, None, name
    if kind[0] == "{":
        return None, _op(kind[1:-1]), _set(_ORDER.get(kind[1:-1])), name
    if kind[0] in "*?":
        return None, _op(kind[1:]), _LIST if kind[0] == "*" else _OPTION, name
    return None, _TABLES[kind], None, name


# ---------------------------------------------------------------------------
# Writer


def _write(out: list, x, ops, d: int = 1):
    """Append to `out` the encoding of the fields `ops` of x (a node, or a
    sequence whose ops are named None), with their nodes at depth d.  A
    single node is written as a list of one, without its count.  A node
    with only string and byte fields is written in place, as are a list's
    items up to the first other node; before that node is entered,
    the state after it, (x, ops, next op, d), goes on the work stack."""
    put, limit, todo, seen = out.append, S.MAX_NESTING, [], {}  # seen: digest -> reference
    text, ref, i64, pin, digest, option, u32 = _TEXT, _clause_ref, _i64, _pin, _digest, _OPTION, _U32
    i, n = 0, len(ops)
    while True:
        while i < n:
            rd, sub, many, name = ops[i]
            v = x[i] if name is None else getattr(x, name)
            i += 1
            if many is option:
                put(b"\x00" if v is None else b"\x01")
                if v is None:
                    continue
                rd, sub, many, _ = sub  # the value's op
            if rd is not None:  # a string, a byte string, a clause reference, an i64 or a digest
                if rd is text or rd is ref and v.__class__ is str:
                    v = v.encode()
                elif rd is ref:
                    if not 0 <= v < _POSITION:
                        raise CodecError(f"clause position {v} out of range")
                    put(u32(v | _POSITION))
                    continue
                elif rd is i64:
                    put(_I64(v))
                    continue
                elif rd is digest or rd is pin:  # a pin is new: a certificate's come first
                    if v is None or v in seen:
                        put(b"\x00" if v is None else seen[v])
                        continue
                    seen[v] = b"\x02" + u32(len(seen))
                    put(b"\x01" if rd is digest else b"")
                put(u32(len(v)))
                put(v)
                continue
            if many is None:  # a node: a list of one, without its count
                v = (v,)
            else:
                if many[2] is not None:  # a set, sorted
                    v = many[2](v, d)
                    if v and v[0].__class__ is bytes and sub[0] is None:  # terms, as encoded
                        out += [u32(len(v)), *v]
                        continue
                put(u32(len(v)))
                if not v:
                    continue
                if sub[0] is not None:  # strings or bytes, one by one
                    if i < n:
                        todo.append((x, ops, i, d))
                    x, ops, i, n = v, (sub,) * len(v), 0, len(v)
                    continue
                item, sub = sub, sub[1]
            if d > limit:
                raise CodecError(_TOO_DEEP)
            j = 0
            for y in v:
                spec = sub.get(y.__class__)
                if spec is None:
                    kind = next(k for k, t in _TABLES.items() if t is sub)
                    raise CodecError(f"not a {kind} node: {type(y).__name__}")
                put(spec[4])
                if spec[0] is None:
                    break
                for frd, _, _, fname in spec[2]:
                    a = getattr(y, fname)
                    if frd is text:
                        a = a.encode()
                    put(u32(len(a)))
                    put(a)
                j += 1
            if j < len(v):  # enter v[j]; a single node is never left over
                if i < n:
                    todo.append((x, ops, i, d))
                if j + 1 < len(v):
                    todo.append((v, (item,) * len(v), j + 1, d))
                x, ops, i, d = v[j], spec[2], 0, d + 1 if spec[3] else 1
                n = len(ops)
        if not todo:
            return
        x, ops, i, d = todo.pop()
        n = len(ops)


# ---------------------------------------------------------------------------
# Reader


def _read(data: bytes, ops, pos: int) -> tuple:
    """The values of the fields `ops`, read from `data` at `pos` to its end.
    The node or list being read is (build, its values so far, its ops, the
    next op, the depth of its nodes); those around it wait on a stack."""
    memo, stack, limit = {None: {}}, [], S.MAX_NESTING
    build, vals, i, d = _values, [], 0, 1
    try:
        while True:
            while i < len(ops):
                rd, sub, many, _ = ops[i]
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
                        kind = next(k for k, t in _TABLES.items() if t is sub)
                        raise CodecError(f"bad {kind} tag {data[pos]:#x}")
                    if d > limit:
                        raise CodecError(_TOO_DEEP)
                    rd, cls, sub, nests, _ = spec
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


def _encode(kind, x, d: int = 1) -> bytes:
    out = []
    _write(out, (x,), _ROOT[kind], d)
    return b"".join(out)


def _decode(kind, data: bytes):
    return _read(data, _ROOT[kind], 0)[0]


encode_term, decode_term = partial(_encode, "term"), partial(_decode, "term")
encode_formula, decode_formula = partial(_encode, "formula"), partial(_decode, "formula")
encode_evidence, decode_evidence = partial(_encode, "evidence"), partial(_decode, "evidence")
encode_clause = partial(_encode, "clause")
# The order key of each set kind that is not ordered by value.
_ORDER = {"term": encode_term, "pid": attrgetter("name")}
for _kind, _tags in FORMAT.items():
    for _tag, (_cls, _ks, *_order) in _tags.items():
        _ks, _names = _ks.split(), _order[0].split() if _order else [f.name for f in _class_fields(_cls)]
        _rd = _interned(_cls, _ks) if set(_ks) <= {"s", "b"} else None
        _build = partial(lambda c, ns, *vs: c(**dict(zip(ns, vs))), _cls, _names) if _order else _cls
        _ops = tuple(map(_op, _ks, _names))
        _TABLES[_kind][_tag] = _TABLES[_kind][_cls] = (_rd, _build, _ops, _kind in NESTED, bytes((_tag,)))
_ROOT = {kind: (_op(kind),) for kind in FORMAT}
_POLICY = tuple(map(_op, ("s", "{s}", "{s}")))  # owner, sorts, principals
_PREDICATE = tuple(map(_op, ("s", "*s")))  # name, argument sorts


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
    _write(out, (p.owner, sig.sorts, sig.principals), _POLICY)
    out.append(_U32(len(preds)))
    _write(out, [x for kv in preds for x in kv], _PREDICATE * len(preds))
    out.append(_U32(len(p.clauses)))
    out += [c.encoding for c in p.clauses]
    return b"".join(out)


def policy_digest(p: S.Policy) -> bytes:
    return sha256(encode_policy(p))


def encode_certificate(c) -> bytes:
    return MAGIC + _encode("certificate", c)


def decode_certificate(data: bytes):
    if data[:5] != MAGIC + b"\x40":
        raise CodecError("not a certificate")
    return _read(data, _ROOT["certificate"], 4)[0]
