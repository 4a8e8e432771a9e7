"""Abstract syntax: multi-sorted terms, formulas with attestation and
knowledge modalities, program clauses, and normalization into the
goal/clause fragment used by the engine.

`Var`, `Const`, `FunApp`, `Atom` and `Attest` hash once, on first use, and
`fmt_term` prints each `Const` once, since search hashes and prints them at
every step.  The values are immutable, so a cache holds what a fresh
computation gives, and TCP handler threads that race to fill one only
compute it twice."""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import attrgetter, itemgetter

from .errors import FragmentError, MacroError, SortError

BUILTIN_SORTS = ("Principal", "Time", "Nonce", "Int")

# Interpreted predicates, evaluated on ground arguments by the engine.
EQ_BUILTINS = ("=", "!=")
ORDER_BUILTINS = ("<", "<=")
BUILTIN_PREDS = EQ_BUILTINS + ORDER_BUILTINS + ("time_not_elapsed",)

# Interpreted function symbols (ground evaluation only).
BUILTIN_FUNCS = ("succ",)

MAX_NESTING = 128  # the deepest term or formula (see `nesting`) parser and codec accept


# ---------------------------------------------------------------------------
# Terms


def _hash_once(cls):
    """Give frozen dataclass `cls` the generated `__hash__`'s hash of its
    fields, computed on first use and kept in `_h`: a class attribute, not a
    field, set with `object.__setattr__` (writing `__dict__` would make the
    instance dict real and slow every attribute read)."""
    key = attrgetter(*(f.name for f in fields(cls)))

    def __hash__(self):
        h = self._h
        if h is None:
            h = hash(key(self))
            object.__setattr__(self, "_h", h)
        return h

    cls._h, cls.__hash__ = None, __hash__
    return cls


@_hash_once
@dataclass(frozen=True)
class Var:
    name: str
    sort: str

    def __repr__(self):
        return f"{self.name}:{self.sort}"


@_hash_once
@dataclass(frozen=True)
class Const:
    name: str
    sort: str

    _text = None  # printed text, kept by `fmt_term`; not a field

    def __repr__(self):
        return self.name


@_hash_once
@dataclass(frozen=True)
class FunApp:
    symbol: str
    args: tuple

    def __repr__(self):
        return f"{self.symbol}({', '.join(map(repr, self.args))})"


Term = Var | Const | FunApp


def term_sort(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.sort
    if t.symbol == "succ" and len(t.args) == 1:
        return term_sort(t.args[0])
    raise SortError(f"unknown function symbol {t.symbol}/{len(t.args)}")


def term_vars(t: Term) -> set:
    if isinstance(t, Var):
        return {t}
    if isinstance(t, Const):
        return set()
    out = set()
    for a in t.args:
        out |= term_vars(a)
    return out


def term_subst(t: Term, s: dict) -> Term:
    """Apply a Var -> Term mapping to a term."""
    if isinstance(t, Var):
        return s.get(t, t)
    if isinstance(t, Const):
        return t
    return FunApp(t.symbol, tuple(term_subst(a, s) for a in t.args))


def is_ground(t: Term) -> bool:
    return not term_vars(t)


def int_value(t: Term):
    """Numeric value of a ground Int/Time term, or None."""
    if isinstance(t, Const) and t.sort in ("Int", "Time"):
        try:
            return int(t.name)
        except ValueError:
            return None
    if isinstance(t, FunApp) and t.symbol == "succ" and len(t.args) == 1:
        v = int_value(t.args[0])
        return None if v is None else v + 1
    return None


def compare(op: str, a: Term, b: Term) -> bool:
    """Whether the comparison `a op b` holds between ground terms.  `=` and
    `!=` compare terms, reading numerals and `succ` chains by value; `<`
    and `<=` hold only between numbers."""
    va, vb = int_value(a), int_value(b)
    if op in EQ_BUILTINS:
        same = a == b or (va is not None and va == vb)
        return same == (op == "=")
    if va is None or vb is None:
        return False
    return va < vb if op == "<" else va <= vb


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@_hash_once
@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()


@_hash_once
@dataclass(frozen=True)
class Attest:
    principal: Term
    body: "Formula"


@dataclass(frozen=True)
class Knows:
    principals: frozenset  # of Term, each of sort Principal
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: Var
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: Var
    body: "Formula"


Formula = Top | Bottom | Atom | Attest | Knows | And | Or | Implies | Forall | Exists

TOP = Top()
BOTTOM = Bottom()


def free_vars(f: Formula):
    """Free variables in first-occurrence (left-to-right) order, as the keys
    of a dict: they compare and combine like a set."""
    out = {}
    _collect_free(f, (), out)
    return out.keys()


def _collect_term(t: Term, bound: tuple, out: dict):
    if isinstance(t, Var):
        if t not in bound:
            out[t] = None
    elif isinstance(t, FunApp):
        for a in t.args:
            _collect_term(a, bound, out)


def _collect_free(f: Formula, bound: tuple, out: dict):
    if isinstance(f, Atom):
        for a in f.args:
            _collect_term(a, bound, out)
    elif isinstance(f, Attest):
        _collect_term(f.principal, bound, out)
        _collect_free(f.body, bound, out)
    elif isinstance(f, Knows):
        for p in sorted(f.principals, key=repr):
            _collect_term(p, bound, out)
        _collect_free(f.body, bound, out)
    elif isinstance(f, (And, Or, Implies)):
        _collect_free(f.left, bound, out)
        _collect_free(f.right, bound, out)
    elif isinstance(f, (Forall, Exists)):
        _collect_free(f.body, bound + (f.var,), out)
    elif not isinstance(f, (Top, Bottom)):
        raise TypeError(f"not a formula: {f!r}")


def parts(x) -> tuple:
    """The terms and formulas directly inside a term, a formula or a clause."""
    if isinstance(x, (FunApp, Atom)):
        return x.args
    if isinstance(x, Attest):
        return (x.principal, x.body)
    if isinstance(x, Knows):
        return (*x.principals, x.body)
    if isinstance(x, (And, Or, Implies)):
        return (x.left, x.right)
    if isinstance(x, (Forall, Exists)):
        return (x.var, x.body)
    if isinstance(x, Clause):
        return (x.head, *x.slots)
    return ()


def const_names(x) -> set:
    """Names of the constants in a term, a formula or a clause."""
    if isinstance(x, Const):
        return {x.name}
    out = set()
    for part in parts(x):
        out |= const_names(part)
    return out


def nesting(x) -> int:
    """The number of term and formula nodes on the longest path from `x` to
    a leaf (`p(succ(0))` is 3 deep), measured without recursion."""
    deepest, todo = 0, [(x, 1)]
    while todo:
        x, d = todo.pop()
        deepest = max(deepest, d)
        todo += [(y, d + 1) for y in parts(x)]
    return deepest


def _fresh_rename(v: Var, avoid: set) -> Var:
    """The first `v'k` (k = 1, 2, ...) whose name is not in `avoid`."""
    base = v.name.split("'")[0]
    k = 1
    while f"{base}'{k}" in avoid:
        k += 1
    return Var(f"{base}'{k}", v.sort)


def substitute(f: Formula, s: dict) -> Formula:
    """Capture-avoiding substitution of free variables by terms."""
    if not s:
        return f
    if f.__class__ is Atom:  # the common case, tested first
        return Atom(f.pred, tuple([term_subst(a, s) for a in f.args]))
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Attest):
        return Attest(term_subst(f.principal, s), substitute(f.body, s))
    if isinstance(f, Knows):
        return Knows(frozenset(term_subst(p, s) for p in f.principals), substitute(f.body, s))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(substitute(f.left, s), substitute(f.right, s))
    if isinstance(f, (Forall, Exists)):
        inner = {v: t for v, t in s.items() if v != f.var}
        if not inner:
            return f
        clash = set()
        for t in inner.values():
            clash |= term_vars(t)
        var, body = f.var, f.body
        if var in clash:
            avoid = {u.name for u in free_vars(body) | clash | set(inner)}
            var = _fresh_rename(f.var, avoid)
            body = substitute(body, {f.var: var})
        return type(f)(var, substitute(body, inner))
    raise TypeError(f"not a formula: {f!r}")


def substitute1(f: Formula, x: Var, t: Term) -> Formula:
    if term_sort(t) != x.sort:
        raise SortError(f"cannot substitute {t!r} of sort {term_sort(t)} for {x!r}")
    return substitute(f, {x: t})


# ---------------------------------------------------------------------------
# Signatures and policies


@dataclass
class Signature:
    sorts: set = field(default_factory=lambda: set(BUILTIN_SORTS))
    preds: dict = field(default_factory=dict)  # name -> tuple of arg sorts
    principals: set = field(default_factory=set)  # declared principal constants
    consts: dict = field(default_factory=dict)  # name -> sort (inferred or declared)

    def copy(self) -> "Signature":
        return Signature(set(self.sorts), dict(self.preds), set(self.principals), dict(self.consts))

    def declare_sort(self, name: str):
        self.sorts.add(name)

    def declare_pred(self, name: str, arg_sorts):
        arg_sorts = tuple(arg_sorts)
        if name in BUILTIN_PREDS:
            raise SortError(f"predicate {name!r} is reserved")
        old = self.preds.get(name)
        if old is not None and old != arg_sorts:
            raise SortError(f"predicate {name!r} redeclared with different argument sorts")
        for s in arg_sorts:
            if s not in self.sorts:
                raise SortError(f"undeclared sort {s!r} in predicate {name!r}")
        self.preds[name] = arg_sorts

    def declare_principal(self, name: str):
        self.principals.add(name)
        self.note_const(name, "Principal")

    def note_const(self, name: str, sort: str):
        old = self.consts.get(name)
        if old is not None and old != sort:
            raise SortError(f"constant {name!r} used at sorts {old!r} and {sort!r}")
        self.consts[name] = sort


def _picker(picks: list):
    """The function from a tuple to the tuple of its items at `picks`."""
    if len(picks) == 1:
        return lambda t, i=picks[0]: (t[i],)
    return itemgetter(*picks) if picks else lambda t: ()


@dataclass(frozen=True)
class Clause:
    """Normalized program clause: forall universals. s1 => s2 => ... => head.

    Each curried premise is one slot; a slot written as a conjunction stays
    a single slot and is discharged by a single (pair) evidence term."""

    label: str
    universals: tuple  # of Var
    slots: tuple  # of goal Formula; empty for a fact
    head: Formula  # Atom or Attest(principal, Atom)

    # What is computed once per clause, in one attribute set with
    # `object.__setattr__`: the encoding, or (encoding or None, templates,
    # matcher) once the clause is compiled.  A cached_property stores into
    # `__dict__`, and a second attribute would make the instance dict real;
    # either slows every later attribute read on the clause.
    _cache = None
    _NO_MATCH = ((), _picker([]), 0, _picker([]))  # the matcher of a clause without universals

    @property
    def encoding(self) -> bytes:
        """The clause's canonical bytes (`codec`), computed once."""
        cache = self._cache
        encoding = cache[0] if cache.__class__ is tuple else cache
        if encoding is None:
            from . import codec

            encoding = codec.encode_clause(self)
            object.__setattr__(self, "_cache", (encoding, *cache[1:]) if cache.__class__ is tuple else encoding)
        return encoding

    def _compiled(self) -> tuple:
        """The cache as (encoding or None, templates, `matcher`), made on first use."""
        cache = self._cache
        if cache.__class__ is not tuple:
            n, at = len(self.universals), {v: i for i, v in enumerate(self.universals)}
            templates = tuple(
                _picker([at.get(a, n + j) for j, a in enumerate(f.args)])
                if f.__class__ is Atom and FunApp not in map(type, f.args) else None
                for f in (self.head, *self.slots)
            )
            h = self.head
            row = (h.principal, *h.body.args) if h.__class__ is Attest else h.args
            first = {}  # each variable's first place, None when inside a function application
            for i, t in enumerate(row, -len(row)):
                for v in term_vars(t):
                    first.setdefault(v, i if v is t else None)
            found = [first.get(v) for v in self.universals]
            places = tuple(found[:j].count(None) if p is None else p for j, p in enumerate(found))
            keep = _picker([j for j, p in enumerate(found) if p is None])
            cache = cache, templates, (places, keep, -min([0, *places]), _picker(places))
            object.__setattr__(self, "_cache", cache)
        return cache

    @property
    def matcher(self) -> tuple:
        """(places, keep, need, fill).  Per universal, its first place in the
        head row (an attestation's principal, then the atom's arguments) from
        the end, if a whole argument is there (Warren's `get_variable`), else
        its index among the arguments an application writes, `keep(args)`;
        `fill(written + row)` gives all for a goal row of `need` items or more."""
        cache = self._cache
        return cache[2] if cache.__class__ is tuple else self._compiled()[2] if self.universals else self._NO_MATCH

    def instantiate(self, args: tuple) -> tuple:
        """(head, slots) with `args` for the universals, as `substitute`
        gives them; a clause without universals is its own instance.  A
        template picks the arguments of an atom over variables and constants
        from `args` followed by the atom's own."""
        if not self.universals:
            return self.head, self.slots
        parts = [
            Atom(f.pred, pick(args + f.args)) if pick else substitute(f, dict(zip(self.universals, args)))
            for f, pick in zip((self.head, *self.slots), self._compiled()[1])
        ]
        return parts[0], tuple(parts[1:])


@dataclass(frozen=True)
class Policy:
    """One owner's program: its signature and its clauses in textual order.

    Immutable: any iterable of clauses is stored as a tuple, and the digest
    is computed once, on first use.  The signature is shared, not copied;
    callers that extend a signature work on `Signature.copy()`."""

    owner: str
    signature: Signature
    clauses: tuple  # of Clause
    source: str = ""  # the text it was parsed from; not part of the digest

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(self.clauses))

    @cached_property
    def digest(self) -> bytes:
        from . import codec

        return codec.policy_digest(self)

    @cached_property
    def names(self) -> frozenset:
        """The owner's name and those of the constants the clauses mention,
        which no eigenvariable under this policy's clauses may take."""
        return frozenset({self.owner}.union(*map(const_names, self.clauses)))


COMMON = "common"  # owner of the policy that every principal shares


def knows_owners(principals) -> set:
    """Owners whose policies a `knows {principals}` goal admits: the
    constant principals, and the common policy."""
    return {p.name for p in principals if isinstance(p, Const)} | {COMMON}


def proved_head(head: Formula, owner: str | None, goal: Formula) -> Formula:
    """What a clause of `owner`'s policy (None: a hypothesis) with head
    instantiated as `head` proves toward `goal`: the head, or for an
    attestation goal an owner's bare head attested by the owner.  The common
    policy's bare heads and a hypothesis's attest nothing."""
    if goal.__class__ is Attest and head.__class__ is Atom and owner not in (None, COMMON):
        return Attest(Const(owner, "Principal"), head)
    return head


# ---------------------------------------------------------------------------
# Normalization

# Rewrites applied to a fixpoint:
#   <K>(p /\ q)      ->  <K>p /\ <K>q
#   <K>(Qx. p)       ->  Qx. <K>p         (K does not capture x)
#   <K><K>p          ->  <K>p
#   <L><K>a          ->  <K>a             (premise strengthening via the unit law)
# <K>(G => a) is rewritten to (G => <K>a) only in clause-head position,
# which happens in to_clauses below.


def normalize(f: Formula) -> Formula:
    if isinstance(f, (Top, Bottom, Atom)):
        return f
    if isinstance(f, (And, Or, Implies)):
        return type(f)(normalize(f.left), normalize(f.right))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, normalize(f.body))
    if isinstance(f, Knows):
        return Knows(f.principals, normalize(f.body))
    if isinstance(f, Attest):
        body = normalize(f.body)
        if isinstance(body, And):
            return normalize(And(Attest(f.principal, body.left), Attest(f.principal, body.right)))
        if isinstance(body, (Forall, Exists)):
            if body.var in term_vars(f.principal):
                raise FragmentError("attesting principal captured by quantifier")
            return type(body)(body.var, normalize(Attest(f.principal, body.body)))
        if isinstance(body, Attest):
            if body.principal == f.principal:
                return body
            if isinstance(body.body, Atom):
                # Strengthen <L><K>a to <K>a: sound for goals and clause
                # premises since <K>a implies <L><K>a by the unit law.
                return body
        return Attest(f.principal, body)
    raise TypeError(f"not a formula: {f!r}")


def is_atomic_goal(f: Formula) -> bool:
    """Atom or atomic attestation, the Atom category of the goal grammar."""
    if isinstance(f, Atom):
        return True
    return isinstance(f, Attest) and isinstance(f.body, Atom)


def validate_goal(f: Formula):
    """Raise FragmentError unless f conforms to the goal grammar."""
    if isinstance(f, Top):
        return
    if isinstance(f, Bottom):
        raise FragmentError("false is not a goal")
    if is_atomic_goal(f):
        return
    if isinstance(f, Attest):
        raise FragmentError(f"non-atomic attestation in goal position: {fmt_formula(f)}")
    if isinstance(f, Knows):
        validate_goal(f.body)
        return
    if isinstance(f, (And, Or)):
        validate_goal(f.left)
        validate_goal(f.right)
        return
    if isinstance(f, Implies):
        clauses_of(f.left, "hyp")  # left side must be a program
        validate_goal(f.right)
        return
    if isinstance(f, (Forall, Exists)):
        validate_goal(f.body)
        return
    raise FragmentError(f"not a goal: {f!r}")


def _head_form(f: Formula):
    """Split a quantifier-free formula into (premise_slots, atomic_head)."""
    slots = []
    while True:
        if isinstance(f, Implies):
            slots.append(f.left)
            f = f.right
        elif isinstance(f, Attest) and isinstance(f.body, Implies):
            # derived rule: <K>(G => a) acts as G => <K>a
            inner = f.body
            slots.append(inner.left)
            f = normalize(Attest(f.principal, inner.right))
        else:
            break
    if isinstance(f, Atom):
        if f.pred in BUILTIN_PREDS:
            raise FragmentError(f"builtin {f.pred!r} cannot head a clause")
        return slots, f
    if isinstance(f, Attest) and isinstance(f.body, Atom):
        if f.body.pred in BUILTIN_PREDS:
            raise FragmentError(f"builtin {f.body.pred!r} cannot head a clause")
        return slots, f
    raise FragmentError(f"clause head is not atomic: {fmt_formula(f)}")


def clauses_of(f: Formula, label: str) -> list:
    """Normalize a formula into program clauses (the D grammar).  Each
    clause binds each of its universals once, and the clause of a
    conjunct (`<label>_<i>`) only those outside the conjunction that its
    head or slots mention."""
    f = normalize(f)
    universals = []
    while isinstance(f, Forall):
        if f.var not in universals:
            universals.append(f.var)
        f = f.body
    if isinstance(f, And):
        out = []
        for i, part in enumerate(flatten_and(f)):
            for c in clauses_of(part, f"{label}_{i + 1}"):
                outer = [v for v in universals if v not in c.universals]
                if outer:
                    used = set().union(*map(free_vars, (c.head, *c.slots)))
                    outer = [v for v in outer if v in used]
                out.append(Clause(c.label, (*outer, *c.universals), c.slots, c.head))
        return out
    slots, head = _head_form(f)
    slots = tuple(normalize(s) for s in slots)
    for s in slots:
        validate_goal(s)
    return [Clause(label, tuple(universals), slots, head)]


def flatten_and(f: Formula) -> list:
    if isinstance(f, And):
        return flatten_and(f.left) + flatten_and(f.right)
    return [f]


# ---------------------------------------------------------------------------
# Macros

# Argument shapes of each macro: "P" a principal term, "T" a Time term,
# "pred" a predicate name, "atom" an atom.
MACROS = {
    "delegate": ("P", "P", "pred"),
    "delegate_indirect": ("P", "P", "pred"),
    "revocable_delegate": ("P", "P", "pred"),
    "past": ("T",),
    "future": ("T",),
    "curr": ("T",),
    "attest_after": ("P", "T", "atom"),
    "attest_before": ("T", "atom"),
}

TIME_SOURCE = Const("T", "Principal")


def _close_forall(binders, f: Formula) -> Formula:
    for v in reversed(binders):
        f = Forall(v, f)
    return f


def expand_macro(name: str, args: tuple, sig: Signature, scope=()) -> Formula:
    """The core formula that a macro call abbreviates, over the declared
    predicates.  `args` follow the shapes in MACROS.  `revocable_delegate`
    and `attest_before` declare the predicates they introduce in `sig` on
    every call, so an earlier declaration that clashes raises SortError.

    The expansion's own binders (`x1`, ..., `M`, `t`, `s`) are hygienic: one
    whose name is in `scope` (the variable names visible at the call) or
    is a constant of `sig` is renamed `<name>_<k>`, so it captures nothing
    the arguments mention."""
    taken = set(scope) | set(sig.consts)

    def binder(base: str, sort: str) -> Var:
        name, k = base, 0
        while name in taken:
            k += 1
            name = f"{base}_{k}"
        taken.add(name)
        return Var(name, sort)

    if name in ("delegate", "delegate_indirect", "revocable_delegate"):
        k, l, pred = args
        if pred not in sig.preds:
            raise MacroError(f"macro over undeclared predicate {pred!r}")
        xs = tuple(binder(f"x{i + 1}", s) for i, s in enumerate(sig.preds[pred]))
        p = Atom(pred, xs)
    if name == "delegate":
        return _close_forall(xs, Attest(k, Implies(Attest(l, p), p)))
    if name == "delegate_indirect":
        mv = binder("M", "Principal")
        # The indirect-delegation schema, pre-applied with the derived
        # implication rule so the inner <L>(...) premise stays in the fragment.
        body = And(Attest(mv, p), Implies(Attest(mv, p), Attest(l, p)))
        return _close_forall(xs + (mv,), Attest(k, Implies(body, p)))
    if name == "revocable_delegate":
        if not xs or xs[-1].sort != "Time":
            raise MacroError(f"revocable_delegate needs {pred!r} to end in a Time argument")
        sig.declare_pred("notRevoked", ("Principal", "Time"))
        t = binder("t", "Time")
        premise = And(
            Attest(l, p),
            And(Attest(k, Atom("notRevoked", (l, t))), Atom("<", (xs[-1], t))),
        )
        return _close_forall(xs + (t,), Attest(k, Implies(premise, p)))
    if name == "past":
        s = binder("s", "Time")
        return Exists(s, And(Atom("<", (args[0], s)), Attest(TIME_SOURCE, Atom("time", (s,)))))
    if name == "future":
        # Constructive negation is out of reach of goal-directed search; the
        # trusted time source answers this builtin against its closed log.
        return Atom("time_not_elapsed", (args[0],))
    if name == "curr":
        t = args[0]
        return And(
            Attest(TIME_SOURCE, Atom("time", (t,))),
            Atom("time_not_elapsed", (FunApp("succ", (t,)),)),
        )
    if name == "attest_after":
        k, t, atom = args
        return And(Attest(k, atom), Attest(TIME_SOURCE, Atom("time", (t,))))
    if name == "attest_before":
        t, atom = args
        if atom.pred not in sig.preds:
            raise MacroError(f"macro over undeclared predicate {atom.pred!r}")
        before = f"before_{atom.pred}"
        sig.declare_pred(before, sig.preds[atom.pred] + ("Time",))
        return Attest(TIME_SOURCE, Atom(before, atom.args + (t,)))
    raise MacroError(f"unknown macro {name!r}")


# ---------------------------------------------------------------------------
# Pretty printing (inverse of the parser)

KEYWORDS = frozenset(
    ("sort", "pred", "principal", "const", "forall", "exists", "says", "knows", "true", "false")
)
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # also the parser's identifier token


def fmt_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        if t._text is None:  # bare only where the parser reads the text back as this constant
            n, name = int_value(t), t.name
            bare = (n is not None and str(n) == name) or (
                IDENT.fullmatch(name) and name not in KEYWORDS and name not in MACROS
            )
            object.__setattr__(t, "_text", name if bare else f'"{name}"')
        return t._text
    return f"{t.symbol}({', '.join(fmt_term(a) for a in t.args)})"


_INFIX = {"=", "!=", "<", "<="}


def fmt_formula(f: Formula, prec: int = 0) -> str:
    # precedence: 0 =>, 1 \/, 2 /\, 3 atoms/quantifiers
    def wrap(s, p):
        return f"({s})" if p < prec else s

    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Atom):
        if f.pred in _INFIX:
            return f"{fmt_term(f.args[0])} {f.pred} {fmt_term(f.args[1])}"
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(fmt_term(a) for a in f.args)})"
    if isinstance(f, Attest):
        body = f.body
        if isinstance(body, Atom) and body.pred not in _INFIX:
            return f"{fmt_term(f.principal)} says {fmt_formula(body, 3)}"
        return f"{fmt_term(f.principal)} says ({fmt_formula(body, 0)})"
    if isinstance(f, Knows):
        names = ", ".join(sorted(fmt_term(p) for p in f.principals))
        return wrap(f"knows {{{names}}} {fmt_formula(f.body, 3)}", 3)
    # The parser reads `/\` and `\/` chains left-nested, so a nested
    # conjunction keeps its parentheses on either side and a nested
    # disjunction on the right.
    if isinstance(f, And):
        return wrap(f"{fmt_formula(f.left, 3)} /\\ {fmt_formula(f.right, 3)}", 2)
    if isinstance(f, Or):
        return wrap(f"{fmt_formula(f.left, 2)} \\/ {fmt_formula(f.right, 2)}", 1)
    if isinstance(f, Implies):
        return wrap(f"{fmt_formula(f.left, 1)} => {fmt_formula(f.right, 0)}", 0)
    if isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        binders = []
        while isinstance(f, (Forall, Exists)) and (
            (kw == "forall") == isinstance(f, Forall)
        ):
            binders.append(f"{f.var.name}:{f.var.sort}")
            f = f.body
        return wrap(f"{kw} {', '.join(binders)}. {fmt_formula(f, 0)}", 0)
    raise TypeError(f"not a formula: {f!r}")


def fmt_clause(c: Clause) -> str:
    parts = [f"{c.label}:"]
    if c.universals:
        binders = ", ".join(f"{v.name}:{v.sort}" for v in c.universals)
        parts.append(f"forall {binders}.")
    for s in c.slots:
        parts.append(f"{fmt_formula(s, 1)} =>")
    parts.append(fmt_formula(c.head, 3))
    return " ".join(parts) + "."
