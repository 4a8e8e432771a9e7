"""Concrete syntax for policy files and queries.

Policy grammar (UTF-8, `#` comments):

    decl    := "sort" IDENT "." | "pred" IDENT "(" sortlist ")" "."
             | "principal" IDENT ("," IDENT)* "." | "const" IDENT ":" IDENT "."
    clause  := LABEL ":" formula "."
    formula := "forall"/"exists" binders "." formula
             | formula "=>" formula | formula "\\/" formula | formula "/\\" formula
             | IDENT "says" atom | IDENT "says" "(" formula ")"
             | "knows" "{" identlist "}" unit | term CMP term | atom
             | "true" | "false" | "(" formula ")"

Undeclared identifiers in policies become constants (sort inferred from the
predicate position); in queries they become free variables, reported in
first-occurrence order and treated as existentially closed.

The parser is the only sort checker: it gives every term its sort as it
resolves it, against the signature and the binders in scope, and raises
SortError at the first term, atom or macro that does not fit.  Nothing
checks a parsed formula a second time.
"""

from __future__ import annotations

import re
from collections import deque

from .errors import ParseError, SortError
from . import syntax as S

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<op>=>|/\\|\\/|!=|<=|[=<(){},.:])
  | (?P<int>-?\d+)
  | (?P<str>"[^"\n]*")
  | (?P<ident>"""
    + S.IDENT.pattern
    + """)
    """,
    re.VERBOSE,
)

_CMP_OPS = ("=", "!=", "<", "<=")
_TOO_DEEP = f"nested deeper than {S.MAX_NESTING} levels"


def _scan(text: str):
    """The tokens of `text` as (kind, lexeme, line, column), whitespace and
    comments left out, then ("eof", "", line, column) without end.  Raises
    at the first character that starts no token."""
    line, col = 1, 1
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind, lexeme = m.lastgroup, m.group()
        if kind != "ws":
            yield kind, lexeme, line, col
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line, col)
    eof = ("eof", "", line, col)
    while True:
        yield eof


class _Lexer:
    """The tokens of `text`, made as they are read, so that parsing a policy
    of thousands of clauses never holds all of its tokens at once.  Leaving
    it as a context makes the rest: a character that starts no token is the
    error wherever it is, as if every token had been made first."""

    def __init__(self, text: str):
        self.toks = _scan(text)
        self.buf = deque()  # tokens made and not yet read
        self.i = 0  # tokens read

    def peek(self, ahead: int = 0):
        while len(self.buf) <= ahead:
            self.buf.append(next(self.toks))
        return self.buf[ahead]

    def next(self):
        tok = self.peek()
        if tok[0] != "eof":
            self.buf.popleft()
            self.i += 1
        return tok

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for kind, *_ in self.toks:  # raises at a character that starts no token
            if kind == "eof":
                break

    def expect(self, lexeme: str):
        kind, lex, line, col = self.next()
        if lex != lexeme or kind == "eof":
            raise ParseError(f"expected {lexeme!r}, found {lex or 'end of input'!r}", line, col)

    def error(self, msg: str):
        _, _, line, col = self.peek()
        raise ParseError(msg, line, col)


# raw term shapes produced before sort resolution
# ("name", s) | ("int", n) | ("str", s) | ("app", fn, raw)


class _Parser:
    def __init__(self, text: str, sig: S.Signature, query_mode: bool):
        self.lx = _Lexer(text)
        self.sig = sig
        self.query_mode = query_mode
        self.scope = {}  # binder name -> sort
        self.free = {}  # query-mode free variable name -> sort (insertion ordered)
        self.depth = 0  # levels of nested text being read
        self.macros = 0  # macro calls read
        self.consts = {}  # (name, sort) -> the one Const for it in this text

    def nest(self, step: int):
        """Enter (1) or leave (-1) a level of nested text: a formula, a `knows` body, a `succ` argument."""
        self.depth += step
        if self.depth > S.MAX_NESTING:
            self.lx.error(_TOO_DEEP)

    # -- raw term layer ----------------------------------------------------

    def parse_raw_term(self):
        kind, lex, line, col = self.lx.next()
        if kind == "int":
            return ("int", int(lex))
        if kind == "str":
            return ("str", lex[1:-1])
        if kind == "ident":
            if self.lx.peek()[1] == "(" and lex in S.BUILTIN_FUNCS:
                self.lx.next()
                self.nest(1)
                arg = self.parse_raw_term()
                self.nest(-1)
                if self.lx.peek()[1] != ")":
                    raise ParseError(f"{lex} takes exactly one argument", line, col)
                self.lx.next()
                return ("app", lex, arg)
            return ("name", lex)
        raise ParseError(f"expected a term, found {lex!r}", line, col)

    def raw_sort(self, raw):
        """Best-effort sort of a raw term without an expected sort, or None."""
        kind = raw[0]
        if kind == "int":
            return None  # Int or Time, caller decides
        if kind == "str":
            return None
        if kind == "app":
            return self.raw_sort(raw[2])
        name = raw[1]
        if name in self.scope:
            return self.scope[name]
        if name in self.free:
            return self.free[name]
        return self.sig.consts.get(name)

    def resolve(self, raw, expected: str):
        kind = raw[0]
        if kind == "int":
            if expected not in ("Int", "Time"):
                raise SortError(f"integer literal where sort {expected!r} is expected")
            return self.const(str(raw[1]), expected)
        if kind == "str":
            self.sig.note_const(raw[1], expected)
            return self.const(raw[1], expected)
        if kind == "app":
            if expected not in ("Int", "Time"):
                raise SortError(f"succ(..) where sort {expected!r} is expected")
            return S.FunApp(raw[1], (self.resolve(raw[2], expected),))
        name = raw[1]
        if name in self.scope:
            if self.scope[name] != expected:
                raise SortError(
                    f"variable {name!r} has sort {self.scope[name]!r}, expected {expected!r}"
                )
            return S.Var(name, expected)
        if name in self.sig.consts:
            if self.sig.consts[name] != expected:
                raise SortError(
                    f"constant {name!r} has sort {self.sig.consts[name]!r}, expected {expected!r}"
                )
            return self.const(name, expected)
        if self.query_mode:
            got = self.free.setdefault(name, expected)
            if got != expected:
                raise SortError(f"variable {name!r} used at sorts {got!r} and {expected!r}")
            return S.Var(name, expected)
        if expected not in self.sig.sorts:
            raise SortError(f"undeclared sort {expected!r}")
        self.sig.note_const(name, expected)
        return self.const(name, expected)

    def const(self, name: str, sort: str) -> S.Const:
        """One `Const` per constant of the text, however often it is named:
        a policy names each of its constants many times, and each `Const`
        keeps its hash and printed text once computed."""
        c = self.consts.get((name, sort))
        if c is None:
            c = self.consts[name, sort] = S.Const(name, sort)
        return c

    def resolve_principal(self, raw):
        return self.resolve(raw, "Principal")

    # -- formulas ----------------------------------------------------------

    def parse_formula(self):
        """A formula.  A whole one (in no other) nests at most MAX_NESTING deep,
        chains of `/\\` included; it has no more nodes than tokens unless a
        macro expands in it, so a short one without macros is not measured."""
        kind, lex, line, col = self.lx.peek()
        start, macros = self.lx.i, self.macros
        self.nest(1)
        if lex in ("forall", "exists"):
            self.lx.next()
            binders = self.parse_binders()
            saved = {v.name: self.scope.get(v.name) for v in binders}
            for v in binders:
                self.scope[v.name] = v.sort
            f = self.parse_formula()
            for name, old in saved.items():
                if old is None:
                    del self.scope[name]
                else:
                    self.scope[name] = old
            ctor = S.Forall if lex == "forall" else S.Exists
            for v in reversed(binders):
                f = ctor(v, f)
        else:
            f = self.parse_or()
            if self.lx.peek()[1] == "=>":
                self.lx.next()
                f = S.Implies(f, self.parse_formula())
        self.nest(-1)
        if not self.depth and (self.lx.i - start > S.MAX_NESTING or self.macros > macros):
            if S.nesting(f) > S.MAX_NESTING:
                raise ParseError(_TOO_DEEP, line, col)
        return f

    def parse_binders(self):
        binders, pending = [], []
        while True:
            kind, lex, line, col = self.lx.next()
            if kind != "ident":
                raise ParseError(f"expected a binder name, found {lex!r}", line, col)
            pending.append(lex)
            nxt = self.lx.next()[1]
            if nxt == ",":
                continue
            if nxt != ":":
                self.lx.error("expected ':' in binder list")
            skind, sort, sline, scol = self.lx.next()
            if skind != "ident":
                raise ParseError("expected a sort name", sline, scol)
            if sort not in self.sig.sorts:
                raise SortError(f"undeclared sort {sort!r}")
            binders.extend(S.Var(n, sort) for n in pending)
            pending = []
            nxt = self.lx.peek()[1]
            if nxt == ",":
                self.lx.next()
                continue
            self.lx.expect(".")
            return binders

    def parse_or(self):
        f = self.parse_and()
        while self.lx.peek()[1] == "\\/":
            self.lx.next()
            f = S.Or(f, self.parse_and())
        return f

    def parse_and(self):
        f = self.parse_unit()
        while self.lx.peek()[1] == "/\\":
            self.lx.next()
            f = S.And(f, self.parse_unit())
        return f

    def parse_unit(self):
        kind, lex, line, col = self.lx.peek()
        if lex == "(":
            self.lx.next()
            f = self.parse_formula()
            self.lx.expect(")")
            return f
        if lex == "true":
            self.lx.next()
            return S.TOP
        if lex == "false":
            self.lx.next()
            return S.BOTTOM
        if lex in ("forall", "exists"):
            return self.parse_formula()
        if lex == "knows":
            self.lx.next()
            self.lx.expect("{")
            principals = []
            if self.lx.peek()[1] != "}":
                principals.append(self.resolve_principal(self.parse_raw_term()))
                while self.lx.peek()[1] == ",":
                    self.lx.next()
                    principals.append(self.resolve_principal(self.parse_raw_term()))
            self.lx.expect("}")
            self.nest(1)
            body = self.parse_unit()
            self.nest(-1)
            return S.Knows(frozenset(principals), body)
        if kind == "ident" and self.lx.peek(1)[1] == "says":
            princ = self.resolve_principal(self.parse_raw_term())
            self.lx.next()  # says
            if self.lx.peek()[1] == "(":
                self.lx.next()
                body = self.parse_formula()
                self.lx.expect(")")
            else:
                body = self.parse_atom_or_cmp()
            return S.Attest(princ, body)
        if kind == "ident" and lex in S.MACROS:
            return self.parse_macro()
        return self.parse_atom_or_cmp()

    def parse_atom_or_cmp(self):
        kind, lex, line, col = self.lx.peek()
        if kind == "ident" and self.lx.peek(1)[1] == "(" and lex not in S.BUILTIN_FUNCS:
            return self.parse_atom()
        raw = self.parse_raw_term()
        op = self.lx.peek()[1]
        if op in _CMP_OPS:
            self.lx.next()
            raw2 = self.parse_raw_term()
            sort = self.raw_sort(raw) or self.raw_sort(raw2)
            if sort is None:
                if raw[0] == "int" or raw2[0] == "int":
                    sort = "Int"
                else:
                    raise SortError(f"cannot infer the sort of {op!r} comparison operands")
            if op in S.ORDER_BUILTINS and sort not in ("Int", "Time"):
                raise SortError(f"{op!r} is only defined on Int and Time")
            return S.Atom(op, (self.resolve(raw, sort), self.resolve(raw2, sort)))
        if raw[0] == "name":
            name = raw[1]
            if name in self.sig.preds and not self.sig.preds[name]:
                return S.Atom(name, ())
            raise ParseError(f"expected a formula, found bare term {name!r}", line, col)
        raise ParseError("expected a formula", line, col)

    def parse_atom(self):
        kind, pred, line, col = self.lx.next()
        if pred not in self.sig.preds and pred != "time_not_elapsed":
            raise SortError(f"undeclared predicate {pred!r}")
        self.lx.expect("(")
        raws = []
        if self.lx.peek()[1] != ")":
            raws.append(self.parse_raw_term())
            while self.lx.peek()[1] == ",":
                self.lx.next()
                raws.append(self.parse_raw_term())
        self.lx.expect(")")
        expected = ("Time",) if pred == "time_not_elapsed" else self.sig.preds[pred]
        if len(raws) != len(expected):
            raise SortError(
                f"predicate {pred!r} expects {len(expected)} arguments, got {len(raws)}"
            )
        return S.Atom(pred, tuple(self.resolve(r, s) for r, s in zip(raws, expected)))

    def parse_macro(self):
        """Read a macro call and return its expansion."""
        name = self.lx.next()[1]
        self.macros += 1
        self.lx.expect("(")
        args = []
        for i, shape in enumerate(S.MACROS[name]):
            if i:
                self.lx.expect(",")
            if shape == "P":
                args.append(self.resolve_principal(self.parse_raw_term()))
            elif shape == "T":
                args.append(self.resolve(self.parse_raw_term(), "Time"))
            elif shape == "pred":
                args.append(self._ident("predicate name"))
            else:  # atom
                args.append(self.parse_atom())
        self.lx.expect(")")
        return S.expand_macro(name, tuple(args), self.sig, self.scope.keys() | self.free.keys())

    # -- declarations and clauses -----------------------------------------

    def parse_policy(self, owner: str, source: str) -> S.Policy:
        clauses = []
        labels = set()
        while True:
            kind, lex, line, col = self.lx.peek()
            if kind == "eof":
                break
            if lex == "sort":
                self.lx.next()
                name = self._ident("sort name")
                self.sig.declare_sort(name)
                self.lx.expect(".")
            elif lex == "pred":
                self.lx.next()
                name = self._ident("predicate name")
                self.lx.expect("(")
                sorts = []
                if self.lx.peek()[1] != ")":
                    sorts.append(self._ident("sort name"))
                    while self.lx.peek()[1] == ",":
                        self.lx.next()
                        sorts.append(self._ident("sort name"))
                self.lx.expect(")")
                self.sig.declare_pred(name, sorts)
                self.lx.expect(".")
            elif lex == "const":
                self.lx.next()
                name = self._ident("constant name")
                self.lx.expect(":")
                sort = self._ident("sort name")
                if sort not in self.sig.sorts:
                    raise SortError(f"undeclared sort {sort!r}")
                self.sig.note_const(name, sort)
                self.lx.expect(".")
            elif lex == "principal":
                self.lx.next()
                self.sig.declare_principal(self._ident("principal name"))
                while self.lx.peek()[1] == ",":
                    self.lx.next()
                    self.sig.declare_principal(self._ident("principal name"))
                self.lx.expect(".")
            elif kind == "ident" and self.lx.peek(1)[1] == ":":
                label = self.lx.next()[1]
                if label in labels:
                    raise ParseError(f"duplicate clause label {label!r}", line, col)
                labels.add(label)
                self.lx.next()  # :
                f = self.parse_formula()
                self.lx.expect(".")
                for c in S.clauses_of(f, label):
                    clauses.append(c)
            else:
                raise ParseError(f"expected a declaration or clause, found {lex!r}", line, col)
        return S.Policy(owner, self.sig, clauses, source)

    def _ident(self, what: str) -> str:
        kind, lex, line, col = self.lx.next()
        if kind != "ident" or lex in S.KEYWORDS:
            raise ParseError(f"expected a {what}, found {lex!r}", line, col)
        return lex


def base_signature() -> S.Signature:
    sig = S.Signature()
    sig.declare_principal("T")  # trusted time source
    sig.declare_principal("N")  # nonce service
    sig.declare_pred("time", ("Time",))
    sig.declare_pred("nonce", ("Nonce",))
    return sig


def parse_policy(text: str, owner: str = "", sig: S.Signature | None = None) -> S.Policy:
    """Parse, macro-expand, sort-check and normalize a policy file."""
    p = _Parser(text, sig.copy() if sig else base_signature(), query_mode=False)
    with p.lx:
        return p.parse_policy(owner, text)


def parse_goal(text: str, sig: S.Signature):
    """Parse a query.  Returns (goal, free_vars) with free variables in
    first-occurrence order; they are treated as existentially closed."""
    p = _Parser(text, sig.copy(), query_mode=True)
    with p.lx:
        f = p.parse_formula()
        kind, lex, line, col = p.lx.peek()
        if kind != "eof" and lex != ".":
            raise ParseError(f"trailing input {lex!r}", line, col)
    f = S.normalize(f)
    S.validate_goal(f)
    return f, [S.Var(n, s) for n, s in p.free.items()]
