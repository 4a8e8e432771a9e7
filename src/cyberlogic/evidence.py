"""Evidence terms, certificates, and the independent checker.

Evidence is a proof skeleton in the Brouwer-Heyting-Kolmogorov reading:
each connective of the proved formula has a matching evidence constructor,
clause applications name the applied clause by its position in the policy
its digest pins (a hypothesis clause, with no digest, by its label), and
leaves are signed attestations or receipts for interpreted predicates.
`check` replays a certificate against pinned policies and public keys
without any proof search.
"""

from __future__ import annotations

import types
from collections import namedtuple
from dataclasses import dataclass, fields

from . import syntax as S
from .crypto import Directory, PrincipalId, SignedAttestation


# ---------------------------------------------------------------------------
# Evidence constructors


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class PairEv:
    left: "Evidence"
    right: "Evidence"


@dataclass(frozen=True)
class Inl:
    body: "Evidence"


@dataclass(frozen=True)
class Inr:
    body: "Evidence"


@dataclass(frozen=True)
class Witness:
    term: object  # S.Term
    body: "Evidence"


@dataclass(frozen=True)
class Abstraction:
    """Binder evidence: for a universal goal `var` names the fresh constant
    the body was proved at; for an implication goal it labels the assumed
    hypothesis clauses."""

    var: str
    body: "Evidence"


@dataclass(frozen=True)
class ClauseApp:
    """Backchaining step.  `policy_digest` pins the policy the clause came
    from, and `ref` is the clause's index in that policy's `clauses`; with
    no digest, `ref` is the label of a session hypothesis, looked up in the
    environment.  `args` instantiate the universals the head does not fix
    (the checker reads the others off the goal), in binder order;
    `premises` hold one evidence term per premise slot of the instantiated
    clause, in order."""

    ref: int | str
    policy_digest: bytes | None
    args: tuple = ()
    premises: tuple = ()


@dataclass(frozen=True)
class AttLeaf:
    attestation: SignedAttestation


@dataclass(frozen=True)
class TheoryHole:
    """Interpreted predicate discharged outside the logic.  Comparisons are
    re-evaluated by the checker; `time_not_elapsed` carries a signed clock
    receipt instead, since it cannot be re-evaluated later."""

    pred: str
    args: tuple = ()
    receipt: SignedAttestation | None = None


@dataclass(frozen=True)
class KnowsWrap:
    principals: frozenset  # of S.Term
    body: "Evidence"


Evidence = (
    Unit
    | PairEv
    | Inl
    | Inr
    | Witness
    | Abstraction
    | ClauseApp
    | AttLeaf
    | TheoryHole
    | KnowsWrap
)


def _flat(e) -> tuple:
    """Evidence tree `e` in pre-order, without recursion: each evidence node
    and tuple as (its class, its number of parts), any other value as
    itself.  Two trees are equal exactly when these are."""
    out, todo = [], [e]
    while todo:
        x = todo.pop()
        if x.__class__ is tuple or x.__class__ in _NODE_CLASSES:
            parts = x if x.__class__ is tuple else [getattr(x, f.name) for f in fields(x)]
            out.append((x.__class__, len(parts)))
            todo += reversed(parts)
        else:
            out.append(x)
    return tuple(out)


class _Shown(str):
    """Text that is its own `repr`: an evidence node's, inside its parent's."""

    __repr__ = str.__str__


def _repr(e) -> str:
    """The dataclass-generated `repr` of `e`, built without recursion."""

    def show(x, kids):
        kids = iter(kids)
        part = lambda v: next(kids) if v.__class__ in _NODE_CLASSES else v
        values = [getattr(x, f.name) for f in fields(x)]
        values = [tuple(map(part, v)) if v.__class__ is tuple else part(v) for v in values]
        args = ", ".join(f"{f.name}={v!r}" for f, v in zip(fields(x), values))
        return _Shown(f"{x.__class__.__qualname__}({args})")

    return str(fold(e, show))


# Evidence from a peer can nest thousands of levels deep, and the generated
# `__eq__`, `__hash__` and `__repr__` take a Python frame per level.
_NODE_CLASSES = frozenset(Evidence.__args__)
for _cls in _NODE_CLASSES:
    _cls.__eq__ = lambda a, b: _flat(a) == _flat(b) if b.__class__ is a.__class__ else NotImplemented
    _cls.__hash__ = lambda e: hash(_flat(e))
    _cls.__repr__ = _repr


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class Certificate:
    root_formula: object  # S.Formula
    root_evidence: Evidence
    policy_digests: frozenset = frozenset()
    directory: frozenset = frozenset()  # of PrincipalId
    created_at: SignedAttestation | None = None

    # Certificates have no shared-subtree store; txnbench/run.py still
    # reads `cert.store`, so it stays an empty, read-only mapping.
    store = types.MappingProxyType({})


def children(e: Evidence) -> tuple:
    """Sub-evidence of a node, in encoding order.  Outside `codec.FORMAT`, this
    and `rebuild` are the only code that knows which fields hold sub-evidence."""
    if isinstance(e, PairEv):
        return (e.left, e.right)
    if isinstance(e, (Inl, Inr, Witness, Abstraction, KnowsWrap)):
        return (e.body,)
    if isinstance(e, ClauseApp):
        return e.premises
    return ()


def rebuild(e: Evidence, kids, term) -> Evidence:
    """`e` with its sub-evidence replaced by `kids`, given in `children`
    order, and each term `t` of a witness, clause or receipt by `term(t)`."""
    if isinstance(e, ClauseApp):
        return ClauseApp(e.ref, e.policy_digest, tuple(map(term, e.args)), tuple(kids))
    if isinstance(e, PairEv):
        return PairEv(kids[0], kids[1])
    if isinstance(e, (Inl, Inr)):
        return type(e)(kids[0])
    if isinstance(e, Witness):
        return Witness(term(e.term), kids[0])
    if isinstance(e, Abstraction):
        return Abstraction(e.var, kids[0])
    if isinstance(e, KnowsWrap):
        return KnowsWrap(e.principals, kids[0])
    if isinstance(e, TheoryHole):
        return TheoryHole(e.pred, tuple(map(term, e.args)), e.receipt)
    return e


def nodes(e: Evidence):
    """Every node of `e` in pre-order."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(reversed(children(x)))


def fold(e: Evidence, f):
    """The result for `e` of `f(node, results for its children)`, children first, without recursion."""
    out, todo = [], [e]
    while todo:
        x = todo.pop()
        if x.__class__ is not tuple:
            kids = children(x)
            todo.append((x, len(kids)))
            todo += reversed(kids)
            continue
        x, n = x
        kids = out[len(out) - n :]
        del out[len(out) - n :]
        out.append(f(x, kids))
    return out[0]


# ---------------------------------------------------------------------------
# Hypothesis environments


class HypothesisEnv:
    """Immutable map from hypothesis label to assumed clause; `clauses` is a tuple of them, built once."""

    def __init__(self, clauses=None):
        self._clauses: dict[str, S.Clause] = dict(clauses or {})
        self.clauses = tuple(self._clauses.values())

    def extend(self, clauses) -> "HypothesisEnv":
        merged = dict(self._clauses)
        for c in clauses:
            merged[c.label] = c
        return HypothesisEnv(merged)

    def clause(self, label: str) -> S.Clause | None:
        return self._clauses.get(label)


# ---------------------------------------------------------------------------
# The checker


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: tuple = ()
    reason: str | None = None

    def __bool__(self):
        return self.ok


def _items(linked) -> tuple:
    """The items of a linked list, first to last: () when empty, else
    (the list before the last item, the last item).  Paths are such lists."""
    items = []
    while linked:
        linked, x = linked
        items.append(x)
    return tuple(reversed(items))


def _nok(path, reason) -> CheckResult:
    return CheckResult(False, _items(path), reason)


_OK = CheckResult(True)


# A clause application under a policy known only by its owner record:
# `node`, at `path`, must prove `goal` inside `scope`, the (formula,
# evidence) pairs, outermost first, of the implications that assume the
# hypotheses in scope and of the `knows` restrictions around it, with the
# names in `eigens` as the eigenvariables in scope.
Obligation = namedtuple("Obligation", "path node goal scope eigens")


def _settled(result: CheckResult, obligations) -> CheckResult:
    """`result`, or a failure at the first obligation: its policy is unknown here."""
    if not obligations:
        return result
    o = obligations[0]
    return CheckResult(False, o.path, f"unknown policy digest {o.node.policy_digest.hex()[:12]}")


class _Checker:
    def __init__(self, policies, directory):
        self.policies = policies or {}  # digest -> Policy or owner record
        self.directory = directory
        self.obligations: list[Obligation] = []

    # -- leaves ------------------------------------------------------------

    def _clock_reading(self, sa: SignedAttestation) -> int | None:
        """The time `t` of `sa` if it is a reading `T says time(t)`: signed
        under T's key, naming T, with a numeral `t`.  None otherwise."""
        got = self.directory.attested(S.TIME_SOURCE.name, sa) if self.directory is not None else None
        if got is None or got.principal != S.TIME_SOURCE:
            return None
        atom = got.body
        if atom.pred != "time" or len(atom.args) != 1 or not isinstance(atom.args[0], S.Const):
            return None
        return S.int_value(atom.args[0])

    def _check_att_leaf(self, e: AttLeaf, phi, eigens, path):
        """A signature is about the constants it names, so the goal must not
        name an eigenvariable of `eigens`, with one exception: the paper's
        nonce rule (a nonce is a fresh value that the nonce service N
        attests), under which N's signature on `nonce(n)` is the evidence
        that the eigenvariable `n` is a fresh nonce."""
        if not (isinstance(phi, S.Attest) and isinstance(phi.body, S.Atom)):
            return _nok(path, "attestation evidence for a non-attestation goal")
        k = phi.principal
        if not isinstance(k, S.Const):
            return _nok(path, "attesting principal is not ground")
        clash = sorted(eigens & S.const_names(phi)) if eigens else ()
        if clash and not (phi.body.pred == "nonce" and k.name == "N" and "N" not in eigens):
            return _nok(path, f"eigenvariable {clash[0]!r} is not fresh")
        if self.directory is None or k.name not in self.directory:
            return _nok(path, f"no public key for {k.name!r}")
        got = self.directory.attested(k.name, e.attestation)
        if got is None:
            return _nok(path, f"signature by {k.name!r} does not verify")
        if got != phi:
            return _nok(path, "attested formula differs from the goal")
        return _OK

    def _check_theory(self, e: TheoryHole, phi, eigens, path):
        """A comparison on an eigenvariable of `eigens` holds only as `=` of identical terms."""
        if not (isinstance(phi, S.Atom) and phi.pred in S.BUILTIN_PREDS):
            return _nok(path, "theory evidence for a non-interpreted goal")
        if e.pred != phi.pred or e.args != phi.args:
            return _nok(path, "theory evidence does not match the goal atom")
        arity = 1 if phi.pred == "time_not_elapsed" else 2
        if len(phi.args) != arity or not all(S.is_ground(a) for a in phi.args):
            return _nok(path, f"{phi.pred} needs {arity} ground arguments")
        if phi.pred != "time_not_elapsed":
            clash = sorted(eigens & S.const_names(phi)) if eigens else ()
            if clash and not (phi.pred == "=" and phi.args[0] == phi.args[1]):
                return _nok(path, f"{phi.pred} does not hold for every value of eigenvariable {clash[0]!r}")
            return _OK if S.compare(phi.pred, *phi.args) else _nok(path, f"{phi.pred} does not hold")
        # time_not_elapsed(t): a signed clock reading strictly before t.
        if e.receipt is None:
            return _nok(path, "missing clock receipt")
        now = self._clock_reading(e.receipt)
        if now is None:
            return _nok(path, "clock receipt is not a reading signed by T")
        t = S.int_value(phi.args[0])
        if t is None or now >= t:
            return _nok(path, "clock receipt is not earlier than the deadline")
        return _OK

    # -- clause application ------------------------------------------------

    def _check_clause_app(self, e: ClauseApp, phi, env, allowed, scope, eigens, path):
        """The verdict on `e`, or the goals its premises must prove.  A policy
        clause must not mention an eigenvariable in scope, nor may its owner be one."""
        if e.policy_digest is None:
            clause, owner = env.clause(e.ref), None
            if clause is None:
                return _nok(path, f"unknown hypothesis {e.ref!r}")
        else:
            policy = self.policies.get(e.policy_digest)
            if policy is None:
                return _nok(path, f"unknown policy digest {e.policy_digest.hex()[:12]}")
            owner = policy.owner
            if allowed is not None and owner not in allowed:
                return _nok(path, f"evidence draws on a policy of {owner!r}, outside the restriction")
            if owner in eigens:
                return _nok(path, f"eigenvariable {owner!r} is not fresh")
            if not isinstance(policy, S.Policy):
                self.obligations.append(Obligation(_items(path), e, phi, _items(scope), eigens))
                return _OK
            i = e.ref
            if i.__class__ is not int or not 0 <= i < len(policy.clauses):
                return _nok(path, f"no clause #{i!r} in policy of {owner!r}")
            clause = policy.clauses[i]
            clash = sorted(eigens & S.const_names(clause)) if eigens else ()
            if clash:
                return _nok(path, f"eigenvariable {clash[0]!r} is not fresh")
        label, (_, keep, need, fill) = clause.label, clause.matcher
        if len(e.args) != len(keep(clause.universals)):
            return _nok(path, f"clause {label!r} expects {len(keep(clause.universals))} arguments")
        says = phi.__class__ is S.Attest  # the goal row: its principal, then the atom's arguments
        row = (phi.principal, *getattr(phi.body, "args", ())) if says else getattr(phi, "args", ())
        if len(row) < need:
            return _nok(path, f"clause {label!r} head does not match the goal")
        args = fill(e.args + row)
        for v, t in zip(clause.universals, args):
            try:
                if S.term_sort(t) != v.sort:
                    return _nok(path, f"argument for {v.name!r} has the wrong sort")
            except Exception:
                return _nok(path, f"unintelligible argument for {v.name!r}")
        head, slots = clause.instantiate(args)
        if S.proved_head(head, owner, phi) != phi:
            return _nok(path, f"clause {label!r} head does not match the goal")
        if len(slots) != len(e.premises):
            return _nok(path, f"clause {label!r}: {len(slots)} premises expected")
        return slots

    # -- the walk ----------------------------------------------------------

    def check(self, e: Evidence, phi, env: HypothesisEnv, eigens=frozenset()) -> CheckResult:
        """Check that `e` proves `phi` with the names in `eigens` as
        eigenvariables in scope.  Goals (evidence, goal, hypotheses,
        owners the `knows` restrictions in scope admit, the implications and
        restrictions around the goal, the eigenvariables in scope, path) wait
        on a stack and are met in pre-order, so the first failure met is the
        result; `self.obligations` gets those met before it, in the same order."""
        todo = [(e, phi, env, None, (), eigens, ())]
        while todo:
            e, phi, env, allowed, scope, eigens, path = todo.pop()
            if isinstance(e, ClauseApp):
                slots = self._check_clause_app(e, phi, env, allowed, scope, eigens, path)
                if isinstance(slots, CheckResult):
                    if not slots.ok:
                        return slots
                    continue
                for i in reversed(range(len(slots))):
                    todo.append((e.premises[i], slots[i], env, allowed, scope, eigens, (path, i)))
            elif isinstance(e, Unit):
                if phi != S.TOP:
                    return _nok(path, "unit evidence for a non-trivial goal")
            elif isinstance(e, PairEv):
                if not isinstance(phi, S.And):
                    return _nok(path, "pair evidence for a non-conjunction")
                todo.append((e.right, phi.right, env, allowed, scope, eigens, (path, 1)))
                todo.append((e.left, phi.left, env, allowed, scope, eigens, (path, 0)))
            elif isinstance(e, (Inl, Inr)):
                if not isinstance(phi, S.Or):
                    return _nok(path, "injection evidence for a non-disjunction")
                side = 0 if isinstance(e, Inl) else 1
                todo.append((e.body, (phi.left, phi.right)[side], env, allowed, scope, eigens, (path, side)))
            elif isinstance(e, Witness):
                if not isinstance(phi, S.Exists):
                    return _nok(path, "witness evidence for a non-existential")
                try:
                    inst = S.substitute1(phi.body, phi.var, e.term)
                except Exception:
                    return _nok(path, "witness has the wrong sort")
                todo.append((e.body, inst, env, allowed, scope, eigens, (path, 0)))
            elif isinstance(e, Abstraction):
                if isinstance(phi, S.Forall):
                    # fresh: no number, nor named by the goal, a hypothesis or a policy clause under it
                    eigen = S.Const(e.var, phi.var.sort)
                    used = S.const_names(phi).union(*map(S.const_names, env.clauses))
                    if e.var in used or S.int_value(eigen) is not None:
                        return _nok(path, f"eigenvariable {e.var!r} is not fresh")
                    inst = S.substitute(phi.body, {phi.var: eigen})
                    todo.append((e.body, inst, env, allowed, scope, eigens | {e.var}, (path, 0)))
                elif isinstance(phi, S.Implies):
                    try:
                        hyps = env.extend(S.clauses_of(phi.left, e.var))
                    except Exception as ex:
                        return _nok(path, f"hypothesis is not a program: {ex}")
                    todo.append((e.body, phi.right, hyps, allowed, (scope, (phi, e)), eigens, (path, 0)))
                else:
                    return _nok(path, "abstraction evidence for a non-binder goal")
            elif isinstance(e, KnowsWrap):
                if not isinstance(phi, S.Knows):
                    return _nok(path, "restriction evidence for a non-restricted goal")
                if e.principals != phi.principals:
                    return _nok(path, "restriction sets differ")
                owners = frozenset(S.knows_owners(phi.principals))
                if allowed is not None:
                    owners &= allowed
                todo.append((e.body, phi.body, env, owners, (scope, (phi, e)), eigens, (path, 0)))
            elif isinstance(e, (AttLeaf, TheoryHole)):
                leaf = (self._check_att_leaf(e, phi, eigens, path) if isinstance(e, AttLeaf)
                        else self._check_theory(e, phi, eigens, path))
                if not leaf.ok:
                    return leaf
            else:
                return _nok(path, f"unrecognized evidence node {type(e).__name__}")
        return _OK


def check(policies, env: HypothesisEnv, e: Evidence, phi, directory: Directory | None = None) -> CheckResult:
    """Check that `e` proves `phi` under hypothesis environment `env`.

    `policies` maps policy digest to Policy, or, for a policy checked
    elsewhere, to a record naming its `owner` (a registry entry); a clause
    application under such a record fails as an unknown policy.
    `directory` supplies public keys for signature leaves.
    """
    checker = _Checker(policies, directory)
    return _settled(checker.check(e, phi, env or HypothesisEnv()), checker.obligations)


def check_part(cert: Certificate, policies, directory: Directory | None = None,
               eigens=frozenset()) -> tuple[CheckResult, list]:
    """Check a certificate as far as `policies` hold its clauses: pinned
    identities, the creation stamp, and the evidence for the root formula,
    except below each clause application under an owner record, which is
    left as an `Obligation`.  `eigens` names the eigenvariables in scope at
    the root (an obligation's, checked at its owner).  Returns the verdict
    on the rest and the obligations met before its first failure, in
    pre-order.  Signed attestations are verified through `directory`, which
    remembers each that verified (`Directory.attested`): a clock reading
    that stamps every certificate of a tick costs one Ed25519 verification
    per directory, however many checks and receipts carry it."""
    if directory is not None:
        for pid in cert.directory:
            known = directory.principal_id(pid.name)
            if known is not None and known != pid:
                return _nok((), f"pinned key for {pid.name!r} does not match the directory"), []
    checker = _Checker(policies, directory)
    if cert.created_at is not None and checker._clock_reading(cert.created_at) is None:
        return _nok((), "creation stamp is not a reading signed by T"), []
    return checker.check(cert.root_evidence, cert.root_formula, HypothesisEnv(), eigens), checker.obligations


def check_certificate(cert: Certificate, policies, directory: Directory | None = None) -> CheckResult:
    """Check a full certificate: pinned identities, the creation stamp, and
    the evidence for the root formula."""
    return _settled(*check_part(cert, policies, directory))


# ---------------------------------------------------------------------------
# Display


def render_spine(e: Evidence, policies) -> str:
    """Compact one-line rendering of an evidence term.  Clause applications
    print as label(arg)..(premise)..: a policy clause's label is read off
    the clause at its position in `policies[digest]`, so `policies` must
    hold every policy that `e` applies a clause of.  Maximal runs of theory
    receipts among a clause's premises collapse to a single `_`."""

    def render(x, kids):
        """The text of `x` and whether it holds only theory receipts."""
        body = kids[0][0] if kids else ""
        if isinstance(x, Unit):
            return "tt", False
        if isinstance(x, PairEv):
            return f"({body},{kids[1][0]})", kids[0][1] and kids[1][1]
        if isinstance(x, (Inl, Inr)):
            return f"{type(x).__name__.lower()}({body})", False
        if isinstance(x, Witness):
            return f"[{S.fmt_term(x.term)}]{body}", False
        if isinstance(x, Abstraction):
            return f"\\{x.var}.{body}", False
        if isinstance(x, AttLeaf):
            return f"sig:{x.attestation.principal.name}", False
        if isinstance(x, TheoryHole):
            return "_", True
        if isinstance(x, KnowsWrap):
            return f"know{{{','.join(sorted(S.fmt_term(p) for p in x.principals))}}}{body}", False
        label = x.ref if x.policy_digest is None else policies[x.policy_digest].clauses[x.ref].label
        parts, run = [label, *(f"({S.fmt_term(t)})" for t in x.args)], False
        for text, theory in kids:
            if not (theory and run):
                parts.append("(_)" if theory else f"({text})")
            run = theory
        return "".join(parts), False  # a clause application

    return fold(e, render)[0]
