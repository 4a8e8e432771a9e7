"""Unification and goal-directed proof search.

The prover performs uniform (goal-directed) search: composite goals are
decomposed by their top connective, atomic goals backchain over hypothesis
and policy clauses, depth-first in clause order under a depth budget.
The search is one loop over explicit stacks, after Warren's abstract
machine (see `Prover`): a derivation step takes no Python stack frame, so
only the depth budget bounds the length of a derivation, and a choice
point exists only where a goal has more than one alternative.
Policy clauses are selected through a per-policy `ClauseIndex` on the head
predicate and the goal's first argument when it is ground, in textual
order; hypothesis clauses are not indexed.  Fresh names are numbered per
query as they are made, with `@k` at hop k > 0 of a distributed search.
Conjunct scheduling prefers attestation goals whose principal is still
unbound (they generate bindings), delays interpreted predicates until
their arguments are ground, and delays disjunctions that mention unbound
variables; evidence slots are filled positionally regardless of the
evaluation order actually taken.
A derivation step does only the search's own work.  A clause is renamed
apart as Warren's machine does it (`get_variable`, see `Prover._apply`),
from its record compiled once and shared with the checker
(`syntax.Clause`); the evidence writes only the arguments the checker
cannot read off the goal.  A goal is resolved again only after
unification bound a variable, and an answer's evidence rebuilds only the
nodes whose terms a binding changed.  Terms and goals hash once, and
constants print once (`syntax`).
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from functools import partial

from . import syntax as S
from . import evidence as E
from .errors import FlounderError, SortError

DEFAULT_DEPTH = 64


# ---------------------------------------------------------------------------
# Substitutions and unification


def walk(t, s: dict):
    while t.__class__ is S.Var:
        u = s.get(t)
        if u is None:
            return t
        t = u
    return t


def resolve(t, s: dict):
    t = walk(t, s)  # `t` itself when `s` binds none of its variables
    if isinstance(t, S.FunApp):
        args = tuple([resolve(a, s) for a in t.args])
        return t if all(map(operator.is_, args, t.args)) else S.FunApp(t.symbol, args)
    return t


def _resolve_atom(a, s: dict):
    args = tuple([resolve(t, s) for t in a.args])
    return a if args == a.args else S.Atom(a.pred, args)


def resolve_formula(f, s: dict):
    """`f` under `s`.  An atom or an attested atom has no binder, so it
    resolves in one pass; other formulas take the capture-avoiding path."""
    if not s:
        return f
    if f.__class__ is S.Atom:
        return _resolve_atom(f, s)
    if f.__class__ is S.Attest and f.body.__class__ is S.Atom:
        k, body = resolve(f.principal, s), _resolve_atom(f.body, s)
        return f if k is f.principal and body is f.body else S.Attest(k, body)
    fv = S.free_vars(f)
    m = {v: resolve(v, s) for v in fv}
    m = {v: t for v, t in m.items() if t != v}
    return S.substitute(f, m) if m else f


def _bind(v: S.Var, t, s: dict, state):
    if t.__class__ is S.Const:  # no occurs check, and the sort is at hand
        if t.sort != v.sort:
            return None
    else:
        t = resolve(t, s)
        if isinstance(t, S.Var) and t == v:
            return s
        if v in S.term_vars(t):
            return None  # occurs check
        try:
            if S.term_sort(t) != v.sort:
                return None
        except SortError:
            return None
    if state is not None:
        if not state.scope_ok(v, t):
            return None
        state.trail.append(v)
    s[v] = t
    return s


def unify(a, b, s: dict, state=None):
    """Extend `s` in place to a most general unifier of `a` and `b` and return
    it, or None; a miss may leave bindings, which `state`'s trail undoes.
    Unification is syntactic, as the checker's comparison is: `3` and
    `succ(2)` do not unify, and only the builtins read numbers."""
    a, b = walk(a, s), walk(b, s)
    if a is b or a == b:
        return s
    if isinstance(a, S.Var) and isinstance(b, S.Var) and state is not None:
        # Bind the younger variable to the older one, so that an
        # aliased class is represented by its oldest member and the
        # eigenvariable escape check sees the tightest birth date.
        ba = state.meta_birth.get(a.name)
        bb = state.meta_birth.get(b.name)
        if ba is not None and bb is not None and bb < ba:
            return _bind(a, b, s, state)
        return _bind(b, a, s, state)
    if isinstance(a, S.Var):
        return _bind(a, b, s, state)
    if isinstance(b, S.Var):
        return _bind(b, a, s, state)
    if not (a.__class__ is b.__class__ is S.FunApp and a.symbol == b.symbol and len(a.args) == len(b.args)):
        return None
    for x, y in zip(a.args, b.args):
        s = unify(x, y, s, state)
        if s is None:
            return None
    return s


def unify_atomic(goal, head, s: dict, state=None):
    """Unify an atomic goal with a clause head (atom against atom,
    attestation against attestation)."""
    if isinstance(goal, S.Atom) and isinstance(head, S.Atom):
        if goal.pred != head.pred or len(goal.args) != len(head.args):
            return None
        for x, y in zip(goal.args, head.args):
            s = unify(x, y, s, state)
            if s is None:
                return None
        return s
    if isinstance(goal, S.Attest) and isinstance(head, S.Attest):
        s = unify(goal.principal, head.principal, s, state)
        if s is None:
            return None
        return unify_atomic(goal.body, head.body, s, state)
    return None


# ---------------------------------------------------------------------------
# Search state


class _State:
    """Per-query bookkeeping: the bindings, the open goals and the trail that
    takes both back, fresh-name counters and the birth order of metavariables
    and eigenvariables (for the quantifier scope check)."""

    def __init__(self):
        self.subst: dict = {}  # Var -> Term, bound in place
        self.open: set = set()  # resolved atomic goals being proved on this path
        self.trail: list = []  # variables bound, goals opened or closed; oldest first
        self.counter = 0  # last number handed out
        self.meta_birth: dict[str, int] = {}
        self.eigen_birth: dict[str, int] = {}
        self.exhausted = False

    def tick(self) -> int:
        self.counter += 1
        return self.counter

    def scope_ok(self, v: S.Var, t) -> bool:
        """An eigenvariable introduced after `v` must not leak into `v`'s
        binding."""
        b = self.meta_birth.get(v.name)
        if b is None:
            return True
        for name in (t.name,) if t.__class__ is S.Const else S.const_names(t):
            eb = self.eigen_birth.get(name)
            if eb is not None and eb > b:
                return False
        return True


# ---------------------------------------------------------------------------
# Clause selection


def _interpreted(f) -> bool:
    """Whether `f` is an atom of an interpreted predicate (a comparison or
    a clock reading)."""
    return f.__class__ is S.Atom and f.pred in S.BUILTIN_PREDS


def _atom_of(f):
    """The atom of an atomic formula or of the atom under `says`, else None."""
    if isinstance(f, S.Attest):
        f = f.body
    return f if isinstance(f, S.Atom) else None


def _key(t):
    """Index key of a term: a constant's name and sort (a tuple hashes
    faster than the dataclass), another ground term itself, else None."""
    if t.__class__ is S.Const:
        return t.name, t.sort
    return t if S.is_ground(t) else None


class ClauseIndex:
    """A policy's clauses grouped by head predicate and, within a group, by
    the head's first argument (WAM-style first-argument indexing).

    A head whose first argument is ground is filed under `_key` of that
    argument; one whose first argument holds a variable goes in the
    group's wildcards.  Unification is syntactic, so a ground goal argument
    can only unify with the heads of its own key and the wildcards, and
    `candidates(pred, key)` yields exactly those as (position, clause),
    merged in textual order; with no key it yields the whole group.
    `keyed` holds the predicates with at least one keyed head; for any
    other a key selects nothing.

    The index is built whole, in one pass over the clauses, and never
    changed after: a suspended search may still be iterating its lists.
    Given a `base` index of a policy whose clauses are a prefix of
    `policy`'s (an update that appends clauses), the index starts from
    `base`'s lists and files only the appended clauses, copying each list
    it appends to and sharing the rest."""

    def __init__(self, policy, base=None):
        self.policy = policy
        clauses = policy.clauses
        start = 0 if base is None else len(base.policy.clauses)
        # pred -> the group, (pred, key) -> a bucket, (pred, None) -> the
        # wildcards; each list in textual order
        if start and base.policy.clauses == clauses[:start]:
            lists, self.keyed = dict(base._lists), set(base.keyed)
        else:
            lists, self.keyed, start = {}, set(), 0
        added: dict = {}  # the entries of the clauses filed here, by list
        for pos in range(start, len(clauses)):
            c = clauses[pos]
            atom = _atom_of(c.head)
            key = _key(atom.args[0]) if atom.args else None
            if key is not None:
                self.keyed.add(atom.pred)
            entry = (pos, c)
            added.setdefault(atom.pred, []).append(entry)
            added.setdefault((atom.pred, key), []).append(entry)
        for name, entries in added.items():
            lists[name] = lists.get(name, []) + entries
        self._lists = lists

    def candidates(self, pred, key=None):
        if key is None:
            return self._lists.get(pred, ())
        bucket, wildcards = self._lists.get((pred, key), ()), self._lists.get((pred, None), ())
        return heapq.merge(bucket, wildcards) if bucket and wildcards else bucket or wildcards


# ---------------------------------------------------------------------------
# Answers


@dataclass
class Answer:
    bindings: dict  # Var -> ground Term for the query's free variables
    evidence: E.Evidence
    goal: object  # the instantiated goal formula


@dataclass
class _Item:
    idx: int  # position among the conjuncts, left to right
    goal: object
    open_or: bool  # disjunction that mentioned unbound vars at entry


def _items(goals, s) -> list:
    """The conjuncts of `goals`, left to right, as schedulable items."""
    items = []
    for goal in goals:
        for g in S.flatten_and(goal):
            open_or = isinstance(g, S.Or) and any(
                isinstance(walk(v, s), S.Var) for v in S.free_vars(g)
            )
            items.append(_Item(len(items), g, open_or))
    return items


class Prover:
    """Proof search over a set of named policies.

    `policies` maps owner name to Policy (typically this node's own policy,
    perhaps plus a common one).  An owner's attestations come from its
    own clauses only: a bare-headed clause also answers its owner's
    attestation of the head, and the prover never signs anything.
    `dispatch(target, goal, vars, budget, restriction)` is consulted for
    attestation goals of principals without a local policy: `target` is a
    principal name, or None to broadcast; it yields
    (bindings, evidence) pairs with ground terms for `vars`.  `indexes`
    maps owner to a ClauseIndex to reuse: an index of the owner's policy is
    used as it is, and one of an earlier policy of the owner is the base
    the new index extends.  `self.indexes` holds those of `policies` only.
    `hop` counts the queries between this search and the user's; names made
    at a hop k > 0 end in `@k`, unlike those of the searches on its chain.

    `ask` is the machine.  The continuation `todo` is a linked list of
    (step, rest) pairs and `evs` one of the evidence of the goals met,
    newest first; neither is ever changed, so a choice point keeps them by
    reference.  A step takes the rest and `evs` and returns the next
    (todo, evs), None to fail, or an iterator of alternatives (each a
    (todo, evs), or None when its unification failed), which becomes a
    choice point marked with the length of `state.trail`.  A goal with one
    alternative (one candidate clause, no hypothesis, T, N or peer) takes
    none.  The trail holds variables bound and goals opened or closed.  To
    backtrack is to undo the trail down to the newest mark and take the next
    alternative; out of choices, the search undoes the whole trail.
    """

    def __init__(
        self,
        policies,
        dispatch=None,
        services=None,
        trace: list | None = None,
        on_hypothesis=None,
        indexes=None,
        hop: int = 0,
    ):
        self.policies = dict(policies)
        indexes = indexes or {}
        self.indexes = {}
        for owner, policy in self.policies.items():
            index = indexes.get(owner)
            if index is None or index.policy is not policy:
                index = ClauseIndex(policy, index)
            self.indexes[owner] = index
        self.keyed = set().union(*(index.keyed for index in self.indexes.values()))  # predicates some index keys
        self.dispatch = dispatch
        self.services = services
        self.trace = trace if trace is not None else []
        self.on_hypothesis = on_hypothesis
        self.suffix = f"@{hop}" if hop else ""
        self.state = _State()

    # -- public entry points -----------------------------------------------

    def ask(self, goal, free_vars=(), depth: int = DEFAULT_DEPTH, env=None):
        """Yield Answers for `goal`; `free_vars` are treated as
        existentially quantified metavariables."""
        state = self.state = _State()
        for v in free_vars:
            state.meta_birth.setdefault(v.name, state.tick())
        s, opened, trail, choices = state.subst, state.open, state.trail, []
        root = partial(self._solve, goal, depth, env or E.HypothesisEnv(), None)
        todo, evs = (root, None), None
        while True:
            if todo is None:  # every goal met
                bindings = {v: resolve(v, s) for v in free_vars}
                yield Answer(bindings, resolve_evidence(evs[0], s), resolve_formula(goal, s))
                self.state, out = state, None  # another ask on this prover may have run since
            else:
                step, todo = todo
                out = step(todo, evs)
                if out is not None and out.__class__ is not tuple:
                    choices.append((len(trail), out))
                    out = None
            while out is None:  # backtrack
                mark, alternatives = choices[-1] if choices else (0, None)
                while len(trail) > mark:
                    x = trail.pop()
                    if x.__class__ is S.Var:
                        del s[x]
                    else:
                        opened ^= {x}  # close an opened goal, reopen a closed one
                if alternatives is None:
                    return  # out of choices, with the trail undone
                out = next(alternatives, False)
                if out is False:
                    choices.pop()
                    out = None
            todo, evs = out

    def first(self, goal, free_vars=(), depth: int = DEFAULT_DEPTH, env=None):
        return next(self.ask(goal, free_vars, depth, env), None)

    # -- fresh names --------------------------------------------------------

    def _fresh_var(self, sort: str) -> S.Var:
        n = self.state.tick()
        v = S.Var(f"_{n}{self.suffix}", sort)
        self.state.meta_birth[v.name] = n
        return v

    def _log(self, depth, rule, goal, text=None):
        """Append the STEP line of `goal` and return its printed text;
        `text`, when given, is that of an equal formula printed before."""
        if text is None:
            text = S.fmt_formula(goal)
        self.trace.append(f"STEP {depth} {rule} {text}")
        return text

    # -- goal decomposition --------------------------------------------------

    def _solve(self, goal, depth, env, restriction, todo, evs):
        """The step that proves `goal`: an atomic goal is opened, then applies
        its one clause or gets a choice point; a composite goal puts its
        subgoal in front of `todo`, then a step that wraps its evidence."""
        state, s = self.state, self.state.subst
        if _interpreted(goal):
            return self._builtin(goal, todo, evs)
        if isinstance(goal, (S.Atom, S.Attest)):
            if depth <= 0:
                state.exhausted = True
                return None
            g_res, n = resolve_formula(goal, s), len(state.open)
            state.open.add(g_res)
            if len(state.open) == n:
                return None  # identical goal already open on this path
            state.trail.append(g_res)
            text = self._log(depth, "goal", g_res)
            todo, selected = (partial(self._close, g_res), todo), self._select(g_res, restriction)
            sole = None if env.clauses or not self._local(goal, restriction) else self._sole(selected)
            if sole is None:
                return self._backchain(goal, g_res, text, depth, env, restriction, todo, evs, selected)
            return self._apply(goal, g_res, text, depth, env, restriction, todo, evs, *sole)
        if isinstance(goal, S.Top):
            return todo, (E.Unit(), evs)
        if isinstance(goal, S.And):
            build = partial(_assemble, goal)
            return (partial(self._group, _items([goal], s), (), build, depth, env, restriction), todo), evs
        if isinstance(goal, S.Or):
            self._log(depth, "or", resolve_formula(goal, s))
            return iter([
                ((partial(self._solve, g, depth, env, restriction), (partial(_wrap, side), todo)), evs)
                for g, side in ((goal.left, E.Inl), (goal.right, E.Inr))
            ])
        if isinstance(goal, S.Exists):
            v = self._fresh_var(goal.var.sort)
            body, wrap = S.substitute(goal.body, {goal.var: v}), partial(E.Witness, v)
        elif isinstance(goal, S.Forall):
            g_res = resolve_formula(goal, s)
            if goal.var.sort == "Nonce" and self.services is not None:
                name = self.services.fresh_nonce()
            else:  # a name that the goal, a hypothesis or a policy here does not use
                used = [*map(S.const_names, (g_res, *env.clauses)), *(p.names for p in self.policies.values())]
                name = f"c{state.tick()}{self.suffix}"
                while any(name in names for names in used):
                    name = f"c{state.tick()}{self.suffix}"
            state.eigen_birth[name] = state.tick()
            self._log(depth, "all", g_res)
            body = S.substitute(goal.body, {goal.var: S.Const(name, goal.var.sort)})
            wrap = partial(E.Abstraction, name)
        elif isinstance(goal, S.Implies):
            label = f"h{state.tick()}{self.suffix}"
            left = resolve_formula(goal.left, s)
            assumed = S.clauses_of(left, label)
            env = env.extend(assumed)
            if self.on_hypothesis is not None:
                self.on_hypothesis(assumed)
            self._log(depth, "assume", left)
            body, wrap = goal.right, partial(E.Abstraction, label)
        elif isinstance(goal, S.Knows):
            principals = frozenset(resolve(p, s) for p in goal.principals)
            if restriction is not None and not principals <= restriction:
                return None
            body, wrap, restriction = goal.body, partial(E.KnowsWrap, principals), principals
        else:
            raise TypeError(f"not a solvable goal: {goal!r}")
        return (partial(self._solve, body, depth, env, restriction), (partial(_wrap, wrap), todo)), evs

    # -- conjunct scheduling -------------------------------------------------

    def _pick(self, items) -> int:
        s = self.state.subst

        def klass(it):
            g = it.goal
            if isinstance(g, S.Attest) and isinstance(walk(g.principal, s), S.Var):
                return 0
            if isinstance(g, S.Or) and it.open_or:
                return 3
            if _interpreted(g):
                return 2
            return 1

        order = sorted(range(len(items)), key=lambda i: (klass(items[i]), items[i].idx))
        for i in order:
            it = items[i]
            if _interpreted(it.goal):
                args = [resolve(a, s) for a in it.goal.args]
                if not all(S.is_ground(a) for a in args):
                    continue  # delay until ground
            return i
        raise FlounderError(
            "interpreted goals never became ground: "
            + ", ".join(S.fmt_formula(resolve_formula(it.goal, s)) for it in items)
        )

    def _group(self, items, order, build, depth, env, restriction, todo, evs):
        """The step that solves the next of the conjuncts `items`; `order`
        holds the positions of those solved.  When none is left, `build`
        turns their evidence, in position order, into one."""
        if not items:
            leaves = [None] * len(order)
            for idx in reversed(order):
                leaves[idx], evs = evs
            return todo, (build(iter(leaves)), evs)
        i = self._pick(items)
        it, rest = items[i], items[:i] + items[i + 1 :]
        rest = partial(self._group, rest, order + (it.idx,), build, depth, env, restriction)
        return (partial(self._solve, it.goal, depth, env, restriction), (rest, todo)), evs

    # -- interpreted predicates ----------------------------------------------

    def _builtin(self, goal, todo, evs):
        """A comparison on an eigenconstant holds only as `=` of identical terms."""
        args, eigens = tuple(resolve(a, self.state.subst) for a in goal.args), self.state.eigen_birth
        if not all(S.is_ground(a) for a in args):
            raise FlounderError(f"{goal.pred} on nonground arguments")
        if goal.pred != "time_not_elapsed":
            eigen = eigens and any(n in eigens for a in args for n in S.const_names(a))
            holds = goal.pred == "=" and args[0] == args[1] if eigen else S.compare(goal.pred, *args)
            return (todo, (E.TheoryHole(goal.pred, args), evs)) if holds else None
        receipt = self.services.time_receipt(args[0]) if self.services is not None else None
        return None if receipt is None else (todo, (E.TheoryHole(goal.pred, args, receipt), evs))

    # -- backchaining ----------------------------------------------------------

    def _close(self, g_res, todo, evs):
        """The step after an atomic goal's proof: the goal is no longer open."""
        self.state.open.remove(g_res)
        self.state.trail.append(g_res)
        return todo, evs

    def _select(self, g_res, restriction):
        """The admitted indexes, each with its candidates for resolved atomic `g_res`."""
        atom = _atom_of(g_res)
        pred = atom.pred if atom is not None else None
        key = _key(atom.args[0]) if pred in self.keyed and atom.args else None
        owners = None if restriction is None else S.knows_owners(restriction)
        return [(ix, ix.candidates(pred, key)) for ix in self.indexes.values()
                if owners is None or ix.policy.owner in owners]

    def _sole(self, selected):
        """(clause, owner, digest) for a lone candidate, else None."""
        found = None
        for index, candidates in selected:
            if candidates:
                if found or candidates.__class__ is not list or len(candidates) > 1:
                    return None  # several: a merged bucket holds two at least
                found = candidates[0][1], index.policy.owner, index.policy.digest
        return found

    def _local(self, goal, restriction) -> bool:
        """Whether neither T or N nor a peer can attest atomic `goal`."""
        k = walk(goal.principal, self.state.subst) if goal.__class__ is S.Attest else None
        name = k.name if k.__class__ is S.Const else None
        if k is None or name is not None and restriction is not None and k not in restriction:
            return True
        if name in ("T", "N") and self.services is not None:
            return False
        return self.dispatch is None or name in self.policies

    def _backchain(self, goal, g_res, text, depth, env, restriction, todo, evs, selected):
        """The alternatives for an atomic goal: hypothesis clauses, the policy
        clauses `selected`, then attestations by T or N or answers from peers."""
        apply = partial(self._apply, goal, g_res, text, depth, env, restriction, todo, evs)
        for clause in env.clauses:
            yield apply(clause, None, None)
        for index, candidates in selected:
            for _, clause in candidates:
                yield apply(clause, index.policy.owner, index.policy.digest)
        yield from self._remote(goal, depth, restriction, todo, evs)

    def _apply(self, goal, g_res, text, depth, env, restriction, todo, evs, clause, owner, digest):
        """The alternative of `clause` of `owner`'s policy (None: a hypothesis)
        for atomic goal `goal` (open as `g_res`, printed as `text`): the goal
        unified with what the head proves, renamed apart, in one call of
        `unify_atomic`.  Each universal, bound once, stands for the goal
        constant of its sort that the clause's places put it facing, if any,
        else for a fresh variable.  A single premise slot that is neither a
        conjunction nor an interpreted atom is solved directly; other bodies go
        to the conjunct scheduler."""
        state, s = self.state, self.state.subst
        universals, (places, keep, _, _), args = clause.universals, clause.matcher, ()
        if universals:
            atom = _atom_of(goal)
            row = () if atom is None else (goal.principal, *atom.args) if goal.__class__ is S.Attest else atom.args
            args = []
            for v, at in zip(universals, places):
                t = walk(row[at], s) if 0 > at >= -len(row) else None
                args.append(t if t.__class__ is S.Const and t.sort == v.sort else self._fresh_var(v.sort))
            args = tuple(args)
        head, slots, mark = *clause.instantiate(args), len(state.trail)
        if unify_atomic(goal, S.proved_head(head, owner, goal), s, state) is None:
            return None
        # Unifying with the head may have instantiated the goal into one
        # that is already open higher on this path; looping on it proves
        # nothing new.  (`g_res`, this goal's own pre-unification form, is
        # open too.)
        g2 = resolve_formula(g_res, s) if len(state.trail) > mark else g_res
        if g2 is not g_res:
            if g2 in state.open:
                return None
            text = None
        self._log(depth, f"apply {clause.label}", g2, text)
        label, written = clause.label, keep(args)
        if not slots:
            return todo, (E.ClauseApp(label, digest, written), evs)
        if len(slots) == 1 and slots[0].__class__ is not S.And and not _interpreted(slots[0]):
            node = lambda ev: E.ClauseApp(label, digest, written, (ev,))
            solve = partial(self._solve, slots[0], depth - 1, env, restriction)
            return (solve, (partial(_wrap, node), todo)), evs
        build = lambda it: E.ClauseApp(label, digest, written, tuple(_assemble(g, it) for g in slots))
        return (partial(self._group, _items(slots, s), (), build, depth - 1, env, restriction), todo), evs

    def _remote(self, goal, depth, restriction, todo, evs):
        state, s = self.state, self.state.subst
        if self._local(goal, restriction):
            return
        k = walk(goal.principal, s)
        target = k.name if isinstance(k, S.Const) else None  # None: broadcast
        if target in ("T", "N") and self.services is not None:
            body = resolve_formula(goal.body, s)
            for sa in self.services.attest_candidates(target, body):
                hit = unify_atomic(body, sa.atom(), s, state) is not None
                yield (todo, (E.AttLeaf(sa), evs)) if hit else None
            return
        g_send = resolve_formula(goal, s)
        vars_ = list(S.free_vars(g_send))
        self._log(depth, "dispatch" if target else "broadcast", g_send)
        for bindings, ev in self.dispatch(target, g_send, vars_, depth - 1, restriction):
            hit = all(unify(v, bindings.get(v.name, v), s, state) is not None for v in vars_)
            yield (todo, (ev, evs)) if hit else None


# ---------------------------------------------------------------------------
# Evidence building and finishing


def _wrap(node, todo, evs):
    """The step that closes a connective: the newest evidence `e` becomes `node(e)`."""
    return todo, (node(evs[0]), evs[1])


def _assemble(g, leaves):
    """Pair evidence shaped like conjunction `g`, its leaves taken in order
    from the iterator `leaves`."""
    if isinstance(g, S.And):
        left = _assemble(g.left, leaves)
        return E.PairEv(left, _assemble(g.right, leaves))
    return next(leaves)


def resolve_evidence(ev, s: dict):
    """Apply the final substitution to the terms embedded in evidence,
    keeping each node whose children and terms it leaves as they were."""
    term = partial(resolve, s=s)

    def node(x, kids):
        terms = (x.term,) if x.__class__ is E.Witness else getattr(x, "args", ())
        same = all(map(operator.is_, kids, E.children(x))) and all(map(operator.is_, map(term, terms), terms))
        return x if same else E.rebuild(x, kids, term)

    return E.fold(ev, node) if s else ev
