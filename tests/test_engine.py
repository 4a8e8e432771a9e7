"""Unification and local proof search: substitution laws, connectives,
builtins, knowledge restriction, modal laws, depth budget, clause indexing
and clause application."""

import copy
import dataclasses
import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberlogic import engine, parser
from cyberlogic import evidence as E
from cyberlogic import syntax as S
from cyberlogic.engine import Prover, resolve, unify
from cyberlogic.errors import FlounderError

from canonical import canonical_names


# ---------------------------------------------------------------------------
# Unification


def V(n):
    return S.Var(n, "Thing")


def C(n):
    return S.Const(n, "Thing")


def F(*args):
    return S.FunApp("succ", args) if len(args) == 1 else S.FunApp("succ", args)


def test_unify_basic():
    s = unify(S.FunApp("succ", (V("X"),)), S.FunApp("succ", (C("a"),)), {})
    assert s == {V("X"): C("a")}


def test_unify_occurs_check():
    assert unify(V("X"), S.FunApp("succ", (V("X"),)), {}) is None


def test_unify_sort_mismatch():
    assert unify(S.Var("X", "Thing"), S.Const("K", "Principal"), {}) is None
    # Terms without a sort, as a peer's answer may bind them.
    for bad in (S.FunApp("succ", ()), S.FunApp("f", (C("a"),))):
        assert unify(V("X"), bad, {}) is None


def test_a_succ_chain_and_a_numeral_do_not_unify():
    # Unification is syntactic, as the checker's comparison is; only the
    # comparison builtins read numbers.
    three = S.FunApp("succ", (S.FunApp("succ", (S.Const("1", "Time"),)),))
    assert unify(three, S.Const("3", "Time"), {}) is None
    assert unify(S.Const("3", "Time"), three, {}) is None


def _random_pair(rng):
    consts = [C("a"), C("b"), C("c")]
    vars_ = [V("X"), V("Y"), V("Z")]

    def term(depth):
        r = rng.random()
        if depth == 0 or r < 0.45:
            return rng.choice(consts)
        if r < 0.7:
            return rng.choice(vars_)
        return S.FunApp("succ", (term(depth - 1),))

    return term(2), term(2)


def _enumerate_ground_unifiers(a, b):
    """Brute force: all assignments of {a,b,c,succ(a..c)} to the variables."""
    vs = sorted(S.term_vars(a) | S.term_vars(b), key=lambda v: v.name)
    domain = [C(n) for n in "abc"] + [S.FunApp("succ", (C(n),)) for n in "abc"]
    found = []
    for combo in itertools.product(domain, repeat=len(vs)):
        sub = dict(zip(vs, combo))
        if S.term_subst(a, sub) == S.term_subst(b, sub):
            found.append(sub)
    return vs, found


def test_mgu_factors_every_ground_unifier():
    rng = random.Random(11)
    tested = 0
    while tested < 500:
        a, b = _random_pair(rng)
        s = unify(a, b, {})
        vs, ground = _enumerate_ground_unifiers(a, b)
        if s is None:
            assert ground == [], (a, b)
            tested += 1
            continue
        # every ground unifier extends the mgu: applying it on top of the
        # mgu'd terms closes the remaining gap
        for sub in ground:
            ga = S.term_subst(resolve(a, s), sub)
            gb = S.term_subst(resolve(b, s), sub)
            assert ga == gb, (a, b, s, sub)
        tested += 1


def test_substitution_idempotent():
    rng = random.Random(12)
    for _ in range(200):
        a, b = _random_pair(rng)
        s = unify(a, b, {})
        if s is None:
            continue
        ra = resolve(a, s)
        assert resolve(ra, s) == ra


# ---------------------------------------------------------------------------
# Proof search


def _prover(src, owner="K"):
    pol = parser.parse_policy(src, owner)
    return Prover({owner: pol}), pol


PATHS = """
sort Nodeid.
pred edge(Nodeid, Nodeid).
pred path(Nodeid, Nodeid).
const n1: Nodeid. const n2: Nodeid. const n3: Nodeid.
e1: edge(n1, n2).
e2: edge(n2, n3).
p1: forall X:Nodeid, Y:Nodeid. edge(X, Y) => path(X, Y).
p2: forall X:Nodeid, Y:Nodeid, Z:Nodeid. edge(X, Y) => path(Y, Z) => path(X, Z).
"""


def test_top_succeeds_once():
    p, _ = _prover("principal K.\n")
    answers = list(p.ask(S.TOP))
    assert len(answers) == 1
    assert answers[0].evidence == E.Unit()


def test_backchain_enumerates_answers_in_clause_order():
    p, pol = _prover(PATHS)
    goal, free = parser.parse_goal("path(n1, z)", pol.signature)
    answers = list(p.ask(goal, free))
    zs = [S.fmt_term(a.bindings[S.Var("z", "Nodeid")]) for a in answers]
    assert zs == ["n2", "n3"]


def test_all_answers_check(tmp_path):
    p, pol = _prover(PATHS)
    goal, free = parser.parse_goal("path(n1, z)", pol.signature)
    for a in p.ask(goal, free):
        assert E.check({pol.digest: pol}, E.HypothesisEnv(), a.evidence, a.goal)


def test_interleaved_asks_on_one_prover_answer_as_each_alone():
    p, pol = _prover(PATHS)
    goal, free = parser.parse_goal("path(n1, z)", pol.signature)
    other, other_free = parser.parse_goal("path(w, n3)", pol.signature)
    alone = [a.goal for a in _prover(PATHS)[0].ask(goal, free)]
    first = p.ask(goal, free)
    answers = [next(first).goal]
    assert next(p.ask(other, other_free)) is not None
    assert answers + [a.goal for a in first] == alone


def test_disjunction_left_then_right():
    p, pol = _prover(PATHS)
    goal, _ = parser.parse_goal("path(n3, n1) \\/ path(n1, n3)", pol.signature)
    answers = list(p.ask(goal))
    assert len(answers) == 1
    assert isinstance(answers[0].evidence, E.Inr)


def test_hypothetical_goal_extends_program():
    p, pol = _prover(PATHS)
    goal, _ = parser.parse_goal("(edge(n3, n1)) => path(n2, n1)", pol.signature)
    a = next(iter(p.ask(goal)), None)
    assert a is not None
    assert isinstance(a.evidence, E.Abstraction)


def test_universal_goal_uses_fresh_name():
    p, pol = _prover(PATHS)
    goal, _ = parser.parse_goal(
        "forall w:Nodeid. (edge(n3, w)) => path(n1, w)", pol.signature
    )
    a = next(iter(p.ask(goal)), None)
    assert a is not None


def test_eigenvariable_escape_rejected():
    # exists x. forall y. same(x, y) must fail: x would capture the fresh name
    src = "sort Thing. pred same(Thing, Thing). principal K.\ns1: forall z:Thing. same(z, z).\n"
    p, _ = _prover(src)
    x = S.Var("x", "Thing")
    y = S.Var("y", "Thing")
    goal = S.Exists(x, S.Forall(y, S.Atom("same", (x, y))))
    assert next(iter(p.ask(goal)), None) is None
    # the other nesting order is provable
    goal2 = S.Forall(y, S.Exists(x, S.Atom("same", (x, y))))
    assert next(iter(p.ask(goal2)), None) is not None


def test_builtins_delay_until_ground():
    src = PATHS + "q1: forall X:Nodeid, Y:Nodeid. (X != Y /\\ edge(X, Y)) => path(X, Y).\n"
    p, pol = _prover(src)
    goal, free = parser.parse_goal("path(x, y)", pol.signature)
    assert next(iter(p.ask(goal, free)), None) is not None


def test_flounder_when_builtin_never_grounds():
    p, _ = _prover("sort Thing. principal K.\n")
    x = S.Var("x", "Thing")
    y = S.Var("y", "Thing")
    goal = S.Atom("!=", (x, y))
    with pytest.raises(FlounderError):
        list(p.ask(goal, [x, y]))


def test_depth_budget_exhaustion_is_flagged():
    src = "pred loop(Principal). principal K.\nl1: loop(K) => loop(K).\n"
    p, pol = _prover(src)
    goal, _ = parser.parse_goal("loop(K)", pol.signature)
    assert next(iter(p.ask(goal, depth=8)), None) is None
    # self-feeding clause is pruned as an identical ancestor, so the
    # search fails finitely; a genuinely growing program exhausts instead
    src2 = "pred n(Time). principal K.\nn1: n(0).\nn2: forall t:Time. n(t) => n(succ(t)).\n"
    p2, pol2 = _prover(src2)
    goal2, _ = parser.parse_goal("n(succ(succ(succ(0))))", pol2.signature)
    assert next(iter(p2.ask(goal2, depth=2)), None) is None
    assert p2.state.exhausted
    assert next(iter(p2.ask(goal2, depth=16)), None) is not None
    assert not p2.state.exhausted


def test_depth_budget_bounds_backchain_steps():
    src = "pred n(Time). principal K.\nn1: n(0).\nn2: forall t:Time. n(t) => n(succ(t)).\n"
    p, pol = _prover(src)
    goal, _ = parser.parse_goal("n(succ(succ(0)))", pol.signature)
    p.trace.clear()
    assert next(iter(p.ask(goal, depth=8)), None) is not None
    steps = [int(t.split()[1]) for t in p.trace if t.startswith("STEP")]
    assert all(1 <= d <= 8 for d in steps)


# ---------------------------------------------------------------------------
# Knowledge restriction


KNOWS_WORLD = """
pred critical(Principal).
pred nonCritical(Principal).
principal KT, KU.
u1: KU says critical(KU).
"""


def _knows_provers():
    pol_u = parser.parse_policy(KNOWS_WORLD, "KU")
    common = parser.parse_policy(
        "pred nonCritical(Principal). principal KT, KU.\nc1: nonCritical(KT).\n",
        "common",
    )
    return Prover({"KU": pol_u, "common": common}), pol_u, common


def test_knows_blocks_clauses_outside_the_group():
    p, pol_u, _ = _knows_provers()
    goal, _ = parser.parse_goal("knows {KT} KU says critical(KU)", pol_u.signature)
    assert next(iter(p.ask(goal)), None) is None


def test_knows_allows_the_owning_group():
    p, pol_u, common = _knows_provers()
    goal, _ = parser.parse_goal("knows {KT, KU} KU says critical(KU)", pol_u.signature)
    a = next(iter(p.ask(goal)), None)
    assert a is not None
    assert isinstance(a.evidence, E.KnowsWrap)
    res = E.check(
        {pol_u.digest: pol_u, common.digest: common}, E.HypothesisEnv(), a.evidence, a.goal
    )
    assert res


def test_knows_empty_group_is_common_knowledge_only():
    p, pol_u, _ = _knows_provers()
    goal, _ = parser.parse_goal("knows {} nonCritical(KT)", pol_u.signature)
    assert next(iter(p.ask(goal)), None) is not None
    goal2, _ = parser.parse_goal("knows {} KU says critical(KU)", pol_u.signature)
    assert next(iter(p.ask(goal2)), None) is None


# ---------------------------------------------------------------------------
# Modal laws (bounded search: failure below means no proof within depth 64)


LAW_SIG = """
sort Thing.
pred p(Thing).
pred q(Thing).
principal K, L.
const a: Thing.
"""


def _law_prover(extra=""):
    pol = parser.parse_policy(LAW_SIG + extra, "K")
    return Prover({"K": pol}), pol


def _holds(p, pol, text):
    goal, _ = parser.parse_goal(text, pol.signature)
    return next(iter(p.ask(goal, depth=64)), None) is not None


def test_distribution_laws_hold():
    p, pol = _law_prover("f1: K says p(a).\nf2: K says q(a).\n")
    assert _holds(p, pol, "K says (p(a) /\\ q(a))")
    assert _holds(p, pol, "(K says p(a)) /\\ (K says q(a))")
    # absorption: <K><K> p follows from <K> p
    assert _holds(p, pol, "K says (K says p(a))")


def test_attestation_does_not_imply_truth():
    p, pol = _law_prover("f1: K says p(a).\n")
    assert _holds(p, pol, "K says p(a)")
    assert not _holds(p, pol, "p(a)")


def test_attestation_implies_truth_only_with_authority():
    p, pol = _law_prover("f1: K says p(a).\nauth: forall x:Thing. (K says p(x)) => p(x).\n")
    assert _holds(p, pol, "p(a)")


def test_commuted_nested_attestations_fail():
    p, pol = _law_prover("f1: K says (L says p(a)).\n")
    # <K><L> p normalizes to <L> p; the commuted <L><K> p needs K's signature
    assert _holds(p, pol, "L says p(a)")
    assert not _holds(p, pol, "K says p(a)")


def test_an_owner_bare_head_answers_only_the_owner_attestation():
    pol_k = parser.parse_policy(LAW_SIG + "f1: p(a).\n", "K")
    pol_c = parser.parse_policy(LAW_SIG + "f2: q(a).\n", S.COMMON)
    p = Prover({"K": pol_k, S.COMMON: pol_c})
    goal, free = parser.parse_goal("x says p(a)", pol_k.signature)
    answer = next(iter(p.ask(goal, free)))
    assert answer.bindings[free[0]] == S.Const("K", "Principal")
    assert answer.evidence == E.ClauseApp("f1", pol_k.digest)
    assert E.check({pol_k.digest: pol_k}, E.HypothesisEnv(), answer.evidence, answer.goal)
    assert not _holds(p, pol_k, "L says p(a)")
    assert not _holds(p, pol_k, "K says q(a)")  # the common policy attests nothing
    assert _holds(p, pol_k, "q(a)")


def test_knows_commutation_fails():
    pol_k = parser.parse_policy(LAW_SIG + "f1: p(a).\n", "K")
    pol_l = parser.parse_policy(LAW_SIG, "L")
    p = Prover({"K": pol_k, "L": pol_l})
    assert _holds(p, pol_k, "knows {K} p(a)")
    assert not _holds(p, pol_k, "knows {L} p(a)")
    assert not _holds(p, pol_k, "knows {L} knows {K} p(a)")


def test_a_restriction_inside_a_restriction_may_only_narrow_it():
    pol_k = parser.parse_policy(LAW_SIG + "f1: p(a).\n", "K")
    p = Prover({"K": pol_k, "L": parser.parse_policy(LAW_SIG, "L")})
    assert _holds(p, pol_k, "knows {K} knows {K} p(a)")
    assert _holds(p, pol_k, "knows {K, L} knows {K} p(a)")
    assert not _holds(p, pol_k, "knows {K} knows {K, L} p(a)")


# ---------------------------------------------------------------------------
# First-argument clause indexing


class _WholeGroups(engine.ClauseIndex):
    """The index without first-argument keys: every goal tries its whole
    predicate group."""

    def candidates(self, pred, key=None):
        return super().candidates(pred)


def _succ(t):
    return S.FunApp("succ", (t,))


_X, _N, _T = S.Var("X", "Thing"), S.Var("N", "Int"), S.Var("T", "Time")
_PRINCIPALS = (S.Const("K", "Principal"), S.Const("L", "Principal"))
# First arguments filed under a key: the names "3" and "K" at more than
# one sort, and numerals and succ chains of equal values, each filed under
# its own key, since unification is syntactic.
_KEYED = (
    C("a"), C("b"), C("3"), C("K"),
    S.Const("3", "Int"), S.Const("3", "Time"), S.Const("4", "Time"),
    _succ(S.Const("2", "Int")), _succ(S.Const("3", "Int")), _succ(_succ(S.Const("1", "Time"))),
    S.Const("K", "Principal"),
)
# First arguments of wildcard heads, and `succ(a)`, a ground one keyed as itself.
_WILD = (_X, _X, _N, _T, _succ(_N), _succ(C("a")))
_PREDS = {"p": 2, "q": 1, "r": 0}


def _random_atom(rnd, firsts):
    pred = rnd.choice("ppqqr")
    args = [rnd.choice(firsts)] + [rnd.choice(_KEYED[:3] + (_X, _N)) for _ in range(1, _PREDS[pred])]
    atom = S.Atom(pred, tuple(args[: _PREDS[pred]]))
    if rnd.randrange(4) == 0:
        return S.Attest(rnd.choice(_PRINCIPALS + (S.Var("P", "Principal"),)), atom)
    return atom


def _random_policy(rnd, owner):
    clauses = []
    for i in range(rnd.randint(1, 12)):
        head = _random_atom(rnd, _KEYED + _WILD)
        if isinstance(head, S.Attest):
            head = S.Attest(rnd.choice(_PRINCIPALS), head.body)
        slots = ()
        if rnd.randrange(3) == 0:
            slots = tuple(_random_atom(rnd, _KEYED + _WILD) for _ in range(rnd.randint(1, 2)))
        universals = tuple(S.free_vars(functools.reduce(S.Implies, slots + (head,))))
        clauses.append(S.Clause(f"{owner}{i}", universals, slots, head))
    return S.Policy(owner, S.Signature(), clauses)


def _random_goal(rnd):
    goal = _random_atom(rnd, _KEYED + (_X, _N, _succ(_N), _succ(_N)))
    shape = rnd.randrange(4)
    if shape == 0:  # the first conjunct binds the second one's arguments
        goal = S.And(goal, _random_atom(rnd, (_X, _X, _N, _succ(_N))))
    elif shape == 1:  # hypothesis clauses are tried before the policies
        goal = S.Implies(_random_atom(rnd, _KEYED), goal)
    return goal


def _search(policies, goal, index_type):
    """Answers and trace of a search with the indexes `index_type(policy)`."""
    indexes = {owner: index_type(pol) for owner, pol in policies.items()}
    prover = Prover(policies, indexes=indexes)
    answers = list(itertools.islice(prover.ask(goal, list(S.free_vars(goal)), depth=4), 25))
    return answers, prover.trace


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=True))
def test_indexed_search_equals_whole_group_search(rnd):
    # The whole group also tries the heads that the index leaves out, and
    # makes fresh names for them, so the two agree up to those names.
    policies = {owner: _random_policy(rnd, owner) for owner in ("K", S.COMMON)}
    goal = _random_goal(rnd)
    indexed = _search(policies, goal, engine.ClauseIndex)
    assert canonical_names(repr(indexed)) == canonical_names(repr(_search(policies, goal, _WholeGroups)))


def _pred(head):
    return (head.body if isinstance(head, S.Attest) else head).pred


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=True))
def test_an_extended_index_searches_as_a_fresh_one(rnd):
    policies = {owner: _random_policy(rnd, owner) for owner in ("K", S.COMMON)}
    goal = _random_goal(rnd)
    cuts = {owner: rnd.randint(0, len(pol.clauses)) for owner, pol in policies.items()}
    fresh = _search(policies, goal, engine.ClauseIndex)
    # A base only built, one that keyed lookups have read (which changes
    # nothing), and one whose last clause is not the policy's (so the
    # index is built afresh).
    for split_base, replace in ((False, False), (True, False), (True, True)):
        prefixes = {}
        for owner, pol in policies.items():
            prefix = pol.clauses[: cuts[owner]]
            if replace and prefix:
                c = prefix[-1]
                prefix = prefix[:-1] + (S.Clause(c.label + "x", c.universals, c.slots, c.head),)
            prefixes[owner] = S.Policy(owner, pol.signature, prefix)
        bases = {owner: engine.ClauseIndex(p) for owner, p in prefixes.items()}
        if split_base:
            for base, pred in itertools.product(bases.values(), _PREDS):
                base.candidates(pred, "any key")
        extended = {owner: engine.ClauseIndex(pol, bases[owner]) for owner, pol in policies.items()}
        assert _search(policies, goal, lambda pol: extended[pol.owner]) == fresh
        # A group no clause was appended to is shared with the base, and
        # the base still searches as a fresh index of its own policy.
        for owner, pol in policies.items():
            appended = {_pred(c.head) for c in pol.clauses[cuts[owner] :]}
            for pred in set(_PREDS) - appended:
                if cuts[owner] and not replace and bases[owner].candidates(pred):
                    assert extended[owner].candidates(pred) is bases[owner].candidates(pred)
        own_base = _search(prefixes, goal, lambda pol: bases[pol.owner])
        assert own_base == _search(prefixes, goal, engine.ClauseIndex)


def _snapshot(index):
    return copy.deepcopy({k: v for k, v in vars(index).items() if k != "policy"})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=True))
def test_lookups_leave_an_index_as_it_was_built(rnd):
    policy = _random_policy(rnd, "K")
    index = engine.ClauseIndex(policy)
    built = _snapshot(index)
    for _ in range(5):  # searches look up the keys of their goals
        list(index.candidates(rnd.choice(list(_PREDS)), rnd.choice((None, "any key"))))
        _search({"K": policy}, _random_goal(rnd), lambda pol: index)
    unchanged = _snapshot(index) == built  # pytest's diff of two snapshots takes minutes
    assert unchanged


# SHA-256 of the answers (bindings, goal text, evidence) and trace of the
# 500 random searches below, with fresh names renamed by first appearance
# (tests/canonical.py).  The tests above compare index variants that share
# one clause application, so this is what pins the bindings and trace lines
# it produces, up to the numbering of the names it makes.  The programs are
# drawn from seeded `random.Random`s rather than hypothesis, whose draws may
# change with its version.  Recorded by the prover that numbered fresh names
# as if every clause had been tried; the prover that numbers only the names
# it makes gives the same digest.
SEARCH_SHA256 = "2a09a6a8ee55b3fc94c54caf7fed6192d394f6ba674005bb53a45a5c24e6a8ff"


def test_random_searches_give_recorded_answers_and_traces():
    digest = hashlib.sha256()
    for seed in range(500):
        rnd = random.Random(seed)
        policies = {owner: _random_policy(rnd, owner) for owner in ("K", S.COMMON)}
        answers, trace = _search(policies, _random_goal(rnd), engine.ClauseIndex)
        digests, text = {pol.digest: pol for pol in policies.values()}, []
        for a in answers:
            verdict = E.check(digests, E.HypothesisEnv(), a.evidence, a.goal)
            assert verdict, (seed, S.fmt_formula(a.goal), verdict)
            bindings = sorted(f"{v.name}:{v.sort}={S.fmt_term(t)}" for v, t in a.bindings.items())
            text.append(repr((bindings, S.fmt_formula(a.goal), repr(a.evidence))))
        digest.update(canonical_names("\n".join([*text, repr(trace)])).encode())
    assert digest.hexdigest() == SEARCH_SHA256


def test_a_bound_join_goal_tries_only_matching_heads(monkeypatch):
    # 800 objects, two edges out of each and every other one tagged: 2,000 facts
    objects = 800
    lines = ["sort Obj.", "pred e(Obj, Obj).", "pred tag(Obj).", "pred path2(Obj, Obj)."]
    lines += [f"const o{i}: Obj." for i in range(objects)]
    lines.append("j: forall x:Obj, y:Obj, z:Obj. (e(x, y) /\\ e(y, z) /\\ tag(z)) => path2(x, z).")
    for a in range(objects):
        for k, b in enumerate((a + 1, 7 * a + 3)):
            lines.append(f"e{a}_{k}: e(o{a}, o{b % objects}).")
    lines += [f"t{a}: tag(o{a})." for a in range(0, objects, 2)]
    pol = parser.parse_policy("\n".join(lines) + "\n", "W")
    assert len(pol.clauses) == 2001
    prover = Prover({"W": pol})
    goal, free = parser.parse_goal("path2(o798, z)", pol.signature)

    calls = []
    unify_atomic = engine.unify_atomic

    def counting(*args):
        calls.append(args)
        return unify_atomic(*args)

    monkeypatch.setattr(engine, "unify_atomic", counting)
    answer = prover.first(goal, free)
    assert answer.bindings[free[0]] == S.Const("o0", "Obj")  # o798 -> o799 -> o0
    assert 0 < len(calls) <= 10


# ---------------------------------------------------------------------------
# Clause application: head variables matched to goal constants, and
# one-slot bodies solved without the conjunct scheduler.  Each test pins the
# answers, the trace and the fresh-name counter.

HEADS_SIG = (
    "sort Thing. pred p(Thing, Thing). pred q(Thing). pred n(Time). pred m(Time, Time).\n"
    "principal K. const a: Thing. const b: Thing.\n"
)


def _applied(src, goal_text):
    """Answers ({name: term text}, evidence), trace, fresh-name counter and
    policy digest of `goal_text` against K's policy `src`."""
    pol = parser.parse_policy(HEADS_SIG + src, "K")
    goal, free = parser.parse_goal(goal_text, pol.signature)
    prover = Prover({"K": pol})
    answers = [
        ({v.name: S.fmt_term(t) for v, t in a.bindings.items()}, a.evidence)
        for a in prover.ask(goal, free)
    ]
    return answers, prover.trace, prover.state.counter, pol.digest


def test_a_repeated_head_variable_takes_the_first_goal_argument():
    src = "r1: forall x:Thing. p(x, x).\n"
    assert _applied(src, "p(a, b)")[:3] == ([], ["STEP 64 goal p(a, b)"], 0)
    answers, trace, counter, d = _applied(src, "p(a, a)")
    assert answers == [({}, E.ClauseApp("r1", d))]  # `x` is read off the goal
    assert (trace, counter) == (["STEP 64 goal p(a, a)", "STEP 64 apply r1 p(a, a)"], 0)
    # A numeral and a `succ` chain of one value are different terms; `t`
    # faces the constant `3` in the first goal and gets a variable in the
    # second.
    for goal, counter in (("m(3, succ(2))", 0), ("m(succ(2), 3)", 1)):
        assert _applied("t1: forall t:Time. m(t, t).\n", goal)[:3] == ([], [f"STEP 64 goal {goal}"], counter)


@pytest.mark.parametrize("fact, goal", [
    (S.Atom("k", (S.Const("3", "Int"),)), S.Atom("k", (S.Const("3", "Time"),))),  # 3:Int meets 3:Time
    (S.Atom("n", (_succ(S.Const("2", "Time")),)), S.Atom("n", (S.Const("3", "Time"),))),  # n(succ(2)) meets n(3)
])
def test_numbers_of_one_value_do_not_unify_and_the_checker_agrees(fact, goal):
    pol = S.Policy("K", S.Signature(), [S.Clause("f", (), (), fact)])
    assert unify(fact.args[0], goal.args[0], {}) is None
    assert unify(goal.args[0], fact.args[0], {}) is None
    prover = Prover({"K": pol})
    assert list(prover.ask(goal)) == []
    assert prover.trace == [f"STEP 64 goal {S.fmt_formula(goal)}"]
    verdict = E.check({pol.digest: pol}, E.HypothesisEnv(), E.ClauseApp("f", pol.digest), goal)
    assert verdict == E.CheckResult(False, (), "clause 'f' head does not match the goal")


def test_an_eigenvariable_is_not_named_after_a_policy_owner():
    x = S.Var("x", "Principal")
    pol = S.Policy("c1", S.Signature(), [S.Clause("h", (), (), S.Atom("s", ()))])
    prover = Prover({"c1": pol})
    assert list(prover.ask(S.Forall(x, S.Attest(x, S.Atom("s", ()))))) == []
    assert prover.trace == ["STEP 64 all forall x:Principal. x says s", "STEP 64 goal c2 says s"]


def test_a_head_variable_under_succ_and_a_whole_succ_argument():
    zero, one = S.Const("0", "Time"), _succ(S.Const("0", "Time"))
    src = "n1: n(0).\nn2: forall t:Time. n(t) => n(succ(t)).\n"
    answers, trace, counter, d = _applied(src, "n(succ(succ(0)))")
    n1 = E.ClauseApp("n1", d)
    assert answers == [({}, E.ClauseApp("n2", d, (one,), (E.ClauseApp("n2", d, (zero,), (n1,)),)))]
    assert trace == [
        "STEP 64 goal n(succ(succ(0)))", "STEP 64 apply n2 n(succ(succ(0)))",
        "STEP 63 goal n(succ(0))", "STEP 63 apply n2 n(succ(0))",
        "STEP 62 goal n(0)", "STEP 62 apply n1 n(0)",
    ]
    assert counter == 3
    # `succ(t)` never unifies with a numeral, even where a later argument
    # would give `t` the value that makes them equal
    assert _applied(src, "n(2)")[:3] == ([], ["STEP 64 goal n(2)"], 1)
    assert _applied("t1: forall t:Time. m(succ(t), t).\n", "m(4, 3)")[:3] == ([], ["STEP 64 goal m(4, 3)"], 1)
    answers, trace, counter, d = _applied("m1: forall t:Time. n(t).\n", "n(succ(succ(0)))")
    assert answers == [({}, E.ClauseApp("m1", d))]
    assert (trace, counter) == (["STEP 64 goal n(succ(succ(0)))", "STEP 64 apply m1 n(succ(succ(0)))"], 1)


def test_a_goal_constant_of_another_sort_fails_and_fresh_names_stay(monkeypatch):
    k, x, y = S.Var("k", "Int"), V("x"), V("y")
    pol = S.Policy("K", S.Signature(), [
        S.Clause("s1", (k,), (), S.Atom("q", (k,))),
        S.Clause("s2", (x, y), (), S.Atom("q", (x,))),
    ])
    calls = []
    unify_atomic = engine.unify_atomic

    def counting(*args):
        calls.append(args)
        return unify_atomic(*args)

    monkeypatch.setattr(engine, "unify_atomic", counting)
    prover = Prover({"K": pol})
    answers = list(prover.ask(S.Atom("q", (C("a"),))))
    # `k` does not take the Thing `a` and gets a variable; `x` takes `a`,
    # and `y`, the one argument `q(x)` does not fix, gets the next variable
    assert [a.evidence for a in answers] == [E.ClauseApp("s2", pol.digest, (S.Var("_2", "Thing"),))]
    assert (prover.trace, prover.state.counter) == (["STEP 64 goal q(a)", "STEP 64 apply s2 q(a)"], 2)
    assert len(calls) == 2  # one head attempt each


def test_a_variable_goal_argument_gets_a_fresh_variable():
    answers, trace, counter, d = _applied("r1: forall x:Thing. p(x, x).\n", "exists z:Thing. p(a, z)")
    assert answers == [({}, E.Witness(C("a"), E.ClauseApp("r1", d)))]
    assert (trace, counter) == (["STEP 64 goal p(a, _1)", "STEP 64 apply r1 p(a, a)"], 1)
    src = "r1: forall x:Thing, y:Thing. p(x, y) => q(x).\nr2: p(b, a).\n"
    answers, trace, counter, d = _applied(src, "exists z:Thing. q(z)")
    r1 = E.ClauseApp("r1", d, (C("a"),), (E.ClauseApp("r2", d),))  # `y`; the goal gives `x`
    assert answers == [({}, E.Witness(C("b"), r1))]
    assert trace == [
        "STEP 64 goal q(_1)", "STEP 64 apply r1 q(_1)",
        "STEP 63 goal p(_1, _3)", "STEP 63 apply r2 p(b, a)",
    ]
    assert counter == 3
    # A hypothesis clause's head may hold a metavariable (here `_1`, for
    # `z`), which is not the clause's to rename: unification binds it.
    goal = "exists z:Thing. ((forall y:Thing. q(y) => p(y, z)) => p(a, b))"
    answers, trace, counter, d = _applied("r1: forall y:Thing. q(y).\n", goal)
    h2 = E.ClauseApp("h2", None, (), (E.ClauseApp("r1", d),))
    assert answers == [({}, E.Witness(C("b"), E.Abstraction("h2", h2)))]
    assert trace == [
        "STEP 64 assume forall y:Thing. q(y) => p(y, _1)", "STEP 64 goal p(a, b)",
        "STEP 64 apply h2 p(a, b)", "STEP 63 goal q(a)", "STEP 63 apply r1 q(a)",
    ]
    assert counter == 3


def test_a_universal_bound_twice_gets_one_term():
    # `c1_2` quantifies `x` twice, outside the conjunction and inside it;
    # the clause binds it once, and it takes one term, matched or fresh,
    # which the goal gives
    src = "c1: forall x:Thing. (p(x, x) /\\ forall x:Thing. q(x)).\n"
    x = S.Var("x", "Thing")
    assert [c.universals for c in parser.parse_policy(HEADS_SIG + src, "K").clauses] == [(x,), (x,)]
    assert S.clauses_of(S.Forall(x, S.Forall(x, S.Atom("q", (x,)))), "c")[0].universals == (x,)
    answers, trace, counter, d = _applied(src, "q(a)")
    assert answers == [({}, E.ClauseApp("c1_2", d))]
    assert (trace, counter) == (["STEP 64 goal q(a)", "STEP 64 apply c1_2 q(a)"], 0)
    answers, trace, counter, d = _applied(src, "exists z:Thing. q(z)")
    z = S.Var("_1", "Thing")
    assert answers == [({}, E.Witness(z, E.ClauseApp("c1_2", d)))]
    assert (trace, counter) == (["STEP 64 goal q(_1)", "STEP 64 apply c1_2 q(_1)"], 2)


def test_a_conjunct_clause_drops_the_outer_universals_it_does_not_mention():
    # `a_2` is `q()`: the `x` outside the conjunction is not its universal,
    # so its application writes no argument, where it once carried the
    # prover's unbound variable for `x`, which the checker took.
    src = "pred r().\na: forall x:Thing. (p(x, x) /\\ r()).\n"
    x = S.Var("x", "Thing")
    pol, goal = parser.parse_policy(HEADS_SIG + src, "K"), S.Atom("r", ())
    assert [c.universals for c in pol.clauses] == [(x,), ()]
    answers, _, counter, d = _applied(src, "r()")
    assert (answers, counter) == ([({}, E.ClauseApp("a_2", d))], 0)
    assert E.check({d: pol}, E.HypothesisEnv(), E.ClauseApp("a_2", d), goal)
    old = E.ClauseApp("a_2", d, (S.Var("_2", "Thing"),))
    refused = E.CheckResult(False, (), "clause 'a_2' expects 0 arguments")
    assert E.check({d: pol}, E.HypothesisEnv(), old, goal) == refused
    # A hypothesis splits as the checker splits it.
    hyp, _ = parser.parse_goal("(forall x:Thing. (p(x, x) /\\ r())) => r()", pol.signature)
    answer = Prover({"K": pol}).first(hyp)
    assert answer.evidence == E.Abstraction("h1", E.ClauseApp("h1_2", None))
    assert E.check({d: pol}, E.HypothesisEnv(), answer.evidence, hyp)


def test_attested_heads_match_the_principal_first():
    k = S.Const("K", "Principal")
    answers, trace, counter, d = _applied("r1: forall x:Thing. K says q(x).\n", "K says q(a)")
    assert answers == [({}, E.ClauseApp("r1", d))]
    assert (trace, counter) == (["STEP 64 goal K says q(a)", "STEP 64 apply r1 K says q(a)"], 0)
    src = "r1: forall k:Principal, x:Thing. k says p(x, x).\n"
    answers, trace, counter, d = _applied(src, "K says p(a, a)")
    assert answers == [({}, E.ClauseApp("r1", d))]
    assert (trace, counter) == (["STEP 64 goal K says p(a, a)", "STEP 64 apply r1 K says p(a, a)"], 0)
    # an owner's bare head answers `K says ...`, for a variable principal too
    answers, trace, counter, d = _applied("r1: forall x:Thing. q(x).\n", "w says q(a)")
    assert answers == [({"w": "K"}, E.ClauseApp("r1", d))]
    assert (trace, counter) == (["STEP 64 goal w says q(a)", "STEP 64 apply r1 K says q(a)"], 1)


# Who owns a bare fact `p(K)`, and which goals its application proves: the
# prover finds an answer exactly when the checker accepts the application.
_BARE_OWNERS = {"K": "K", "common": S.COMMON, "a hypothesis": None}
_BARE_PROVES = {"p(K)": {"K", "common", "a hypothesis"}, "K says p(K)": {"K"}, "common says p(K)": set()}


@pytest.mark.parametrize("owner", sorted(_BARE_OWNERS))
@pytest.mark.parametrize("goal_text", sorted(_BARE_PROVES))
def test_prover_and_checker_agree_on_bare_heads(owner, goal_text):
    name = _BARE_OWNERS[owner]
    pol = parser.parse_policy("pred p(Principal).\nprincipal K, common.\nf: p(K).\n", name or "K")
    goal, _ = parser.parse_goal(goal_text, pol.signature)
    if name is None:
        prover, policies, env, digest = Prover({}), {}, E.HypothesisEnv({"f": pol.clauses[0]}), None
    else:
        prover, policies, env, digest = Prover({name: pol}), {pol.digest: pol}, E.HypothesisEnv(), pol.digest
    answer = prover.first(goal, env=env)
    verdict = E.check(policies, env, E.ClauseApp("f", digest), goal)
    assert (answer is not None, verdict.ok) == ((owner in _BARE_PROVES[goal_text],) * 2)
    if answer is not None:
        assert answer.evidence == E.ClauseApp("f", digest)
    else:
        assert verdict.reason == "clause 'f' head does not match the goal"


def test_a_single_disjunction_slot():
    src = "r1: forall x:Thing, y:Thing. (q(x) \\/ p(x, y)) => p(y, x).\nr2: p(a, b).\n"
    answers, trace, counter, d = _applied(src, "p(b, a)")
    assert answers == [({}, E.ClauseApp("r1", d, (), (E.Inr(E.ClauseApp("r2", d)),)))]
    assert trace == [
        "STEP 64 goal p(b, a)", "STEP 64 apply r1 p(b, a)", "STEP 63 or q(a) \\/ p(a, b)",
        "STEP 63 goal q(a)", "STEP 63 goal p(a, b)", "STEP 63 apply r1 p(a, b)",
        "STEP 62 or q(b) \\/ p(b, a)", "STEP 62 goal q(b)", "STEP 63 apply r2 p(a, b)",
    ]
    assert counter == 0


def test_a_single_comparison_slot_is_still_scheduled():
    src = "r1: forall x:Thing, y:Thing. x != y => p(x, y).\n"
    answers, trace, counter, d = _applied(src, "p(a, b)")
    hole = E.TheoryHole("!=", (C("a"), C("b")))
    assert answers == [({}, E.ClauseApp("r1", d, (), (hole,)))]
    assert (trace, counter) == (["STEP 64 goal p(a, b)", "STEP 64 apply r1 p(a, b)"], 0)
    with pytest.raises(FlounderError, match="^interpreted goals never became ground: a != z$"):
        _applied(src, "p(a, z)")


def test_a_slot_binder_spelled_like_a_fresh_name():
    # The slot binds `_1`, the name the first fresh variable gets.  A
    # universal matched to a goal constant puts no variable into the slot,
    # so the binder keeps its name; one renamed to a fresh variable that is
    # then printed as `_1` makes the `all` line rename the binder.
    src = "r1: forall x:Thing. (forall _1:Thing. q(_1) => p(x, _1)) => q(x).\nr2: forall y:Thing. p(a, y).\n"
    answers, trace, counter, d = _applied(src, "q(a)")
    body = E.Abstraction("c1", E.Abstraction("h3", E.ClauseApp("r2", d)))
    assert answers == [({}, E.ClauseApp("r1", d, (), (body,)))]
    assert trace == [
        "STEP 64 goal q(a)", "STEP 64 apply r1 q(a)",
        "STEP 63 all forall _1:Thing. q(_1) => p(a, _1)",
        "STEP 63 assume q(c1)", "STEP 63 goal p(a, c1)", "STEP 63 apply r2 p(a, c1)",
    ]
    assert counter == 3
    answers, trace, counter, d = _applied(src, "exists z:Thing. q(z)")
    assert len(answers) == 1
    assert trace[2] == "STEP 63 all forall _1'1:Thing. q(_1'1) => p(_1, _1'1)"
    assert counter == 5


# `d0`, `d1`, `d2`, `p(a, _)` and `q(_)` under `qp` have one candidate
# clause each, so each is a determinate goal; `top` and a `q` goal whose
# argument is unbound have two.  Under `t1` the chain `d1`, `d2` fails at
# `p(a, b)`, and `t2` then names an `exists` witness and a `forall`
# eigenconstant.
_DETERMINATE = (
    "pred top(Thing). pred d0(Thing). pred d1(Thing). pred d2(Thing). pred r(Thing).\n"
    "d0r: forall x:Thing. top(x) => d0(x).\n"
    "t1: forall x:Thing. d1(x) => top(x).\n"
    "t2: forall x:Thing. (exists y:Thing. q(y)) /\\ (forall z:Thing. r(z) => r(z)) => top(x).\n"
    "d1r: forall x:Thing. d2(x) => d1(x).\n"
    "d2r: forall x:Thing. p(x, b) => d2(x).\n"
    "pa: p(a, a).\n"
    "qb: q(b).\n"
    "qp: forall u:Thing, v:Thing. p(u, v) => q(u).\n"
)


@pytest.mark.parametrize("goal, names", [
    ("d0(a)", ("a", "_1", "_6", "c2", "h4", "c7", "h9")),
    # `W` is a variable, so each clause on the way to `t2` gets one for its `x`
    ("d0(W)", ("W", "_7", "_12", "c8", "h10", "c13", "h15")),
])
def test_a_search_through_determinate_goals_and_choice_points(goal, names):
    # Each name is numbered when it is made: a determinate goal takes no
    # number for the clauses it does not try, and backtracking gives back
    # none that was taken.
    x, y, v, c1, h1, c2, h2 = names
    answers, trace, _, d = _applied(_DETERMINATE, goal)

    def answer(witness, q, eigen, hyp):
        body = E.PairEv(E.Witness(C(witness), q), E.Abstraction(eigen, E.Abstraction(hyp, E.ClauseApp(hyp, None))))
        return ({"W": "W"} if x == "W" else {}), E.ClauseApp("d0r", d, (), (E.ClauseApp("t2", d, (), (body,)),))

    assert answers == [
        answer("b", E.ClauseApp("qb", d), c1, h1),
        answer("a", E.ClauseApp("qp", d, (C("a"),), (E.ClauseApp("pa", d),)), c2, h2),
    ]
    assert trace == [
        f"STEP 64 goal d0({x})", f"STEP 64 apply d0r d0({x})",
        f"STEP 63 goal top({x})", f"STEP 63 apply t1 top({x})",
        f"STEP 62 goal d1({x})", f"STEP 62 apply d1r d1({x})",
        f"STEP 61 goal d2({x})", f"STEP 61 apply d2r d2({x})",
        f"STEP 60 goal p({x}, b)",
        f"STEP 63 apply t2 top({x})",
        f"STEP 62 goal q({y})", "STEP 62 apply qb q(b)",
        "STEP 62 all forall z:Thing. r(z) => r(z)", f"STEP 62 assume r({c1})",
        f"STEP 62 goal r({c1})", f"STEP 62 apply {h1} r({c1})",
        f"STEP 62 apply qp q({y})",
        f"STEP 61 goal p({y}, {v})", "STEP 61 apply pa p(a, a)",
        "STEP 62 all forall z:Thing. r(z) => r(z)", f"STEP 62 assume r({c2})",
        f"STEP 62 goal r({c2})", f"STEP 62 apply {h2} r({c2})",
    ]


@pytest.mark.parametrize("text, proved", [
    ("forall x:Thing. x != a", False),
    ("forall x:Int. x != 4", False),
    ("forall x:Thing. x = a", False),
    ("forall x:Thing. x = x", True),
    ("forall x:Thing. a != b", True),  # no eigenconstant in the comparison
])
def test_a_comparison_on_an_eigenconstant_holds_only_as_an_identity(text, proved):
    pol = parser.parse_policy(HEADS_SIG, "K")
    goal, _ = parser.parse_goal(text, pol.signature)
    answer = Prover({"K": pol}).first(goal)
    assert (answer is not None) == proved
    if answer is not None:
        assert E.check({pol.digest: pol}, E.HypothesisEnv(), answer.evidence, answer.goal)


class _ClockStub:
    """Services whose T attests any `q` atom as `q(a)`."""

    @dataclasses.dataclass(frozen=True)
    class Reading:
        def atom(self):
            return S.Atom("q", (C("a"),))

    def attest_candidates(self, who, atom):
        return [self.Reading()] if who == "T" and atom.pred == "q" else []


def test_a_goal_that_a_peer_or_the_services_may_attest_is_not_determinate():
    # K's own attestation has one clause and nobody else to ask; L's may
    # come from a peer unless a restriction leaves L out, and T's from the
    # services.
    asked = []

    def dispatch(target, goal, vars_, budget, restriction):
        asked.append(f"{target}: {S.fmt_formula(goal)}")
        return iter([({}, E.Unit())])

    pol = parser.parse_policy(HEADS_SIG + "principal L.\nr1: forall x:Thing. K says q(x).\n", "K")

    def evidence(text, **kw):
        goal, free = parser.parse_goal(text, pol.signature)
        return [a.evidence for a in Prover({"K": pol}, **kw).ask(goal, free)]

    assert evidence("K says q(a)", dispatch=dispatch) == [E.ClauseApp("r1", pol.digest)]
    assert evidence("knows {K} (L says q(a))", dispatch=dispatch) == []
    assert asked == []
    assert evidence("L says q(a)", dispatch=dispatch) == [E.Unit()]
    assert asked == ["L: L says q(a)"]
    assert evidence("T says q(a)", services=_ClockStub()) == [E.AttLeaf(_ClockStub.Reading())]
    assert evidence("T says q(a)") == []


def test_a_prover_reuses_an_index_of_its_policy_and_extends_an_earlier_one():
    old = parser.parse_policy(HEADS_SIG + "f1: q(a).\n", "K")
    new = parser.parse_policy(HEADS_SIG + "f1: q(a).\nf2: q(b).\n", "K")
    index = engine.ClauseIndex(new)
    assert Prover({"K": new}, indexes={"K": index}).indexes["K"] is index
    prover = Prover({"K": new}, indexes={"K": engine.ClauseIndex(old)})
    assert prover.indexes["K"].policy is new
    goal, free = parser.parse_goal("q(b)", new.signature)
    assert [a.evidence for a in prover.ask(goal, free)] == [E.ClauseApp("f2", new.digest)]
