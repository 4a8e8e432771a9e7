"""Formula normalization, clause extraction, and macro expansion."""

import pytest

from cyberlogic import parser
from cyberlogic import syntax as S


def _sig():
    sig = parser.base_signature()
    sig.declare_sort("Thing")
    sig.declare_pred("p", ("Thing",))
    sig.declare_pred("q", ("Thing",))
    sig.declare_principal("K")
    sig.declare_principal("L")
    sig.note_const("a", "Thing")
    return sig


def _goal(text, sig=None):
    g, _ = parser.parse_goal(text, sig or _sig())
    return g


def test_attest_distributes_over_and():
    g = S.normalize(S.Attest(S.Const("K", "Principal"),
                             S.And(S.Atom("p", (S.Const("a", "Thing"),)),
                                   S.Atom("q", (S.Const("a", "Thing"),)))))
    assert isinstance(g, S.And)
    assert isinstance(g.left, S.Attest) and isinstance(g.right, S.Attest)
    assert g.left.body.pred == "p" and g.right.body.pred == "q"


def test_attest_distributes_over_quantifiers():
    x = S.Var("x", "Thing")
    for quant in (S.Forall, S.Exists):
        g = S.normalize(S.Attest(S.Const("K", "Principal"),
                                 quant(x, S.Atom("p", (x,)))))
        assert isinstance(g, quant)
        assert isinstance(g.body, S.Attest)


def test_attest_is_absorbing():
    k = S.Const("K", "Principal")
    inner = S.Attest(k, S.Atom("p", (S.Const("a", "Thing"),)))
    assert S.normalize(S.Attest(k, inner)) == S.normalize(inner)


def test_outer_attestation_of_foreign_attestation_strengthens():
    # <L><K> p collapses to <K> p: the inner signature is the evidence.
    k = S.Const("K", "Principal")
    l = S.Const("L", "Principal")
    inner = S.Attest(k, S.Atom("p", (S.Const("a", "Thing"),)))
    assert S.normalize(S.Attest(l, inner)) == inner


def test_clauses_of_curried_implication_keeps_slots():
    sig = _sig()
    pol = parser.parse_policy(
        "pred r(Thing). pred s(Thing). pred t(Thing).\n"
        "c1: forall x:Thing. r(x) => (s(x) /\\ p(x)) => t(x).\n",
        "K",
        sig,
    )
    (clause,) = pol.clauses
    assert len(clause.slots) == 2
    assert isinstance(clause.slots[1], S.And)
    assert clause.head.pred == "t"


def test_attested_implication_head_becomes_clause():
    # <K>(G => a) contributes the clause G => <K> a.
    pol = parser.parse_policy("c1: forall x:Thing. p(x) => K says q(x).\n", "K", _sig())
    (clause,) = pol.clauses
    assert isinstance(clause.head, S.Attest)
    assert clause.head.body.pred == "q"
    assert len(clause.slots) == 1


def test_substitute_respects_binders():
    x = S.Var("x", "Thing")
    y = S.Var("y", "Thing")
    f = S.Forall(x, S.Atom("p", (x, y)))
    g = S.substitute(f, {y: S.Const("a", "Thing")})
    assert g.body.args == (x, S.Const("a", "Thing"))
    # the bound variable itself is never replaced
    h = S.substitute(f, {x: S.Const("a", "Thing")})
    assert h == f


def test_substitute_renames_a_clashing_binder_the_same_way_every_time():
    x, y = S.Var("x", "Thing"), S.Var("y", "Thing")
    f = S.Forall(x, S.Atom("p", (x, y)))
    first = S.substitute(f, {y: x})
    assert first == S.substitute(f, {y: x})  # no state carried between calls
    assert first == S.Forall(S.Var("x'1", "Thing"), S.Atom("p", (S.Var("x'1", "Thing"), x)))
    # the new name is free in neither the body nor a substituted term, and
    # is not a key of the substitution
    x1, x2 = S.Var("x'1", "Thing"), S.Var("x'2", "Thing")
    g = S.Forall(x, S.Atom("p", (x, y, x1)))
    assert S.substitute(g, {y: x}).var == x2
    assert S.substitute(f, {y: S.FunApp("succ", (x, x1))}).var == x2
    assert S.substitute(f, {y: x, x1: S.Const("a", "Thing")}).var == x2


def test_free_vars():
    x = S.Var("x", "Thing")
    y = S.Var("y", "Thing")
    f = S.Exists(x, S.And(S.Atom("p", (x,)), S.Atom("q", (y,))))
    assert S.free_vars(f) == {y}


def test_free_vars_are_in_first_occurrence_order():
    x, y, z, w = (S.Var(n, "Thing") for n in "xyzw")
    a, b = S.Var("a", "Principal"), S.Var("b", "Principal")
    body = S.Attest(b, S.Atom("r", (x, S.FunApp("succ", (w,)), y, z)))
    f = S.And(S.Atom("p", (z,)), S.Exists(x, S.Knows(frozenset((b, a)), body)))
    # knows principals in sorted order, then the body left to right
    assert list(S.free_vars(f)) == [z, a, b, w, y]
    assert S.free_vars(f) == {a, b, w, y, z}
    assert S.free_vars(f) | {x} == {a, b, w, x, y, z}
    assert not S.free_vars(S.Exists(x, S.Atom("p", (S.FunApp("succ", (x,)),))))


def test_int_value_of_succ_chain():
    three = S.FunApp("succ", (S.FunApp("succ", (S.Const("1", "Time"),)),))
    assert S.int_value(three) == 3
    assert S.int_value(S.Const("7", "Time")) == 7
    assert S.int_value(S.Const("a", "Thing")) is None


def test_delegate_macro_expands_to_authority_clause():
    sig = parser.base_signature()
    sig.declare_pred("ok", ("Principal",))
    sig.declare_principal("K")
    sig.declare_principal("L")
    pol = parser.parse_policy("d: delegate(K, L, ok).\n", "K", sig)
    (clause,) = pol.clauses
    # <K>(<L> ok(x) => ok(x)): L's attestations of ok carry K's authority.
    assert isinstance(clause.head, S.Attest)
    assert clause.head.principal == S.Const("K", "Principal")
    (slot,) = clause.slots
    assert isinstance(slot, S.Attest)
    assert slot.principal == S.Const("L", "Principal")


def test_revocable_delegate_macro_mentions_revocation_window():
    sig = parser.base_signature()
    sig.declare_pred("use", ("Time",))
    sig.declare_principal("K")
    sig.declare_principal("L")
    pol = parser.parse_policy("d: revocable_delegate(K, L, use).\n", "K", sig)
    (clause,) = pol.clauses
    text = S.fmt_clause(clause)
    assert "notRevoked" in text
    assert "<" in text


MACRO_SOURCE = """
pred ok(Principal). pred use(Principal, Time). principal K, L.
d1: delegate(K, L, ok).
d2: delegate_indirect(K, L, ok).
d3: revocable_delegate(K, L, use).
m1: past(3) => ok(K).
m2: future(3) => ok(K).
m3: curr(5) => ok(K).
m4: attest_after(L, 3, ok(L)) => ok(K).
m5: attest_before(3, ok(L)) => ok(K).
"""

# The clauses MACRO_SOURCE normalizes to, recorded while macro calls were
# still formula nodes expanded after parsing.
MACRO_CLAUSES = [
    "d1: forall x1:Principal. L says ok(x1) => K says ok(x1).",
    "d2: forall x1:Principal, M:Principal. M says ok(x1) /\\ (M says ok(x1) => L says ok(x1))"
    " => K says ok(x1).",
    "d3: forall x1:Principal, x2:Time, t:Time. L says use(x1, x2) /\\ (K says notRevoked(L, t)"
    " /\\ x2 < t) => K says use(x1, x2).",
    "m1: (exists s:Time. 3 < s /\\ T says time(s)) => ok(K).",
    "m2: time_not_elapsed(3) => ok(K).",
    "m3: T says time(5) /\\ time_not_elapsed(succ(5)) => ok(K).",
    "m4: L says ok(L) /\\ T says time(3) => ok(K).",
    "m5: T says before_ok(L, 3) => ok(K).",
]


def test_every_macro_expands_to_its_recorded_clauses():
    pol = parser.parse_policy(MACRO_SOURCE, "K")
    assert [S.fmt_clause(c) for c in pol.clauses] == MACRO_CLAUSES
    used = {name for name in S.MACROS if f" {name}(" in MACRO_SOURCE}
    assert used == set(S.MACROS)


def test_fmt_parse_round_trip_on_clauses():
    src = (
        "pred r(Thing). pred s(Thing).\n"
        "c1: forall x:Thing. (p(x) \\/ q(x)) => K says r(x).\n"
        "c2: s(a).\n"
    )
    pol = parser.parse_policy(src, "K", _sig())
    rendered = "\n".join(S.fmt_clause(c) for c in pol.clauses)
    sig2 = _sig()
    sig2.declare_pred("r", ("Thing",))
    sig2.declare_pred("s", ("Thing",))
    pol2 = parser.parse_policy(rendered, "K", sig2)
    assert [S.fmt_clause(c) for c in pol.clauses] == [S.fmt_clause(c) for c in pol2.clauses]


# ---------------------------------------------------------------------------
# Policies are immutable, so their cached digest stays right


def _sig_state(sig):
    return (set(sig.sorts), dict(sig.preds), set(sig.principals), dict(sig.consts))


def test_policy_fields_cannot_be_assigned():
    import dataclasses

    pol = parser.parse_policy("pred p(Principal). k1: p(K).", "K")
    assert isinstance(pol.clauses, tuple)
    for name, value in (("owner", "L"), ("clauses", ()), ("source", "x"), ("digest", b"")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pol, name, value)


def test_parsing_leaves_the_passed_signature_unchanged():
    sig = _sig()
    before = _sig_state(sig)
    parser.parse_goal('exists y:Thing. p(y) /\\ q("fresh") /\\ K says p(a)', sig)
    parser.parse_policy("sort New. pred r(New). const n: New. principal M. r1: r(n).", "K", sig)
    assert _sig_state(sig) == before


def test_cached_digest_matches_a_fresh_one_after_queries():
    from cyberlogic import codec, scenarios

    r = scenarios.run_hospital(0)
    assert r.ok
    for pol in r.world.policies.values():
        assert pol.digest == codec.policy_digest(pol)
