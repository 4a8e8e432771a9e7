"""Formula normalization, clause extraction, macro expansion, and the
cached hashes and printed text of syntax values."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# Property: cached hashes and printed text agree with a fresh computation

_CACHED = (S.Var, S.Const, S.FunApp, S.Atom, S.Attest)
_NAMES = ("a", "K", "x y", "forall", "delegate", "3", "07", "-2", "_1")

_consts = st.builds(S.Const, st.sampled_from(_NAMES), st.sampled_from(("Thing", "Int", "Time", "Principal")))
_vars = st.builds(S.Var, st.sampled_from(("x", "y", "_7")), st.sampled_from(("Thing", "Int")))
_terms = st.recursive(
    _consts | _vars,
    lambda t: st.builds(S.FunApp, st.just("succ"), st.tuples(t)),
    max_leaves=4,
)
_atoms = st.builds(S.Atom, st.sampled_from(("p", "q")), st.lists(_terms, max_size=3).map(tuple)) | st.builds(
    lambda a, b: S.Atom("=", (a, b)), _terms, _terms
)
_formulas = st.recursive(
    _atoms | st.builds(S.Attest, _terms, _atoms) | st.just(S.TOP),
    lambda f: st.builds(S.And, f, f)
    | st.builds(S.Or, f, f)
    | st.builds(S.Implies, f, f)
    | st.builds(S.Forall, _vars, f)
    | st.builds(S.Exists, _vars, f)
    | st.builds(S.Attest, _terms, f)
    | st.builds(S.Knows, st.frozensets(_consts, max_size=2), f),
    max_leaves=6,
)


def _fresh(x):
    """An equal copy of `x` that shares no term or formula with it."""
    if dataclasses.is_dataclass(x):
        return type(x)(*(_fresh(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (tuple, frozenset)):
        return type(x)(map(_fresh, x))
    return x


def _subvalues(x):
    todo = [x]
    while todo:
        x = todo.pop()
        yield x
        todo += S.parts(x)


def _fmt(x):
    return S.fmt_term(x) if isinstance(x, (S.Var, S.Const, S.FunApp)) else S.fmt_formula(x)


def test_cached_values_keep_their_fields():
    # `codec.FORMAT` zips each class's fields with its field kinds.
    expected = {
        S.Var: ["name", "sort"], S.Const: ["name", "sort"], S.FunApp: ["symbol", "args"],
        S.Atom: ["pred", "args"], S.Attest: ["principal", "body"],
    }
    assert {cls: [f.name for f in dataclasses.fields(cls)] for cls in _CACHED} == expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_terms, _formulas))
def test_cached_hashes_and_text_agree_with_fresh_ones(x):
    text, shown = repr(x), _fmt(_fresh(x))
    h = hash(x)
    y = _fresh(x)
    assert y == x and hash(y) == h  # hashed first, or built fresh
    for v in _subvalues(x):
        if isinstance(v, _CACHED):
            # The hash the generated `__hash__` would compute.
            assert hash(v) == hash(tuple(getattr(v, f.name) for f in dataclasses.fields(v)))
    assert _fmt(x) == shown and hash(x) == h  # printing keeps the hash
    assert repr(x) == text
    for c in _subvalues(y):
        if isinstance(c, S.Const):
            before = S.fmt_term(S.Const(c.name, c.sort))
            assert S.fmt_term(c) == before and S.fmt_term(c) == before
