"""Policy and goal parsing, declarations, and rejection of bad input."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberlogic import parser
from cyberlogic import syntax as S
from cyberlogic.errors import CyberlogicError, FragmentError, MacroError, ParseError, SortError


GAMMA_B = """
sort Physician. sort Patient.
pred isHospital(Principal).
pred isPhysicianOf(Physician, Patient).
principal A, B.
const Alice: Physician.
const Peter: Patient.
b1: B says isHospital(A).
b2: B says isHospital(B).
b3: B says isPhysicianOf(Alice, Peter).
"""


def test_three_attested_facts():
    pol = parser.parse_policy(GAMMA_B, "B")
    assert [c.label for c in pol.clauses] == ["b1", "b2", "b3"]
    for c in pol.clauses:
        assert not c.slots
        assert isinstance(c.head, S.Attest)
        assert c.head.principal == S.Const("B", "Principal")
    assert pol.clauses[2].head.body.args == (
        S.Const("Alice", "Physician"),
        S.Const("Peter", "Patient"),
    )


def test_goal_with_free_variable():
    pol = parser.parse_policy(GAMMA_B, "B")
    goal, free = parser.parse_goal("B says isHospital(x)", pol.signature)
    assert isinstance(goal, S.Attest)
    assert free == [S.Var("x", "Principal")]


def test_comments_and_whitespace():
    pol = parser.parse_policy(
        "# a comment\npred p(Principal).\nprincipal K.\n\n k1: p(K). # trailing\n",
        "K",
    )
    assert [c.label for c in pol.clauses] == ["k1"]


def test_undeclared_predicate_rejected():
    with pytest.raises((ParseError, SortError)):
        parser.parse_policy("principal K.\nk1: mystery(K).\n", "K")


def test_wrong_arity_rejected():
    with pytest.raises(SortError):
        parser.parse_policy("pred p(Principal).\nprincipal K.\nk1: p(K, K).\n", "K")


def test_wrong_sort_rejected():
    with pytest.raises(SortError):
        parser.parse_policy(
            "sort Fruit. pred p(Fruit). principal K.\nk1: p(K).\n", "K"
        )


def test_duplicate_label_rejected():
    with pytest.raises(ParseError):
        parser.parse_policy(
            "pred p(Principal). principal K.\nk1: p(K).\nk1: p(K).\n", "K"
        )


def test_attested_implication_goal_not_in_fragment():
    pol = parser.parse_policy(GAMMA_B, "B")
    with pytest.raises(Exception):
        parser.parse_goal("B says (isHospital(A) => isHospital(B))", pol.signature)


@pytest.mark.parametrize("outer", ["K", "L"])
def test_nested_non_atomic_attestation_not_in_fragment(outer):
    decls = "pred p(Principal). pred q(Principal). principal K, L.\n"
    text = f"{outer} says (K says (p(K) \\/ q(K)))"
    sig = parser.parse_policy(decls, "K").signature
    with pytest.raises(FragmentError):
        parser.parse_goal(text, sig)
    with pytest.raises(FragmentError):
        parser.parse_policy(decls + f"k1: {text}.\n", "K")


def test_unterminated_clause_rejected():
    with pytest.raises(ParseError):
        parser.parse_policy("pred p(Principal). principal K.\nk1: p(K)\n", "K")


@pytest.mark.parametrize(
    "text",
    [
        "pred p(Principal). principal K.\nk1: p(K, K).\nk2: p(K) <=> p(K).\n",
        "pred p(Principal). principal K.\nk1: p(K)\nk2: p(K) @\n",
    ],
    ids=["after-an-arity-error", "after-a-missing-dot"],
)
def test_a_character_that_starts_no_token_is_the_error_wherever_it_is(text):
    with pytest.raises(ParseError, match="unexpected character") as err:
        parser.parse_policy(text, "K")
    assert err.value.line == 3


def test_a_goal_is_lexed_past_its_final_dot():
    sig = parser.parse_policy(GAMMA_B, "B").signature
    assert parser.parse_goal("isHospital(A). isHospital(B)", sig)[0] == S.Atom(
        "isHospital", (S.Const("A", "Principal"),)
    )
    with pytest.raises(ParseError, match="unexpected character '@'"):
        parser.parse_goal("isHospital(A). @", sig)


def test_a_policy_makes_one_const_per_constant():
    pol = parser.parse_policy(GAMMA_B, "B")
    bs = [c.head.principal for c in pol.clauses] + [pol.clauses[1].head.body.args[0]]
    assert bs[0] == S.Const("B", "Principal")
    assert all(b is bs[0] for b in bs)


def test_knows_goal():
    pol = parser.parse_policy(GAMMA_B, "B")
    goal, _ = parser.parse_goal("knows {A, B} B says isHospital(B)", pol.signature)
    assert isinstance(goal, S.Knows)
    assert goal.principals == frozenset(
        {S.Const("A", "Principal"), S.Const("B", "Principal")}
    )


def test_quantified_goal_binders():
    pol = parser.parse_policy(GAMMA_B, "B")
    goal, free = parser.parse_goal(
        "forall h:Principal. (B says isHospital(h)) => B says isHospital(h)",
        pol.signature,
    )
    assert isinstance(goal, S.Forall)
    assert free == []


def test_macro_with_unknown_name_rejected():
    with pytest.raises(Exception):
        parser.parse_policy("principal K.\nk1: frobnicate(K).\n", "K")


def test_macro_declarations_are_visible_later_in_the_same_clause():
    # revocable_delegate declares notRevoked and attest_before declares
    # before_<p> as the parser reads the call.
    pol = parser.parse_policy(
        "pred access(Principal, Time). pred ok(Principal). principal K, L.\n"
        "rd: revocable_delegate(K, L, access) /\\ (K says notRevoked(L, 3)).\n"
        "ab: attest_before(3, ok(L)) /\\ (T says before_ok(K, 4)).\n",
        "K",
    )
    assert [c.label for c in pol.clauses] == ["rd_1", "rd_2", "ab_1", "ab_2"]
    assert pol.signature.preds["notRevoked"] == ("Principal", "Time")
    assert pol.signature.preds["before_ok"] == ("Principal", "Time")


@pytest.mark.parametrize(
    "clause, printed",
    [
        # a quantified delegate named like the expansion's first binder
        (
            "forall x1:Principal. delegate(K, x1, ok)",
            "c1: forall x1:Principal, x1_1:Principal. x1 says ok(x1_1) => K says ok(x1_1).",
        ),
        # a time named like the binder of `past`
        (
            "forall s:Time. past(s) => ok(K)",
            "c1: forall s:Time. (exists s_1:Time. s < s_1 /\\ T says time(s_1)) => ok(K).",
        ),
        # a constant named like the binder of `delegate_indirect`
        (
            "delegate_indirect(M, K, ok)",
            "c1: forall x1:Principal, M_1:Principal. M_1 says ok(x1)"
            " /\\ (M_1 says ok(x1) => K says ok(x1)) => M says ok(x1).",
        ),
        # binders clash with each other's renamings
        (
            "forall t:Time, x1:Principal, x1_1:Principal. revocable_delegate(x1_1, x1, use)",
            "c1: forall t:Time, x1:Principal, x1_1:Principal, x1_2:Principal, x2:Time, t_1:Time."
            " x1 says use(x1_2, x2) /\\ (x1_1 says notRevoked(x1, t_1) /\\ x2 < t_1)"
            " => x1_1 says use(x1_2, x2).",
        ),
    ],
    ids=["delegate", "past", "delegate_indirect", "revocable_delegate"],
)
def test_macro_binders_capture_no_name_in_scope(clause, printed):
    decls = "pred ok(Principal). pred use(Principal, Time). principal K.\n"
    pol = parser.parse_policy(decls + f"c1: {clause}.\n", "K")
    assert [S.fmt_clause(c) for c in pol.clauses] == [printed]
    again = parser.parse_policy(printed, "K", pol.signature)
    assert again.clauses == pol.clauses


def test_a_goal_macro_binder_captures_no_free_variable():
    goal, free = parser.parse_goal("past(s)", parser.base_signature())
    assert free == [S.Var("s", "Time")]
    assert S.fmt_formula(goal) == "exists s_1:Time. s < s_1 /\\ T says time(s_1)"


@pytest.mark.parametrize("term", ["succ(1, 2)", "succ()", "succ(succ(1), 2)"])
def test_succ_takes_exactly_one_argument(term):
    with pytest.raises(ParseError):
        parser.parse_policy(f"pred at(Time).\nc1: at({term}).\n", "K")
    sig = parser.base_signature()
    with pytest.raises(ParseError):
        parser.parse_goal(f"time({term})", sig)


def test_integer_literals_are_time_or_int():
    sig = parser.base_signature()
    sig.declare_pred("at", ("Time",))
    sig.declare_principal("K")
    goal, _ = parser.parse_goal("at(3)", sig)
    assert goal.args[0] == S.Const("3", "Time")


def test_a_numeral_is_int_or_time_in_each_clause():
    pol = parser.parse_policy("pred a(Int). pred b(Time).\nc1: a(3).\nc2: b(3).\n", "K")
    assert [c.head.args for c in pol.clauses] == [
        (S.Const("3", "Int"),),
        (S.Const("3", "Time"),),
    ]


def test_a_macro_that_clashes_with_an_earlier_declaration_is_a_sort_error():
    with pytest.raises(SortError):
        parser.parse_policy(
            "pred use(Principal, Time). pred notRevoked(Principal, Int). principal K, L.\n"
            "d: revocable_delegate(K, L, use).\n",
            "K",
        )


def test_a_goal_macro_that_clashes_with_an_earlier_declaration_is_a_sort_error():
    sig = parser.parse_policy("sort Thing. pred p(Thing). pred before_p(Int).\n", "K").signature
    with pytest.raises(SortError):
        parser.parse_goal("attest_before(3, p(a))", sig)


def test_attest_before_needs_a_declared_predicate():
    with pytest.raises(MacroError):
        parser.parse_policy("principal K.\nk1: attest_before(3, time_not_elapsed(4)).\n", "K")
    with pytest.raises(MacroError):
        parser.parse_goal("attest_before(3, time_not_elapsed(4))", parser.base_signature())


# ---------------------------------------------------------------------------
# Property: what parses prints back to itself


PROP_DECLS = """sort Thing.
pred p(Thing). pred q(Thing, Int). pred r(Principal, Time). pred s(Nonce). pred u().
principal K, L.
const a: Thing.
"""
_SORTS = ("Thing", "Int", "Time", "Principal", "Nonce")
# `b`, `P` and `n1` are undeclared, so their first use fixes their sort.
# Principals are never quoted, since `says` takes an identifier, and no
# name is one a macro binds.
_CONSTS = {
    "Thing": ("a", "b", '"x y"', '"zed"', '"forall"', '"3"'),
    "Int": ("0", "3", "-2", '"7"', '"07"'),
    "Time": ("1", "5", "12"),
    "Principal": ("K", "L", "T", "P"),
    "Nonce": ("n1", '"n-2"'),
}
_ATOMS = {
    "p": ("Thing",),
    "q": ("Thing", "Int"),
    "r": ("Principal", "Time"),
    "s": ("Nonce",),
    "u": (),
    "time": ("Time",),
    "time_not_elapsed": ("Time",),
}
_BINDERS = ("x", "y", "z")


def _term(rnd, sort, scope):
    if sort != "Principal" and rnd.randrange(20) == 0:
        sort = rnd.choice(_SORTS)  # now and then, a sort error
    t = rnd.choice(list(_CONSTS[sort]) + [v for v, s in scope if s == sort])
    if sort in ("Int", "Time") and rnd.randrange(4) == 0:
        t = f"succ({t})"
    return t


def _atom(rnd, scope, preds=tuple(sorted(_ATOMS))):
    pred = rnd.choice(preds)
    if not _ATOMS[pred]:
        return pred
    return f"{pred}({', '.join(_term(rnd, s, scope) for s in _ATOMS[pred])})"


def _macro(rnd, scope):
    name = rnd.choice(sorted(S.MACROS))
    args = []
    for shape in S.MACROS[name]:
        if shape == "P":
            args.append(_term(rnd, "Principal", scope))
        elif shape == "T":
            args.append(_term(rnd, "Time", scope))
        elif shape == "pred":
            args.append(rnd.choice(("p", "q", "r", "s", "u")))
        else:
            args.append(_atom(rnd, scope))
    return f"{name}({', '.join(args)})"


def _formula(rnd, scope, depth):
    kinds = ["atom", "cmp", "says", "macro", "const"]
    if depth > 0:
        kinds += ["says_f", "knows", "and", "or", "implies", "forall", "exists"] * 2
    kind = rnd.choice(kinds)
    if kind == "atom":
        return _atom(rnd, scope)
    if kind == "cmp":
        sort = rnd.choice(_SORTS)
        op = rnd.choice(("=", "!=", "<", "<="))
        return f"{_term(rnd, sort, scope)} {op} {_term(rnd, sort, scope)}"
    if kind == "says":
        return f"{_term(rnd, 'Principal', scope)} says {_atom(rnd, scope)}"
    if kind == "macro":
        return _macro(rnd, scope)
    if kind == "const":
        return rnd.choice(("true", "false"))
    if kind == "says_f":
        return f"{_term(rnd, 'Principal', scope)} says ({_formula(rnd, scope, depth - 1)})"
    if kind == "knows":
        group = [_term(rnd, "Principal", scope) for _ in range(rnd.randint(1, 3))]
        return f"knows {{{', '.join(group)}}} ({_formula(rnd, scope, depth - 1)})"
    if kind in ("forall", "exists"):
        var, sort = rnd.choice(_BINDERS), rnd.choice(_SORTS)
        return f"({kind} {var}:{sort}. {_formula(rnd, scope + [(var, sort)], depth - 1)})"
    op = {"and": "/\\", "or": "\\/", "implies": "=>"}[kind]
    return f"({_formula(rnd, scope, depth - 1)}) {op} ({_formula(rnd, scope, depth - 1)})"


def _clause(rnd):
    """A program clause `forall binders. body => head`, or any formula."""
    if rnd.randrange(4) == 0:
        return _formula(rnd, [], 3)
    binders = [(rnd.choice(_BINDERS), rnd.choice(_SORTS)) for _ in range(rnd.randint(0, 2))]
    head = _atom(rnd, binders, ("p", "q", "r", "s", "u", "time"))
    if rnd.randrange(2):
        head = f"{_term(rnd, 'Principal', binders)} says {head}"
    body = [f"({_formula(rnd, binders, 2)})" for _ in range(rnd.randint(0, 2))]
    text = " => ".join(body + [head])
    if binders:
        text = f"forall {', '.join(f'{v}:{s}' for v, s in binders)}. {text}"
    return text


def _policy_text(rnd):
    lines = [PROP_DECLS]
    for i in range(rnd.randint(1, 4)):
        if rnd.randrange(8) == 0:  # may clash with a macro's declaration
            lines.append(rnd.choice(
                ("pred before_p(Int).", "pred before_u(Time).", "pred notRevoked(Principal, Int).")
            ))
        lines.append(f"c{i + 1}: {_clause(rnd)}.")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "clause",
    [
        # a right-nested disjunction keeps its parentheses: `\/` reads left-nested
        "(p(a) \\/ (p(b) \\/ u)) => u",
    ],
)
def test_known_misprints(clause):
    pol = parser.parse_policy(PROP_DECLS + f"c1: {clause}.\n", "K")
    printed = S.fmt_clause(pol.clauses[0])
    assert parser.parse_policy(printed, "K", pol.signature).clauses == pol.clauses


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=True).map(_policy_text))
def test_parsed_clauses_print_and_parse_back_to_themselves(text):
    try:
        pol = parser.parse_policy(text, "K")
    except CyberlogicError:
        return
    printed = "\n".join(S.fmt_clause(c) for c in pol.clauses)
    again = parser.parse_policy(printed, "K", pol.signature)
    assert again.clauses == pol.clauses
    assert again.digest == pol.digest


# ---------------------------------------------------------------------------
# Nesting limit


@pytest.mark.parametrize(
    "text",
    [
        "(" * 300 + "p(a)" + ")" * 300,
        "u \\/ (" * 300 + "u" + ")" * 300,
        " /\\ ".join(["u"] * (S.MAX_NESTING + 1)),  # every conjunct is a level
        "q(a, " + "succ(" * 300 + "0" + ")" * 301,
        "knows {K} " * 300 + "u",
        "K says (" * 300 + "u" + ")" * 300,
        "u => " * 300 + "u",
    ],
    ids=["parentheses", "disjunctions", "conjunctions", "succ", "knows", "says", "implications"],
)
def test_text_nested_deeper_than_the_limit_is_a_parse_error(text):
    sig = parser.parse_policy(PROP_DECLS, "K").signature
    with pytest.raises(ParseError, match="nested deeper than 128") as err:
        parser.parse_goal(text, sig)
    assert err.value.line == 1 and err.value.col >= 1
    with pytest.raises(ParseError, match="nested deeper than 128") as err:
        parser.parse_policy(PROP_DECLS + f"c1: {text} => u.\n", "K")
    assert err.value.line == PROP_DECLS.count("\n") + 1


def test_a_conjunction_chain_at_the_limit_parses():
    sig = parser.parse_policy(PROP_DECLS, "K").signature
    goal, _ = parser.parse_goal(" /\\ ".join(["u"] * S.MAX_NESTING), sig)
    assert S.nesting(goal) == S.MAX_NESTING
