"""Policy and goal parsing, declarations, and rejection of bad input."""

import pytest

from cyberlogic import parser
from cyberlogic import syntax as S
from cyberlogic.errors import FragmentError, ParseError, SortError


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
        assert c.is_fact()
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


def test_integer_literals_are_time_or_int():
    sig = parser.base_signature()
    sig.declare_pred("at", ("Time",))
    sig.declare_principal("K")
    goal, _ = parser.parse_goal("at(3)", sig)
    assert goal.args[0] == S.Const("3", "Time")
