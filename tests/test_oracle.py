"""Backchaining vs. an independent bottom-up fixpoint on random ground
Horn programs."""

import itertools
import random

from cyberlogic import parser
from cyberlogic import evidence as E
from cyberlogic import syntax as S
from cyberlogic.engine import Prover


N_PROGRAMS = 220
MAX_CLAUSES = 12
N_PREDS = 3
N_CONSTS = 4
DEPTH = 32


def _random_program(rng):
    """A ground Horn program over preds p0..p2 (arity 1-2) and constants
    k0..k3, as policy source text plus its raw (head, body) clause list."""
    arities = {f"p{i}": rng.randint(1, 2) for i in range(N_PREDS)}
    consts = [f"k{i}" for i in range(N_CONSTS)]

    def atom():
        pred = rng.choice(list(arities))
        args = tuple(rng.choice(consts) for _ in range(arities[pred]))
        return pred, args

    clauses = []
    for _ in range(rng.randint(1, MAX_CLAUSES)):
        head = atom()
        body = tuple(atom() for _ in range(rng.randint(0, 3)))
        clauses.append((head, body))

    lines = ["sort Obj."]
    for pred, arity in arities.items():
        lines.append(f"pred {pred}({', '.join(['Obj'] * arity)}).")
    lines.append("principal K.")
    for c in consts:
        lines.append(f"const {c}: Obj.")
    for i, (head, body) in enumerate(clauses):
        fmt = lambda a: f"{a[0]}({', '.join(a[1])})"
        if body:
            conj = " /\\ ".join(fmt(b) for b in body)
            lines.append(f"c{i}: {conj} => {fmt(head)}.")
        else:
            lines.append(f"c{i}: {fmt(head)}.")
    return "\n".join(lines) + "\n", clauses, arities, consts


def _fixpoint(clauses):
    """Naive bottom-up closure: iterate rules over ground facts until no
    atom is added."""
    facts = set()
    changed = True
    while changed:
        changed = False
        for head, body in clauses:
            if head not in facts and all(b in facts for b in body):
                facts.add(head)
                changed = True
    return facts


def _all_atoms(arities, consts):
    for pred, arity in arities.items():
        for args in itertools.product(consts, repeat=arity):
            yield pred, args


def test_engine_agrees_with_bottom_up_fixpoint():
    rng = random.Random(20260824)
    checked_evidence = 0
    for prog_no in range(N_PROGRAMS):
        src, clauses, arities, consts = _random_program(rng)
        pol = parser.parse_policy(src, "K")
        prover = Prover({"K": pol})
        derivable = _fixpoint(clauses)
        for pred, args in _all_atoms(arities, consts):
            goal = S.Atom(pred, tuple(S.Const(a, "Obj") for a in args))
            answer = next(iter(prover.ask(goal, depth=DEPTH)), None)
            expected = (pred, args) in derivable
            assert (answer is not None) == expected, (
                f"program {prog_no}: {pred}{args} engine={answer is not None} "
                f"oracle={expected}\n{src}"
            )
            if answer is not None:
                res = E.check({pol.digest: pol}, E.HypothesisEnv(), answer.evidence, answer.goal)
                assert res, f"program {prog_no}: evidence rejected: {res.reason}"
                checked_evidence += 1
    assert checked_evidence > 300  # the corpus exercised plenty of proofs
