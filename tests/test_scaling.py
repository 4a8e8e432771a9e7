"""Prove and certify cost per derivation step stays flat as a chain grows,
and a derivation takes no recursion per step.

Ratios, not wall-clock bounds: each figure is the best of several runs,
divided by the chain length, and the long chain is compared with the short
one on the same machine in the same process."""

import os
import pathlib
import subprocess
import sys
import time

import pytest

from cyberlogic import codec, parser, scenarios
from cyberlogic import evidence as E
from cyberlogic.engine import Prover

SHORT, LONG, DEEP = 25, 200, 2000
MAX_RATIO = 3.5  # per-step cost on a long chain over that on a shorter one; quadratic reads 8 or more


def _chain_text(n: int) -> str:
    """p0 <- p1 <- ... <- pn with one fact pn(k): one proof of n+1 steps."""
    lines = ["sort Key.", "principal K.", "const k: Key."]
    lines += [f"pred p{i}(Key)." for i in range(n + 1)]
    lines += [f"r{i}: forall x:Key. p{i + 1}(x) => p{i}(x)." for i in range(n)]
    lines.append(f"f: p{n}(k).")
    return "\n".join(lines) + "\n"


def _chain(n: int):
    pol = parser.parse_policy(_chain_text(n), "K")
    goal, free = parser.parse_goal("p0(k)", pol.signature)
    return Prover({"K": pol}), goal, free


def _best_per_step(n: int, run) -> float:
    best = None
    for _ in range(7):  # best-of-n damps scheduler and GC noise
        t0 = time.perf_counter()
        run()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best / n


def _prove_cost(n: int) -> float:
    prover, goal, free = _chain(n)
    return _best_per_step(n, lambda: prover.first(goal, free, depth=n + 16))


def _certify_cost(n: int) -> float:
    node = scenarios.build_world([("K", _chain_text(n))]).node("K")
    goal, free = parser.parse_goal("p0(k)", node.policy.signature)
    answer = node.ask_first(goal, free, depth=n + 16)
    return _best_per_step(n, lambda: node.certify(answer))


def test_prove_scales_roughly_linearly():
    short = _prove_cost(SHORT)
    assert _prove_cost(LONG) <= short * MAX_RATIO
    assert _prove_cost(DEEP) <= short * MAX_RATIO


def test_certify_scales_roughly_linearly():
    # Certifying signs one clock stamp, a fixed cost that outweighs the
    # evidence walk of a SHORT chain, so the walk is compared at LONG.
    assert _certify_cost(DEEP) <= _certify_cost(LONG) * MAX_RATIO


def _round_trip(n: int):
    """Prove a chain of n steps, certify it, encode and decode the
    certificate and check it."""
    prover, goal, free = _chain(n)
    answer = prover.first(goal, free, depth=n + 16)
    policy = prover.policies["K"]
    raw = codec.encode_certificate(E.Certificate(answer.goal, answer.evidence, frozenset({policy.digest})))
    back = codec.decode_certificate(raw)
    assert codec.encode_certificate(back) == raw  # evidence equality still recurses per level
    result = E.check_certificate(back, {policy.digest: policy})
    assert result, result.reason


@pytest.mark.parametrize("steps", [1000, DEEP])
def test_a_long_chain_takes_no_recursion_per_step(steps):
    here = pathlib.Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    script = f"import sys, test_scaling; sys.setrecursionlimit(100); test_scaling._round_trip({steps})"
    subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
