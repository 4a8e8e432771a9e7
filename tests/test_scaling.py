"""Prove and certify cost per derivation step stays flat as a chain grows.

Ratios, not wall-clock bounds: each figure is the best of several runs,
divided by the chain length, and the long chain is compared with the short
one on the same machine in the same process."""

import time

from cyberlogic import evidence as E
from cyberlogic import parser
from cyberlogic.engine import Prover

SHORT, LONG = 25, 200
MAX_RATIO = 3.5  # per-step cost at LONG over that at SHORT; quadratic reads ~8


def _chain(n: int):
    """p0 <- p1 <- ... <- pn with one fact pn(k): one proof of n+1 steps."""
    lines = ["sort Key.", "principal K.", "const k: Key."]
    lines += [f"pred p{i}(Key)." for i in range(n + 1)]
    lines += [f"r{i}: forall x:Key. p{i + 1}(x) => p{i}(x)." for i in range(n)]
    lines.append(f"f: p{n}(k).")
    pol = parser.parse_policy("\n".join(lines) + "\n", "K")
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
    prover, goal, free = _chain(n)
    answer = prover.first(goal, free, depth=n + 16)
    digests = {p.digest for p in prover.policies.values()}
    return _best_per_step(n, lambda: E.make_certificate(answer.goal, answer.evidence, digests, ()))


def test_prove_scales_roughly_linearly():
    assert _prove_cost(LONG) <= _prove_cost(SHORT) * MAX_RATIO


def test_certify_scales_roughly_linearly():
    assert _certify_cost(LONG) <= _certify_cost(SHORT) * MAX_RATIO
