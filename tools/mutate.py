#!/usr/bin/env python3
"""Mutation check of the certificate writer and reader (`codec`), the
trusted checker (`evidence._Checker`, and `crypto.Directory`, which
remembers the attestations that verified under its keys),
`crypto.verify_attestation`, clause application as prover and checker
share it (`syntax.Clause`, `syntax.proved_head`, and `syntax.clauses_of`,
which also splits a hypothesis into clauses for the checker), proof search
(`engine.ClauseIndex`, `engine.Prover` and `engine.resolve_evidence`),
signing (`crypto.sign`, `crypto.KeyPair` and `services.TrustedServices`),
and distributed search and checking (`node.Node`, with its answer tables,
and `services.remote_check`).

Each mutant is one small change to one of the listed targets, made in a
copy of the repository in a temporary directory; the target's named test
subset then runs against the copy with `-x`.  A mutant is killed when a
test fails or its run takes more than TIMEOUT_FACTOR times as long as the
unmutated run of the same subset (and at least MIN_TIMEOUT seconds), and
survives when every test passes: a survivor is a change no test notices.
The mutations are fixed:

  flip-compare   a comparison with one operator gets its opposite
                 (== and !=, < and >=, > and <=, is and is not, in and not in)
  fail-to-pass   a failure does not fail: `return _nok(...)` returns `_OK`,
                 `raise CodecError(...)` and `return None` do nothing
  skip-check     an `if` whose body is only a failure never takes it
  off-by-one     an integer in an index, a slice or a sum grows by one

Run from the repository root (standard library only; not part of tier-1):

    python tools/mutate.py                 # run every mutant
    python tools/mutate.py --list          # list the mutants only
    python tools/mutate.py --only codec    # the mutants whose id has "codec"

The exit code is 0 when no mutant survives, and 2 when a listed target is
not a top-level definition of its file.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEMORY_LIMIT = 1 << 30  # bytes of address space for each mutant's test run
TIMEOUT_FACTOR = 10  # a mutant's test run may take this many times the unmutated run's time
MIN_TIMEOUT = 60  # seconds, however quick the unmutated run

# (name, file, top-level functions or classes mutated, tests run on each
# mutant).  A target over two files is listed once per file.
TARGETS = [
    ("codec", "src/cyberlogic/codec.py",
     ("_string", "_clause_ref", "_i64", "_interned", "_pin", "_digest", "_count", "_flag", "_set", "_op", "_write",
      "_read",
      "encode_policy", "encode_certificate", "decode_certificate"),
     ("tests/test_codec.py", "tests/test_golden.py")),
    ("checker", "src/cyberlogic/evidence.py", ("_Checker",),
     ("tests/test_evidence.py", "tests/test_services.py", "tests/test_acceptance.py")),
    ("checker", "src/cyberlogic/crypto.py", ("Directory",),
     ("tests/test_evidence.py", "tests/test_crypto.py", "tests/test_node.py")),
    ("attestation", "src/cyberlogic/crypto.py", ("verify_attestation",),
     ("tests/test_crypto.py", "tests/test_evidence.py")),
    ("clause", "src/cyberlogic/syntax.py", ("Clause", "proved_head", "clauses_of"),
     ("tests/test_evidence.py", "tests/test_engine.py", "tests/test_golden.py")),
    ("search", "src/cyberlogic/engine.py", ("ClauseIndex", "Prover", "resolve_evidence"),
     ("tests/test_engine.py", "tests/test_golden.py", "tests/test_oracle.py")),
    ("signing", "src/cyberlogic/crypto.py", ("sign", "KeyPair"),
     ("tests/test_crypto.py", "tests/test_services.py")),
    ("signing", "src/cyberlogic/services.py", ("TrustedServices",),
     ("tests/test_crypto.py", "tests/test_services.py")),
    ("distributed", "src/cyberlogic/node.py", ("Node",),
     ("tests/test_node.py", "tests/test_golden.py", "tests/test_services.py")),
    ("distributed", "src/cyberlogic/services.py", ("remote_check",),
     ("tests/test_node.py", "tests/test_golden.py", "tests/test_services.py")),
]

_OPPOSITE = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def _is_failure(stmt) -> bool:
    """`return _nok(...)`, `raise CodecError(...)` or `return None`."""
    if not isinstance(stmt, (ast.Return, ast.Raise)):
        return False
    call = stmt.value if isinstance(stmt, ast.Return) else stmt.exc
    if isinstance(call, ast.Constant) and call.value is None:
        return True
    return (
        isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id in ("_nok", "CodecError")
    )


def _sites(tree, names):
    """(mutation, node, parent) for every site in the named top-level
    definitions of `tree`, in a fixed order."""
    out = []
    for top in tree.body:
        if getattr(top, "name", None) not in names:
            continue
        for parent in ast.walk(top):
            for child in ast.iter_child_nodes(parent):
                if isinstance(child, ast.Compare) and len(child.ops) == 1 and type(child.ops[0]) in _OPPOSITE:
                    out.append(("flip-compare", child, parent))
                elif _is_failure(child):
                    out.append(("fail-to-pass", child, parent))
                elif isinstance(child, ast.If) and len(child.body) == 1 and _is_failure(child.body[0]):
                    out.append(("skip-check", child, parent))
                elif (
                    isinstance(child, ast.Constant) and type(child.value) is int
                    and isinstance(parent, (ast.Subscript, ast.Slice, ast.BinOp))
                ):
                    out.append(("off-by-one", child, parent))
    return out


def _mutate(kind, node, parent):
    """Change `node` in place (or in `parent`)."""
    if kind == "flip-compare":
        node.ops = [_OPPOSITE[type(node.ops[0])]()]
    elif kind == "fail-to-pass":
        nok = isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
        new = ast.Return(ast.Name("_OK", ast.Load())) if nok else ast.Pass()
        for _, value in ast.iter_fields(parent):
            if isinstance(value, list) and node in value:
                value[value.index(node)] = new
    elif kind == "skip-check":
        node.test = ast.Constant(False)
    else:
        node.value += 1


def mutants():
    """(id, target, site index in its file, line, the changed line) for every
    mutant, in order.  A target's ids number on across its files."""
    out, count = [], Counter()
    for target in TARGETS:
        name, path, names, _ = target
        source = pathlib.Path(ROOT, path).read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        missing = set(names) - {getattr(top, "name", None) for top in tree.body}
        if missing:
            print(f"{path} defines no {', '.join(sorted(missing))} at top level", file=sys.stderr)
            sys.exit(2)
        for i, (kind, node, _) in enumerate(_sites(tree, names)):
            out.append((f"{name}:{count[name]}:{kind}", target, i, node.lineno, lines[node.lineno - 1].strip()))
            count[name] += 1
    return out


def mutant_source(source, names, index) -> str:
    tree = ast.parse(source)
    _mutate(*_sites(tree, names)[index])
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def _limit_memory():
    # A mutant that skips a length check may try to allocate without bound.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(copy, tests, timeout=None) -> bool:
    """Whether every test in `tests` passes in the copy within `timeout` seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=timeout,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--list", action="store_true", help="list the mutants without running them")
    ap.add_argument("--only", default="", help="run only the mutants whose id contains this text")
    args = ap.parse_args(argv)
    chosen = [m for m in mutants() if args.only in m[0]]
    if args.list:
        for mid, target, _, line, text in chosen:
            print(f"{mid:28s} {target[1]}:{line}  {text}")
        return 0
    copy = tempfile.mkdtemp(prefix="mutate-")
    try:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(copy, "src"))
        shutil.copytree(os.path.join(ROOT, "tests"), os.path.join(copy, "tests"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        timeouts = {}  # test subset -> seconds allowed to each of its mutants
        for tests in dict.fromkeys(m[1][3] for m in chosen):
            start = time.monotonic()
            if not run_tests(copy, tests):
                print(f"the unmutated copy fails {' '.join(tests)}")
                return 2
            timeouts[tests] = max(MIN_TIMEOUT, TIMEOUT_FACTOR * (time.monotonic() - start))
        survivors = []
        for mid, target, index, line, text in chosen:
            path = pathlib.Path(copy, target[1])
            original = path.read_text()
            path.write_text(mutant_source(original, target[2], index))
            try:
                killed = not run_tests(copy, target[3], timeouts[target[3]])
            finally:
                path.write_text(original)
            print(f"{'killed' if killed else 'SURVIVED':8s} {mid:28s} {target[1]}:{line}  {text}", flush=True)
            if not killed:
                survivors.append(mid)
        print(f"{len(chosen)} mutants, {len(chosen) - len(survivors)} killed, {len(survivors)} survived")
        return 1 if survivors else 0
    finally:
        shutil.rmtree(copy, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
