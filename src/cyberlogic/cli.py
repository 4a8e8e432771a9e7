"""Operator command line.

Subcommands: keygen, node, query, check, registry, scenario, tamper.
Exit codes: 0 success, 1 logical failure (no proof, nok verdict), 2 usage
or input error, 3 transport error.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import random
import sys

from . import codec
from . import evidence as E
from . import parser
from . import scenarios
from .crypto import Directory, keygen, load_keypair, save_keypair
from .engine import DEFAULT_DEPTH
from .errors import CyberlogicError, RouteError, TransportError
from .node import Node, TcpTransport, serve_node
from .services import CheckerEndpoint, Registry, TrustedServices
from .syntax import fmt_formula, fmt_term

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3


def _keydir() -> str:
    return os.environ.get("CYBERLOGIC_KEYDIR", ".")


def _load_policy(path: str, owner: str | None = None):
    p = pathlib.Path(path)
    text = p.read_text()
    return parser.parse_policy(text, owner or p.stem, parser.base_signature())


def _load_policies(args) -> list:
    out = []
    for path in args.policy or []:
        out.append(_load_policy(path))
    if getattr(args, "policies", None):
        for p in sorted(pathlib.Path(args.policies).iterdir()):
            if p.is_file():
                out.append(_load_policy(str(p)))
    return out


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def _parse_peers(specs) -> dict:
    out = {}
    for spec in specs or []:
        name, _, addr = spec.partition("=")
        if not name or not addr:
            raise ValueError(f"peer must look like NAME=HOST:PORT, got {spec!r}")
        out[name] = _parse_addr(addr)
    return out


# ---------------------------------------------------------------------------
# Subcommands


def cmd_keygen(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    kp, pid = keygen(args.name, rng)
    out = args.out or os.path.join(_keydir(), f"{args.name}.key")
    save_keypair(out, kp)
    print(f"wrote {out}")
    print(f"principal {pid.name} fingerprint {pid.fingerprint.hex()}")
    return EXIT_OK


def _build_node(args, policy) -> Node:
    directory = Directory.load(args.directory) if args.directory else Directory()
    keypath = os.path.join(_keydir(), f"{policy.owner}.key")
    if os.path.exists(keypath):
        kp = load_keypair(keypath)
    else:
        kp, _ = keygen(policy.owner, random.Random(args.seed))
    if policy.owner not in directory:
        directory.add(policy.owner, kp.public)
    services = TrustedServices(seed=args.seed or 0)
    if "T" not in directory:
        services.register_keys(directory)
    node = Node(
        policy.owner,
        policy,
        kp,
        directory,
        services=services,
        seed=args.seed or 0,
        depth=args.depth,
    )
    peers = _parse_peers(getattr(args, "peer", None))
    if peers:
        node.network = TcpTransport(peers, timeout=args.timeout / 1000)
    return node


def cmd_node(args) -> int:
    policy = _load_policy(args.policy[0]) if args.policy else None
    if policy is None:
        print("node requires --policy", file=sys.stderr)
        return EXIT_USAGE
    node = _build_node(args, policy)
    host, port = _parse_addr(args.listen)
    server, thread, bound = serve_node(node, host, port, timeout=args.timeout / 1000)
    print(f"{node.name} listening on {host}:{bound}")
    try:
        thread.join()
    except KeyboardInterrupt:
        server.shutdown()
    return EXIT_OK


def cmd_query(args) -> int:
    policy = _load_policy(args.policy[0]) if args.policy else None
    if policy is None:
        print("query requires --policy", file=sys.stderr)
        return EXIT_USAGE
    node = _build_node(args, policy)
    goal, free = parser.parse_goal(args.goal, policy.signature)
    answer = node.ask_first(goal, free, depth=args.depth)
    if answer is None:
        print("no proof")
        if node.metrics["transport_errors"]:
            print(f"transport error: {node.metrics['transport_errors']} peer request(s) failed",
                  file=sys.stderr)
            return EXIT_TRANSPORT
        return EXIT_FAIL
    for v, t in sorted(answer.bindings.items(), key=lambda kv: kv[0].name):
        print(f"{v.name} = {fmt_term(t)}")
    data = codec.encode_certificate(node.certify(answer))
    out = args.out or "cert.bin"
    pathlib.Path(out).write_bytes(data)
    print(f"goal {fmt_formula(answer.goal)}")
    print(f"certificate {out} ({len(data)} bytes)")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        cert = codec.decode_certificate(pathlib.Path(args.cert).read_bytes())
    except Exception as ex:
        print(f"nok: unreadable certificate: {ex}")
        return EXIT_FAIL
    loaded = _load_policies(args)
    if args.formula:
        sig = loaded[0].signature if loaded else parser.base_signature()
        try:
            want, _ = parser.parse_goal(args.formula, sig)
        except CyberlogicError:
            want = None
        if cert.root_formula != want and fmt_formula(cert.root_formula) != args.formula:
            print("nok: certificate proves a different formula")
            print(f"  certificate: {fmt_formula(cert.root_formula)}")
            return EXIT_FAIL
    policies = {p.digest: p for p in loaded}
    directory = Directory.load(args.directory) if args.directory else None
    result = E.check_certificate(cert, policies, directory)
    if result:
        print("ok")
        print(f"formula {fmt_formula(cert.root_formula)}")
        return EXIT_OK
    print(f"nok: {result.reason}")
    print(f"path: {'/'.join(str(p) for p in result.path) or '(root)'}")
    return EXIT_FAIL


def cmd_registry(args) -> int:
    registry = Registry()
    directory = Directory.load(args.directory) if args.directory else None
    for policy in _load_policies(args):
        endpoint = CheckerEndpoint(policy.owner, [policy], directory, registry)
        entry = registry.register(policy.digest, endpoint)
        print(f"{entry.seq:3d} {policy.digest.hex()} {policy.owner}")
    print("chain", "ok" if registry.verify_chain() else "broken")
    return EXIT_OK if registry.verify_chain() else EXIT_FAIL


def cmd_scenario(args) -> int:
    if args.name not in scenarios.SCENARIOS:
        print(f"unknown scenario {args.name!r}; have {sorted(scenarios.SCENARIOS)}", file=sys.stderr)
        return EXIT_USAGE
    if args.name == "revocation" and args.use_at is not None:
        revoked_at = args.revoke_at if args.revoke_at is not None else 4
        result = scenarios.run_revocation(args.seed, revoked_at, uses=(args.use_at,))
        granted = result.details["outcomes"][args.use_at]
        print(f"scenario revocation: use at {args.use_at} with revocation at "
              f"{revoked_at} -> {'granted' if granted else 'refused'}")
        return EXIT_OK if granted else EXIT_FAIL
    result = scenarios.SCENARIOS[args.name](args.seed)
    print(f"scenario {result.name}: {'ok' if result.ok else 'fail'} ({result.elapsed:.3f}s)")
    for line in result.transcript:
        print(f"  {line}")
    if "spine" in result.details:
        print(f"spine {result.details['spine']}")
    if result.certificate is not None:
        out = args.out or f"{args.name}.cert"
        pathlib.Path(out).write_bytes(codec.encode_certificate(result.certificate))
        print(f"certificate {out}")
    return EXIT_OK if result.ok else EXIT_FAIL


def cmd_tamper(args) -> int:
    data = bytearray(pathlib.Path(args.path).read_bytes())
    if not data:
        print("empty file", file=sys.stderr)
        return EXIT_USAGE
    bit = args.bit if args.bit is not None else random.Random(args.seed or 0).randrange(len(data) * 8)
    data[bit // 8] ^= 1 << (bit % 8)
    out = args.out or args.path
    pathlib.Path(out).write_bytes(bytes(data))
    print(f"flipped bit {bit} of {args.path} -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _common_flags(sp):
    sp.add_argument("--policy", action="append", metavar="FILE")
    sp.add_argument("--directory", metavar="FILE")
    sp.add_argument("--seed", type=int, default=0, metavar="N")
    sp.add_argument("--depth", type=int, default=DEFAULT_DEPTH, metavar="N")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cyberlogic", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("keygen", help="generate and store a key pair")
    sp.add_argument("name")
    sp.add_argument("--seed", type=int, metavar="N")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(fn=cmd_keygen)

    sp = sub.add_parser("node", help="serve a policy over TCP")
    _common_flags(sp)
    sp.add_argument("--timeout", type=int, default=30000, metavar="MS",
                    help="network timeout in milliseconds")
    sp.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT")
    sp.add_argument("--peer", action="append", metavar="NAME=HOST:PORT")
    sp.set_defaults(fn=cmd_node)

    sp = sub.add_parser("query", help="prove a goal and write a certificate")
    sp.add_argument("goal")
    _common_flags(sp)
    sp.add_argument("--timeout", type=int, default=30000, metavar="MS",
                    help="network timeout in milliseconds")
    sp.add_argument("--peer", action="append", metavar="NAME=HOST:PORT")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(fn=cmd_query)

    sp = sub.add_parser("check", help="check a certificate")
    sp.add_argument("cert")
    sp.add_argument("--formula", metavar="GOAL")
    sp.add_argument("--policies", metavar="DIR")
    _common_flags(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("registry", help="build and verify a digest registry")
    sp.add_argument("--policies", metavar="DIR")
    _common_flags(sp)
    sp.set_defaults(fn=cmd_registry)

    sp = sub.add_parser("scenario", help="run a shipped scenario")
    sp.add_argument("name")
    sp.add_argument("--seed", type=int, default=0, metavar="N")
    sp.add_argument("--revoke-at", type=int, metavar="T",
                    help="revocation scenario: revoke the delegation at time T")
    sp.add_argument("--use-at", type=int, metavar="S",
                    help="revocation scenario: attempt one use at time S")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(fn=cmd_scenario)

    sp = sub.add_parser("tamper", help="flip one bit of a file (for testing checks)")
    sp.add_argument("path")
    sp.add_argument("--bit", type=int, metavar="N")
    sp.add_argument("--seed", type=int, metavar="N")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(fn=cmd_tamper)
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (RouteError, TransportError, ConnectionError, OSError) as ex:
        print(f"transport error: {ex}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (CyberlogicError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
