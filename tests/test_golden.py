"""Frozen seed-0 query transcripts, search traces and certificate bytes
for every shipped scenario, plus one long chain certificate with a repeated
subtree."""

import pathlib

import pytest

from cyberlogic import codec, parser, scenarios
from cyberlogic import evidence as E
from cyberlogic.crypto import sha256

from canonical import canonical_names

GOLDEN = pathlib.Path(__file__).parent / "golden"

# SHA-256 of codec.encode_certificate(...) for each scenario at seed 0.
# NS's one hypothesis leaf is a clause application with no digest; its
# value equals the earlier codec's encoding of the earlier certificate
# with that leaf, once a node of its own, replaced.  Hospital's and
# revocation's moved when a policy digest came to be written in full only
# once per encoding: each decodes, by its own codec, to the value the
# earlier bytes decode to by theirs (CHANGES.md lists the hashes).  All
# moved with CYL3, which writes the pins first and leaves out the clause
# arguments a head fixes: with those arguments filled in as the checker
# matches them, each decodes to the value of its CYL2 bytes, and the CYL2
# writer gives those bytes again.  NS's moved again when fresh names came
# to be numbered as they are made, with `@<hop>` at a hop: its certificate
# `\h1.nsp(\n2_dab564ff.\h3.h1(h3))` became `...\h2@1.h1(h2@1))`, B's
# label at hop 1, and its 726 bytes 730.
CERT_SHA256 = {
    "delegation": "50d032a4a057e4be54335fe5d852f1196f64ec03956eb527f1ada37254e3a496",
    "hospital": "6081693105233bcedc856c1186eddaeb5b34501c2fd69dd47e39cc016f5053a8",
    "ns": "04ca636db82fc4d7bf09c58aee3ea8ac1a08bc28a991d796e3749c2434f9e99d",
    "revocation": "232760608c84f8e6073d8197c17cd9e8f944cafb7477a651ba18e8f2d4888511",
    "timed": "7f90d83f0677f5f1004d8245391e46f7a20aebdfdb53bee3981e6a6806257549",
}

# SHA-256 of every node's search trace at seed 0, one "<node> <line>" per
# line, with fresh names renamed by first appearance (tests/canonical.py):
# the prover promises only that its names are fresh, so this pins every
# step of the search but not how its names are numbered.  (Delegation's
# trace prints the right-nested disjunction `B = A \/ (B = B \/ B = C)`.)
TRACE_SHA256 = {
    "delegation": "e57d607cdce392c2e6b6ec701f5a4ed5886726b48781509fc28bc2c34a7a272f",
    "hospital": "ccfa15ece7b114fa9aee6ba778695571c66b1639f2ba675f66831eb97b1692f8",
    "ns": "159eaa5df9695fd2d14259af00285f8c899f78bb906f33f37f3e72b9c9e790af",
    "revocation": "ed97f6071ed0732e0eec6dd3cd2d597b1cf5d9589c83dca9725b1cdb83f44a11",
    "timed": "2638ec09bee2525b7553be5ffad580902db0b9642302a9578a9691c04666d17a",
}

# Moved, as hospital's did, when each of the chain's 101 later applications
# of its one policy came to name the digest by a reference: 8,515 bytes
# became 5,283, decoding to the same value.  Moved again with CYL3, as the
# scenarios' did: 5,283 bytes became 2,525.
CHAIN50_SHA256 = "de89ef02441d35a6e1ba1fc10315efff57e8f300270ca30bdf96370718b313a8"


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_transcript_matches_golden_file(name):
    r = scenarios.SCENARIOS[name](0)
    assert r.ok
    got = ("\n".join(r.transcript) + "\n" if r.transcript else "").encode()
    want = (GOLDEN / f"{name}.transcript").read_bytes()
    assert got == want


def test_every_scenario_has_golden_digests():
    assert sorted(CERT_SHA256) == sorted(TRACE_SHA256) == sorted(scenarios.SCENARIOS)


@pytest.mark.parametrize("name", sorted(CERT_SHA256))
def test_certificate_bytes_match_golden_digest(name):
    r = scenarios.SCENARIOS[name](0)
    assert r.ok
    assert sha256(codec.encode_certificate(r.certificate)).hex() == CERT_SHA256[name]


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_search_trace_matches_golden_digest(name):
    r = scenarios.SCENARIOS[name](0)
    text = "".join(f"{n} {line}\n" for n, node in r.world.nodes.items() for line in node.trace)
    assert sha256(canonical_names(text).encode()).hex() == TRACE_SHA256[name]


def _chain_text(n: int) -> str:
    lines = ["sort Key. sort Tag.", "principal P."]
    lines += [f"pred p{i}(Key, Tag)." for i in range(n + 1)]
    lines += ["const k0: Key.", "const k1: Key."]
    lines += [f"r{i}: forall x:Key, y:Tag. p{i + 1}(x, y) => p{i}(x, y)." for i in range(n)]
    lines += [f"f0: forall y:Tag. p{n}(k0, y).", f"f1: forall y:Tag. p{n}(k1, y)."]
    return "\n".join(lines) + "\n"


def _chain50():
    # The two identical conjuncts give a repeated chain-50 subtree, written
    # out twice.
    world = scenarios.build_world([("P", _chain_text(50))], seed=3, depth=66)
    node = world.node("P")
    goal, free = parser.parse_goal('p0(k1, "t") /\\ p0(k1, "t")', node.policy.signature)
    return world, node.certify(node.ask_first(goal, free))


def test_chain50_certificate_matches_golden_digest():
    _, cert = _chain50()
    assert sha256(codec.encode_certificate(cert)).hex() == CHAIN50_SHA256


def test_chain50_certificate_checks_through_its_store():
    world, cert = _chain50()
    decoded = codec.decode_certificate(codec.encode_certificate(cert))
    assert decoded == cert
    for c in (cert, decoded):
        result = E.check_certificate(c, world.policy_map(), world.directory)
        assert result, result.reason

