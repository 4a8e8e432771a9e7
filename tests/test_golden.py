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
# label at hop 1, and its 726 bytes 730.  All moved with CYL4, which names
# a policy clause by its position: with each position mapped to the label
# of the clause it names, each decodes to the value of its CYL3 bytes
# (delegation's 797 bytes became 786, hospital's 917 903, ns's 730 727 and
# revocation's 570 563; timed's, which applies no policy clause, stay 557).
CERT_SHA256 = {
    "delegation": "cb335322d2fb26ed322c1e9ed24b6eacb135e203190f65739a96e6f82577f32c",
    "hospital": "ac37db9d49a5092515d9c27f7f2308e92eedf32b1e095c2abdd1a5f38fdfbab9",
    "ns": "9cf9bd073a5ce7eb8404042ad8cb050c03c19d83b8d5cfdef7b0604ebb992647",
    "revocation": "641a16363e1fb52647c7f44a818c053219354111f4d9e66de39f66469ade3063",
    "timed": "14980086b04521ffca4be1b05192120d4961f978c2c53f303e5e6e7594ccec02",
}

# SHA-256 of every node's search trace at seed 0, one "<node> <line>" per
# line, with fresh names renamed by first appearance (tests/canonical.py):
# the prover promises only that its names are fresh, so this pins every
# step of the search but not how its names are numbered.  (Delegation's
# trace prints the right-nested disjunction `B = A \/ (B = B \/ B = C)`.)
# Hospital's moved when a query came to keep an answer table: A asks B
# `B says isHospital(B)` once, not twice, so B's second served search (its
# two lines `goal` and `apply b2`) is gone, and the transcript has 3
# requests, not 4.
TRACE_SHA256 = {
    "delegation": "e57d607cdce392c2e6b6ec701f5a4ed5886726b48781509fc28bc2c34a7a272f",
    "hospital": "8f98f2381e846aaba3abd2da4a999e52bf7ba7bcb0a1e368e9516463585a961c",
    "ns": "159eaa5df9695fd2d14259af00285f8c899f78bb906f33f37f3e72b9c9e790af",
    "revocation": "ed97f6071ed0732e0eec6dd3cd2d597b1cf5d9589c83dca9725b1cdb83f44a11",
    "timed": "2638ec09bee2525b7553be5ffad580902db0b9642302a9578a9691c04666d17a",
}

# Moved, as hospital's did, when each of the chain's 101 later applications
# of its one policy came to name the digest by a reference: 8,515 bytes
# became 5,283, decoding to the same value.  Moved again with CYL3, as the
# scenarios' did: 5,283 bytes became 2,525; and with CYL4, as they did:
# 2,525 bytes became 2,241.
CHAIN50_SHA256 = "1dc235095ee3a0e725e3ef7f1a504631e569ec80b434856aae9b18ba1c211f38"


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

