"""Frozen seed-0 query transcripts, search traces and certificate bytes
for every shipped scenario, plus one long chain certificate with a repeated
subtree."""

import pathlib

import pytest

from cyberlogic import codec, parser, scenarios
from cyberlogic import evidence as E
from cyberlogic.crypto import sha256

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
# writer gives those bytes again.
CERT_SHA256 = {
    "delegation": "50d032a4a057e4be54335fe5d852f1196f64ec03956eb527f1ada37254e3a496",
    "hospital": "6081693105233bcedc856c1186eddaeb5b34501c2fd69dd47e39cc016f5053a8",
    "ns": "3945315ad0c164b8d1557be740fadc4ae8119ba86b9385dbf70bd59ee33b39a2",
    "revocation": "232760608c84f8e6073d8197c17cd9e8f944cafb7477a651ba18e8f2d4888511",
    "timed": "7f90d83f0677f5f1004d8245391e46f7a20aebdfdb53bee3981e6a6806257549",
}

# SHA-256 of every node's search trace at seed 0, one "<node> <line>" per
# line.  The STEP lines name fresh variables and eigenconstants, so this
# pins the prover's fresh-name numbering.  (Delegation's trace prints the
# right-nested disjunction `B = A \/ (B = B \/ B = C)`.)
TRACE_SHA256 = {
    "delegation": "c1e5604b6edc5d1c431dcb54f805715c178193948cab5af0bd7e58c58e42ef91",
    "hospital": "23a0caf9eb03aee55fa41f5d6721c37e3e45a63dfd3a5a418ae14e68bb238241",
    "ns": "034b9d36406355e1269983ee1e0f7130a35f61a1e56c315291c067b91ff93569",
    "revocation": "8c64649819373a3e1e4684d889cd561a4c00ec276527e5a398694facf375be4b",
    "timed": "0d7978d7c58e2f1aa716792bdcbd3acf1b73361730ff2bc8800db313d0c663e3",
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
    assert sha256(text.encode()).hex() == TRACE_SHA256[name]


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

