"""Key generation, signing, attestation verification, key files."""

import random

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from cyberlogic import codec, scenarios
from cyberlogic import evidence as E
from cyberlogic import syntax as S
from cyberlogic.crypto import (
    Directory,
    KeyPair,
    keygen,
    load_keypair,
    save_keypair,
    sign,
    sign_attestation,
    verify,
    verify_attestation,
)
from cyberlogic.errors import KeyError_


def _atom(name="ok", arg="x1"):
    return S.Atom(name, (S.Const(arg, "Principal"),))


def test_sign_verify_round_trip():
    kp, pid = keygen("Cons42", random.Random(0))
    msg = b"payload"
    assert verify(kp.public, sign(kp, msg), msg)


def test_empty_name_rejected():
    with pytest.raises((ValueError, KeyError_)):
        keygen("", random.Random(0))


def test_keygen_is_seed_deterministic():
    a, _ = keygen("K", random.Random(5))
    b, _ = keygen("K", random.Random(5))
    c, _ = keygen("K", random.Random(6))
    assert a.private == b.private and a.public == b.public
    assert a.private != c.private


def test_attestation_round_trip():
    kp, pid = keygen("K", random.Random(1))
    sa = sign_attestation(kp, pid, _atom(), issued_at=3)
    got = verify_attestation(kp.public, sa)
    assert got == S.Attest(S.Const("K", "Principal"), _atom())


def test_attestation_single_bit_mutations_all_rejected():
    rng = random.Random(2)
    kp, pid = keygen("K", rng)
    sa = sign_attestation(kp, pid, _atom())
    # every bit of the signature
    for bit in range(len(sa.signature) * 8):
        sig = bytearray(sa.signature)
        sig[bit // 8] ^= 1 << (bit % 8)
        bad = type(sa)(sa.principal, sa.payload, bytes(sig), sa.issued_at)
        assert verify_attestation(kp.public, bad) is None, f"signature bit {bit}"
    # a sample of payload bits
    for bit in rng.sample(range(len(sa.payload) * 8), 64):
        pay = bytearray(sa.payload)
        pay[bit // 8] ^= 1 << (bit % 8)
        bad = type(sa)(sa.principal, bytes(pay), sa.signature, sa.issued_at)
        assert verify_attestation(kp.public, bad) is None, f"payload bit {bit}"


def test_issued_at_is_covered_by_the_signature():
    kp, pid = keygen("K", random.Random(3))
    sa = sign_attestation(kp, pid, _atom(), issued_at=5)
    bad = type(sa)(sa.principal, sa.payload, sa.signature, 6)
    assert verify_attestation(kp.public, bad) is None


def test_a_signed_formula_that_is_not_an_atom_is_rejected():
    kp, pid = keygen("K", random.Random(7))
    for formula in (S.TOP, S.And(_atom(), _atom())):
        sa = sign_attestation(kp, pid, formula)
        assert verify_attestation(kp.public, sa) is None


def test_an_attestation_relabelled_to_another_principal_is_rejected():
    # K's signature stays valid under K's key, but the principal it names
    # has another fingerprint.
    kp, pid = keygen("K", random.Random(8))
    _, other = keygen("M", random.Random(9))
    sa = sign_attestation(kp, pid, _atom())
    relabelled = type(sa)(other, sa.payload, sa.signature, sa.issued_at)
    assert verify_attestation(kp.public, relabelled) is None


def test_a_verified_attestation_names_the_principal_it_was_signed_as():
    # The checker relies on this: an attestation leaf whose formula equals
    # the goal `K says a` names K, so it needs no test of its own name.
    seen = 0
    for name, run in sorted(scenarios.SCENARIOS.items()):
        r = run(0)
        certs = [r.certificate, *(cert for cert, _ in r.details.get("certs", {}).values())]
        for cert in certs:
            found = [cert.created_at]
            for node in E.nodes(cert.root_evidence):
                found.append(node.attestation if isinstance(node, E.AttLeaf) else getattr(node, "receipt", None))
            for sa in filter(None, found):
                got = verify_attestation(r.world.directory.public_key(sa.principal.name), sa)
                assert got.principal == S.Const(sa.principal.name, "Principal"), name
                seen += 1
    assert seen >= 10


def test_key_file_round_trip(tmp_path):
    kp, _ = keygen("K", random.Random(4))
    path = tmp_path / "K.key"
    save_keypair(str(path), kp)
    assert load_keypair(str(path)) == kp
    mode = path.stat().st_mode & 0o777
    assert mode & 0o077 == 0  # not readable by group/other


def test_a_loaded_signing_key_signs_as_the_seed_does(tmp_path):
    kp, _ = keygen("K", random.Random(10))
    save_keypair(str(tmp_path / "K.key"), kp)
    for pair in (kp, load_keypair(str(tmp_path / "K.key"))):
        for msg in (b"", b"payload", b"payload"):
            assert sign(pair, msg) == Ed25519PrivateKey.from_private_bytes(pair.private).sign(msg)


def test_a_key_pair_that_has_signed_equals_one_that_has_not():
    kp, _ = keygen("K", random.Random(11))
    twin = KeyPair(kp.public, kp.private)
    sign(kp, b"payload")
    assert kp == twin and hash(kp) == hash(twin)
    assert {kp: 1}[twin] == 1


def test_a_key_pair_repr_shows_no_private_seed():
    kp, _ = keygen("K", random.Random(12))
    sign(kp, b"payload")
    text = repr(kp)
    assert repr(kp.private) not in text and kp.private.hex() not in text
    assert repr(kp.public) in text


def test_malformed_key_file(tmp_path):
    path = tmp_path / "bad.key"
    path.write_text("abcd\n")
    with pytest.raises(KeyError_):
        load_keypair(str(path))


def test_directory_round_trip(tmp_path):
    d = Directory()
    for i, name in enumerate(("A", "B", "C")):
        kp, _ = keygen(name, random.Random(i))
        d.add(name, kp.public)
    path = tmp_path / "dir.txt"
    d.save(str(path))
    d2 = Directory.load(str(path))
    assert d2.names() == ["A", "B", "C"]
    for name in d.names():
        assert d2.public_key(name) == d.public_key(name)


def test_directory_fingerprint_mismatch(tmp_path):
    kp, _ = keygen("A", random.Random(0))
    path = tmp_path / "dir.txt"
    path.write_text(f"A {kp.public.hex()} {'00' * 32}\n")
    with pytest.raises(KeyError_):
        Directory.load(str(path))
