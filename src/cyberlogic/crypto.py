"""Principal identities: Ed25519 key pairs, SHA-256 digests, and
signature-backed attestations over canonically encoded atoms.

A signature by K over the canonical bytes of an atom is the evidence for
the claim "K attests this atom"; the formula itself travels in clear.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import KeyError_
from .syntax import Atom, Attest, Const, Formula


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class PrincipalId:
    name: str
    fingerprint: bytes  # sha256 of the public key bytes

    def __repr__(self):
        return f"{self.name}#{self.fingerprint.hex()[:8]}"


@dataclass(frozen=True)
class KeyPair:
    public: bytes
    private: bytes = field(repr=False)

    @cached_property
    def signing_key(self) -> Ed25519PrivateKey:
        """The Ed25519 key of `private`, loaded on first use; not a field, so
        equality, hashing and key files see only the bytes."""
        return Ed25519PrivateKey.from_private_bytes(self.private)


def keygen(name: str, rng=None) -> tuple[KeyPair, PrincipalId]:
    """Create a fresh key pair.  `rng` may supply 32 seed bytes via
    randbytes() for reproducible identities; default is OS entropy."""
    if not name:
        raise KeyError_("principal name must be nonempty")
    seed = rng.randbytes(32) if rng is not None else os.urandom(32)
    sk = Ed25519PrivateKey.from_private_bytes(seed)
    pub = sk.public_key().public_bytes_raw()
    kp = KeyPair(public=pub, private=seed)
    return kp, PrincipalId(name=name, fingerprint=sha256(pub))


def sign(kp: KeyPair, message: bytes) -> bytes:
    return kp.signing_key.sign(message)


def verify(public: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# ---------------------------------------------------------------------------
# Signed attestations


@dataclass(frozen=True)
class SignedAttestation:
    principal: PrincipalId
    payload: bytes  # canonical bytes of the attested atom
    signature: bytes
    issued_at: int | None = None  # Time value

    def atom(self) -> Atom:
        from . import codec

        f = codec.decode_formula(self.payload)
        if not isinstance(f, Atom):
            raise KeyError_("attestation payload is not an atom")
        return f


def _signing_input(payload: bytes, issued_at) -> bytes:
    at = b"" if issued_at is None else str(issued_at).encode()
    return b"%d:%s%d:%s" % (len(payload), payload, len(at), at)


def sign_attestation(
    kp: KeyPair,
    who: PrincipalId,
    atom: Atom,
    issued_at: int | None = None,
) -> SignedAttestation:
    """Sign an atom as `who`.  The key pair must match the identity."""
    from . import codec

    if sha256(kp.public) != who.fingerprint:
        raise KeyError_(f"key pair does not belong to {who!r}")
    payload = codec.encode_formula(atom)
    sig = sign(kp, _signing_input(payload, issued_at))
    return SignedAttestation(who, payload, sig, issued_at)


def verify_attestation(public: bytes, sa: SignedAttestation) -> Formula | None:
    """Return the attested formula Attest(K, atom) on success, None on any
    forged, tampered, or mismatched certificate."""
    if sha256(public) != sa.principal.fingerprint:
        return None
    if not verify(public, sa.signature, _signing_input(sa.payload, sa.issued_at)):
        return None
    try:
        atom = sa.atom()
    except Exception:
        return None
    return Attest(Const(sa.principal.name, "Principal"), atom)


# ---------------------------------------------------------------------------
# Key and directory files

KEYFILE_MODE = 0o600
ATTESTED_CACHE = 1024  # verified attestations a Directory keeps, oldest dropped first
ATTESTED_SIZE = 256  # longest payload plus principal name a Directory keeps


def save_keypair(path: str, kp: KeyPair):
    """Key file: one line, 64 bytes hex = raw private || public."""
    data = (kp.private + kp.public).hex() + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, KEYFILE_MODE)
    with os.fdopen(fd, "w") as fh:
        fh.write(data)


def load_keypair(path: str) -> KeyPair:
    with open(path) as fh:
        raw = bytes.fromhex(fh.readline().strip())
    if len(raw) != 64:
        raise KeyError_(f"malformed key file {path}")
    return KeyPair(public=raw[32:], private=raw[:32])


class Directory:
    """Deployment directory: principal name -> public key and fingerprint.
    Iteration order is file/registration order and drives broadcast order.
    A signed attestation is verified once per key: the directory keeps the
    ATTESTED_CACHE newest that verified, none larger than ATTESTED_SIZE,
    and no attestation that failed."""

    def __init__(self):
        self._entries = {}  # name -> (public bytes, fingerprint)
        self._attested = {}  # (public bytes, SignedAttestation) -> its formula
        self._lock = threading.Lock()  # held to store in and drop from _attested

    def add(self, name: str, public: bytes):
        self._entries[name] = (public, sha256(public))

    def attested(self, name: str, sa: SignedAttestation) -> Formula | None:
        """`verify_attestation` of `sa` under `name`'s key, or None without
        one.  The memo is keyed on the key's bytes and the whole of `sa`,
        so a replaced key or any changed field is verified afresh."""
        public = self.public_key(name)
        if public is None:
            return None
        got = self._attested.get((public, sa))
        if got is None:
            got = verify_attestation(public, sa)
            if got is not None and len(sa.payload) + len(sa.principal.name) <= ATTESTED_SIZE:
                with self._lock:
                    self._attested[public, sa] = got
                    if len(self._attested) > ATTESTED_CACHE:
                        del self._attested[next(iter(self._attested))]
        return got

    def names(self):
        return list(self._entries)

    def public_key(self, name: str) -> bytes | None:
        e = self._entries.get(name)
        return e[0] if e else None

    def principal_id(self, name: str) -> PrincipalId | None:
        e = self._entries.get(name)
        return PrincipalId(name, e[1]) if e else None

    def __contains__(self, name):
        return name in self._entries

    def save(self, path: str):
        with open(path, "w") as fh:
            for name, (pub, fp) in self._entries.items():
                fh.write(f"{name} {pub.hex()} {fp.hex()}\n")

    @classmethod
    def load(cls, path: str) -> "Directory":
        d = cls()
        with open(path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                name, pub_hex, fp_hex = line.split()
                pub = bytes.fromhex(pub_hex)
                if sha256(pub).hex() != fp_hex:
                    raise KeyError_(f"fingerprint mismatch for {name!r} in {path}")
                d.add(name, pub)
        return d
