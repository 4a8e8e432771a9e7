"""Trusted services: the time source T, the nonce service N, and the
checker registry.

The clock is logical: it only moves when advanced, so runs are
reproducible.  T signs `time(t)` readings; a receipt for
`time_not_elapsed(t)` is a signed reading strictly before t.  Nonces are
unique, seeded, and issued with their creation time.  The registry is an
append-only hash chain mapping policy digests to their owners and checker
endpoints, so a certificate that applies private clauses can be verified
by their owner without the policy ever leaving home.
"""

from __future__ import annotations

import base64
import random
from dataclasses import dataclass

from . import syntax as S
from . import codec
from . import evidence as E
from .crypto import Directory, keygen, sign_attestation, sha256
from .errors import TransportError
from .node import decode_frame, encode_frame


def _time_term(t: int) -> S.Const:
    return S.Const(str(t), "Time")


class TrustedServices:
    """The clock and nonce authorities, holding the T and N keys."""

    def __init__(self, seed: int = 0, start: int = 1):
        self.rng = random.Random(seed)
        self.time_keys, self.time_id = keygen("T", self.rng)
        self.nonce_keys, self.nonce_id = keygen("N", self.rng)
        self._now = start
        self._nonce_seq = 0
        self.issued: dict[str, int] = {}  # nonce name -> issue time

    # -- clock --------------------------------------------------------------

    def now(self) -> int:
        return self._now

    def advance(self, dt: int = 1):
        if dt < 0:
            raise ValueError("the clock never runs backwards")
        self._now += dt

    def attest_time(self):
        """Signed current reading: <T> time(now)."""
        atom = S.Atom("time", (_time_term(self._now),))
        return sign_attestation(self.time_keys, self.time_id, atom, issued_at=self._now)

    def time_receipt(self, t):
        """Receipt for time_not_elapsed(t): a signed reading strictly
        before t, or None once t has passed."""
        tv = S.int_value(t)
        if tv is None or self._now >= tv:
            return None
        return self.attest_time()

    # -- nonces -------------------------------------------------------------

    def fresh_nonce(self) -> str:
        self._nonce_seq += 1
        name = f"n{self._nonce_seq}_{self.rng.getrandbits(32):08x}"
        self.issued[name] = self._now
        return name

    def attest_nonce(self, name: str):
        atom = S.Atom("nonce", (S.Const(name, "Nonce"),))
        return sign_attestation(self.nonce_keys, self.nonce_id, atom, issued_at=self.issued.get(name))

    def attest_candidates(self, who: str, atom) -> list:
        """Attestations the services are willing to make for a goal
        <T> time(..) or <N> nonce(..)."""
        if who == "T" and isinstance(atom, S.Atom) and atom.pred == "time":
            return [self.attest_time()]
        if who == "N" and isinstance(atom, S.Atom) and atom.pred == "nonce":
            arg = atom.args[0]
            if isinstance(arg, S.Const) and arg.name in self.issued:
                return [self.attest_nonce(arg.name)]
        return []

    def register_keys(self, directory: Directory):
        directory.add("T", self.time_keys.public)
        directory.add("N", self.nonce_keys.public)


# ---------------------------------------------------------------------------
# Checker registry


@dataclass(frozen=True)
class RegistryEntry:
    seq: int
    prev: bytes  # hash of the previous entry (32 zero bytes for the first)
    digest: bytes  # policy digest
    owner: str  # owner of that policy
    endpoint: str  # endpoint name

    @property
    def entry_hash(self) -> bytes:
        owner = self.owner.encode()
        return sha256(
            b"%d|%s|%s|%d:%s%s"
            % (self.seq, self.prev, self.digest, len(owner), owner, self.endpoint.encode())
        )


class Registry:
    """Append-only, hash-chained digest -> (owner, checker endpoint)
    table.  Old entries are never removed; lookups return the newest match,
    so certificates pinned to stale digests still find their checker."""

    def __init__(self):
        self.entries: list[RegistryEntry] = []
        self._endpoints: dict[bytes, "CheckerEndpoint"] = {}  # digest -> newest endpoint

    def register(self, digest: bytes, endpoint: "CheckerEndpoint") -> RegistryEntry:
        """Route `digest` to `endpoint`, which must hold that policy; the
        entry names the policy's owner."""
        policy = endpoint.policies.get(digest)
        if policy is None:
            raise ValueError(f"endpoint {endpoint.name!r} holds no policy {digest.hex()[:12]}")
        prev = self.entries[-1].entry_hash if self.entries else b"\0" * 32
        entry = RegistryEntry(len(self.entries), prev, digest, policy.owner, endpoint.name)
        self.entries.append(entry)
        self._endpoints[digest] = endpoint
        return entry

    def endpoint_for(self, digest: bytes) -> "CheckerEndpoint | None":
        return self._endpoints.get(digest)

    def verify_chain(self) -> bool:
        prev = b"\0" * 32
        for i, entry in enumerate(self.entries):
            if entry.seq != i or entry.prev != prev:
                return False
            prev = entry.entry_hash
        return True


class CheckerEndpoint:
    """A principal's certificate-checking service.  It holds the policies
    the principal is willing to check against (its own and any public
    ones) and answers serialized check requests; clause applications
    against other owners' digests are forwarded to their endpoints through
    the registry, so no policy ever crosses the wire."""

    def __init__(
        self,
        name: str,
        policies,  # iterable of Policy
        directory: Directory | None = None,
        registry: Registry | None = None,
    ):
        self.name = name
        self.policies = {p.digest: p for p in policies}
        self.directory = directory
        self.registry = registry

    def check_local(self, cert: E.Certificate) -> E.CheckResult:
        # A foreign digest's owner is named by its registry entry, never by
        # the certificate; the endpoint's own policies take precedence.
        known = {e.digest: e for e in self.registry.entries} if self.registry else {}
        known.update(self.policies)
        return E.check_certificate(cert, known, self.directory, foreign_check=self._foreign)

    def _foreign(self, digest, ev, phi, env):
        if self.registry is None:
            return None
        endpoint = self.registry.endpoint_for(digest)
        if endpoint is None or endpoint is self:
            return None
        # The hypotheses in scope travel as premises of the forwarded root:
        # one implication, and one abstraction naming it, per clause.
        for c in env.clauses():
            clause = c.head
            for s in reversed(c.slots):
                clause = S.Implies(s, clause)
            for v in reversed(c.universals):
                clause = S.Forall(v, clause)
            phi = S.Implies(clause, phi)
            ev = E.Abstraction(c.label, ev)
        sub = E.Certificate(
            root_formula=phi,
            root_evidence=ev,
            policy_digests=frozenset({digest}),
        )
        return remote_check(self.registry, sub, digest)

    def handle_frame(self, data: bytes) -> bytes:
        """Serve one check request frame (see `node.encode_frame`)."""
        try:
            req = decode_frame(data)
            cert = codec.decode_certificate(base64.b64decode(req["cert_b64"]))
        except Exception as ex:
            return encode_frame(
                {"type": "CHECK_RESP", "verdict": "nok", "reason": f"malformed request: {ex}"}
            )
        result = self.check_local(cert)
        return encode_frame(
            {
                "type": "CHECK_RESP",
                "verdict": result.verdict,
                "path": list(result.path),
                "reason": result.reason,
            }
        )


def remote_check(
    registry: Registry,
    cert: E.Certificate,
    digest: bytes | None = None,
    frame_log: list | None = None,
) -> E.CheckResult:
    """Check a certificate at the endpoint registered for `digest` (or for
    any of the certificate's pinned digests).  The certificate is passed
    through serialized frames even in-process, and the frames are appended
    to `frame_log` so callers can audit exactly what was disclosed."""
    endpoint = None
    for d in [digest] if digest is not None else sorted(cert.policy_digests):
        if d is None:
            continue
        endpoint = registry.endpoint_for(d)
        if endpoint is not None:
            break
    if endpoint is None:
        return E.CheckResult(False, (), "no registered checker for the pinned policies")
    cert_b64 = base64.b64encode(codec.encode_certificate(cert)).decode()
    try:
        frame = encode_frame({"type": "CHECK_REQ", "cert_b64": cert_b64})
    except TransportError as ex:
        return E.CheckResult(False, (), str(ex))
    if frame_log is not None:
        frame_log.append(frame)
    resp_frame = endpoint.handle_frame(frame)
    if frame_log is not None:
        frame_log.append(resp_frame)
    try:
        resp = decode_frame(resp_frame)
    except TransportError:
        return E.CheckResult(False, (), "malformed checker response")
    return E.CheckResult(
        resp.get("verdict") == "ok",
        tuple(resp.get("path") or ()),
        resp.get("reason"),
    )
