"""Trusted services: the time source T, the nonce service N, and the
checker registry.

The clock is logical: it only moves when advanced, so runs are
reproducible.  T signs a `time(t)` reading once per tick; a receipt for
`time_not_elapsed(t)` is a signed reading strictly before t.  Nonces are
unique, seeded, and issued with their creation time.  The registry is an
append-only hash chain mapping policy digests to their owners and checker
endpoints, so a certificate that applies private clauses can be verified
by their owner without the policy ever leaving home.

`remote_check` is the only sender of check requests: one worklist from
the entry endpoint.  Each request cuts every clause application under a
digest the receiving endpoint `forwards` down to its head (no premises), so
an endpoint sees only its own part and the hypotheses in scope.  CHECK_REQ
carries `cert_b64`, a certificate, and for an obligation `evidence_b64`
too, the clause application to check in place of the certificate's
innermost node, and `eigens`, the eigenvariables in scope, when there are
some.  CHECK_RESP carries the `verdict`, `path` and `reason` on the
endpoint's own part and `obligations`: per cut application met, its
`path`, as `cert_b64` its goal and cut application inside the
implications that assume the hypotheses in scope and the `knows`
restrictions around it, and its `eigens` when there are some.  Paths are
relative to the evidence sent; the caller takes each cut path back once
and maps every path into the certificate, so the verdict, path and
reason are the local checker's.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, replace

from . import syntax as S
from . import codec
from . import evidence as E
from .crypto import Directory, keygen, sign_attestation, sha256
from .errors import TransportError
from .node import b64, decode_frame, encode_frame, unb64


def _time_term(t: int) -> S.Const:
    return S.Const(str(t), "Time")


class TrustedServices:
    """The clock and nonce authorities, holding the T and N keys."""

    def __init__(self, seed: int = 0, start: int = 1):
        self.rng = random.Random(seed)
        self.time_keys, self.time_id = keygen("T", self.rng)
        self.nonce_keys, self.nonce_id = keygen("N", self.rng)
        self._now = start
        self._reading = None  # the last signed reading, reused while the clock stands
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
        """Signed current reading: <T> time(now), signed once per tick.
        Ed25519 signing is deterministic, so the reused reading is the
        one a new signature would give."""
        if self._reading is None or self._reading.issued_at != self._now:
            atom = S.Atom("time", (_time_term(self._now),))
            self._reading = sign_attestation(self.time_keys, self.time_id, atom, issued_at=self._now)
        return self._reading

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
        self._entries: dict[bytes, RegistryEntry] = {}  # digest -> newest entry

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
        self._entries[digest] = entry
        return entry

    def endpoint_for(self, digest: bytes) -> "CheckerEndpoint | None":
        return self._endpoints.get(digest)

    def entry_for(self, digest: bytes) -> RegistryEntry | None:
        return self._entries.get(digest)

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
    ones) and answers check request frames.  A clause application under a
    digest it `forwards` is left to that policy's owner as an obligation,
    so no policy ever crosses the wire."""

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

    def forwards(self, digest) -> bool:
        """Whether clauses under `digest` are checked elsewhere: this endpoint
        does not hold that policy, and its registry routes it."""
        return isinstance(self.get(digest), RegistryEntry)

    def get(self, digest):
        """As the checker's policy map: the policy held under `digest`, else the registry's newest record."""
        policy = self.policies.get(digest)
        return self.registry.entry_for(digest) if policy is None and self.registry else policy

    def handle_frame(self, data: bytes) -> bytes:
        """Serve one check request frame (see the module docstring)."""
        try:
            req = decode_frame(data)
            cert = codec.decode_certificate(unb64(req["cert_b64"]))
            chain = [cert.root_evidence]  # wrapper nodes down to the one `evidence_b64` replaces
            if "evidence_b64" in req:
                while isinstance(chain[-1], (E.KnowsWrap, E.Abstraction)):
                    chain.append(chain[-1].body)
                chain[-1] = codec.decode_evidence(unb64(req["evidence_b64"]))
            eigens = req.get("eigens", [])
            if not (isinstance(eigens, list) and all(isinstance(x, str) for x in eigens)):
                raise ValueError("eigens is not a list of names")
        except Exception as ex:
            return _refusal(f"malformed request: {ex}")
        ev, depth = chain.pop(), len(chain)
        for w in reversed(chain):
            ev = E.rebuild(w, (ev,), None)
        cert = replace(cert, root_evidence=ev)
        result, obligations = E.check_part(cert, self, self.directory, frozenset(eigens))
        oblige = [{"path": o.path[depth:], "cert_b64": b64(codec.encode_certificate(_certificate(o))),
                   **_eigens(sorted(o.eigens))} for o in obligations]
        resp = {"verdict": "ok" if result else "nok", "path": result.path[depth:], "reason": result.reason}
        try:
            return encode_frame({"type": "CHECK_RESP", **resp, "obligations": oblige})
        except TransportError as ex:
            return _refusal(str(ex))


def _eigens(names) -> dict:
    """The `eigens` field of a request or an obligation: none for no names."""
    return {"eigens": names} if names else {}


def _refusal(reason: str) -> bytes:
    return encode_frame({"type": "CHECK_RESP", "verdict": "nok", "reason": reason})


def _certificate(o: E.Obligation) -> E.Certificate:
    """An obligation as a certificate of its own: its goal and clause
    application inside the implications and restrictions of its scope."""
    phi, ev = o.goal, o.node
    for w, w_ev in reversed(o.scope):
        phi = S.Implies(w.left, phi) if isinstance(w, S.Implies) else S.Knows(w.principals, phi)
        ev = E.rebuild(w_ev, (ev,), None)
    return E.Certificate(phi, ev)


def _cut(ev, forwards):
    """`ev` with each clause application under a digest that `forwards`
    accepts cut down to its head, and the cut applications by path."""
    cut, out, todo = {}, [], [(ev, ())]
    while todo:
        x, y = todo.pop()
        if x.__class__ is tuple:  # the children of y, whose results are last in `out`
            new = out[len(out) - len(x) :]
            del out[len(out) - len(x) :]
            out.append(y if all(map(operator.is_, new, x)) else E.rebuild(y, new, lambda t: t))
        elif x.__class__ is E.ClauseApp and forwards(x.policy_digest):
            cut[y] = x
            out.append(E.ClauseApp(x.ref, x.policy_digest, x.args))
        elif kids := E.children(x):
            todo.append((kids, x))
            todo += [(kids[i], y + (i,)) for i in range(len(kids) - 1, -1, -1)]
        else:
            out.append(x)
    return out[0], cut


def remote_check(
    registry: Registry,
    cert: E.Certificate,
    digest: bytes | None = None,
    frame_log: list | None = None,
) -> E.CheckResult:
    """Check a certificate at the endpoint registered for `digest` (or for
    the first pinned digest that has one), and each obligation there and
    after at the endpoint its registry routes it to.  Every frame sent and
    received is appended to `frame_log`, so callers can audit exactly what
    was disclosed.  The result is the local checker's."""
    pins = [digest] if digest is not None else sorted(cert.policy_digests)
    endpoint = next(filter(None, map(registry.endpoint_for, pins)), None)
    if endpoint is None:
        return E.CheckResult(False, (), "no registered checker for the pinned policies")
    # Requests, lowest path on top: the endpoint, the evidence it checks,
    # that evidence's path in `cert`, and the obligation met (None: `cert`),
    # as the fields of its reply that go on into the request.
    failure, todo = None, [(endpoint, cert.root_evidence, (), None)]
    while todo:
        endpoint, ev, base, obligation = todo.pop()
        if failure is not None and base > failure.path:
            break  # all that is left comes after the failure in pre-order
        ev, cut = _cut(ev, endpoint.forwards)
        try:
            if obligation is None:
                req = {"cert_b64": b64(codec.encode_certificate(replace(cert, root_evidence=ev)))}
            else:
                req = {**obligation, "evidence_b64": b64(codec.encode_evidence(ev))}
            frame = encode_frame({"type": "CHECK_REQ", **req})
        except TransportError as ex:
            return E.CheckResult(False, base, str(ex))
        resp = endpoint.handle_frame(frame)
        if frame_log is not None:
            frame_log += [frame, resp]
        try:
            resp = decode_frame(resp)
            ok, reason = resp["verdict"] == "ok", resp.get("reason")
            path = tuple(map(operator.index, resp.get("path", ())))
            obligations = [(tuple(map(operator.index, o["path"])),
                            {"cert_b64": o["cert_b64"], **_eigens(o.get("eigens"))})
                           for o in resp.get("obligations", ())]
            if resp["type"] != "CHECK_RESP" or not (ok or isinstance(reason, str)):
                raise ValueError("no verdict")
            # by path, the lowest going on the stack last
            obligations.sort(key=operator.itemgetter(0), reverse=True)
        except (TransportError, KeyError, TypeError, ValueError) as ex:
            return E.CheckResult(False, base, f"malformed checker response: {ex}")
        for at, obligation in obligations:
            if at not in cut:
                return E.CheckResult(False, base, f"{endpoint.name!r} sent an unknown or repeated obligation")
            node = cut.pop(at)
            todo.append((endpoint.registry.endpoint_for(node.policy_digest), node, base + at, obligation))
        if not ok and (failure is None or base + path < failure.path):
            failure = E.CheckResult(False, base + path, reason)
        elif ok and cut:
            return E.CheckResult(False, base, f"{endpoint.name!r} left {len(cut)} cut applications unchecked")
    return E.CheckResult(True) if failure is None else failure
