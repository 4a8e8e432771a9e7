"""Principal nodes and the transports between them.

Each node holds one principal's key pair, policy, and session table, and
answers queries from peers.  Queries and answers travel as
newline-delimited JSON frames with base64-encoded canonical payloads, the
same format over the in-process simulator and TCP.  A query carries a
session-token chain: every hypothesis assumed while proving is filed under
the proving node's token, and follow-up queries carrying that token may
use those hypotheses — and only those.  Every ANSWER names the SHA-256 of
the QUERY bytes it answers and is signed by the answering node over the
rest of the frame; a node never signs an attestation.  Within one query a
node asks each distinct question once: its answer table replays a repeated
request's answer, or its lack of one, and forgets everything when the query
ends.  A served search that ends without an answer fails as `depth
exhausted` when the depth budget cut it short, else as `no proof`.

The simulator is synchronous and seeded: a request is served to
completion before the caller resumes, so runs are reproducible
byte-for-byte.
"""

from __future__ import annotations

import base64
import binascii
import json
import random
import socket
import socketserver
import threading

from . import codec
from . import crypto
from . import engine
from . import evidence as E
from . import syntax as S
from .crypto import Directory, KeyPair
from .errors import CodecError, FlounderError, RouteError, TransportError

MAX_FRAME = 16 * 1024 * 1024
SERVICE_NAMES = ("T", "N")
ANSWER_CACHE = 1024  # replies kept for redelivered queries, oldest dropped first
MAX_HANDLERS = 32  # concurrent TCP connection handlers; more are closed unanswered


def encode_frame(obj: dict) -> bytes:
    data = (json.dumps(obj, sort_keys=True) + "\n").encode()
    if len(data) > MAX_FRAME:
        raise TransportError(f"frame of {len(data)} bytes exceeds the {MAX_FRAME} limit")
    return data


def decode_frame(data: bytes) -> dict:
    if len(data) > MAX_FRAME:
        raise TransportError(f"frame of {len(data)} bytes exceeds the {MAX_FRAME} limit")
    try:
        obj = json.loads(data.decode())
    except Exception as ex:
        raise TransportError(f"malformed frame: {ex}") from ex
    if not isinstance(obj, dict) or "type" not in obj:
        raise TransportError("frame is not a typed object")
    return obj


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode()


def unb64(text: str) -> bytes:
    return base64.b64decode(text)


def _fail(qid, reason: str) -> bytes:
    return encode_frame({"type": "FAIL", "qid": qid, "reason": reason})


def _is_b64(x) -> bool:
    """Whether `x` can be given to `unb64`: text that is all ASCII."""
    return isinstance(x, str) and x.isascii()


# ---------------------------------------------------------------------------
# Transports


class SimNetwork:
    """In-process transport.  Every frame in both directions is appended to
    `frames` as (from, to, bytes).  Fault rules are callables
    (frm, to, frame) -> "drop" | "duplicate" | None, applied to requests."""

    def __init__(self):
        self.nodes: dict[str, "Node"] = {}
        self.frames: list[tuple[str, str, bytes]] = []
        self.fault_rules: list = []

    def register(self, node: "Node"):
        self.nodes[node.name] = node
        node.network = self

    def request(self, frm: str, to: str, frame: bytes) -> list[bytes]:
        if to not in self.nodes:
            raise RouteError(f"no route to {to!r}")
        action = None
        for rule in self.fault_rules:
            action = rule(frm, to, frame)
            if action:
                break
        if action == "drop":
            self.frames.append((frm, to, b""))
            return []
        deliveries = 2 if action == "duplicate" else 1
        responses: list[bytes] = []
        for _ in range(deliveries):
            self.frames.append((frm, to, frame))
            for resp in self.nodes[to].handle_frame(frame):
                self.frames.append((to, frm, resp))
                responses.append(resp)
        return responses

    def query_transcript(self) -> list[str]:
        """Human-readable log of the QUERY goals, in send order."""
        out = []
        for frm, to, data in self.frames:
            if not data:
                continue
            try:
                obj = decode_frame(data)
            except TransportError:
                continue
            if obj.get("type") == "QUERY":
                goal = codec.decode_formula(unb64(obj["goal_b64"]))
                out.append(f"{frm} -> {to}: {S.fmt_formula(goal)}")
        return out


class TcpTransport:
    """Connect-per-request TCP client speaking the same frames.  `timeout`
    (seconds) bounds the connect and each read of the reply."""

    def __init__(self, addresses: dict, timeout: float = 30.0):
        self.addresses = dict(addresses)  # name -> (host, port)
        self.timeout = timeout

    def request(self, frm: str, to: str, frame: bytes) -> list[bytes]:
        if to not in self.addresses:
            raise RouteError(f"no address for {to!r}")
        with socket.create_connection(self.addresses[to], timeout=self.timeout) as sock:
            sock.sendall(frame)
            sock.shutdown(socket.SHUT_WR)
            buf = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                buf += chunk
                if len(buf) > MAX_FRAME:
                    raise TransportError("response exceeds the frame limit")
        return [line + b"\n" for line in buf.split(b"\n") if line]


class _BoundedServer(socketserver.ThreadingTCPServer):
    """One thread per connection, at most MAX_HANDLERS (read when the
    server is made) at a time; a connection past the cap is closed at once
    without a reply."""

    daemon_threads = True

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._slots = threading.BoundedSemaphore(MAX_HANDLERS)

    def process_request(self, request, client_address):
        if not self._slots.acquire(blocking=False):
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()  # no thread started to release it
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def serve_node(node: "Node", host: str = "127.0.0.1", port: int = 0, timeout: float | None = None):
    """Serve a node over TCP; returns (server, thread, bound_port).
    `timeout` (seconds) bounds each read of a request; a client that stops
    sending for that long is disconnected without a reply.  At most
    MAX_HANDLERS connections are served at once."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            try:
                data = self.rfile.read(MAX_FRAME + 1)
            except TimeoutError:
                return
            for resp in node.handle_frame(data):
                self.wfile.write(resp)

    Handler.timeout = timeout
    server = _BoundedServer((host, port), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, server.server_address[1]


# ---------------------------------------------------------------------------
# Nodes


class Node:
    """One principal: keys, policy, session table, and query handling."""

    def __init__(
        self,
        name: str,
        policy,
        keys: KeyPair,
        directory: Directory,
        services=None,
        network=None,
        seed: int = 0,
        depth: int = engine.DEFAULT_DEPTH,
    ):
        self.name = name
        self.policy = policy
        self.keys = keys
        self.directory = directory
        self.services = services
        self.network = network
        self.depth = depth
        self.rng = random.Random((seed, name).__repr__())
        self.sessions: dict[str, list] = {}  # token -> S.Clauses assumed, of running and kept queries
        self._kept: dict[str, None] = {}  # tokens of kept sessions, oldest first
        self._indexes: dict = {}  # owner -> engine.ClauseIndex of a served policy, never changed once built
        self._qid_seq = 0
        self._answered: dict[str, list[bytes]] = {}  # request digest -> reply
        self.metrics = {
            "queries_handled": 0,
            "dispatches": 0,
            "duplicates_ignored": 0,
            "transport_errors": 0,
        }
        self.trace: list[str] = []

    # -- helpers -------------------------------------------------------------

    def policy_digests(self) -> set:
        return {self.policy.digest}

    def _new_token(self) -> str:
        return f"{self.name}:{self.rng.getrandbits(128):032x}"

    def _new_qid(self) -> str:
        self._qid_seq += 1
        return f"{self.name}-{self._qid_seq}"

    def peers(self) -> list[str]:
        return [
            n
            for n in self.directory.names()
            if n != self.name and n not in SERVICE_NAMES
        ]

    def _env_for_chain(self, chain) -> E.HypothesisEnv:
        env = E.HypothesisEnv()
        for token in chain:
            assumed = self.sessions.get(token)
            if assumed is not None:
                env = env.extend(assumed)
        return env

    def _ask(self, goal, free_vars, depth, chain):
        """Answers for `goal` under the hypotheses of `chain`'s sessions and
        a new session, whose token the queries to peers add to `chain`: the
        search is at hop `len(chain)`.  Once the search ends, the session is
        kept only if it assumed hypotheses, and then among the ANSWER_CACHE
        newest such; the generator returns why it found no more answers,
        `depth exhausted` if the depth budget cut a goal or a peer's request
        short, else `no proof`."""
        token, assumed, short = self._new_token(), [], []
        self.sessions[token] = assumed
        prover = engine.Prover(
            {self.name: self.policy},
            dispatch=self._dispatcher(chain + [token], assumed, short),
            services=self.services,
            trace=self.trace,
            on_hypothesis=assumed.extend,
            indexes=self._indexes,
            hop=len(chain),
        )
        # Keep the indexes of the policies served now; a replaced policy's
        # index is extended from the old one, which is then dropped here
        # but stays whole for any search still suspended on it.
        self._indexes = prover.indexes
        try:
            yield from prover.ask(goal, free_vars, depth, self._env_for_chain(chain))
        finally:
            if not assumed:
                del self.sessions[token]
            else:
                self._kept[token] = None
                if len(self._kept) > ANSWER_CACHE:
                    oldest = next(iter(self._kept))
                    del self._kept[oldest], self.sessions[oldest]
        return "depth exhausted" if prover.state.exhausted or short else "no proof"

    # -- outbound ------------------------------------------------------------

    def _dispatcher(self, chain, assumed, short):
        """The prover's dispatch for one query, whose session chain is
        `chain` and whose own session has assumed `assumed`.  Its answer
        table keys each request on the peer, the goal as sent, its
        variables, its budget and `len(assumed)`, and replays a request
        asked again, answered or not, without a frame; one that got no
        reply (a transport error, a dropped frame) is asked again.  A peer
        answers a request once, so a replay gives what a resend would; and
        only `assumed` can change what a callback to this node sees while
        the query runs.  A request the depth budget cuts short, with no
        budget to send or a `depth exhausted` reply, is added to `short`."""
        table = {}  # (peer, goal sent, vars, budget, hypotheses assumed) -> accepted answer or None

        def dispatch(target, goal, vars_, budget, restriction):
            self.metrics["dispatches"] += 1
            if budget <= 0:
                short.append(target)
                return
            if self.network is None:
                return
            if restriction is not None:
                allowed = {p.name for p in restriction if isinstance(p, S.Const)}
                send_goal = S.Knows(restriction, goal)
            else:
                allowed = None
                send_goal = goal
            # A broadcast goal names its attester by an unbound variable;
            # instantiate it per peer so receivers only ever see their own
            # attestation goals and broadcasts never cascade.
            pvar = None
            if target is None:
                inner = goal.body if isinstance(goal, S.Knows) else goal
                if isinstance(inner, S.Attest) and isinstance(inner.principal, S.Var):
                    pvar = inner.principal
            targets = [target] if target is not None else self.peers()
            for to in targets:
                if to == self.name or to in SERVICE_NAMES:
                    continue
                if allowed is not None and to not in allowed:
                    continue
                to_goal = send_goal
                to_vars = vars_
                if pvar is not None:
                    to_goal = S.substitute(send_goal, {pvar: S.Const(to, "Principal")})
                    to_vars = [v for v in vars_ if v != pvar]
                key = (to, to_goal, tuple(to_vars), budget, len(assumed))
                if key in table:
                    answer = table[key]
                else:
                    qid = self._new_qid()
                    frame = encode_frame(
                        {
                            "type": "QUERY",
                            "qid": qid,
                            "from": self.name,
                            "to": to,
                            "session": list(chain),
                            "goal_b64": b64(codec.encode_formula(to_goal)),
                            "vars": [[v.name, v.sort] for v in to_vars],
                            "budget": budget,
                        }
                    )
                    try:
                        responses = self.network.request(self.name, to, frame)
                    except (RouteError, TransportError, OSError):
                        # No answer from this peer; search goes on without it.
                        self.metrics["transport_errors"] += 1
                        continue
                    if not responses:
                        continue  # dropped: asked again when met again
                    answer = table[key] = self._accept_answer(responses, frame, restriction, to)
                    # a FAIL frame is written as `_reply` writes it
                    if answer is None and _fail(qid, "depth exhausted") in responses:
                        short.append(to)
                if answer is not None:
                    bindings, ev = answer
                    if pvar is not None:
                        bindings = dict(bindings)
                        bindings[pvar.name] = S.Const(to, "Principal")
                    yield bindings, ev

        return dispatch

    def _accept_answer(self, responses, query: bytes, restriction, frm):
        """The bindings and evidence of the first ANSWER that names `query`
        and carries `frm`'s signature over the rest of the frame."""
        request = crypto.sha256(query).hex()
        pub = self.directory.public_key(frm)
        for resp in responses:
            try:
                obj = decode_frame(resp)
            except TransportError:
                continue
            if obj.get("type") != "ANSWER" or obj.get("request") != request:
                continue
            sig, bindings, ev = obj.pop("sig_b64", None), obj.get("bindings"), obj.get("evidence_b64")
            if not (
                _is_b64(sig)
                and _is_b64(ev)
                and isinstance(bindings, dict)
                and all(isinstance(name, str) and _is_b64(t) for name, t in bindings.items())
            ):
                continue  # unsigned or malformed
            try:
                if pub is None or not crypto.verify(pub, unb64(sig), encode_frame(obj)):
                    continue  # no key, forged or altered
                bindings = {name: codec.decode_term(unb64(t)) for name, t in bindings.items()}
                ev = codec.decode_evidence(unb64(ev))
            except (CodecError, TransportError, binascii.Error):
                continue
            if restriction is not None and isinstance(ev, E.KnowsWrap):
                ev = ev.body  # sent wrapped, integrate unwrapped
            return bindings, ev
        return None

    # -- inbound -------------------------------------------------------------

    def handle_frame(self, data: bytes) -> list[bytes]:
        try:
            obj = decode_frame(data)
        except TransportError as ex:
            return [encode_frame({"type": "FAIL", "reason": str(ex)})]
        if obj.get("type") == "QUERY":
            return self.handle_query(obj, crypto.sha256(data).hex())
        return [_fail(obj.get("qid"), "unsupported frame type")]

    def handle_query(self, obj: dict, request: str) -> list[bytes]:
        """Answer a decoded QUERY whose bytes have SHA-256 `request` (hex).
        A redelivered query gets the reply it got before."""
        if request in self._answered:
            self.metrics["duplicates_ignored"] += 1
            return self._answered[request]
        self.metrics["queries_handled"] += 1
        resp = [self._reply(obj, request)]
        if len(self._answered) >= ANSWER_CACHE:
            del self._answered[next(iter(self._answered))]
        self._answered[request] = resp
        return resp

    def _reply(self, obj: dict, request: str) -> bytes:
        """The reply frame to a QUERY.  A search that raises, or an answer that
        cannot be encoded, fails as `flounder: ...` or `internal: ...`."""
        qid = obj.get("qid", "")
        try:
            goal = codec.decode_formula(unb64(obj["goal_b64"]))
            S.validate_goal(goal)
            vars_ = [S.Var(n, s) for n, s in obj.get("vars", [])]
            budget = int(obj.get("budget", self.depth))
            chain = list(obj.get("session", []))
        except Exception as ex:
            return _fail(qid, f"malformed query: {ex}")
        # Rename incoming metavariables into a local namespace so they can
        # never collide with this prover's own fresh variables.
        ren = {v: S.Var(f"q.{qid}.{v.name}", v.sort) for v in vars_}
        goal = S.substitute(goal, ren)
        search = self._ask(goal, list(ren.values()), min(budget, self.depth), chain)
        try:
            answer = next(search)
            frame = {
                "type": "ANSWER",
                "qid": qid,
                "from": self.name,
                "request": request,
                "bindings": {
                    v.name: b64(codec.encode_term(answer.bindings[rv])) for v, rv in ren.items()
                },
                "evidence_b64": b64(codec.encode_evidence(answer.evidence)),
            }
            frame["sig_b64"] = b64(crypto.sign(self.keys, encode_frame(frame)))
            return encode_frame(frame)
        except StopIteration as end:
            reason = end.value  # `no proof` or `depth exhausted`
        except Exception as ex:
            kind = "flounder" if isinstance(ex, FlounderError) else f"internal: {type(ex).__name__}"
            reason = f"{kind}: {ex}"
            self.trace.append(f"ERROR {qid} {ex}")
        finally:
            search.close()
        return _fail(qid, reason)

    # -- local entry point ----------------------------------------------------

    def ask(self, goal, free_vars=(), depth: int | None = None):
        """Prove a goal at this node, dispatching to peers as needed."""
        return self._ask(goal, free_vars, depth or self.depth, [])

    def ask_first(self, goal, free_vars=(), depth: int | None = None):
        for a in self.ask(goal, free_vars, depth):
            return a
        return None

    def certify(self, answer: engine.Answer) -> E.Certificate:
        """Package an answer as a self-contained certificate, stamped with
        the trusted clock when available."""
        digests = self.policy_digests()
        digests |= {
            x.policy_digest
            for x in E.nodes(answer.evidence)
            if isinstance(x, E.ClauseApp) and x.policy_digest is not None
        }
        ids = set()
        for name in self.directory.names():
            pid = self.directory.principal_id(name)
            if pid is not None:
                ids.add(pid)
        stamp = self.services.attest_time() if self.services is not None else None
        return E.Certificate(answer.goal, answer.evidence, frozenset(digests), frozenset(ids), stamp)
