"""Spans and counters recorded around the library's public entry points.

`Tracer.install` replaces each traced function with a wrapper that times
or counts the call and passes every argument, return value and exception
through unchanged; `uninstall` puts the originals back.  The program's
own files are not changed.

A span is (name, start, end, parent span index, transaction id).  The
hottest entry points (`engine.unify_atomic`, `codec.encode_evidence`) are
only counted: a span per call would dominate the time and memory of the
traced run.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from cyberlogic import codec, crypto, engine, evidence, node, parser, services

# (owner, attribute, span name).  Functions are patched where their callers
# look them up: module globals or class attributes.
SPANS = [
    (parser, "parse_goal", "parser.parse_goal"),
    (parser, "parse_policy", "parser.parse_policy"),
    (node.Node, "ask_first", "node.ask_first"),
    (node.Node, "certify", "node.certify"),
    (node.Node, "handle_frame", "node.handle_frame"),
    (node, "encode_frame", "node.encode_frame"),
    (node, "decode_frame", "node.decode_frame"),
    (codec, "encode_certificate", "codec.encode_certificate"),
    (codec, "decode_certificate", "codec.decode_certificate"),
    (codec, "policy_digest", "codec.policy_digest"),
    (evidence, "check_certificate", "evidence.check_certificate"),
    (crypto, "sign", "crypto.sign"),
    (crypto, "verify", "crypto.verify"),
    (services, "remote_check", "services.remote_check"),
    (services.Registry, "register", "services.register"),
    (services.TrustedServices, "attest_time", "services.attest_time"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()  # (txn, counter name) -> count
        self.txn = "setup"  # id of the operation in progress
        self._stack: list[int] = []
        self._saved: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, now = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.txn)

        return wrapper

    def _frame_bytes(self, fn):
        """Checker endpoint frames: a span plus request and response bytes."""
        inner = self._span("services.endpoint_frame", fn)
        counts = self.counts

        def wrapper(endpoint, data):
            resp = inner(endpoint, data)
            counts[self.txn, "check_bytes"] += len(data) + len(resp)
            return resp

        return wrapper

    def _unify(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[self.txn, "unify"] += 1
            if result is not None:
                counts[self.txn, "unify_hit"] += 1
            return result

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.txn, key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        patches = [(owner, attr, self._span(name, getattr(owner, attr)))
                   for owner, attr, name in SPANS]
        endpoint = services.CheckerEndpoint
        patches += [
            (endpoint, "handle_frame", self._frame_bytes(endpoint.handle_frame)),
            (engine, "unify_atomic", self._unify(engine.unify_atomic)),
            (codec, "encode_evidence", self._count("evidence_encode", codec.encode_evidence)),
        ]
        for owner, attr, wrapper in patches:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived figures -----------------------------------------------------

    def per_txn(self) -> dict:
        """txn -> {"incl": name -> outermost inclusive seconds,
        "self": name -> self seconds, "n": name -> calls}."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, parent, txn) in enumerate(spans):
            agg = out.setdefault(txn, {"incl": Counter(), "self": Counter(), "n": Counter()})
            agg["n"][name] += 1
            agg["self"][name] += (t1 - t0) - child_time[i]
            if not self._nested_in_same(i):
                agg["incl"][name] += t1 - t0
        return out

    def _nested_in_same(self, i: int) -> bool:
        name = self.spans[i][0]
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def count(self, txn, key) -> int:
        return self.counts.get((txn, key), 0)

    def dump(self, path: str):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, txn in self.spans:
                fh.write(json.dumps([name, round(t0, 7), round(t1, 7), parent, txn]) + "\n")
