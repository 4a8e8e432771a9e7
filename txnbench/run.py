#!/usr/bin/env python3
"""Evidential-transaction benchmark for cyberlogic.

Run from the repository root:

    python3 txnbench/run.py --workload multi_party --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop with one client.  A transaction is
goal text -> parser.parse_goal -> Node.ask_first (with simulated dispatch
to peers) -> Node.certify -> codec.encode_certificate on the requester
side, then certificate bytes -> codec.decode_certificate -> verdict on the
verifier side.  Every outcome is compared with a reference answer the
engine did not produce (see workloads.py).

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the same
operations untraced and then traced (tracing.py), checks that both give
the same outcomes and certificate bytes, and prints the per-layer
metrics.  The last line of standard output is the result object; the line
before it is a report with provenance and supporting figures.  The exit
code is 0 only when every operation matched its reference and the
determinism checks held.

Timings are in reference milliseconds.  A fixed calibration loop (the
benchmark's own code, no library calls) runs before and after every
operation, between a request and its check, and every SAMPLE_S seconds
while an operation runs; each wall time is scaled by CALIBRATION_MS over
the mean of the loop times taken around and during it.  On a shared host whose speed swings
by up to 2x within minutes this cancels the swing, while anything the
program does inside the operation (garbage collection included) still
counts.  The report line carries the raw wall-clock medians and the
host's median calibration time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_BUILDS = 15  # setup_s is the median of this many world builds
CALIBRATION_MS = 1.0  # reference speed: the calibration loop takes this long
CALIBRATION_REPS = 12
SAMPLE_S = 0.05  # one more calibration this often while an operation runs


def load_library():
    """Import cyberlogic from ./src of the current directory, never from
    anywhere else, so the benchmark always measures the checkout it runs in."""
    if not os.path.isfile(os.path.join(SRC, "cyberlogic", "__init__.py")):
        sys.stderr.write("txnbench: no src/cyberlogic here; run from the repository root\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import cyberlogic

    if os.path.dirname(os.path.dirname(os.path.abspath(cyberlogic.__file__))) != SRC:
        sys.stderr.write(f"txnbench: imported cyberlogic from {cyberlogic.__file__}, not ./src\n")
        sys.exit(2)


# ---------------------------------------------------------------------------
# Host speed


def _substitute(term, env):
    if isinstance(term, tuple):
        return tuple(_substitute(t, env) for t in term)
    return env.get(term, term)


_CAL_ENV = {f"v{i}": ("f", f"c{i}", i) for i in range(64)}
_CAL_TERM = tuple(("g", f"v{i % 64}", (f"v{i * 7 % 64}", "k")) for i in range(40))


def calibrate() -> float:
    """Seconds one fixed loop of interpreter work (recursion, tuples, dict
    lookups, repr, SHA-256) takes right now.  The garbage collector is off
    inside it, so the loop is never charged for the program's heap."""
    h = hashlib.sha256()
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for rep in range(CALIBRATION_REPS):
        out = _substitute(_CAL_TERM, _CAL_ENV)
        h.update(repr(out[rep % len(out)]).encode())
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def scale(loops) -> float:
    """Factor from wall time to reference time for work done while the
    calibration loops took `loops` seconds."""
    return CALIBRATION_MS / 1000 / statistics.fmean(loops)


class HostSpeed:
    """Calibration loops for one pass.  While an operation runs, SIGALRM
    fires every SAMPLE_S seconds and the handler runs one more loop, so a
    long operation is scaled by the speed the host had while it ran; the
    handler's own time is taken out of the operation's."""

    def __init__(self):
        self.ticks: list = []  # (start, end, loop seconds) in this operation
        self._busy = False

    def measure(self) -> float:
        self._busy = True
        try:
            return calibrate()
        finally:
            self._busy = False

    def _tick(self, signum, frame):
        if not self._busy:
            start = time.perf_counter()
            loop = self.measure()
            self.ticks.append((start, time.perf_counter(), loop))

    @contextlib.contextmanager
    def sampling(self):
        self.ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def since(self, start: float) -> tuple[float, list]:
        """Wall seconds since `start` without the handler's loops, and the
        loop times the handler took in between."""
        end = time.perf_counter()
        inside = [t for t in self.ticks if t[0] >= start and t[1] <= end]
        return end - start - sum(e - s for s, e, _ in inside), [c for _, _, c in inside]


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail(values, pct: float) -> dict:
    """The workload's fixed tail percentile, with the number of samples
    beyond it."""
    n = len(values)
    if not n:
        return {"pct": pct, "value": 0.0, "beyond": 0, "n": 0}
    value = percentile(values, pct)
    return {"pct": pct, "value": value, "beyond": sum(v > value for v in values), "n": n}


def slope(points) -> float:
    """Least-squares slope of log(y) over log(x); 0 with fewer than two x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def size_exponent(recs, value) -> float:
    """Fit over the per-size medians of `value(rec)`."""
    by_size: dict = {}
    for r in recs:
        v = value(r)
        if r.size is not None and v is not None:
            by_size.setdefault(r.size, []).append(v)
    return slope((s, statistics.median(vs)) for s, vs in by_size.items())


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Evidence inspection (the benchmark's own walk, independent of the library)


def _children(ev):
    from cyberlogic import evidence as E

    if isinstance(ev, E.PairEv):
        return (ev.left, ev.right)
    if isinstance(ev, (E.Inl, E.Inr, E.Witness, E.Abstraction, E.KnowsWrap)):
        return (ev.body,)
    if isinstance(ev, E.ClauseApp):
        return ev.premises
    return ()


def evidence_nodes(cert):
    stack = [cert.root_evidence, *cert.store.values()]
    while stack:
        ev = stack.pop()
        yield ev
        stack.extend(_children(ev))


def signatures(cert) -> list:
    """Every signature the checker must verify, in a fixed order."""
    from cyberlogic import evidence as E

    out = [cert.created_at.signature] if cert.created_at is not None else []
    for ev in evidence_nodes(cert):
        if isinstance(ev, E.AttLeaf):
            out.append(ev.attestation.signature)
        elif isinstance(ev, E.TheoryHole) and ev.receipt is not None:
            out.append(ev.receipt.signature)
    return out


def flip_signature_bit(cert, data: bytes, choice: int) -> bytes:
    """Flip one bit inside one signature of the encoded certificate.  A
    valid Ed25519 signature with a flipped bit never verifies, so the
    reference verdict for the result is reject.  Deterministic signatures
    can repeat (a clock reading signed twice); the first copy is flipped."""
    sigs = list(dict.fromkeys(signatures(cert)))
    sig = sigs[choice % len(sigs)]
    bit = (choice // len(sigs)) % (8 * len(sig))
    pos = data.index(sig) + bit // 8
    return data[:pos] + bytes([data[pos] ^ (1 << (bit % 8))]) + data[pos + 1 :]


# ---------------------------------------------------------------------------
# Running operations


@dataclass
class Rec:
    """What one operation did, and whether it matched its reference."""

    kind: str  # "txn" or "update"
    goal: str | None = None
    group: str = ""  # chain length, policy size or scenario goal
    size: int | None = None
    ok: bool = False
    error: str | None = None
    outcome: tuple = ()
    needs_update: bool = False  # the reference needs an updated fact
    cert_sha: bytes = b""
    txn_s: float | None = None
    verify_s: float | None = None
    update_s: float | None = None
    loops: list = field(default_factory=list)  # calibrations around the request
    verify_loops: list = field(default_factory=list)  # ... around the check
    scale: float = 1.0  # wall time -> reference time, see calibrate()
    verify_scale: float = 1.0  # the same for the check
    cert_bytes: int = 0
    cert_nodes: int = 0
    store_entries: int = 0
    wire_bytes: int = 0
    frames: int = 0
    dispatches: int = 0
    steps: int = 0
    prove_ms: float | None = None  # traced passes only
    certify_ms: float | None = None  # traced passes only


def run_txn(wl, entry, op, rec: Rec, speed: HostSpeed):
    from cyberlogic import codec, parser
    from cyberlogic import evidence as E
    from cyberlogic import scenarios as SC

    world = entry.world
    node = world.node(op.requester)
    frames0 = len(world.network.frames)
    dispatches0 = sum(n.metrics["dispatches"] for n in world.nodes.values())
    trace0 = {name: len(n.trace) for name, n in world.nodes.items()}

    t0 = time.perf_counter()
    sig = node.policy.signature
    text = op.goal
    if text is None:
        nonce = world.services.fresh_nonce()
        sig = sig.copy()
        sig.note_const(nonce, "Nonce")
        text = SC.ns_goal_text(nonce)
    goal, free = parser.parse_goal(text, sig)
    answer = node.ask_first(goal, free)
    cert = data = None
    if answer is not None:
        cert = node.certify(answer)
        data = codec.encode_certificate(cert)
    rec.txn_s, ticks = speed.since(t0)
    rec.loops += ticks

    rec.goal = f"{op.world}: {text}"
    rec.needs_update = op.needs_update
    rec.group = str(op.size) if op.size is not None else f"{op.world}: {op.goal or 'ns'}"
    new_frames = world.network.frames[frames0:]
    rec.frames = len(new_frames)
    rec.wire_bytes = sum(len(f[2]) for f in new_frames)
    rec.dispatches = sum(n.metrics["dispatches"] for n in world.nodes.values()) - dispatches0
    rec.steps = sum(
        sum(1 for line in n.trace[trace0[name]:] if line.startswith("STEP"))
        for name, n in world.nodes.items()
    )
    proved = answer is not None
    witness = None
    ok = proved == op.expect_proof
    if proved and op.witnesses is not None:
        ev = answer.evidence
        witness = ev.term.name if isinstance(ev, E.Witness) else None
        ok = ok and witness in op.witnesses
    verdict = None
    if data is not None:
        rec.cert_bytes = len(data)
        rec.cert_sha = hashlib.sha256(data).digest()
        rec.cert_nodes = sum(1 for _ in evidence_nodes(cert))
        rec.store_entries = len(cert.store)
        sent = data if op.tamper is None else flip_signature_bit(cert, data, op.tamper)
        middle = speed.measure()
        rec.loops.append(middle)
        t2 = time.perf_counter()
        verdict = wl.verify(entry, codec.decode_certificate(sent)).ok
        rec.verify_s, ticks = speed.since(t2)
        rec.verify_loops = [middle, *ticks]
        ok = ok and verdict == (op.tamper is None)
    rec.outcome = (proved, witness, verdict)
    rec.ok = ok


def run_update(wl, entry, op, rec: Rec, speed: HostSpeed):
    t0 = time.perf_counter()
    digest = wl.apply_update(entry, op)
    rec.update_s, ticks = speed.since(t0)
    rec.loops += ticks
    # the node now proves from the new policy and the registry routes its
    # digest to the owner's endpoint; the query that follows every update
    # has a proof only through the added fact
    installed = digest in entry.world.node(op.owner).policy_digests()
    published = entry.registry.endpoint_for(digest) is entry.endpoints[op.owner]
    rec.outcome = (digest.hex(),)
    rec.cert_sha = digest
    rec.ok = installed and published


@dataclass
class PassResult:
    recs: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)  # loop seconds, all of them
    rss_kb: int = 0  # peak RSS when the checkpoint was reached
    rss_ops: int = 0  # operations completed at the checkpoint

    @property
    def txns(self):
        return [r for r in self.recs if r.kind == "txn"]

    def digest(self, n: int | None = None) -> str:
        """Combined SHA-256 over the certificate bytes (and published policy
        digests) of the first n operations."""
        h = hashlib.sha256()
        for r in self.recs[:n]:
            h.update(len(r.cert_sha).to_bytes(1, "big") + r.cert_sha)
        return h.hexdigest()

    def outcomes(self, n: int | None = None) -> list:
        return [r.outcome for r in self.recs[:n]]


def run_ops(wl, entries, rounds, seconds=None, limit=None, tracer=None, rss_ops=None,
            between_rounds=None) -> PassResult:
    """Drive operations until `seconds` have passed (checked between whole
    rounds) or `limit` operations have run.  `between_rounds(elapsed)` runs
    after each round."""
    from workloads import Update

    res = PassResult()
    speed = HostSpeed()
    gc.collect()
    start = time.perf_counter()
    for ops in rounds:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        if limit is not None and len(res.recs) >= limit:
            break
        for op in ops:
            if limit is not None and len(res.recs) >= limit:
                break
            idx = len(res.recs)
            if tracer is not None:
                tracer.txn = idx
            rec = Rec("update" if isinstance(op, Update) else "txn", size=op.size)
            rec.loops.append(speed.measure())
            entry = entries[op.world]
            with speed.sampling():
                try:
                    if rec.kind == "update":
                        run_update(wl, entry, op, rec, speed)
                    else:
                        run_txn(wl, entry, op, rec, speed)
                except Exception as ex:  # an operation that raises counts as failed
                    rec.ok = False
                    rec.error = f"{type(ex).__name__}: {ex}"
                    rec.outcome = ("error", type(ex).__name__)
            after = speed.measure()
            (rec.verify_loops or rec.loops).append(after)
            rec.scale = scale(rec.loops)
            rec.verify_scale = scale(rec.verify_loops or rec.loops)
            res.calibrations += rec.loops + rec.verify_loops[1:]
            res.recs.append(rec)
            if rss_ops is not None and len(res.recs) == rss_ops:
                res.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                res.rss_ops = rss_ops
        if between_rounds is not None:
            between_rounds(time.perf_counter() - start)
    if tracer is not None:
        tracer.txn = "done"
    if not res.rss_kb:  # a run too short to reach the checkpoint
        res.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        res.rss_ops = len(res.recs)
    return res


# ---------------------------------------------------------------------------
# Metrics


def git_sha() -> str:
    """HEAD of the repository in the current directory, read from .git
    without running git; "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summary(wl, res: PassResult) -> dict:
    """Figures of an untraced pass: the end-to-end metrics plus the
    supporting counts the report carries, over every operation."""
    txns = res.txns
    txn_ms = [r.txn_s * r.scale * 1000 for r in txns if r.txn_s is not None]
    verify_ms = [r.verify_s * r.verify_scale * 1000 for r in txns if r.verify_s is not None]
    updates = [r.update_s * r.scale * 1000 for r in res.recs if r.update_s is not None]
    certs = [r for r in txns if r.cert_bytes]
    goals = [r.goal for r in txns if r.goal is not None]
    followups = [r for r in txns if r.needs_update]
    failed = sum(not r.ok for r in res.recs)
    txn_tail = tail(txn_ms, wl.tail_pct)
    verify_tail = tail(verify_ms, wl.tail_pct)
    return {
        "txn_per_s": len(txns) * 1000 / (sum(txn_ms) + sum(verify_ms) + sum(updates)),
        "txn_p50_ms": median(txn_ms),
        "txn_tail_ms": txn_tail["value"],
        "verify_p50_ms": median(verify_ms),
        "verify_tail_ms": verify_tail["value"],
        "cert_bytes": mean(r.cert_bytes for r in certs),
        "wire_bytes_per_txn": mean(r.wire_bytes for r in txns),
        "update_p50_ms": median(updates),
        "fail_frac": failed / len(res.recs),
        "attempted": len(res.recs),
        "failed": failed,
        "txn_tail": txn_tail,
        "verify_tail": verify_tail,
        "transactions": len(txns),
        "updates": len(updates),
        "update_followups": {"n": len(followups), "ok": sum(r.ok for r in followups)},
        "raw_wall": {
            "txn_p50_ms": median([r.txn_s * 1000 for r in txns if r.txn_s is not None]),
            "verify_p50_ms": median([r.verify_s * 1000 for r in txns if r.verify_s is not None]),
            "calibration_p50_ms": median(res.calibrations) * 1000,
        },
        "goal_repeat_share": (len(goals) - len(set(goals))) / max(1, len(goals)),
        "no_proof_share": sum(r.outcome[:1] == (False,) for r in txns) / max(1, len(txns)),
        "errors": sorted({r.error for r in res.recs if r.error})[:5],
    }


END_TO_END_UNITS = {
    "txn_per_s": "1/s",
    "txn_p50_ms": "ms",
    "txn_tail_ms": "ms",
    "verify_p50_ms": "ms",
    "verify_tail_ms": "ms",
    "cert_bytes": "bytes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer(wl, tracer, traced: PassResult, plain: dict, overhead: float,
              setup_scale: float) -> dict:
    """Per-layer figures from the traced pass.  Times and counts are means
    per transaction (over every transaction, including those that end in
    no proof) unless the name says otherwise."""
    agg = tracer.per_txn()
    empty = {"incl": {}, "self": {}, "n": {}}
    txns = [i for i, r in enumerate(traced.recs) if r.kind == "txn"]
    updates = [i for i, r in enumerate(traced.recs) if r.kind == "update"]
    recs = traced.recs
    certs = [recs[i] for i in txns if recs[i].cert_bytes]

    # span times are scaled to reference time like the operations they
    # belong to
    def incl(i, name):
        return agg.get(i, empty)["incl"].get(name, 0.0) * recs[i].scale

    def self_(i, name):
        return agg.get(i, empty)["self"].get(name, 0.0) * recs[i].scale

    def calls(i, name):
        return agg.get(i, empty)["n"].get(name, 0)

    def per_txn_ms(name):
        return mean(incl(i, name) * 1000 for i in txns)

    def per_txn_calls(name):
        return mean(calls(i, name) for i in txns)

    prove_self = {i: incl(i, "node.ask_first") - incl(i, "node.handle_frame") for i in txns}
    check_self = sum(self_(i, "evidence.check_certificate") for i in txns)
    steps = sum(recs[i].steps for i in txns)
    unify = sum(tracer.count(i, "unify") for i in txns)
    hits = sum(tracer.count(i, "unify_hit") for i in txns)
    for i in txns:
        recs[i].prove_ms = prove_self[i] * 1000
        recs[i].certify_ms = incl(i, "node.certify") * 1000 if recs[i].cert_bytes else None
    register = [incl(i, "services.register") * 1000 for i in updates]
    return {
        "parser.goal_ms": per_txn_ms("parser.parse_goal"),
        "parser.policy_s": agg.get("setup", empty)["incl"].get("parser.parse_policy", 0.0)
        * setup_scale,
        "engine.prove_self_ms": mean(v * 1000 for v in prove_self.values()),
        "engine.steps": mean(recs[i].steps for i in txns),
        "engine.steps_per_s": steps / sum(prove_self.values()),
        "engine.head_unify_attempts": unify / len(txns),
        "engine.head_hit_ratio": hits / unify if unify else 0.0,
        "engine.prove_exponent": size_exponent([recs[i] for i in txns], lambda r: r.prove_ms),
        "codec.policy_digest_calls": per_txn_calls("codec.policy_digest"),
        "codec.policy_digest_ms": per_txn_ms("codec.policy_digest"),
        "codec.evidence_encode_calls": mean(tracer.count(i, "evidence_encode") for i in txns),
        "codec.cert_encode_ms": per_txn_ms("codec.encode_certificate"),
        "codec.cert_decode_ms": per_txn_ms("codec.decode_certificate"),
        "evidence.certify_ms": per_txn_ms("node.certify"),
        "evidence.certify_exponent": size_exponent(
            [recs[i] for i in txns], lambda r: r.certify_ms),
        "evidence.check_ms": check_self * 1000 / len(txns),
        "evidence.check_nodes_per_s": sum(r.cert_nodes for r in certs) / check_self if check_self else 0.0,
        "evidence.cert_nodes": mean(r.cert_nodes for r in certs),
        "evidence.store_entries": mean(r.store_entries for r in certs),
        "node.serve_ms": per_txn_ms("node.handle_frame"),
        "node.frame_codec_ms": per_txn_ms("node.encode_frame") + per_txn_ms("node.decode_frame"),
        "node.frames_per_txn": mean(recs[i].frames for i in txns),
        "node.dispatches_per_txn": mean(recs[i].dispatches for i in txns),
        "crypto.signs_per_txn": per_txn_calls("crypto.sign"),
        "crypto.sign_ms": per_txn_ms("crypto.sign"),
        "crypto.verifies_per_txn": per_txn_calls("crypto.verify"),
        "crypto.verify_ms": per_txn_ms("crypto.verify"),
        "services.remote_check_ms": per_txn_ms("services.remote_check"),
        "services.check_bytes_per_txn": mean(tracer.count(i, "check_bytes") for i in txns),
        "services.clock_attestations_per_txn": per_txn_calls("services.attest_time"),
        "services.register_ms": median(register),
        "trace.overhead_frac": overhead,
        "fail_frac": plain["fail_frac"],
        "wire_bytes_per_txn": plain["wire_bytes_per_txn"],
        "update_p50_ms": plain["update_p50_ms"],
    }


def by_group(res: PassResult) -> dict:
    """Medians (reference ms) per chain length, policy size or scenario
    goal, for comparison with single-scenario baselines; the traced pass
    adds prove and certify times."""
    groups: dict = {}
    for r in res.txns:
        groups.setdefault(r.group, []).append(r)
    out = {}
    for key, rs in sorted(groups.items()):
        certified = [r for r in rs if r.verify_s is not None]
        out[key] = {
            "n": len(rs),
            "txn_p50_ms": median([r.txn_s * r.scale * 1000 for r in rs]),
            "verify_p50_ms": median([r.verify_s * r.verify_scale * 1000 for r in certified]),
        }
        if rs[0].prove_ms is not None:
            out[key]["prove_self_p50_ms"] = median([r.prove_ms for r in rs])
            out[key]["certify_p50_ms"] = median([r.certify_ms for r in certified])
    return out


PER_LAYER_UNITS = {
    "parser.policy_s": "s",
    "engine.steps": "count",
    "engine.steps_per_s": "1/s",
    "engine.head_unify_attempts": "count",
    "engine.head_hit_ratio": "ratio",
    "engine.prove_exponent": "slope",
    "codec.policy_digest_calls": "count",
    "codec.evidence_encode_calls": "count",
    "evidence.certify_exponent": "slope",
    "evidence.check_nodes_per_s": "1/s",
    "evidence.cert_nodes": "count",
    "evidence.store_entries": "count",
    "node.frames_per_txn": "count",
    "node.dispatches_per_txn": "count",
    "crypto.signs_per_txn": "count",
    "crypto.verifies_per_txn": "count",
    "services.check_bytes_per_txn": "bytes",
    "services.clock_attestations_per_txn": "count",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
    "wire_bytes_per_txn": "bytes",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return PER_LAYER_UNITS.get(name, "ms")


# ---------------------------------------------------------------------------
# Entry point


def timed_build(wl, seed: int):
    """Build the workload's worlds; return (wall seconds, factor to
    reference time, world set)."""
    speed = HostSpeed()
    gc.collect()
    before = speed.measure()
    with speed.sampling():
        t0 = time.perf_counter()
        entries = wl.build(seed)
        elapsed, ticks = speed.since(t0)
    return elapsed, scale([before, *ticks, speed.measure()]), entries


def main(argv=None) -> int:
    load_library()
    import tracing
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    checks = {}
    if args.trace == 0:
        wall, factor, entries = timed_build(wl, args.seed)
        setup_times = [wall * factor]
        wall, factor, replay_entries = timed_build(wl, args.seed)
        setup_times.append(wall * factor)

        def more_builds(elapsed):
            # the remaining builds are spread over the run, so that setup_s
            # samples the host the way the transactions do
            due = args.seconds * (len(setup_times) - 1) / (SETUP_BUILDS - 1)
            if len(setup_times) < SETUP_BUILDS and elapsed >= due:
                wall, factor, _ = timed_build(wl, args.seed)
                setup_times.append(wall * factor)

        res = run_ops(wl, entries, wl.rounds(args.seed), seconds=args.seconds,
                      rss_ops=wl.rss_ops, between_rounds=more_builds)
        # determinism: the same seed on freshly built worlds gives the same
        # outcomes and certificate bytes
        k = min(wl.replay_ops, len(res.recs))
        replay = run_ops(wl, replay_entries, wl.rounds(args.seed), limit=k)
        report["replay_ops"] = k
        checks["replay_matches"] = (
            replay.digest() == res.digest(k) and replay.outcomes() == res.outcomes(k)
        )
        figures = summary(wl, res)
        metrics = {name: figures[name] for name in END_TO_END_UNITS if name in figures}
        metrics["setup_s"] = median(setup_times)
        report["setup_builds_s"] = setup_times
        metrics["peak_rss_mb"] = res.rss_kb / 1024
        report["peak_rss_at_ops"] = res.rss_ops
        report["peak_rss_end_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        _, _, entries = timed_build(wl, args.seed)
        res = run_ops(wl, entries, wl.rounds(args.seed), seconds=args.seconds / 2)
        figures = summary(wl, res)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, setup_scale, traced_entries = timed_build(wl, args.seed)
            traced = run_ops(wl, traced_entries, wl.rounds(args.seed),
                             limit=len(res.recs), tracer=tracer)
        finally:
            tracer.uninstall()
        traced_figures = summary(wl, traced)
        checks["traced_matches"] = (
            traced.digest() == res.digest() and traced.outcomes() == res.outcomes()
        )
        overhead = traced_figures["txn_p50_ms"] / figures["txn_p50_ms"] - 1
        metrics = per_layer(wl, tracer, traced, figures, overhead, setup_scale)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans_{wl.name}.jsonl")
        tracer.dump(spans_path)
        report["spans"] = os.path.relpath(spans_path, ROOT)
        report["traced_by_group"] = by_group(traced)
    report["by_group"] = by_group(res)
    report.update({k: v for k, v in figures.items() if k not in END_TO_END_UNITS})
    report["cert_digest"] = res.digest()
    report["cert_digest_prefix"] = {"ops": wl.replay_ops, "sha256": res.digest(wl.replay_ops)}
    report["checks"] = checks
    attempted, failed = figures["attempted"], figures["failed"]
    if args.trace == 1:  # the traced operations count too
        attempted += traced_figures["attempted"]
        failed += traced_figures["failed"]
    correct = failed == 0 and all(checks.values())
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
