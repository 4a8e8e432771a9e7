"""The benchmark's three workloads: how each builds its worlds, the seeded
schedule of operations it drives through them, and the reference answer
for every operation.

Reference answers never come from the engine under test.  `multi_party`
takes them from the scenario definitions, `deep_chain` from membership in
the generated fact set, and `wide_policy` from a direct Python join over
the generated facts (updated as policy updates land).

Schedules come in rounds of fixed composition: only the order, the
constants and the tampered slot are drawn from the seed.  The mixes are
plain ones (every scenario goal once per round, equal counts per size),
not measured traffic; the remaining weights are statistical choices,
named where they are made.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from cyberlogic import evidence as E
from cyberlogic import parser
from cyberlogic import scenarios as SC
from cyberlogic import services
from cyberlogic import syntax as S
from cyberlogic.services import CheckerEndpoint, Registry


@dataclass
class Txn:
    """One transaction: `requester` in world `world` asks `goal`."""

    world: str
    requester: str
    goal: str | None  # None: the NS handshake goal with a fresh nonce
    expect_proof: bool
    size: int | None = None  # chain length or policy size, for scaling fits
    tamper: int | None = None  # seeded choice of the signature bit to flip
    witnesses: frozenset | None = None  # valid z for wide_policy's path2(o, z)
    needs_update: bool = False  # provable only through an updated fact


@dataclass
class Update:
    """Add one fact to the policy of `owner` in world `world`."""

    world: str
    owner: str
    fact: str
    size: int


@dataclass
class Entry:
    """A long-lived world plus its verifier side: the policy map a local
    verifier checks against, and the registry of checker endpoints."""

    world: SC.World
    policy_map: dict
    registry: Registry | None = None
    endpoints: dict = field(default_factory=dict)


def _registry(world) -> tuple[Registry, dict]:
    registry = Registry()
    endpoints = {}
    for owner, policy in world.policies.items():
        ep = CheckerEndpoint(owner, [policy], world.directory, registry)
        registry.register(policy.digest, ep)
        endpoints[owner] = ep
    return registry, endpoints


def _entry(world, with_registry: bool) -> Entry:
    entry = Entry(world, world.policy_map())
    if with_registry:
        entry.registry, entry.endpoints = _registry(world)
    return entry


# ---------------------------------------------------------------------------
# multi_party: the paper's shipped scenarios as long-lived worlds


class MultiParty:
    """Small proofs across 2-5 principals, about a dozen repeated goals.
    Time goes to frames, codec, Ed25519 and registry checks."""

    name = "multi_party"
    tail_pct = 90
    replay_ops = 22  # two rounds
    rss_ops = 2000

    # (world, requester, goal, expected proof) from the scenario
    # definitions; every goal appears once per round, and the hospital
    # goal, the paper's headline transaction, a second time.  That weight
    # is a statistical choice: with an odd number of goals per round the
    # median falls inside one goal's cluster instead of on the edge
    # between two, and p90 falls among the slowest transactions (hospital)
    # and the slowest checks (hospital and delegation).
    GOALS = [
        ("hospital", "A", SC.HOSPITAL_QUERY, True),
        ("hospital", "A", SC.HOSPITAL_QUERY, True),
        ("delegation", "V", SC.DELEG_QUERY, True),
        ("delegation_no_ca", "V", SC.DELEG_QUERY, False),
        ("ns", "A", None, True),
        ("timed", "K", "past(3)", True),
        ("timed", "K", "future(3)", False),
        ("timed", "K", "future(9)", True),
        ("timed", "K", "curr(5)", True),
        ("revocation", "K", "K says access(2)", True),
        ("revocation", "K", "K says access(5)", False),
    ]
    CLOCK = 5  # timed scenario's clock
    REVOKED_AT = 4  # revocation scenario: uses before 4 are granted
    USES = (2, 5)

    def build(self, seed: int) -> dict:
        deleg = [("B", SC.DELEG_B), ("C", SC.DELEG_C), ("CA", SC.DELEG_CA),
                 ("HMO", SC.DELEG_HMO), ("V", SC.DELEG_V)]
        no_ca = [(o, SC._DELEG_DECLS if o == "CA" else t) for o, t in deleg]
        texts = {
            "hospital": [("A", SC.HOSPITAL_A), ("B", SC.HOSPITAL_B), ("C", SC.HOSPITAL_C)],
            "delegation": deleg,
            "delegation_no_ca": no_ca,
            "ns": [("A", SC.NS_A), ("B", SC.NS_B)],
            "timed": [("K", SC._TIMED_DECLS)],
            "revocation": [("K", SC.revoke_policy_k(self.REVOKED_AT)),
                           ("L", SC.revoke_policy_l(self.USES))],
        }
        entries = {}
        for key, policy_texts in texts.items():
            world = SC.build_world(policy_texts, seed)
            if key == "timed":
                world.services.advance(self.CLOCK - world.services.now())
            entries[key] = _entry(world, with_registry=True)
        return entries

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            ops = [Txn(w, r, g, p) for w, r, g, p in self.GOALS]
            rng.shuffle(ops)
            # exactly one certificate per round gets a flipped bit
            positives = [op for op in ops if op.expect_proof]
            rng.choice(positives).tamper = rng.getrandbits(32)
            yield ops

    def verify(self, entry: Entry, cert) -> E.CheckResult:
        # the paper's private-policy path: each owner's endpoint checks its
        # own clauses, foreign ones are forwarded through the registry
        return services.remote_check(entry.registry, cert)


# ---------------------------------------------------------------------------
# deep_chain: derivation length


def chain_policy(n: int, keys: int) -> str:
    """r_i: p_{i+1}(x, y) => p_i(x, y) for i < n, and facts p_n(k_j, y).
    The second argument is a per-query tag, so a few facts support
    unboundedly many distinct goals."""
    lines = ["sort Key. sort Tag.", "principal P."]
    lines += [f"pred p{i}(Key, Tag)." for i in range(n + 1)]
    lines += [f"const k{j}: Key." for j in range(keys)]
    lines += [f"r{i}: forall x:Key, y:Tag. p{i + 1}(x, y) => p{i}(x, y)." for i in range(n)]
    lines += [f"f{j}: forall y:Tag. p{n}(k{j}, y)." for j in range(keys)]
    return "\n".join(lines) + "\n"


class DeepChain:
    """One principal, chains of several lengths.  Recursion, substitution
    copying, the ancestor check, dedup and the checker all grow with the
    chain; no network calls and one signature (the time stamp) per
    certificate."""

    name = "deep_chain"
    tail_pct = 90
    replay_ops = 5
    rss_ops = 70

    KEYS = 4
    # Queries per round at each length: (with a fact, without).  These are
    # statistical choices.  A chain-200 query costs as much as all the
    # others in a round together, so there is one per round, and none
    # without a fact: that doubles the rounds in a run and the samples at
    # n = 25 and 100.  Seven queries per round put the medians among the
    # n=100 queries and p90 in the middle of the chain-200 proofs, never
    # on the edge between two clusters.
    ROUND = {25: (2, 1), 100: (2, 1), 200: (1, 0)}
    SIZES = tuple(ROUND)

    def build(self, seed: int) -> dict:
        entries = {}
        for n in self.SIZES:
            # the depth budget must exceed the chain length
            world = SC.build_world([("P", chain_policy(n, self.KEYS))], seed, depth=n + 16)
            entries[f"chain{n}"] = _entry(world, with_registry=False)
        return entries

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        tags = 0  # every goal carries a new tag, so no goal repeats
        slots = [(n, pos) for n, (yes, no) in self.ROUND.items()
                 for pos in [True] * yes + [False] * no]
        while True:
            ops = []
            for n, pos in slots:
                tags += 1
                key = f"k{rng.randrange(self.KEYS)}" if pos else f'"u{tags}"'
                ops.append(Txn(f"chain{n}", "P", f'p0({key}, "q{tags}")', pos, size=n))
            rng.shuffle(ops)
            yield ops

    def verify(self, entry: Entry, cert) -> E.CheckResult:
        return E.check_certificate(cert, entry.policy_map, entry.world.directory)


# ---------------------------------------------------------------------------
# wide_policy: clauses per policy


class WidePolicy:
    """One principal with policies of 500 to 2,000 facts and a join rule.
    Head selection, per-goal policy re-encoding and backtracking dominate
    while evidence stays small.  Policy updates show cost moved from
    queries into policy construction."""

    name = "wide_policy"
    tail_pct = 80
    replay_ops = 8
    rss_ops = 300

    # One query per size and round: with three sizes the median falls
    # among the 1,000-fact queries and p80 among the 2,000-fact ones.
    SIZES = (500, 1000, 2000)
    OUT_DEGREE = 2  # every object has exactly two successors
    # Half the objects carry a tag, so about 6% of the queries fail and
    # three quarters find a witness below the first successor.  A
    # statistical choice: at 30%, half the proofs would need the second
    # branch and a size's median would fall in the gap between the two.
    TAG_SHARE = 0.5

    @staticmethod
    def graph(size: int, seed: int):
        """Seeded facts for one policy: (objects, edges, tags).  A fixed
        out-degree keeps the work per query within a factor of two, so
        the medians do not depend on which objects a seed draws."""
        rng = random.Random(f"wide_policy/graph/{size}/{seed}")
        objects = round(size / (WidePolicy.OUT_DEGREE + WidePolicy.TAG_SHARE))
        edges = set()
        for a in range(objects):
            for b in rng.sample(range(objects), WidePolicy.OUT_DEGREE):
                edges.add((a, b))
        tags = set(rng.sample(range(objects), size - len(edges)))
        return objects, sorted(edges), tags

    @staticmethod
    def policy_text(objects, edges, tags) -> str:
        lines = ["sort Obj.", "principal W.",
                 "pred e(Obj, Obj).", "pred tag(Obj).", "pred path2(Obj, Obj)."]
        lines += [f"const o{i}: Obj." for i in range(objects)]
        lines.append("j: forall x:Obj, y:Obj, z:Obj. "
                     "(e(x, y) /\\ e(y, z) /\\ tag(z)) => path2(x, z).")
        lines += [f"e{i}: e(o{a}, o{b})." for i, (a, b) in enumerate(edges)]
        lines += [f"t{i}: tag(o{a})." for i, a in enumerate(sorted(tags))]
        return "\n".join(lines) + "\n"

    def build(self, seed: int) -> dict:
        entries = {}
        for size in self.SIZES:
            world = SC.build_world([("W", self.policy_text(*self.graph(size, seed)))], seed)
            entries[f"wide{size}"] = _entry(world, with_registry=True)
        return entries

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        model = {}  # size -> (objects, successor sets, tags, object pool)
        for size in self.SIZES:
            objects, edges, tags = self.graph(size, seed)
            succ = {}
            for a, b in edges:
                succ.setdefault(a, set()).add(b)
            model[size] = (objects, succ, tags, [])
        updates = 0
        for number in itertools.count():
            ops = []
            for size in rng.sample(self.SIZES, len(self.SIZES)):
                objects, succ, tags, pool = model[size]
                if size != self.SIZES[number % len(self.SIZES)]:
                    if not pool:  # objects without replacement, refilled when spent
                        pool.extend(rng.sample(range(objects), objects))
                    ops.append(self._query(model, size, pool.pop()))
                    continue
                # This round's update at this size: a new object with one
                # edge into the graph, towards an object that has a tagged
                # successor.  The query that follows asks about the new
                # object, so it has a proof only through the added fact.
                updates += 1
                new = objects + updates
                target = rng.choice([b for b in range(objects) if succ.get(b, set()) & tags])
                succ[new] = {target}
                ops.append(Update(f"wide{size}", "W",
                                  f"const o{new}: Obj. upd{updates}: e(o{new}, o{target}).", size))
                ops.append(self._query(model, size, new, needs_update=True))
            yield ops

    @staticmethod
    def _query(model, size: int, o: int, needs_update: bool = False) -> Txn:
        """path2(o, z) with its reference answer: a direct join over the
        current facts."""
        _, succ, tags, _ = model[size]
        zs = {z for y in succ.get(o, ()) for z in succ.get(y, ()) if z in tags}
        return Txn(f"wide{size}", "W", f"exists z:Obj. path2(o{o}, z)", bool(zs),
                   size=size, witnesses=frozenset(f"o{z}" for z in zs),
                   needs_update=needs_update)

    def apply_update(self, entry: Entry, op: Update):
        """The policy owner's side of an update: parse the fact (and the
        constant it introduces) against the policy's signature, install the
        new policy, keep the old digest in the verifier map and publish the
        new digest."""
        node = entry.world.node(op.owner)
        old = node.policy
        added = parser.parse_policy(op.fact, op.owner, old.signature)
        new = S.Policy(op.owner, added.signature, old.clauses + added.clauses, old.source)
        node.policy = new
        digest = new.digest
        entry.policy_map[digest] = new
        endpoint = entry.endpoints[op.owner]
        endpoint.policies[digest] = new
        entry.registry.register(digest, endpoint)
        return digest

    def verify(self, entry: Entry, cert) -> E.CheckResult:
        return E.check_certificate(cert, entry.policy_map, entry.world.directory)


WORKLOADS = {w.name: w for w in (MultiParty, DeepChain, WidePolicy)}
