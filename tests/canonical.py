"""Text compared up to the names of fresh variables, eigenconstants and
hypothesis labels, and evidence compared by the labels of its clauses.

The prover only promises that the names it makes are fresh: `_<n>` for a
metavariable, `c<n>` for an eigenconstant and `h<n>` for a hypothesis label,
each with `@<k>` when made at hop k of a distributed search.  Renaming each
such name by its first appearance, per kind, leaves what a search found and
in what order, but not how its names were numbered.
"""

import re

from cyberlogic import evidence as E

_FRESH = re.compile(r"(?<!\w)([_ch])\d+(?:@\d+)?(?![0-9A-Za-z])")


def canonical_names(text: str) -> str:
    names, counts = {}, {}

    def rename(m):
        name = names.get(m.group(0))
        if name is None:
            kind = m.group(1)
            counts[kind] = counts.get(kind, 0) + 1
            name = names[m.group(0)] = f"{kind}#{counts[kind]}"
        return name

    return _FRESH.sub(rename, text)


def at(policy, label: str) -> int:
    """The position of the clause labelled `label` in `policy`."""
    return [c.label for c in policy.clauses].index(label)


def labelled(ev, policies):
    """`ev` with each policy clause named by its label, read off the clause
    at its position in `policies` (digest -> Policy), as in evidence written
    before clause applications named positions."""

    def node(x, kids):
        if x.__class__ is E.ClauseApp and x.policy_digest is not None:
            return E.ClauseApp(policies[x.policy_digest].clauses[x.ref].label, x.policy_digest, x.args, tuple(kids))
        return E.rebuild(x, kids, lambda t: t)

    return E.fold(ev, node)
