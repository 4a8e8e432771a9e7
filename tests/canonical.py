"""Text compared up to the names of fresh variables, eigenconstants and
hypothesis labels.

The prover only promises that the names it makes are fresh: `_<n>` for a
metavariable, `c<n>` for an eigenconstant and `h<n>` for a hypothesis label,
each with `@<k>` when made at hop k of a distributed search.  Renaming each
such name by its first appearance, per kind, leaves what a search found and
in what order, but not how its names were numbered.
"""

import re

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
