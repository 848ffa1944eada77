"""Symmetry of labelled frames: the orbits the search and `enumerate --reduce`
visit one representative of.

Renaming the worlds of a labelled frame by a permutation s moves world i to
s[i] and edge i->j to s[i]->s[j]; permuting the atoms e1, e2, e3 renames the
carriers A, B, C with them.  A countermodel maps to a countermodel when the
ultrafilters move in step, and every property in `frames.PROPERTIES` keeps
both symmetries.

Three questions are answered here:

- `_labelling_orbits`: the labellings up to world renamings and the atom
  permutations that map the selected ultrafilters to each other, as the least
  labelling of each orbit with the orbit's size.
- `stabiliser`: for a representative labelling L, the world permutations s
  that, with some allowed atom permutation, map L to itself.  Relations r and
  s(r) then give the same frame up to the symmetry.
- `canonical_relations`: the relations least in their orbit under that
  stabiliser H, each with its orbit size |H| / |Stab_H(r)|, Stab_H(r) the
  renamings in H that fix r.

Canonicity is bit-sliced over chunks of relations, as `FrameProperty.
relation_mask` evaluates clauses: with `edge_masks(chunk, n*n, 1)`, bit k of
the mask of an edge is set iff the chunk's k-th relation has it.  One walk,
`_canonical`, serves both public functions: for each s of a group, the
relations still canonical are compared with their images from the top edge
bit down, giving the masks of "r < s(r)" and "r = s(r)" in a few bitwise
operations per edge.  A relation is canonical where no s gives "r > s(r)",
and fixed by the s whose "r = s(r)" mask has it.  Over H, those s and the
identity are Stab_H(r); over all of S_n, they are the stabiliser under
which `least_frames` compares the labellings of a relation least in its
orbit.

Nothing is cached beyond the small tables of permutations and, per
stabiliser, its least labellings: the relation space is walked in aligned
chunks of at most 2**12 relations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import Iterator, Sequence

from ._sweep import edge_masks, set_bits
from .algebra import LATTICE_LABELS, ULTRAFILTERS

# Relations per comparator chunk: wide enough to share the per-permutation
# work, narrow enough that the masks stay small at five worlds and beyond.
_CHUNK = 1 << 12


def _atom_renamings(ultrafilter_names: tuple[str, ...]) -> list[dict[str, str]]:
    """The renamings of A, B, C whose atoms map the named ultrafilters to
    each other.  Atom i goes with carrier LATTICE_LABELS[i] and ultrafilter
    ULTRAFILTERS[i]."""
    chosen = {i for i, u in enumerate(ULTRAFILTERS) if u.name in ultrafilter_names}
    return [dict(zip(LATTICE_LABELS, (LATTICE_LABELS[i] for i in perm)))
            for perm in permutations(range(3)) if {perm[i] for i in chosen} == chosen]


@lru_cache(maxsize=None)
def _labelling_orbits(
    n: int, ultrafilter_names: tuple[str, ...]
) -> tuple[tuple[tuple[str, ...], int], ...]:
    """The labellings on n worlds up to renaming the worlds and permuting the
    atoms e1, e2, e3 so that the named ultrafilters go to each other: the
    least labelling of each orbit and the orbit's size, in labelling order."""
    renamings = _atom_renamings(ultrafilter_names)
    sizes: dict[tuple[str, ...], int] = {}
    for labels in product(LATTICE_LABELS, repeat=n):
        # Sorting renames the worlds to the least arrangement.
        least = min(tuple(sorted(r[x] for x in labels)) for r in renamings)
        sizes[least] = sizes.get(least, 0) + 1
    return tuple(sizes.items())


@lru_cache(maxsize=None)
def stabiliser(
    labels: tuple[str, ...], ultrafilter_names: tuple[str, ...]
) -> tuple[tuple[int, ...], ...]:
    """The world permutations s, s[i] the image of world i, under which some
    allowed atom renaming maps the labelling to itself, identity first."""
    renamings = _atom_renamings(ultrafilter_names)
    return tuple(
        s for s in permutations(range(len(labels)))
        if any(all(labels[s[i]] == r[x] for i, x in enumerate(labels)) for r in renamings)
    )


def _chunks(n: int, width: int = _CHUNK) -> Iterator[range]:
    """Aligned ranges of at most `width` relations, a power of two, covering
    those on n worlds."""
    total = 1 << (n * n)
    width = min(total, width)
    return (range(lo, lo + width) for lo in range(0, total, width))


def _canonical(perms: Sequence[tuple[int, ...]], n: int) -> Iterator[tuple[int, int]]:
    """The relation bitmasks on n worlds least in their orbit under the
    group of world permutations `perms`, identity first, ascending, each
    with the set of the other permutations that fix it, perms[k] as bit k."""
    # Per permutation s: edge bit p of s(r) is edge bit source[p] of r.
    sources = []
    for s in perms[1:]:
        source = bytearray(n * n)
        for i in range(n):
            for j in range(n):
                source[s[i] * n + s[j]] = i * n + j
        sources.append(source)
    for relations in _chunks(n):
        edges = edge_masks(relations, n * n, 1)
        canonical, fixing = (1 << len(relations)) - 1, {}
        for k, source in enumerate(sources, 1):
            # The canonical relations r with r < s(r), and with r = s(r).
            below, equal = 0, canonical
            for p in range(n * n - 1, -1, -1):
                q = source[p]
                if q != p:
                    mine, theirs = edges[p], edges[q]
                    below |= equal & theirs & ~mine
                    equal &= ~(mine ^ theirs)
                    if not equal:
                        break
            canonical = below | equal
            for r in set_bits(equal):
                fixing[r] = fixing.get(r, 0) | 1 << k
        for r in set_bits(canonical):
            yield relations.start + r, fixing.get(r, 0)


def canonical_relations(
    n: int, labels: tuple[str, ...], ultrafilter_names: tuple[str, ...]
) -> Iterator[tuple[int, int]]:
    """The relation bitmasks on the labelled n worlds that are least in
    their orbit under H = `stabiliser(labels, ultrafilter_names)`,
    ascending, each with its orbit size |H| / |Stab_H(r)|.  The sizes sum
    to 2**(n*n)."""
    perms = stabiliser(labels, ultrafilter_names)
    for bits, fixing in _canonical(perms, n):
        yield bits, len(perms) // (1 + fixing.bit_count())


def least_frames(n: int) -> Iterator[tuple[int, tuple[tuple[str, ...], ...]]]:
    """Per relation bitmask least in its orbit under the world permutations,
    ascending: the bitmask and the labellings that make it the least frame
    of its orbit, in labels order.  A frame is least in its orbit iff its
    bitmask is at most every image of it and its labels are at most their
    image under every permutation that fixes the bitmask.  The tuple of
    least labellings is kept, and shared, per set of such permutations: few
    sets occur."""
    perms = list(permutations(range(n)))
    labellings = list(product(LATTICE_LABELS, repeat=n))
    least: dict[int, tuple[tuple[str, ...], ...]] = {}
    for bits, fixing in _canonical(perms, n):
        if fixing not in least:
            # With the identity they form a group, closed under inverses,
            # and under the inverse of s world j gets the label of s[j].
            movers = [perms[k] for k in set_bits(fixing)]
            least[fixing] = tuple(labels for labels in labellings
                                  if all(labels <= tuple(labels[i] for i in s) for s in movers))
        yield bits, least[fixing]
