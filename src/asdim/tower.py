"""Decomposition of a one-relator presentation into a chain of certified
steps, each paired with the asymptotic dimension bound it yields.

The chain bottoms out in groups of known dimension: free groups (1, or 0
when trivial) and finite cyclic groups (0).  Interior steps either split
off a free factor (dimension is the max of the parts and 1), eliminate a
generator occurring once (the group is free), pass to an HNN extension
(dimension grows by at most 1), or embed into a larger one-relator group
(dimension does not grow).  The relator length bound ceil(|r| / 2) falls
out because every HNN step shortens the relator by at least two and is
charged exactly 1.  An embedding step may lengthen the relator and is
charged nothing; together with the step after it, the relator still
shrinks by at least two.  build_tower derives the chain-depth bound from
these rules.

A chain is singly linked through child (None at the leaf), and every
node class carries its certificate kind name and its bound rule (the
child's bound to its own).  A node is one flat record: its presentation,
the fields of its step, its child and its bound.  The next presentation
is held only by the child node.  Passes over a chain are loops, so its depth
is not limited by the interpreter's recursion limit.  Nodes are
immutable records (see asdim.words): a changed node, such as a tampered
one in a test, is made with node._replace(field=value), which keeps the
stored bound unless it is one of the changes.
"""

from __future__ import annotations

from itertools import permutations, zip_longest
from typing import Any, Iterator, Union

from .presentations import Presentation
from .rewriting import (
    choose_embedding_pair,
    find_single_occurrence,
    find_zero_exponent,
    hnn_rewrite,
    split_free_part,
    tally,
    zero_sum_embedding,
)
from .words import Registry, _Record, _set

__all__ = [
    "BoundReport",
    "CyclicLeaf",
    "EmbedStep",
    "FreeLeaf",
    "FreeSplit",
    "HnnStep",
    "Node",
    "SingleElim",
    "all_towers",
    "best_tower",
    "build_tower",
    "ceil_half",
    "summarize",
    "walk",
]


class _Node(_Record):
    """What every node kind shares.  A node's fields are its presentation,
    its kind's own fields, its child (leaves have none) and its bound.  A
    bound left out at construction is derived by the kind's bound rule,
    so the builder and the verifier apply one rule."""

    __slots__ = ()
    _defaults = {"bound": None}
    kind: str  # the certificate kind name
    child: Node | None = None

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if not kwargs and len(args) == len(self._setters) - 1:
            args += (None,)  # the usual call, with the bound left out
        _Record.__init__(self, *args, **kwargs)
        if self.bound is None:
            _set(self, "bound", self.bound_by_rule())

    def bound_by_rule(self) -> int:
        """The bound the kind's rule gives from the child's stored bound
        (None for a leaf), ignoring this node's stored bound."""
        return self.bound_rule(None if self.child is None else self.child.bound)

    # A record's equality, hash and repr would recurse through child:
    # these take the chain node by node.

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self.__slots__ if n != "child"])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            a.__class__ is b.__class__ and a._values() == b._values()
            for a, b in zip_longest(walk(self), walk(other))  # type: ignore[arg-type]
        )

    def __hash__(self) -> int:
        return hash(tuple([node._values() for node in walk(self)]))

    def __repr__(self) -> str:
        heads, bounds = [], []
        for node in walk(self):
            names = [n for n in node.__slots__ if n not in ("child", "bound")]
            own = ", ".join(f"{n}={getattr(node, n)!r}" for n in names)
            heads.append(f"{type(node).__qualname__}({own}, ")
            bounds.append(f"bound={node.bound!r})")
        return "child=".join(heads) + ", ".join(reversed(bounds))


class FreeLeaf(_Node):
    """The group is free of the stated rank (empty relator, or a length-1
    relator killing one generator)."""

    __slots__ = ("presentation", "rank", "bound")
    kind = "free_leaf"

    def bound_rule(self, below: None) -> int:
        return 0 if self.rank == 0 else 1


class CyclicLeaf(_Node):
    """Single generator, relator a power of it: a finite cyclic group."""

    __slots__ = ("presentation", "order", "bound")
    kind = "cyclic_leaf"

    def bound_rule(self, below: None) -> int:
        return 0


class SingleElim(_Node):
    """A generator occurring exactly once is eliminated; the rest generate
    freely, so this terminates the chain like a free leaf."""

    __slots__ = ("presentation", "eliminated", "rank", "bound")
    kind = "single_elim"
    bound_rule = FreeLeaf.bound_rule  # rank is the rank of that free group


class FreeSplit(_Node):
    """Generators absent from the relator split off as a free factor."""

    __slots__ = ("presentation", "split_off_rank", "child", "bound")
    kind = "free_split"

    def bound_rule(self, below: int) -> int:
        return below if self.split_off_rank == 0 else max(below, 1)


class HnnStep(_Node):
    """HNN extension over the child group, from a zero-exponent-sum
    stable letter.

    The child presentation's generators are fresh generators base@i, and
    rewritten is its relator.  renaming holds one RenameEntry per child
    generator, in the child's generator order: by the base's declaration
    index, then by subscript.  The rows are the only record of which
    conjugate a child generator stands for.  min/max_subscript range over
    the family of base, the generator of the first rewritten letter,
    which measures the span of conjugates the HNN extension glues along.
    """

    __slots__ = (
        "presentation",
        "stable",
        "base",
        "rewritten",
        "min_subscript",
        "max_subscript",
        "renaming",
        "child",
        "bound",
    )
    kind = "case1_hnn"

    def bound_rule(self, below: int) -> int:
        return 1 + below


class EmbedStep(_Node):
    """Embedding into the group decomposed by the child chain, by the
    substitution u -> carrier * stable^-beta, v -> stable^alpha, where u
    and v have exponent sums alpha and beta in the relator.

    image is the cyclically reduced rewritten relator, and the child
    presentation's relator: the stable letter has exponent sum zero in
    it and the carrier occurs.  The child's generators are stable,
    carrier and the generators other than u and v.
    """

    __slots__ = (
        "presentation",
        "u",
        "v",
        "alpha",
        "beta",
        "stable",
        "carrier",
        "image",
        "child",
        "bound",
    )
    kind = "case2_embed"

    def bound_rule(self, below: int) -> int:
        return below


Node = Union[FreeLeaf, CyclicLeaf, SingleElim, FreeSplit, HnnStep, EmbedStep]


def walk(root: Node) -> Iterator[Node]:
    """The nodes of a chain, root first."""
    node: Node | None = root
    while node is not None:
        yield node
        node = node.child


def ceil_half(n: int) -> int:
    """ceil(n / 2) for n >= 0.

    >>> ceil_half(5), ceil_half(4), ceil_half(0)
    (3, 2, 0)
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    return (n + 1) // 2


def build_tower(p: Presentation, registry: Registry | None = None) -> Node:
    """Decompose p deterministically.

    The guards run in a fixed order: empty relator, free split, length-1
    relator, single-occurrence elimination, cyclic relator, HNN rewrite on
    the first zero-exponent-sum generator, and finally the embedding step
    on the pair chosen by choose_embedding_pair.  Rerunning on the same
    input yields an identical chain.

    Chain depth.  The single-occurrence guard runs before the HNN and
    embedding steps, so the stable letter t and the embedding's v each
    occur at least twice, and an HNN step drops at least two letters.  An
    embedding step may lengthen the relator, but its carrier occurs as
    often as u did and every retained generator as often as before.  So
    the next step is the HNN rewrite on the new stable letter or, when
    that letter has cancelled, a free split of it, and the relator two
    nodes down has |r| - occ(v) <= |r| - 2 letters.  A free split never
    follows a free split or an HNN step, and a presentation of relator
    length at most 3 in which every generator occurs is a leaf.  Hence,
    when every generator of p occurs in r, the chain has at most
    max(1, 2 * (|r| // 2) - 1) nodes; a leading free split adds one, so
    no chain has more than max(2, |r|) nodes.  The family
    < a, b | b^-1 a^k b^-1 a^k > reaches |r| - 1 nodes through repeated
    embedding and free split pairs.  The rules do not settle whether the
    bound is reached at every relator length.
    """
    return _build(p, registry if registry is not None else Registry())


def _steps(p: Presentation, reg: Registry, every: bool) -> Iterator[tuple]:
    """The guard ladder: yield, in guard order, the steps the guards allow
    at p as (node class, kind fields, next presentation), the next
    presentation None for a leaf.  Only the HNN and embedding steps offer
    a choice; with every false the default choice alone is yielded.  Every
    guard reads one tally of the relator, taken here."""
    r = p.relator
    gens = p.generators

    if len(r) == 0:
        yield FreeLeaf, (len(gens),), None
        return

    occurrences, sums = tally(r)
    if len(occurrences) < len(gens):
        core, free = split_free_part(p, occurrences)
        yield FreeSplit, (len(free),), core
        return

    if len(r) == 1:
        yield FreeLeaf, (len(gens) - 1,), None
        return

    g = find_single_occurrence(p, occurrences)
    if g is not None:
        yield SingleElim, (g, len(gens) - 1), None
        return

    if len(occurrences) == 1:
        # Reduced power of a single generator, exponent at least 2 here.
        yield CyclicLeaf, (len(r),), None
        return

    t = find_zero_exponent(p, sums)
    if t is not None:
        for pivot in [g for g in gens if sums[g] == 0] if every else [t]:
            yield (HnnStep, *hnn_rewrite(p, pivot, reg))
        return

    for u, v in permutations(gens, 2) if every else [choose_embedding_pair(p, sums)]:
        yield (EmbedStep, *zero_sum_embedding(p, u, v, reg))


def _build(p: Presentation, reg: Registry) -> Node:
    """Go down the chain taking the default step at each presentation,
    then fold back up from the leaf, linking each node to its child."""
    path = []
    while p is not None:
        cls, fields, below = next(_steps(p, reg, every=False))
        path.append((cls, p, fields))
        p = below
    node = None
    for cls, p, fields in reversed(path):
        node = cls(p, *fields) if node is None else cls(p, *fields, node)
    return node


class BoundReport(_Record):
    """Summary of a chain: the a priori relator-length bound, the bound
    the chain actually certifies, and its shape."""

    __slots__ = ("length_bound", "tower_bound", "hnn_steps", "node_count")


def summarize(root: Node) -> BoundReport:
    nodes = list(walk(root))
    return BoundReport(
        length_bound=ceil_half(len(root.presentation.relator)),
        tower_bound=root.bound,
        hnn_steps=sum(isinstance(node, HnnStep) for node in nodes),
        node_count=len(nodes),
    )


def all_towers(p: Presentation, registry: Registry | None = None) -> Iterator[Node]:
    """Every chain reachable by varying the stable letter at HNN steps and
    the (u, v) pair at embedding steps; the forced guards stay forced.

    Exponential in the worst case, intended for small inputs.
    """
    yield from _alternatives(p, registry if registry is not None else Registry())


def _alternatives(p: Presentation, reg: Registry) -> Iterator[Node]:
    # Recursive: the number of chains is exponential in the depth anyway.
    for cls, fields, below in _steps(p, reg, every=True):
        if below is None:
            yield cls(p, *fields)
        else:
            for child in _alternatives(below, reg):
                yield cls(p, *fields, child)


def best_tower(
    p: Presentation, registry: Registry | None = None
) -> tuple[Node, int]:
    """The first chain of minimal bound among all_towers, and how many
    chains were examined."""
    best: Node | None = None
    examined = 0
    for node in all_towers(p, registry):
        examined += 1
        if best is None or node.bound < best.bound:
            best = node
    assert best is not None
    return best, examined
