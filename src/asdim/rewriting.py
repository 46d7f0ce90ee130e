"""The two relator-rewriting steps driving the decomposition, plus the
small structural helpers the tower builder dispatches on.

Each step function returns (fields, next presentation): fields are the
values of the step's own node fields, in the node class's slot order
(HnnStep and EmbedStep in asdim.tower, where each field is described),
and the next presentation is the one the decomposition continues on.

hnn_rewrite applies when some generator t has exponent sum zero in the
relator: every other letter x is tagged with the running t-exponent i of
the prefix before it, becoming a fresh generator x@i that stands for the
conjugate t^i x t^-i, and the t-letters themselves disappear.  The
result is a strictly shorter relator over a fresh generator family,
exhibiting the group as an HNN extension over the group of that family.

zero_sum_embedding applies when every generator has nonzero exponent sum:
two generators u, v with sums alpha, beta are traded for fresh t, b via
u -> b t^-beta and v -> t^alpha.  The substitution map holds only those
two images; every other generator maps to itself.  The rewritten relator
has t-exponent sum zero, so the step above applies next (or t vanishes
entirely and the group splits off a free factor).

The guards that choose a step read one tally of the relator, taken once
per chain node: occurrence counts and exponent sums by generator.  Each
finder takes the presentation and the part of the tally it reads.
"""

from __future__ import annotations

from typing import NamedTuple

from .presentations import Presentation
from .words import (
    Generator,
    Letter,
    Registry,
    Word,
    concat,
    cyclic_reduce,
    exponent_sum,
    generator_power,
    letter_pair,
    occurrence_count,
    single,
    substitute,
)

__all__ = [
    "RenameEntry",
    "choose_embedding_pair",
    "find_single_occurrence",
    "find_zero_exponent",
    "hnn_rewrite",
    "split_free_part",
    "tally",
    "zero_sum_embedding",
]

# One part of a tally: a count for each generator occurring in a relator.
Counts = dict[Generator, int]


def tally(r: Word) -> tuple[Counts, Counts]:
    """Occurrence counts and exponent sums by generator, taken in one pass
    over r; generators absent from r have no key."""
    occurrences: Counts = {}
    sums: Counts = {}
    for g, sign in r.letters:
        occurrences[g] = occurrences.get(g, 0) + 1
        sums[g] = sums.get(g, 0) + sign
    return occurrences, sums


def split_free_part(
    p: Presentation, occurrences: Counts
) -> tuple[Presentation, list[Generator]]:
    """Split off the generators absent from the relator, given its
    occurrence counts.

    Returns the core presentation on the occurring generators (declaration
    order kept, relator unchanged) and the list of absent generators; the
    group is the free product of the core group and the free group on the
    absent ones.
    """
    core_gens = tuple(g for g in p.generators if g in occurrences)
    free = [g for g in p.generators if g not in occurrences]
    return Presentation(core_gens, p.relator), free


def find_single_occurrence(p: Presentation, occurrences: Counts) -> Generator | None:
    """First generator, in declaration order, occurring exactly once."""
    for g in p.generators:
        if occurrences.get(g) == 1:
            return g
    return None


def find_zero_exponent(p: Presentation, sums: Counts) -> Generator | None:
    """First generator, in declaration order, that occurs in the relator
    with exponent sum zero.  Occurring with sum zero forces at least two
    occurrences."""
    for g in p.generators:
        if sums.get(g) == 0:
            return g
    return None


class RenameEntry(NamedTuple):
    """One row of an hnn_rewrite renaming: fresh stands for the conjugate
    stable^subscript * base * stable^-subscript."""

    fresh: Generator
    base: Generator
    subscript: int


def hnn_rewrite(
    p: Presentation, stable: Generator, registry: Registry
) -> tuple[tuple, Presentation]:
    """Rewrite p's relator over the conjugate families of the non-stable
    letters, eliminating the stable letter.  Returns the HnnStep fields
    (stable, base, rewritten, min_subscript, max_subscript, renaming) and
    the child presentation, whose relator is rewritten.

    Requires exponent_sum(relator, stable) == 0 and at least two stable
    occurrences; the relator, cyclically reduced, then has another letter
    too.  The emitted word expands back to the relator letter for letter
    when each tagged generator is replaced by its conjugate, with no
    cyclic adjustment; tests and the certificate verifier both lean on
    that exactness.
    """
    r = p.relator
    if exponent_sum(r, stable) != 0:
        raise ValueError(
            f"exponent sum of {stable.name} in the relator is nonzero"
        )
    if occurrence_count(r, stable) < 2:
        raise ValueError(
            f"fewer than two occurrences of {stable.name} in the relator"
        )

    # One fresh generator per conjugate (base, i), held as its letter pair.
    conjugates: dict[tuple[Generator, int], tuple[Letter, Letter]] = {}
    emitted: list[Letter] = []
    acc = 0
    for l in r.letters:
        if l.gen is stable:
            acc += l.sign
            continue
        pair = conjugates.get((l.gen, acc))
        if pair is None:
            g = registry.declare(f"{l.gen.name}@{acc}")
            pair = conjugates[l.gen, acc] = letter_pair(g)
        emitted.append(pair[l.sign < 0])
    assert acc == 0

    index = {g: k for k, g in enumerate(p.generators)}
    rows = sorted(conjugates, key=lambda key: (index[key[0]], key[1]))
    renaming = tuple(RenameEntry(conjugates[key][0].gen, *key) for key in rows)
    child = Presentation(tuple(e.fresh for e in renaming), Word(tuple(emitted)))
    # For a cyclically reduced relator the emitted word is already freely
    # and cyclically reduced: adjacent tags cancel only where the relator
    # itself had a cancelling pair, and an end-to-end cancellation would
    # force the relator's own ends to cancel.
    assert len(child.relator) == len(emitted) <= len(r) - 2

    pivot_base = next(l.gen for l in r.letters if l.gen is not stable)
    family = [e.subscript for e in renaming if e.base is pivot_base]
    fields = (stable, pivot_base, child.relator, min(family), max(family), renaming)
    return fields, child


def choose_embedding_pair(p: Presentation, sums: Counts) -> tuple[Generator, Generator]:
    """Pick the ordered pair (u, v) of occurring generators minimizing
    |alpha * beta|, ties broken by declaration order of u and then v,
    given the relator's exponent sums.

    With every sum nonzero, a pair of least product has the two least
    |sums| m1 <= m2 (a pair's |sums| x <= y have x >= m1 and y >= m2), so
    it is the two generators of least |sum|, the earlier-declared one on
    a tie, in declaration order.  A pair with a zero-sum member has
    product 0: then u is the first occurring generator, and v the first
    other one if u has sum 0, else the first of sum 0.
    """
    occurring = [g for g in p.generators if g in sums]
    if len(occurring) < 2:
        raise ValueError("embedding needs at least two occurring generators")
    sizes = [abs(sums[g]) for g in occurring]
    if 0 in sizes:
        return occurring[0], occurring[1 if sizes[0] == 0 else sizes.index(0)]
    i = min(range(len(sizes)), key=sizes.__getitem__)
    j = min((k for k in range(len(sizes)) if k != i), key=sizes.__getitem__)
    return occurring[min(i, j)], occurring[max(i, j)]


def zero_sum_embedding(
    p: Presentation, u: Generator, v: Generator, registry: Registry
) -> tuple[tuple, Presentation]:
    """Trade u, v for fresh stable and carrier letters.  Returns the
    EmbedStep fields (u, v, alpha, beta, stable, carrier, image) and the
    presentation p's group embeds into, whose relator is image."""
    r = p.relator
    if u == v:
        raise ValueError("embedding pair must be two distinct generators")
    alpha = exponent_sum(r, u)
    beta = exponent_sum(r, v)
    if alpha == 0:
        raise ValueError(f"exponent sum of {u.name} in the relator is zero")
    if beta == 0:
        raise ValueError(f"exponent sum of {v.name} in the relator is zero")

    stable, carrier = registry.embedding_pair()
    u_image = concat(single(carrier), generator_power(stable, -beta))
    v_image = generator_power(stable, alpha)
    image = cyclic_reduce(substitute(r, {u: u_image, v: v_image}))

    assert exponent_sum(image, stable) == 0
    assert occurrence_count(image, carrier) >= 1

    gens = (stable, carrier) + tuple(g for g in p.generators if g not in (u, v))
    child = Presentation(gens, image)
    return (u, v, alpha, beta, stable, carrier, child.relator), child
