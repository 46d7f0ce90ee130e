"""Within one chain, distinct generator atoms never share a display name.

parse_certificate identifies generators by name, so a chain in memory
that held two atoms under one name would not be the chain its
certificate describes.  The check covers every field of every node that
holds a generator, over the exhaustive |r| <= 6 corpus on two
generators, the family < a, b | b^-1 a^k b^-1 a^k >, and the first
chains all_towers offers for each of those inputs.
"""

from __future__ import annotations

from itertools import islice

from asdim import (
    EmbedStep,
    HnnStep,
    Presentation,
    Registry,
    SingleElim,
    all_cyclically_reduced_words,
    all_towers,
    build_tower,
    format_presentation,
    parse_presentation,
    walk,
)

ALL_TOWERS_PER_INPUT = 20


def atoms(root):
    """Every generator the chain holds, field by field."""
    for node in walk(root):
        p = node.presentation
        yield from p.generators
        yield from (l.gen for l in p.relator)
        if isinstance(node, SingleElim):
            yield node.eliminated
        elif isinstance(node, HnnStep):
            yield node.stable
            yield node.base
            for e in node.renaming:
                yield e.fresh
                yield e.base
            yield from (l.gen for l in node.rewritten)
        elif isinstance(node, EmbedStep):
            yield from (node.u, node.v, node.stable, node.carrier)
            yield from (l.gen for l in node.image)


def shared_names(root) -> list[str]:
    """The names that more than one atom of the chain carries."""
    by_name = {}
    shared = set()
    for g in atoms(root):
        if by_name.setdefault(g.name, g) is not g:
            shared.add(g.name)
    return sorted(shared)


def corpus() -> list[str]:
    reg = Registry()
    gens = (reg.declare("a"), reg.declare("b"))
    texts = [
        format_presentation(Presentation(gens, w))
        for length in range(1, 7)
        for w in all_cyclically_reduced_words(gens, length)
    ]
    return texts + [f"< a, b | b^-1 a^{k} b^-1 a^{k} >" for k in range(1, 30)]


def chains(text: str):
    reg = Registry()
    yield build_tower(parse_presentation(text, reg), reg)
    reg = Registry()
    yield from islice(
        all_towers(parse_presentation(text, reg), reg), ALL_TOWERS_PER_INPUT
    )


def test_no_two_atoms_of_a_chain_share_a_name():
    failures = []
    checked = 0
    for text in corpus():
        for root in chains(text):
            checked += 1
            shared = shared_names(root)
            if shared:
                failures.append(f"{text}: {', '.join(shared)}")
    assert checked > 1_000
    assert not failures, f"{len(failures)} of {checked} chains, e.g. {failures[:3]}"
