"""Random and exhaustive sources of reduced words and presentations,
for property tests and sweep scripts."""

from __future__ import annotations

from random import Random
from typing import Iterator, Sequence

from .presentations import Presentation
from .words import EMPTY_WORD, Generator, Letter, Registry, Word

__all__ = [
    "all_cyclically_reduced_words",
    "random_cyclically_reduced_word",
    "random_presentation",
    "random_reduced_word",
]


_NAMES = "abcdefghijklmnopqrstuvwxyz"


def random_reduced_word(rng: Random, gens: Sequence[Generator], length: int) -> Word:
    """Uniformly random freely reduced word of exactly the given length."""
    if not gens and length > 0:
        raise ValueError("cannot build a nonempty word over no generators")
    alphabet = [Letter(g, s) for g in gens for s in (1, -1)]
    letters: list[Letter] = []
    for _ in range(length):
        if letters:
            banned = letters[-1].inverse()
            choices = [l for l in alphabet if l != banned]
        else:
            choices = alphabet
        letters.append(choices[rng.randrange(len(choices))])
    return Word(tuple(letters), reduced=True)


def random_cyclically_reduced_word(
    rng: Random, gens: Sequence[Generator], length: int
) -> Word:
    """Rejection-sample until the first letter does not cancel the last.

    For length >= 2 at least half of all reduced words qualify, so the
    loop terminates quickly.
    """
    while True:
        w = random_reduced_word(rng, gens, length)
        if len(w) < 2 or w.letters[0] != w.letters[-1].inverse():
            return w


def random_presentation(
    rng: Random,
    registry: Registry,
    max_gens: int,
    max_len: int,
) -> Presentation:
    """Random presentation with 1..max_gens generators named a, b, c, ...
    and a cyclically reduced relator of length 1..max_len."""
    if not 1 <= max_gens <= len(_NAMES):
        raise ValueError("max_gens out of range")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    k = rng.randint(1, max_gens)
    gens = tuple(registry.declare(_NAMES[i]) for i in range(k))
    length = rng.randint(1, max_len)
    relator = random_cyclically_reduced_word(rng, gens, length)
    return Presentation(gens, relator)


def all_cyclically_reduced_words(
    gens: Sequence[Generator], length: int
) -> Iterator[Word]:
    """Every cyclically reduced word of exactly the given length, in a
    fixed depth-first order."""
    if length == 0:
        yield EMPTY_WORD
        return
    alphabet = [Letter(g, s) for g in gens for s in (1, -1)]
    prefix: list[Letter] = []

    def rec() -> Iterator[Word]:
        if len(prefix) == length:
            if length < 2 or prefix[0] != prefix[-1].inverse():
                yield Word(tuple(prefix), reduced=True)
            return
        for l in alphabet:
            if prefix and l == prefix[-1].inverse():
                continue
            prefix.append(l)
            yield from rec()
            prefix.pop()

    yield from rec()
