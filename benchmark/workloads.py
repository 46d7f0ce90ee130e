"""Seeded inputs for the four benchmark workloads.

The inputs are made here, not with ``asdim.sampling``, so that a change to
the package cannot silently change what the benchmark feeds it.  A letter
is a ``(name, sign)`` pair; an item carries the letters it was made from,
so the output check can compare the parsed relator against them.

Why the seed means different things per workload:

- ``random_batch`` and ``pivot_search`` draw fresh relators from the seed.
  Their items are small and many, so the cost of a whole round hardly
  depends on the draw.
- ``long_relators`` uses one fixed draw of relators (``LONG_MASTER_SEED``)
  and lets the seed pick the generator names and the item order.  The
  cost of one long relator varies by a factor of ten between draws of the
  same length (the verifier's work grows with the excursion of the stable
  letter's exponent walk), so a fresh draw per seed would measure the
  draw, not the program.  Names and order leave the work unchanged.
- ``deep_chains`` is a fixed family; the seed picks names and order.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass

Letter = tuple[str, int]

WORKLOADS = ("random_batch", "long_relators", "deep_chains", "pivot_search")

RANDOM_BATCH_ITEMS = 10_000
RANDOM_BATCH_MAX_GENS = 4
RANDOM_BATCH_MAX_LEN = 12

LONG_MASTER_SEED = 20060725
# Relator length -> how many relators of that length.  Weighted towards
# the shorter lengths so that one round stays near four seconds while
# every length is present.
LONG_LENGTHS = {100: 16, 200: 8, 400: 4, 800: 2}

DEEP_MAX_K = 45

PIVOT_ITEMS = 1_000
PIVOT_GENS = 3
PIVOT_LENGTHS = (12, 13, 14)


@dataclass(frozen=True)
class Item:
    """One presentation: its generator names, relator letters and text."""

    gens: tuple[str, ...]
    letters: tuple[Letter, ...]
    text: str


@dataclass(frozen=True)
class Workload:
    """The items of one round and how a run treats them.

    search selects ``best_tower`` instead of ``build_tower``.  tail is the
    latency percentile reported as ``latency_tail_ms``, as a fraction.
    """

    name: str
    items: tuple[Item, ...]
    search: bool
    tail: float

    def min_rounds(self) -> int:
        """Rounds needed so that ten latency samples lie beyond the tail."""
        return max(1, math.ceil(10 / (len(self.items) * (1.0 - self.tail)) - 1e-9))


def format_text(gens: tuple[str, ...], letters: tuple[Letter, ...]) -> str:
    """Presentation text with runs written as powers, e.g. ``a^3 b^-1``."""
    parts: list[str] = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        name, sign = letters[i]
        e = sign * (j - i)
        parts.append(name if e == 1 else f"{name}^{e}")
        i = j
    return f"< {', '.join(gens)} | {' '.join(parts) if parts else '1'} >"


def random_cyclic_word(
    rng: random.Random, gens: tuple[str, ...], length: int
) -> tuple[Letter, ...]:
    """A uniformly random cyclically reduced word of the given length.

    Letters are drawn uniformly among those that do not cancel the previous
    one; words whose first letter cancels the last are redrawn.
    """
    alphabet = [(g, s) for g in gens for s in (1, -1)]
    while True:
        word: list[Letter] = []
        for _ in range(length):
            while True:
                x = alphabet[rng.randrange(len(alphabet))]
                if not word or x != (word[-1][0], -word[-1][1]):
                    break
            word.append(x)
        if length < 2 or word[0] != (word[-1][0], -word[-1][1]):
            return tuple(word)


def _item(gens: tuple[str, ...], letters: tuple[Letter, ...]) -> Item:
    return Item(gens, letters, format_text(gens, letters))


def _two_names(rng: random.Random) -> tuple[str, str]:
    a, b = rng.sample(string.ascii_lowercase, 2)
    return a, b


def _rename(letters: tuple[Letter, ...], names: dict[str, str]) -> tuple[Letter, ...]:
    return tuple((names[g], s) for g, s in letters)


def random_batch(seed: int) -> Workload:
    rng = random.Random(seed)
    items = []
    for _ in range(RANDOM_BATCH_ITEMS):
        k = rng.randint(1, RANDOM_BATCH_MAX_GENS)
        gens = tuple(string.ascii_lowercase[:k])
        length = rng.randint(1, RANDOM_BATCH_MAX_LEN)
        items.append(_item(gens, random_cyclic_word(rng, gens, length)))
    return Workload("random_batch", tuple(items), search=False, tail=0.99)


def long_relators(seed: int) -> Workload:
    master = random.Random(LONG_MASTER_SEED)
    words = [
        random_cyclic_word(master, ("a", "b"), length)
        for length, count in LONG_LENGTHS.items()
        for _ in range(count)
    ]
    rng = random.Random(seed)
    x, y = _two_names(rng)
    names = {"a": x, "b": y}
    items = [_item((x, y), _rename(w, names)) for w in words]
    rng.shuffle(items)
    return Workload("long_relators", tuple(items), search=False, tail=0.75)


def deep_chains(seed: int) -> Workload:
    rng = random.Random(seed)
    a, b = _two_names(rng)
    items = []
    for k in range(1, DEEP_MAX_K + 1):
        letters = ((b, -1),) + ((a, 1),) * k + ((b, -1),) + ((a, 1),) * k
        items.append(_item((a, b), letters))
    rng.shuffle(items)
    return Workload("deep_chains", tuple(items), search=False, tail=0.75)


def pivot_search(seed: int) -> Workload:
    """Relators in which every generator has nonzero exponent sum, so that
    best_tower starts by trying all six ordered embedding pairs.  Without
    that condition about a third of the items examine one chain, and the
    median latency sits at the edge between the two groups, where it moves
    by a quarter from seed to seed."""
    rng = random.Random(seed)
    gens = tuple(string.ascii_lowercase[:PIVOT_GENS])
    items: list[Item] = []
    while len(items) < PIVOT_ITEMS:
        word = random_cyclic_word(rng, gens, rng.choice(PIVOT_LENGTHS))
        if all(sum(s for g, s in word if g == x) != 0 for x in gens):
            items.append(_item(gens, word))
    return Workload("pivot_search", tuple(items), search=True, tail=0.95)


def make(name: str, seed: int) -> Workload:
    makers = {
        "random_batch": random_batch,
        "long_relators": long_relators,
        "deep_chains": deep_chains,
        "pivot_search": pivot_search,
    }
    return makers[name](seed)
