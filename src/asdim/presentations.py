"""One-relator presentations and their textual grammar.

The input form is

    presentation := "<"? genlist "|" word ">"?
    genlist      := ident ("," ident)*
    word         := term+ | "1"
    term         := ident power? | "[" ident "," ident "]" power?
    power        := "^" "-"? digits
    ident        := letter (letter | digit | "_")*

with whitespace ignored between tokens.  "1" denotes the empty relator,
and [x, y] is the commutator x y x^-1 y^-1, expanded before any power is
applied.  Powers are expanded into explicit letter sequences at parse
time; nothing downstream ever sees an exponent.

Text is read one term at a time: a single compiled pattern matches a
whole term with its power, so the Python-level work of a parse grows
with the number of terms, not with letters or characters.  The relator
is freely reduced on runs as it is read (a run of one generator folds
its exponents and is dropped at zero) and expanded into letters only
then, so the Presentation constructor is left to strip the ends.

A word expands to at most MAX_LETTERS = 10,000,000 letters, a fixed
limit that keeps one line of input from asking for unbounded memory.
Letters are counted before any is made: a relator's after the run
folding (so a^N a^-N is "1" for any N), and [x, y]^n as 4 |n| letters
where it is written.  A longer word is a ParseError at the term that
takes it past the limit.  asdim.certio reads certificate words with the
same run helpers under the same limit.

Generator names are plain identifiers.  Names the engine invents carry
"@" and "#" segments; those are read only from certificates, by
asdim.certio, and one in this grammar is an error at its first "@" or
"#".
"""

from __future__ import annotations

import re
from operator import itemgetter

from .words import (
    Generator,
    Letter,
    Registry,
    Word,
    _Record,
    _set,
    cyclic_reduce,
    fold_runs,
    format_word,
    letter_pair,
)

__all__ = [
    "EmptyGeneratorsError",
    "ParseError",
    "Presentation",
    "UnknownGeneratorError",
    "format_presentation",
    "letters_of",
    "parse_presentation",
]


class ParseError(ValueError):
    """Malformed presentation text; position is a character offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownGeneratorError(ParseError):
    def __init__(self, name: str, position: int):
        self.name = name
        super().__init__(f"unknown generator {name!r}", position)


class EmptyGeneratorsError(ParseError):
    def __init__(self, position: int):
        super().__init__("empty generator list", position)


class Presentation(_Record):
    """An ordered, duplicate-free generator tuple and one relator.

    The relator is cyclically reduced at construction; callers may hand in
    any word.  Every generator occurring in the relator must be declared.
    """

    __slots__ = ("generators", "relator")

    def __init__(self, generators: tuple[Generator, ...], relator: Word) -> None:
        declared = set(generators)
        if len(declared) != len(generators):
            raise ValueError("duplicate generator in presentation")
        core = cyclic_reduce(relator)
        _set(self, "generators", generators)
        _set(self, "relator", core)
        if not letters_of(self) <= declared:
            first = next(l.gen for l in core if l.gen not in declared)
            raise ValueError(f"relator uses undeclared generator {first.name}")

    def __repr__(self) -> str:
        return f"Presentation({format_presentation(self)!r})"


def letters_of(p: Presentation) -> set[Generator]:
    """The set of generators that actually occur in the relator."""
    # set() hashes every letter in C; the loop sees each distinct one.
    return {l.gen for l in set(p.relator.letters)}


def format_presentation(p: Presentation) -> str:
    names = ", ".join(g.name for g in p.generators)
    head = f"< {names} " if names else "< "
    return f"{head}| {format_word(p.relator)} >"


# Engine names append @i (integer subscript, possibly negative) and #k
# segments to a plain ident; both may stack.  The pattern accepts them,
# so that _check_name reports one in user input at its first "@" or "#",
# and asdim.certio reads certificate names with it.
_IDENT = r"[A-Za-z][A-Za-z0-9_]*(?:[@#]-?[0-9]+)*"
_POWER = r"(?:\s*\^\s*(-?)\s*([0-9]+))?"
# Whitespace and then one whole term with the whitespace after it, or
# only the whitespace.  Groups: 1 the term; 2 an ident, or 3 and 4 a
# commutator's idents; 5 and 6 the power's sign and digits.  After any
# match, end() is at a non-space character or at the end of the text.
_TERM = re.compile(
    rf"\s*(?:((?:({_IDENT})|\[\s*({_IDENT})\s*,\s*({_IDENT})\s*\]){_POWER})\s*)?"
)

# A run: the (x, x^-1) letter pair of one generator, an exponent and the
# position of the term it comes from, for an error.
_Pair = tuple[Letter, Letter]
_Run = tuple[_Pair, int, int]
_exponent = itemgetter(1)

MAX_LETTERS = 10_000_000


def _error(text: str, pos: int, expected: str) -> ParseError:
    found = repr(text[pos]) if pos < len(text) else "end of input"
    return ParseError(f"expected {expected}, found {found}", pos)


def _check_name(name: str, pos: int) -> None:
    for i, c in enumerate(name):
        if c in "@#":
            raise ParseError(f"unexpected character {c!r}", pos + i)


def _unknown(name: str, pos: int) -> _Pair:
    _check_name(name, pos)
    raise UnknownGeneratorError(name, pos)


def _too_long(pos: int) -> ParseError:
    return ParseError(f"word expands to more than {MAX_LETTERS} letters", pos)


def _expand(runs: list) -> tuple[Letter, ...]:
    """The letters of runs.  They are counted first, and a word of more
    than MAX_LETTERS is a ParseError at the term whose run takes it past."""
    if sum(map(abs, map(_exponent, runs))) > MAX_LETTERS:
        total = 0
        for _, e, at in runs:
            total += abs(e)
            if total > MAX_LETTERS:
                raise _too_long(at)
    letters: list[Letter] = []
    for pair, e, _ in runs:
        letters += (pair[e < 0],) * abs(e)
    return tuple(letters)


def _runs(text: str, pos: int, pairs: dict[str, _Pair]) -> tuple[list[_Run], int]:
    """Scan the word that starts at pos, one term per match.

    Returns its runs in text order, unreduced (a commutator gives four
    per repetition), and the position where scanning stopped: the first
    character after the word and the whitespace behind it.  pairs holds
    the letter pair of each declared name.  A commutator power is
    counted against MAX_LETTERS before its runs are made.
    """
    match = _TERM.match
    runs: list[_Run] = []
    commuted = 0
    first = m = match(text, pos)
    at = m.start(1)  # where the term starts; later terms start at the last end()
    while True:
        term, name, x, y, neg, n = m.groups()
        if term is None:
            break
        try:
            e = int(n) if n is not None else 1
        except ValueError:  # more digits than int() converts
            raise ParseError("exponent has too many digits", at) from None
        if name is not None:
            pair = pairs.get(name) or _unknown(name, at)
            runs.append((pair, -e if neg else e, at))
        else:
            px = pairs.get(x) or _unknown(x, m.start(3))
            py = pairs.get(y) or _unknown(y, m.start(4))
            if neg:
                px, py = py, px
            commuted += 4 * e
            if commuted > MAX_LETTERS:
                raise _too_long(at)
            runs += ((px, 1, at), (py, 1, at), (px, -1, at), (py, -1, at)) * e
        at = m.end()
        m = match(text, at)
    if m is not first:
        return runs, at
    at = m.end()
    if not text.startswith("1", at):
        raise _error(text, at, "a word")
    m = match(text, at + 1)
    return runs, m.end() if m.group(1) is None else m.start(1)


def parse_presentation(text: str, registry: Registry | None = None) -> Presentation:
    """Parse presentation text into a Presentation, each generator name
    declared anew in the registry, a fresh one when none is given."""
    declare = (registry if registry is not None else Registry()).declare
    match = _TERM.match

    m = match(text)
    if m.group(1) is None and text.startswith("<", m.end()):
        m = match(text, m.end() + 1)
    gens: list[Generator] = []
    pairs: dict[str, _Pair] = {}
    pos = m.end()
    while m.group(1) is not None:
        term, name, n = m.group(1, 2, 6)
        at = m.start(1)
        if name is None or n is not None:
            raise ParseError(f"expected a generator name, found {term!r}", at)
        if name in pairs:
            raise ParseError(f"duplicate generator {name!r}", at)
        _check_name(name, at)
        g = declare(name)
        gens.append(g)
        pairs[name] = letter_pair(g)
        pos = m.end()
        if not text.startswith(",", pos):
            break
        m = match(text, pos + 1)
        if m.group(1) is None:
            raise _error(text, m.end(), "a generator name")
    if not gens:
        raise EmptyGeneratorsError(pos)
    if not text.startswith("|", pos):
        raise _error(text, pos, "'|'")

    runs, pos = _runs(text, pos + 1, pairs)
    if text.startswith(">", pos):
        m = match(text, pos + 1)
        pos = m.end() if m.group(1) is None else m.start(1)
    if pos != len(text):
        raise _error(text, pos, "end of input")

    # Adjacent folded runs have distinct generators and nonzero exponents,
    # so their letters are reduced.
    letters = _expand(fold_runs(runs))
    return Presentation(tuple(gens), Word(letters, reduced=True))
