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

Certificates need two relaxations that user input does not get: cores of
free splits can have an empty generator list, and engine-invented names
contain "@" and "#" segments.  Both are opt-in keyword flags.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .words import (
    Generator,
    Letter,
    Registry,
    Word,
    cyclic_reduce,
    format_word,
    inverse,
)

__all__ = [
    "EmptyGeneratorsError",
    "ParseError",
    "Presentation",
    "UnknownGeneratorError",
    "format_presentation",
    "letters_of",
    "parse_presentation",
    "parse_word",
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


@dataclass(frozen=True)
class Presentation:
    """An ordered, duplicate-free generator tuple and one relator.

    The relator is cyclically reduced at construction; callers may hand in
    any word.  Every generator occurring in the relator must be declared.
    """

    generators: tuple[Generator, ...]
    relator: Word

    def __post_init__(self) -> None:
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator in presentation")
        core = cyclic_reduce(self.relator).core
        object.__setattr__(self, "relator", core)
        declared = set(self.generators)
        for l in core:
            if l.gen not in declared:
                raise ValueError(
                    f"relator uses undeclared generator {l.gen.name}"
                )

    def __repr__(self) -> str:
        return f"Presentation({format_presentation(self)!r})"


def letters_of(p: Presentation) -> set[Generator]:
    """The set of generators that actually occur in the relator."""
    return {l.gen for l in p.relator}


def format_presentation(p: Presentation) -> str:
    names = ", ".join(g.name for g in p.generators)
    head = f"< {names} " if names else "< "
    return f"{head}| {format_word(p.relator)} >"


class _Token(NamedTuple):
    kind: str  # "ident", "int", or a literal punctuation character
    text: str
    pos: int


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# Engine names append @i (integer subscript, possibly negative) and #k
# segments to a plain ident; both may stack.
_IDENT_EXT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:[@#]-?[0-9]+)*")
_PUNCT = "<>|,[]^"


def _tokenize(text: str, extended_names: bool) -> list[_Token]:
    ident_re = _IDENT_EXT_RE if extended_names else _IDENT_RE
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT or c == "-":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        m = ident_re.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], end: int):
        self.tokens = tokens
        self.i = 0
        self.end = end  # position just past the input, for EOF errors

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", self.end)
        self.i += 1
        return t

    def accept(self, kind: str) -> _Token | None:
        t = self.peek()
        if t is not None and t.kind == kind:
            self.i += 1
            return t
        return None

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t is None:
            raise ParseError(f"expected {kind!r}", self.end)
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.pos)
        self.i += 1
        return t


def _parse_power(ps: _Parser) -> int:
    if not ps.accept("^"):
        return 1
    negative = ps.accept("-") is not None
    t = ps.expect("int")
    value = int(t.text)
    return -value if negative else value


def _repeat(letters: list[Letter], power: int) -> list[Letter]:
    if power >= 0:
        return letters * power
    return list(inverse(Word(tuple(letters))).letters) * (-power)


def _parse_word_body(
    ps: _Parser, resolve: Callable[[str, int], Generator], stop_kinds: set[str]
) -> Word:
    first = ps.peek()
    if first is not None and first.kind == "int" and first.text == "1":
        ps.next()
        return Word((), reduced=True)
    letters: list[Letter] = []
    saw_term = False
    while True:
        t = ps.peek()
        if t is None or t.kind in stop_kinds:
            break
        if t.kind == "ident":
            ps.next()
            g = resolve(t.text, t.pos)
            power = _parse_power(ps)
            letters.extend((Letter(g, 1 if power >= 0 else -1),) * abs(power))
            saw_term = True
        elif t.kind == "[":
            ps.next()
            x = ps.expect("ident")
            ps.expect(",")
            y = ps.expect("ident")
            ps.expect("]")
            gx, gy = resolve(x.text, x.pos), resolve(y.text, y.pos)
            comm = [Letter(gx, 1), Letter(gy, 1), Letter(gx, -1), Letter(gy, -1)]
            letters.extend(_repeat(comm, _parse_power(ps)))
            saw_term = True
        else:
            raise ParseError(f"unexpected token {t.text!r} in word", t.pos)
    if not saw_term:
        pos = first.pos if first is not None else ps.end
        raise ParseError("expected a word", pos)
    return Word(tuple(letters))


def parse_word(
    text: str,
    resolve: Callable[[str, int], Generator],
    *,
    extended_names: bool = False,
) -> Word:
    """Parse a bare word (the grammar's word production) on its own.

    resolve maps an identifier and its position to a generator; it may
    raise UnknownGeneratorError or intern new atoms as the caller sees fit.
    """
    ps = _Parser(_tokenize(text, extended_names), len(text))
    w = _parse_word_body(ps, resolve, stop_kinds=set())
    t = ps.peek()
    if t is not None:
        raise ParseError(f"trailing input {t.text!r}", t.pos)
    return w


def parse_presentation(
    text: str,
    registry: Registry | None = None,
    *,
    allow_empty_generators: bool = False,
    extended_names: bool = False,
    declare: Callable[[str], Generator] | None = None,
) -> Presentation:
    """Parse presentation text into a Presentation.

    A fresh registry is created when none is given.  declare overrides how
    generator names become atoms (certificate parsing interns names across
    many presentations this way); by default each name is declared anew in
    the registry.
    """
    reg = registry if registry is not None else Registry()
    make = declare if declare is not None else reg.declare

    ps = _Parser(_tokenize(text, extended_names), len(text))
    ps.accept("<")

    gens: list[Generator] = []
    table: dict[str, Generator] = {}
    t = ps.peek()
    if t is not None and t.kind == "ident":
        while True:
            t = ps.expect("ident")
            if t.text in table:
                raise ParseError(f"duplicate generator {t.text!r}", t.pos)
            g = make(t.text)
            table[t.text] = g
            gens.append(g)
            if not ps.accept(","):
                break
    if not gens and not allow_empty_generators:
        t = ps.peek()
        raise EmptyGeneratorsError(t.pos if t is not None else ps.end)
    ps.expect("|")

    def resolve(name: str, pos: int) -> Generator:
        g = table.get(name)
        if g is None:
            raise UnknownGeneratorError(name, pos)
        return g

    relator = _parse_word_body(ps, resolve, stop_kinds={">"})
    ps.accept(">")
    t = ps.peek()
    if t is not None:
        raise ParseError(f"trailing input {t.text!r}", t.pos)
    return Presentation(tuple(gens), relator)
