"""Certificate documents: a deterministic JSON form of a decomposition
chain, a parser that reconstructs a chain the verifier can replay, and a
plain-text tree rendering.

The document is integers and strings only, keys in a fixed order, so
emitting, parsing, and emitting again is byte-identical.  Generator
identity inside one document is by display name; names invented by the
engine are unique within a chain by construction.

A node's object holds its kind, presentation and bound, then its own
fields (the slots of its class but presentation, child and bound) in
slot order, then the next node's object under its kind's link key.
_KINDS holds each kind's link key and rendered headline.  Each field
name picks one of four codecs, which write a field as a v1 value and
read it back:

    _INT    an integer                          2
    _GEN    a generator, as its name            "b@0"
    _WORD   a word, as format_word writes it    "b@1 b@0^-1"
    _ROWS   renaming rows [fresh, base, i]      [["b@0", "b", 0]]

The reader takes exactly the text format_word and format_presentation
write: a word is "1" or name and name^e tokens separated by single
spaces, a presentation "< names | word >".  Anything else is a
CertificateError.  Word fields keep their letters as written; a relator
is folded on runs, as by parse_presentation, under the same MAX_LETTERS.

Each relator text is read once per document: v1 restates a child's
relator as its parent's rewritten or image word.  The reader keeps the
letters of a relator text whose runs are folded as written, and a later
relator or word field with that text shares them; a text whose runs
still fold, such as "b@0 b@0^-1", is read afresh, as its letters as
written and as a relator differ.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple

from .presentations import (
    _IDENT,
    Presentation,
    _expand,
    _Pair,
    _Run,
    format_presentation,
)
from .rewriting import RenameEntry
from .tower import (
    CyclicLeaf,
    EmbedStep,
    FreeLeaf,
    FreeSplit,
    HnnStep,
    Node,
    SingleElim,
    walk,
)
from .words import Generator, Letter, Word, fold_runs, format_word, letter_pair

__all__ = [
    "CertificateError",
    "SCHEMA_VERSION",
    "emit_certificate",
    "parse_certificate",
    "render_tree",
]

SCHEMA_VERSION = 1


class CertificateError(ValueError):
    """The document is not a well-formed certificate."""


_MISSING = object()


def _need(d: dict[str, Any], key: str, kind: type) -> Any:
    value = d.get(key, _MISSING)
    if type(value) is kind:
        return value
    if value is _MISSING:
        raise CertificateError(f"missing field {key!r}")
    if kind is int and isinstance(value, bool):
        raise CertificateError(f"field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise CertificateError(f"field {key!r} must be {kind.__name__}")
    return value


_NAME = re.compile(_IDENT)
# A word's tokens, each a name and its power unless that is 1.
_TOKEN = rf"{_IDENT}(?:\^-?[1-9][0-9]*)?"
_WORD_TEXT = re.compile(rf"{_TOKEN}(?: {_TOKEN})*")
_PRESENTATION = re.compile(r"< (?:(.*?) )?\| (.*) >")


class _Reader:
    """Reads the fields of one document.  Generator identity is by display
    name throughout the document, so every name is interned once, as its
    letter pair.  reduced maps each relator text whose runs are folded as
    written to its letters."""

    def __init__(self) -> None:
        self.pairs: dict[str, _Pair] = {}
        self.reduced: dict[str, tuple[Letter, ...]] = {}

    def add(self, name: str) -> _Pair:
        """The letter pair of a new name that a pattern has checked."""
        pair = self.pairs[name] = letter_pair(Generator(name))
        return pair

    def intern(self, name: str) -> Generator:
        pair = self.pairs.get(name)
        if pair is None:
            if _NAME.fullmatch(name) is None:
                raise CertificateError(f"not a generator name: {name!r}")
            pair = self.add(name)
        return pair[0].gen

    def runs(self, text: str) -> list[_Run]:
        """A word's runs, one per token, as (pair, exponent, position)."""
        if text == "1":
            return []
        if _WORD_TEXT.fullmatch(text) is None:
            raise CertificateError(f"malformed word {text!r}")
        pairs = self.pairs
        runs = []
        at = 0
        for token in text.split(" "):
            name, _, e = token.partition("^")
            runs.append((pairs.get(name) or self.add(name), int(e) if e else 1, at))
            at += len(token) + 1
        return runs

    def word(self, d: dict[str, Any], key: str) -> Word:
        text = _need(d, key, str)
        letters = self.reduced.get(text)
        if letters is not None:
            return Word(letters, reduced=True)
        return Word(_expand(self.runs(text)))

    def presentation(self, d: dict[str, Any]) -> Presentation:
        text = _need(d, "presentation", str)
        m = _PRESENTATION.fullmatch(text)
        if m is None:
            raise CertificateError(f"malformed presentation {text!r}")
        names, word = m.groups()
        gens = () if names is None else tuple(map(self.intern, names.split(", ")))
        letters = self.reduced.get(word)
        if letters is None:
            runs = self.runs(word)
            folded = fold_runs(runs)
            # Adjacent folded runs have distinct generators and nonzero
            # exponents, so their letters are reduced.
            letters = _expand(folded)
            if len(folded) == len(runs):
                self.reduced[word] = letters
        return Presentation(gens, Word(letters, reduced=True))

    def renaming(self, d: dict[str, Any], key: str) -> tuple[RenameEntry, ...]:
        entries = []
        for row in _need(d, key, list):
            if (
                not isinstance(row, list)
                or len(row) != 3
                or not all(isinstance(name, str) for name in row[:2])
                or type(row[2]) is not int  # a JSON true or false is a bool
            ):
                raise CertificateError("renaming rows must be [fresh, base, subscript]")
            fresh, base, i = row
            entries.append(RenameEntry(self.intern(fresh), self.intern(base), i))
        return tuple(entries)


class _Codec(NamedTuple):
    """How a node field is written as a v1 value and read back."""

    write: Callable[[Any], Any]
    read: Callable[[_Reader, dict[str, Any], str], Any]


_INT = _Codec(lambda n: n, lambda rd, d, key: _need(d, key, int))
_GEN = _Codec(lambda g: g.name, lambda rd, d, key: rd.intern(_need(d, key, str)))
_WORD = _Codec(format_word, _Reader.word)
_ROWS = _Codec(
    lambda rows: [[e.fresh.name, e.base.name, e.subscript] for e in rows],
    _Reader.renaming,
)


# The codec of each node field, by field name.
_CODECS = {
    **dict.fromkeys(("rank", "order", "split_off_rank", "alpha", "beta"), _INT),
    **dict.fromkeys(("min_subscript", "max_subscript"), _INT),
    **dict.fromkeys(("eliminated", "stable", "base", "u", "v", "carrier"), _GEN),
    **dict.fromkeys(("rewritten", "image"), _WORD),
    "renaming": _ROWS,
}


class _Kind(NamedTuple):
    """How one node kind is written in a v1 document."""

    link: str | None  # key of the next node's object; None for a leaf
    headline: str  # render_tree text, a format string over the emitted fields


_KINDS: dict[type, _Kind] = {
    FreeLeaf: _Kind(None, "rank={rank}"),
    CyclicLeaf: _Kind(None, "order={order}"),
    SingleElim: _Kind(None, "eliminate={eliminated}  rank={rank}"),
    FreeSplit: _Kind("child", "split_off_rank={split_off_rank}"),
    HnnStep: _Kind(
        "child",
        "stable={stable}  base={base}  subscripts={min_subscript}..{max_subscript}"
        "  s={rewritten!r}",
    ),
    EmbedStep: _Kind(
        "inner", "u={u} alpha={alpha}  v={v} beta={beta}  image={image!r}"
    ),
}
_BY_NAME = {cls.kind: cls for cls in _KINDS}
# Each kind's own fields, in slot order, with their codecs.
_SHARED = ("presentation", "child", "bound")
_OWN = {c: [(k, _CODECS[k]) for k in c.__slots__ if k not in _SHARED] for c in _KINDS}


def _own(node: Node) -> list[tuple[str, _Codec]]:
    own = _OWN.get(type(node))
    if own is None:
        raise TypeError(f"not a certificate node: {node!r}")
    return own


def _json(value: Any, pad: str) -> str:
    """value as json.dumps(indent=2) writes it on a line indented by pad."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is list and value:
        inner = pad + "  "
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value)


def emit_certificate(root: Node) -> str:
    """The v1 document, byte for byte what json.dumps(doc, indent=2)
    writes for the nested node objects, built in one loop over the chain
    so that its depth is not limited by the interpreter's recursion
    limit."""
    parts = [f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "root": ']
    for depth, node in enumerate(walk(root), 1):
        own = _own(node)
        pad = "\n" + "  " * (depth + 1)
        presentation = encode_basestring_ascii(format_presentation(node.presentation))
        # Keys are slot names, which JSON writes as they are.
        items = [
            f'"kind": "{node.kind}"',
            f'"presentation": {presentation}',
            f'"bound": {node.bound:d}',
        ]
        for key, codec in own:
            items.append(f'"{key}": {_json(codec.write(getattr(node, key)), pad)}')
        if node.child is not None:
            items.append(f'"{_KINDS[type(node)].link}": ')
        parts.append("{" + pad + ("," + pad).join(items))
    # Close the innermost node's object first and the document last.
    parts.extend("\n" + "  " * d + "}" for d in range(depth, -1, -1))
    return "".join(parts)


def parse_certificate(text: str) -> Node:
    """Rebuild a chain from document text.

    Raises CertificateError on malformed documents; a well-formed but
    dishonest document parses fine and is left for verify_certificate to
    reject.
    """
    try:
        doc = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer too long to convert
        raise CertificateError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise CertificateError("document nested too deeply") from None
    if not isinstance(doc, dict):
        raise CertificateError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CertificateError(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    root = _need(doc, "root", dict)
    rd = _Reader()
    try:
        return _from_objects(root, rd)
    except ValueError as e:
        if isinstance(e, CertificateError):
            raise
        raise CertificateError(str(e)) from None


def _from_objects(d: dict[str, Any], rd: _Reader) -> Node:
    """Walk down the nested node objects, then build the chain from the
    leaf up."""
    path = []
    while d is not None:
        kind = _need(d, "kind", str)
        cls = _BY_NAME.get(kind)
        if cls is None:
            raise CertificateError(f"unknown node kind {kind!r}")
        path.append((cls, d))
        link = _KINDS[cls].link
        d = None if link is None else _need(d, link, dict)
    node = None
    for cls, d in reversed(path):
        p = rd.presentation(d)
        bound = _need(d, "bound", int)
        fields = [codec.read(rd, d, key) for key, codec in _OWN[cls]]
        link = () if node is None else (node,)
        node = cls(p, *fields, *link, bound)
    return node


def render_tree(root: Node) -> str:
    lines = []
    for depth, node in enumerate(walk(root)):
        f = {key: codec.write(getattr(node, key)) for key, codec in _own(node)}
        headline = _KINDS[type(node)].headline.format(**f)
        lines.append(
            f"{'  ' * depth}{node.kind}  bound={node.bound}  {headline}"
            f"  {format_presentation(node.presentation)}"
        )
    return "\n".join(lines)
