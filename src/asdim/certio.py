"""Certificate documents: a deterministic JSON form of a decomposition
chain, a parser that reconstructs a chain the verifier can replay, and a
plain-text tree rendering.

The document is integers and strings only, keys in a fixed order, so
emitting, parsing, and emitting again is byte-identical.  Generator
identity inside one document is by display name; names invented by the
engine are unique within a chain by construction.

Each node kind is one entry of the _KINDS table: its own keys in
document order, the key linking it to the next node, and its rendered
headline.  A key names the node field it holds, and the keys come in the
order of the node's slots.  Each key has one of four field codecs,
which write a field as a v1 value and read it back:

    _INT    an integer                          2
    _GEN    a generator, as its name            "b@0"
    _WORD   a word, in presentation syntax      "b@1 b@0^-1"
    _ROWS   renaming rows [fresh, base, i]      [["b@0", "b", 0]]

emit, parse and render loop over the chain with the table.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple

from .presentations import (
    Presentation,
    format_presentation,
    parse_presentation,
    parse_word,
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
from .words import Generator, Registry, Word, format_word

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


def _need(d: dict[str, Any], key: str, kind: type) -> Any:
    if key not in d:
        raise CertificateError(f"missing field {key!r}")
    value = d[key]
    if kind is int and isinstance(value, bool):
        raise CertificateError(f"field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise CertificateError(f"field {key!r} must be {kind.__name__}")
    return value


class _Reader:
    """Reads the fields of one document.  Generator identity is by display
    name throughout the document, so every name is interned once."""

    def __init__(self, registry: Registry) -> None:
        self.registry = registry
        self.table: dict[str, Generator] = {}

    def intern(self, name: str) -> Generator:
        g = self.table.get(name)
        if g is None:
            g = self.table[name] = self.registry.declare(name)
        return g

    def gen(self, d: dict[str, Any], key: str) -> Generator:
        return self.intern(_need(d, key, str))

    def word(self, d: dict[str, Any], key: str) -> Word:
        return parse_word(_need(d, key, str), lambda name, pos: self.intern(name))

    def presentation(self, d: dict[str, Any]) -> Presentation:
        return parse_presentation(_need(d, "presentation", str), intern=self.intern)

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
_GEN = _Codec(lambda g: g.name, _Reader.gen)
_WORD = _Codec(format_word, _Reader.word)
_ROWS = _Codec(
    lambda rows: [[e.fresh.name, e.base.name, e.subscript] for e in rows],
    _Reader.renaming,
)


class _Kind(NamedTuple):
    """How one node kind is written in a v1 document."""

    link: str | None  # key of the next node's object; None for a leaf
    keys: dict[str, _Codec]  # the kind's own fields, in key and slot order
    headline: str  # render_tree text, a format string over the emitted fields


_KINDS: dict[type, _Kind] = {
    FreeLeaf: _Kind(None, {"rank": _INT}, "rank={rank}"),
    CyclicLeaf: _Kind(None, {"order": _INT}, "order={order}"),
    SingleElim: _Kind(
        None,
        {"eliminated": _GEN, "rank": _INT},
        "eliminate={eliminated}  rank={rank}",
    ),
    FreeSplit: _Kind(
        "child", {"split_off_rank": _INT}, "split_off_rank={split_off_rank}"
    ),
    HnnStep: _Kind(
        "child",
        {
            "stable": _GEN,
            "base": _GEN,
            "rewritten": _WORD,
            "min_subscript": _INT,
            "max_subscript": _INT,
            "renaming": _ROWS,
        },
        "stable={stable}  base={base}  subscripts={min_subscript}..{max_subscript}"
        "  s={rewritten!r}",
    ),
    EmbedStep: _Kind(
        "inner",
        {
            "u": _GEN,
            "v": _GEN,
            "alpha": _INT,
            "beta": _INT,
            "stable": _GEN,
            "carrier": _GEN,
            "image": _WORD,
        },
        "u={u} alpha={alpha}  v={v} beta={beta}  image={image!r}",
    ),
}
_BY_NAME = {cls.kind: cls for cls in _KINDS}


def _fields(node: Node) -> dict[str, Any]:
    """The node's v1 object without its link to the next node."""
    spec = _KINDS.get(type(node))
    if spec is None:
        raise TypeError(f"not a certificate node: {node!r}")
    fields = {
        "kind": node.kind,
        "presentation": format_presentation(node.presentation),
        "bound": node.bound,
    }
    for key, codec in spec.keys.items():
        fields[key] = codec.write(getattr(node, key))
    return fields


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
        pad = "\n" + "  " * (depth + 1)
        items = [
            f"{encode_basestring_ascii(k)}: {_json(v, pad)}"
            for k, v in _fields(node).items()
        ]
        if node.child is not None:
            items.append(encode_basestring_ascii(_KINDS[type(node)].link) + ": ")
        parts.append("{" + pad + ("," + pad).join(items))
    # Close the innermost node's object first and the document last.
    parts.extend("\n" + "  " * d + "}" for d in range(depth, -1, -1))
    return "".join(parts)


def parse_certificate(text: str, registry: Registry | None = None) -> Node:
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
    rd = _Reader(registry if registry is not None else Registry())
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
        fields = [codec.read(rd, d, key) for key, codec in _KINDS[cls].keys.items()]
        link = () if node is None else (node,)
        node = cls(p, *fields, *link, bound)
    return node


def render_tree(root: Node) -> str:
    lines = []
    for depth, node in enumerate(walk(root)):
        f = _fields(node)
        headline = _KINDS[type(node)].headline.format(**f)
        lines.append(
            f"{'  ' * depth}{node.kind}  bound={node.bound}  {headline}"
            f"  {f['presentation']}"
        )
    return "\n".join(lines)
