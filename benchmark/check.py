"""Independent check of one item's outputs, and the chain counts the
benchmark reports.

The check reads the emitted certificate document with the standard
``json`` module and its own reader for presentation text, and replays the
two rewriting steps with its own free reduction and rotation comparison.
It calls nothing in ``asdim``, so a fault in the package's word arithmetic
or certificate reader cannot pass it by agreeing with itself.

Letters are coded as nonzero integers: generator number k (counted from 1
in order of first appearance in the document) is k, its inverse -k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from workloads import Item


class CheckFailure(Exception):
    """An output of the package is wrong."""


@dataclass(frozen=True)
class ChainStats:
    """Counts of one certificate, all exact."""

    bound: int
    cert_bytes: int
    nodes: int
    hnn_steps: int
    embed_steps: int
    free_splits: int
    max_generators: int
    max_relator_letters: int
    max_relator_syllables: int
    json_depth: int


class _Names:
    """Codes generator names of one document as integers."""

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}

    def code(self, name: str) -> int:
        c = self.codes.get(name)
        if c is None:
            c = self.codes[name] = len(self.codes) + 1
        return c

    def word(self, text: str) -> list[int]:
        """Read a word as ``format_word`` writes it: ``1`` or space-separated
        ``name`` / ``name^e`` tokens."""
        text = text.strip()
        if text == "1":
            return []
        out: list[int] = []
        for tok in text.split():
            name, _, exp = tok.partition("^")
            e = int(exp) if exp else 1
            if e == 0 or not name:
                raise CheckFailure(f"malformed word token {tok!r}")
            c = self.code(name)
            out.extend([c if e > 0 else -c] * abs(e))
        return out

    def presentation(self, text: str) -> tuple[list[str], list[int]]:
        text = text.strip()
        if not (text.startswith("<") and text.endswith(">")) or text.count("|") != 1:
            raise CheckFailure(f"malformed presentation {text[:60]!r}")
        head, body = text[1:-1].split("|")
        gens = [g.strip() for g in head.split(",") if g.strip()]
        return gens, self.word(body)


def free_reduce(word: list[int]) -> list[int]:
    stack: list[int] = []
    for x in word:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def cyclic_core(word: list[int]) -> list[int]:
    w = free_reduce(word)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def _as_text(word: list[int]) -> str:
    # Generator codes stay far below the offset, so every letter maps to
    # one character outside the surrogate range.
    return "".join(chr(0x4000 + x) for x in word)


def same_up_to_rotation(a: list[int], b: list[int]) -> bool:
    if len(a) != len(b):
        return False
    sb = _as_text(b)
    return _as_text(a) in sb + sb


def power(gen: int, n: int) -> list[int]:
    return [gen if n > 0 else -gen] * abs(n)


def inverse(word: list[int]) -> list[int]:
    return [-x for x in reversed(word)]


def syllables(word: list[int]) -> int:
    return sum(1 for i, x in enumerate(word) if i == 0 or word[i - 1] != x)


def json_depth(doc: object) -> int:
    best, stack = 0, [(doc, 1)]
    while stack:
        obj, d = stack.pop()
        if isinstance(obj, dict):
            children = obj.values()
        elif isinstance(obj, list):
            children = obj
        else:
            continue
        best = max(best, d)
        stack.extend((c, d + 1) for c in children)
    return best


def _check_hnn(node: dict, names: _Names, parent: list[int], child: list[int]) -> None:
    """Expand the child relator through the renaming rows; it must reduce
    to the parent relator letter for letter."""
    t = names.code(node["stable"])
    rows = {names.code(f): (names.code(b), i) for f, b, i in node["renaming"]}
    expanded: list[int] = []
    for x in child:
        row = rows.get(abs(x))
        if row is None:
            raise CheckFailure("child letter without a renaming row")
        base, i = row
        expanded += power(t, i) + [base if x > 0 else -base] + power(t, -i)
    if free_reduce(expanded) != parent:
        raise CheckFailure("HNN child does not expand to the parent relator")


def _check_embed(node: dict, names: _Names, parent: list[int], inner: list[int]) -> None:
    """The image must be the parent under u -> carrier t^-beta,
    v -> t^alpha, up to rotation, and be the inner relator."""
    u, v = names.code(node["u"]), names.code(node["v"])
    t, b = names.code(node["stable"]), names.code(node["carrier"])
    alpha, beta = node["alpha"], node["beta"]
    images = {u: [b] + power(t, -beta), v: power(t, alpha)}
    out: list[int] = []
    for x in parent:
        img = images.get(abs(x), [abs(x)])
        out += img if x > 0 else inverse(img)
    image = names.word(node["image"])
    if not same_up_to_rotation(cyclic_core(out), cyclic_core(image)):
        raise CheckFailure("embedding image is not the substituted parent")
    if inner != image:
        raise CheckFailure("inner relator differs from the embedding image")


def check_item(item: Item, cert: str, reemitted: str) -> ChainStats:
    """Check one item's certificate; raise CheckFailure on any fault.

    reemitted is the certificate emitted again from the parsed chain.
    """
    if reemitted != cert:
        raise CheckFailure("emit -> parse -> emit is not byte-identical")
    doc = json.loads(cert)
    names = _Names()
    node = doc["root"]
    root_gens, root_rel = names.presentation(node["presentation"])
    want = [names.code(g) * s for g, s in item.letters]
    if root_gens != list(item.gens) or root_rel != want:
        raise CheckFailure("parsed relator differs from the generated letters")

    bound = node["bound"]
    n = len(root_rel)
    if bound > (n + 1) // 2:
        raise CheckFailure(f"bound {bound} exceeds ceil(|r|/2) = {(n + 1) // 2}")
    if len(root_gens) >= 2 and bound < 1:
        raise CheckFailure("bound 0 for a group on two or more generators")

    counts = {"case1_hnn": 0, "case2_embed": 0, "free_split": 0}
    nodes = max_gens = max_letters = max_syll = 0
    gens, rel = root_gens, root_rel
    while node is not None:
        nodes += 1
        kind = node["kind"]
        counts[kind] = counts.get(kind, 0) + 1
        max_gens = max(max_gens, len(gens))
        max_letters = max(max_letters, len(rel))
        max_syll = max(max_syll, syllables(rel))
        nxt = node.get("child", node.get("inner"))
        if nxt is None:
            break
        next_gens, next_rel = names.presentation(nxt["presentation"])
        if kind == "case1_hnn":
            _check_hnn(node, names, rel, next_rel)
        elif kind == "case2_embed":
            _check_embed(node, names, rel, next_rel)
        node, gens, rel = nxt, next_gens, next_rel
    if nodes > max(2, n):
        raise CheckFailure(f"chain has {nodes} nodes, more than max(2, |r|)")

    return ChainStats(
        bound=bound,
        cert_bytes=len(cert.encode()),
        nodes=nodes,
        hnn_steps=counts["case1_hnn"],
        embed_steps=counts["case2_embed"],
        free_splits=counts["free_split"],
        max_generators=max_gens,
        max_relator_letters=max_letters,
        max_relator_syllables=max_syll,
        json_depth=json_depth(doc),
    )
