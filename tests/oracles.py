"""Reference implementations kept deliberately naive.

These exist so the fast implementations are checked against code simple
enough to be obviously right: one cancellation per full scan, repeated
to a fixed point.
"""

from __future__ import annotations

from asdim import Letter, Registry, Word


def naive_reduce(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Freely reduce by rescanning from the start after every single
    cancellation."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == out[i + 1].inverse():
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def naive_cyclic_core(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Cyclically reduce by stripping mutually inverse end letters of the
    freely reduced word until none remain."""
    out = list(naive_reduce(letters))
    while len(out) >= 2 and out[0] == out[-1].inverse():
        out = list(naive_reduce(tuple(out[1:-1])))
    return tuple(out)


def naive_equal_as_cyclic_words(a: Word, b: Word) -> bool:
    """Compare the naive cyclic cores of a and b, trying every rotation of
    b's core."""
    ca = naive_cyclic_core(a.letters)
    cb = naive_cyclic_core(b.letters)
    if len(ca) != len(cb):
        return False
    return not ca or any(cb[k:] + cb[:k] == ca for k in range(len(cb)))


def naive_hnn_expansion(parent, child, renaming, stable) -> str | None:
    """The HNN expansion check letter by letter, as the product of
    conjugates: every child letter x^e becomes t^i base^e t^-i for its row
    (fresh, base, i), the last row for a fresh name winning, and the
    concatenation is reduced by naive_reduce and compared with the parent
    relator.  Returns None on a match, otherwise the verifier's message
    for the failed check."""
    rows = {e.fresh: e for e in renaming}
    letters: list[Letter] = []
    for l in child.letters:
        e = rows.get(l.gen)
        if e is None:
            return f"no entry for child generator {l.gen.name}"
        i = e.subscript
        image = (
            [Letter(stable, 1 if i > 0 else -1)] * abs(i)
            + [Letter(e.base, 1)]
            + [Letter(stable, -1 if i > 0 else 1)] * abs(i)
        )
        if l.sign < 0:
            image = [x.inverse() for x in reversed(image)]
        letters.extend(image)
    if naive_reduce(tuple(letters)) != parent.letters:
        return "expanded child relator differs from the parent relator"
    return None


def naive_single_occurrence(p):
    """The first generator, in declaration order, that occurs exactly once
    in the relator, counted letter by letter for each generator."""
    for g in p.generators:
        if sum(1 for l in p.relator.letters if l.gen == g) == 1:
            return g
    return None


def naive_zero_exponent(p):
    """The first generator, in declaration order, that occurs in the
    relator with exponent sum zero, summed letter by letter for each
    generator."""
    for g in p.generators:
        signs = [l.sign for l in p.relator.letters if l.gen == g]
        if signs and sum(signs) == 0:
            return g
    return None


def naive_embedding_pair(p):
    """The ordered pair (u, v) of occurring generators minimizing
    |alpha * beta|, ties broken by declaration order of u and then v,
    found by comparing every ordered pair, with the exponent sums taken
    letter by letter."""
    sums = {}
    for l in p.relator.letters:
        sums[l.gen] = sums.get(l.gen, 0) + l.sign
    occurring = [g for g in p.generators if g in sums]
    if len(occurring) < 2:
        raise ValueError("embedding needs at least two occurring generators")
    best = None
    pair = None
    for iu, u in enumerate(occurring):
        for iv, v in enumerate(occurring):
            if u == v:
                continue
            key = (abs(sums[u] * sums[v]), iu, iv)
            if best is None or key < best:
                best, pair = key, (u, v)
    assert pair is not None
    return pair


def naive_bound(root) -> int:
    """The dimension bound a chain certifies, from its structure alone and
    ignoring every stored bound: a free group of rank r has dimension
    min(r, 1), a finite cyclic group 0, a free split takes the max with 1,
    an HNN step adds 1 and an embedding passes the bound through."""
    chain = []
    node = root
    while node is not None:
        chain.append(node)
        node = getattr(node, "child", None)
    bound = 0
    for node in reversed(chain):
        kind = type(node).__name__
        if kind == "FreeLeaf":
            bound = min(node.rank, 1)
        elif kind == "CyclicLeaf":
            bound = 0
        elif kind == "SingleElim":
            bound = min(node.rank, 1)
        elif kind == "FreeSplit":
            bound = max(bound, 1) if node.split_off_rank else bound
        elif kind == "HnnStep":
            bound += 1
        elif kind != "EmbedStep":
            raise TypeError(f"not a chain node: {node!r}")
    return bound


def naive_word(text: str) -> list[tuple[str, int]]:
    """The letters of a word in the presentation grammar, as (name, sign)
    pairs, read one character at a time: every power is written out
    letter by letter and nothing cancels.  Names may carry "@" and "#"
    segments.  Only well-formed text is expected."""
    out: list[tuple[str, int]] = []
    i = 0

    def skip() -> None:
        nonlocal i
        while i < len(text) and text[i].isspace():
            i += 1

    def name() -> str:
        nonlocal i
        start = i
        while i < len(text) and (
            text[i].isalnum()
            or text[i] in "_@#"
            or (text[i] == "-" and text[i - 1] in "@#")
        ):
            i += 1
        return text[start:i]

    def power() -> int:
        nonlocal i
        skip()
        if i == len(text) or text[i] != "^":
            return 1
        i += 1
        skip()
        sign = 1
        if text[i] == "-":
            sign = -1
            i += 1
            skip()
        digits = ""
        while i < len(text) and text[i].isdigit():
            digits += text[i]
            i += 1
        return sign * int(digits)

    skip()
    if text[i:].strip() == "1":
        return out
    while True:
        skip()
        if i == len(text):
            return out
        if text[i] == "[":
            i += 1
            skip()
            x = name()
            skip()
            i += 1  # ","
            skip()
            y = name()
            skip()
            i += 1  # "]"
            once = [(x, 1), (y, 1), (x, -1), (y, -1)]
        else:
            once = [(name(), 1)]
        n = power()
        if n < 0:
            once = [(g, -s) for g, s in reversed(once)]
        for _ in range(abs(n)):
            for letter in once:
                out.append(letter)


def naive_parse(text: str) -> list[tuple[str, int]]:
    """The relator of presentation text "< gens | word >" as (name, sign)
    pairs: naive_word, then naive_cyclic_core."""
    body = text[text.index("|") + 1 :].strip()
    if body.endswith(">"):
        body = body[:-1]
    reg = Registry()
    gens: dict[str, object] = {}
    letters = []
    for n, s in naive_word(body):
        if n not in gens:
            gens[n] = reg.declare(n)
        letters.append(Letter(gens[n], s))
    return [(l.gen.name, l.sign) for l in naive_cyclic_core(tuple(letters))]
