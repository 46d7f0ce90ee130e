"""Byte-level regression gate for refactors.

One SHA-256 covers, for every input of a fixed corpus, the certificate,
the rendered chain and the verification report of the built chain and of
the chain parsed back from its certificate, plus best_tower's certificate
and towers_examined on the shorter inputs.  A refactor that is meant to
leave every output unchanged must leave the digest unchanged; a change
that alters output on purpose restates GOLDEN and says why.  The corpus
is exhaustive or a fixed family, with no random draws, so the digest does
not depend on the interpreter version.  A second SHA-256, DEEP_GOLDEN,
covers the certificate of one deep chain on its own.
"""

from __future__ import annotations

import hashlib

from asdim import (
    Presentation,
    Registry,
    all_cyclically_reduced_words,
    best_tower,
    build_tower,
    emit_certificate,
    format_presentation,
    parse_certificate,
    parse_presentation,
    render_tree,
    verify_certificate,
)

GOLDEN = "88b5e5157b7e0111a6bd93e2588b784d791a75bb23953393e581222f265f7c2e"

# The certificate of < a, b | b^-1 a^600 b^-1 a^600 >: 1,201 nodes and
# 26,324,165 bytes, the one chain here deeper than the corpus reaches.
DEEP_TEXT = "< a, b | b^-1 a^600 b^-1 a^600 >"
DEEP_GOLDEN = "d93b9130b41922ce0f7d4b0f5c87e5a4793dcb7cdd8230e1980d62650a6b099d"

BEST_TOWER_MAX_LEN = 5


def corpus() -> list[str]:
    """Every cyclically reduced relator with |r| <= 7 on a, b and with
    |r| <= 5 on a, b, c, then < a, b | b^-1 a^k b^-1 a^k > for k = 1..15."""
    texts = []
    for names, max_len in (("ab", 7), ("abc", 5)):
        reg = Registry()
        gens = tuple(reg.declare(n) for n in names)
        for length in range(1, max_len + 1):
            for w in all_cyclically_reduced_words(gens, length):
                texts.append(format_presentation(Presentation(gens, w)))
    texts += [f"< a, b | b^-1 a^{k} b^-1 a^{k} >" for k in range(1, 16)]
    return texts


def outputs(text: str) -> list[str]:
    """What the digest covers for one input, each chain in a registry of
    its own so that invented names do not depend on the corpus order."""
    reg = Registry()
    p = parse_presentation(text, reg)
    root = build_tower(p, reg)
    cert = emit_certificate(root)
    parsed = parse_certificate(cert)
    out = [text, cert, render_tree(root), str(verify_certificate(root))]
    out += [emit_certificate(parsed), render_tree(parsed), str(verify_certificate(parsed))]
    if len(p.relator) <= BEST_TOWER_MAX_LEN:
        best, examined = best_tower(p, reg)
        out += [emit_certificate(best), str(examined)]
    return out


def test_corpus_outputs_are_byte_identical():
    digest = hashlib.sha256()
    for text in corpus():
        for part in outputs(text):
            digest.update(part.encode())
            digest.update(b"\0")
    assert digest.hexdigest() == GOLDEN


def test_deep_chain_certificate_is_byte_identical():
    reg = Registry()
    cert = emit_certificate(build_tower(parse_presentation(DEEP_TEXT, reg), reg))
    assert len(cert) == 26_324_165
    assert hashlib.sha256(cert.encode()).hexdigest() == DEEP_GOLDEN
