"""Acceptance gate.

One test per acceptance criterion, named for what it establishes.  Each
test finishes by printing a single PASS line so a verbose or captured
run reads as a checklist.
"""

from __future__ import annotations

from random import Random

from asdim import (
    CyclicLeaf,
    EmbedStep,
    FreeLeaf,
    FreeSplit,
    HnnStep,
    Letter,
    Presentation,
    Registry,
    SingleElim,
    Word,
    all_cyclically_reduced_words,
    build_tower,
    ceil_half,
    concat,
    exponent_sum,
    format_presentation,
    generator_power,
    hnn_rewrite,
    occurrence_count,
    parse_presentation,
    random_presentation,
    reduce_word,
    single,
    summarize,
    verify_certificate,
    walk,
)
from oracles import naive_reduce

RANDOM_SEED = 20240817


def _passed(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_exhaustive_small_scale_bound_and_verification():
    """Every cyclically reduced relator of length 1..8 over two
    generators satisfies the half-length bound and verifies."""
    reg = Registry()
    a = reg.declare("a")
    b = reg.declare("b")
    checked = 0
    for length in range(1, 9):
        for w in all_cyclically_reduced_words((a, b), length):
            p = Presentation((a, b), w)
            root = build_tower(p, reg)
            assert root.bound <= ceil_half(length), format_presentation(p)
            report = verify_certificate(root)
            assert report.ok, f"{format_presentation(p)}: {report}"
            checked += 1
    assert checked == sum(
        1
        for length in range(1, 9)
        for _ in all_cyclically_reduced_words((a, b), length)
    )
    empty = build_tower(Presentation((a, b), Word(())), reg)
    assert verify_certificate(empty).ok
    _passed(
        f"exhaustive sweep, {checked} relators of length <= 8 over 2 generators"
    )


def test_random_scale_bound_and_verification():
    """10,000 seeded random relators, length <= 12, <= 4 generators:
    half-length bound holds and every certificate verifies."""
    rng = Random(RANDOM_SEED)
    violations = 0
    for _ in range(10_000):
        reg = Registry()
        p = random_presentation(rng, reg, max_gens=4, max_len=12)
        root = build_tower(p, reg)
        if root.bound > ceil_half(len(p.relator)) or not verify_certificate(root).ok:
            violations += 1
    assert violations == 0
    _passed("random sweep, 10000 relators of length <= 12 over <= 4 generators")


def test_torus_presentation():
    """The commutator relator gives both bounds equal to 2 through
    exactly one HNN step whose child relator has length |r| - 2."""
    reg = Registry()
    p = parse_presentation("< a, b | a b a^-1 b^-1 >", reg)
    root = build_tower(p, reg)
    report = summarize(root)
    assert report.length_bound == 2
    assert report.tower_bound == 2
    assert report.hnn_steps == 1
    assert isinstance(root, HnnStep)
    assert len(root.child.presentation.relator) == len(p.relator) - 2 == 2
    assert verify_certificate(root).ok
    _passed("torus relator: both bounds 2, one HNN step, child length 2")


def test_trefoil_presentation():
    """u^2 v^3 embeds, then one HNN step and one elimination; the tower
    certifies 2 against the half-length bound of 3."""
    reg = Registry()
    p = parse_presentation("< u, v | u^2 v^3 >", reg)
    root = build_tower(p, reg)
    report = summarize(root)
    assert report.length_bound == 3
    assert report.tower_bound == 2
    kinds = [type(n) for n in walk(root)]
    assert kinds == [EmbedStep, HnnStep, SingleElim]
    assert verify_certificate(root).ok
    _passed("trefoil relator: bound 2 via embed, HNN, elimination")


def test_baumslag_solitar_family():
    """t a^m t^-1 a^-n for 1 <= m, n <= 4: the root is an HNN step, the
    tower respects the half-length bound, and every run verifies.  The
    pivot is t except when m = n, where a also has sum zero and is
    declared first."""
    for m in range(1, 5):
        for n in range(1, 5):
            reg = Registry()
            text = f"< a, t | t a^{m} t^-1 a^-{n} >"
            p = parse_presentation(text, reg)
            root = build_tower(p, reg)
            assert isinstance(root, HnnStep), text
            expected_pivot = "a" if m == n else "t"
            assert root.stable.name == expected_pivot, text
            assert root.bound <= ceil_half(m + n + 2), text
            assert verify_certificate(root).ok, text
    _passed("Baumslag-Solitar family m, n in 1..4: HNN root, bound holds")


def test_genus_two_surface_group():
    """[a,b][c,d] has length 8; the tower certifies at most 4 and
    verifies."""
    reg = Registry()
    p = parse_presentation("< a, b, c, d | [a, b] [c, d] >", reg)
    root = build_tower(p, reg)
    report = summarize(root)
    assert len(p.relator) == 8
    assert report.length_bound == 4
    assert report.tower_bound <= 4
    assert verify_certificate(root).ok
    _passed(
        f"genus-2 surface relator: tower bound {report.tower_bound} <= 4"
    )


def test_hnn_expansion_identity_random_pairs():
    """For 1,000 random eligible (relator, pivot) pairs, replacing each
    child letter x@i by t^i x t^-i, as its renaming row says, and freely
    reducing reproduces the relator letter for letter, and |s| <= |r| - 2."""
    rng = Random(RANDOM_SEED + 1)
    pairs = 0
    while pairs < 1_000:
        reg = Registry()
        p = random_presentation(rng, reg, max_gens=3, max_len=12)
        r = p.relator
        for g in p.generators:
            occ = occurrence_count(r, g)
            if occ < 2 or occ == len(r) or exponent_sum(r, g) != 0:
                continue
            (t, _, s, _, _, renaming), _ = hnn_rewrite(p, g, reg)
            rows = {e.fresh: e for e in renaming}
            parts = [
                concat(
                    generator_power(t, rows[l.gen].subscript),
                    single(rows[l.gen].base, l.sign),
                    generator_power(t, -rows[l.gen].subscript),
                )
                for l in s
            ]
            assert reduce_word(concat(*parts)).letters == r.letters
            assert len(s) <= len(r) - 2
            pairs += 1
            if pairs == 1_000:
                break
    _passed("HNN expansion identity on 1000 random (relator, pivot) pairs")


def _tamper_cases():
    """One mutant per recorded field per node kind, as (label, honest
    node, mutant).  Every mutant must be rejected by the verifier."""
    cases = []

    def add(label, honest, node):
        cases.append((label, honest, node))

    def pres(node, text, reg):
        return node._replace(presentation=parse_presentation(text, reg))

    reg = Registry()
    free = build_tower(parse_presentation("< a, b | 1 >", reg), reg)
    add("free_leaf bound", free, free._replace(bound=free.bound + 1))
    add("free_leaf rank", free, free._replace(rank=free.rank + 1))
    add("free_leaf presentation", free, pres(free, "< a, b | a >", Registry()))

    reg = Registry()
    cyclic = build_tower(parse_presentation("< a | a^4 >", reg), reg)
    add("cyclic_leaf bound", cyclic, cyclic._replace(bound=1))
    add("cyclic_leaf order", cyclic, cyclic._replace(order=cyclic.order + 1))
    add("cyclic_leaf presentation", cyclic, pres(cyclic, "< a | a^5 >", Registry()))

    reg = Registry()
    elim = build_tower(parse_presentation("< a, b | b a b >", reg), reg)
    add("single_elim bound", elim, elim._replace(bound=elim.bound + 1))
    add("single_elim rank", elim, elim._replace(rank=elim.rank + 1))
    add(
        "single_elim eliminated",
        elim,
        elim._replace(eliminated=elim.presentation.generators[1]),
    )
    foreign = Registry().declare("z")
    add("single_elim foreign", elim, elim._replace(eliminated=foreign))
    add(
        "single_elim presentation",
        elim,
        pres(elim, "< a, b | b a b a >", Registry()),
    )

    reg = Registry()
    split = build_tower(parse_presentation("< a, b | a^3 >", reg), reg)
    add("free_split bound", split, split._replace(bound=split.bound + 1))
    add(
        "free_split rank",
        split,
        split._replace(split_off_rank=split.split_off_rank + 1),
    )
    add("free_split presentation", split, pres(split, "< a, b | a^2 b >", Registry()))
    bad_child = split.child._replace(
        presentation=Presentation(
            split.child.presentation.generators,
            Word(split.child.presentation.relator.letters[:-1]),
        ),
    )
    add("free_split child relator", split, split._replace(child=bad_child))

    reg = Registry()
    hnn = build_tower(parse_presentation("< a, b | a b a^-1 b^-1 >", reg), reg)
    add("case1_hnn bound", hnn, hnn._replace(bound=hnn.bound + 1))
    add("case1_hnn stable", hnn, hnn._replace(stable=hnn.base))
    add("case1_hnn base", hnn, hnn._replace(base=hnn.stable))
    add(
        "case1_hnn rewritten",
        hnn,
        hnn._replace(rewritten=Word(hnn.rewritten.letters[1:], reduced=True)),
    )
    add(
        "case1_hnn min_subscript",
        hnn,
        hnn._replace(min_subscript=hnn.min_subscript - 1),
    )
    add(
        "case1_hnn max_subscript",
        hnn,
        hnn._replace(max_subscript=hnn.max_subscript + 1),
    )
    shifted = (
        hnn.renaming[0],
        hnn.renaming[1]._replace(subscript=hnn.renaming[1].subscript + 1),
    )
    add("case1_hnn renaming subscript", hnn, hnn._replace(renaming=shifted))
    swapped = (hnn.renaming[0]._replace(base=hnn.stable), hnn.renaming[1])
    add("case1_hnn renaming base", hnn, hnn._replace(renaming=swapped))
    hnn_bad_child = hnn.child._replace(
        presentation=Presentation(
            hnn.child.presentation.generators,
            Word(
                tuple(
                    Letter(l.gen, -l.sign)
                    for l in hnn.child.presentation.relator.letters
                )
            ),
        ),
    )
    add("case1_hnn child relator", hnn, hnn._replace(child=hnn_bad_child))
    add(
        "case1_hnn presentation",
        hnn,
        pres(hnn, "< a, b | a b a^-1 b >", Registry()),
    )

    reg = Registry()
    emb = build_tower(parse_presentation("< u, v | u^2 v^3 >", reg), reg)
    add("case2_embed bound", emb, emb._replace(bound=emb.bound + 1))
    add("case2_embed u", emb, emb._replace(u=emb.v))
    add("case2_embed v", emb, emb._replace(v=emb.u))
    add("case2_embed alpha", emb, emb._replace(alpha=emb.alpha + 1))
    add("case2_embed beta", emb, emb._replace(beta=emb.beta - 1))
    add(
        "case2_embed stable",
        emb,
        emb._replace(stable=emb.carrier, carrier=emb.stable),
    )
    add("case2_embed carrier", emb, emb._replace(carrier=Registry().declare("c")))
    add(
        "case2_embed image",
        emb,
        emb._replace(image=Word(emb.image.letters[1:], reduced=True)),
    )
    inner_bad = emb.child._replace(
        presentation=Presentation(
            emb.child.presentation.generators,
            Word(emb.child.presentation.relator.letters[:-1]),
        ),
    )
    add("case2_embed inner relator", emb, emb._replace(child=inner_bad))
    add(
        "case2_embed presentation",
        emb,
        pres(emb, "< u, v | u^2 v^2 >", Registry()),
    )
    return cases


def test_tamper_suite_every_field_mutation_is_rejected():
    """Single-field corruptions of valid certificates, one per recorded
    field per node kind, are all rejected."""
    cases = _tamper_cases()
    undetected = [
        label for label, _, node in cases if verify_certificate(node).ok
    ]
    assert undetected == []
    _passed(f"tamper suite: {len(cases)} single-field corruptions all rejected")


def test_tamper_suite_changes_every_field_of_every_kind():
    """For every node kind, the tamper cases between them change each of
    the kind's fields except child, which is a node of its own kind."""
    changed = {}
    for _, honest, node in _tamper_cases():
        fields = changed.setdefault(type(node), set())
        for name in type(node).__slots__:
            if getattr(node, name) != getattr(honest, name):
                fields.add(name)
    kinds = {FreeLeaf, CyclicLeaf, SingleElim, FreeSplit, HnnStep, EmbedStep}
    assert set(changed) == kinds
    missed = {
        cls.kind: sorted(set(cls.__slots__) - {"child"} - fields)
        for cls, fields in changed.items()
    }
    assert missed == {cls.kind: [] for cls in kinds}
    _passed("tamper suite: every field of every kind but child is changed")


def test_reduction_agrees_with_naive_oracle():
    """Stack-scan reduction agrees with the repeated-rescan oracle on
    10,000 random words of length <= 40."""
    rng = Random(RANDOM_SEED + 2)
    reg = Registry()
    gens = tuple(reg.declare(n) for n in "abc")
    alphabet = [Letter(g, s) for g in gens for s in (1, -1)]
    for _ in range(10_000):
        length = rng.randint(0, 40)
        w = Word(tuple(alphabet[rng.randrange(6)] for _ in range(length)))
        assert reduce_word(w).letters == naive_reduce(w.letters)
    _passed("stack reduction vs naive oracle on 10000 words of length <= 40")
