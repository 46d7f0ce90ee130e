"""HNN rewriting and zero-sum embeddings: frozen small cases plus
randomized structural properties."""

from __future__ import annotations

from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdim import (
    EmbedStep,
    HnnStep,
    Registry,
    choose_embedding_pair,
    concat,
    exponent_sum,
    find_single_occurrence,
    find_zero_exponent,
    format_presentation,
    format_word,
    generator_power,
    hnn_rewrite,
    occurrence_count,
    parse_presentation,
    random_presentation,
    reduce_word,
    single,
    split_free_part,
    substitute,
    tally,
    zero_sum_embedding,
)
from oracles import naive_embedding_pair, naive_single_occurrence, naive_zero_exponent


def occurrences(p):
    return tally(p.relator)[0]


def sums(p):
    return tally(p.relator)[1]


def random_word_presentation(data):
    """A presentation on 2 to 6 generators whose relator is up to ten
    powers of them, drawn by hypothesis."""
    gens = "abcdef"[: data.draw(st.integers(min_value=2, max_value=6))]
    exponents = st.sampled_from((-3, -2, -1, 1, 2, 3))
    terms = data.draw(
        st.lists(st.tuples(st.sampled_from(gens), exponents), max_size=10)
    )
    word = " ".join(f"{x}^{e}" for x, e in terms) or "1"
    return parse_presentation(f"< {', '.join(gens)} | {word} >")


def names(word):
    return tuple((l.gen.name, l.sign) for l in word.letters)


def outcome(cls, fields, child):
    """A step function's fields by the slot names of the node class they
    fill, in slot order, with the next presentation as child."""
    slots = [f for f in cls.__slots__ if f not in ("presentation", "child", "bound")]
    return SimpleNamespace(**dict(zip(slots, fields, strict=True)), child=child)


def hnn(p, t, reg):
    return outcome(HnnStep, *hnn_rewrite(p, t, reg))


def embed(p, u, v, reg):
    return outcome(EmbedStep, *zero_sum_embedding(p, u, v, reg))


def expand_rewritten(rw):
    """Replay the substitution the rewrite encodes: each child letter
    x@i^s becomes (t^i x t^-i)^s over the parent alphabet, as its renaming
    row says."""
    rows = {e.fresh: e for e in rw.renaming}
    parts = []
    for l in rw.rewritten:
        row = rows[l.gen]
        parts.append(
            concat(
                generator_power(rw.stable, row.subscript),
                single(row.base, l.sign),
                generator_power(rw.stable, -row.subscript),
            )
        )
    return reduce_word(concat(*parts))


class TestSplitFreePart:
    def test_absent_generators_split_off(self):
        p = parse_presentation("< a, b, c | a c >")
        core, absent = split_free_part(p, occurrences(p))
        assert tuple(g.name for g in core.generators) == ("a", "c")
        assert [g.name for g in absent] == ["b"]
        assert core.relator == p.relator

    def test_nothing_to_split(self):
        p = parse_presentation("< a, b | a b >")
        core, absent = split_free_part(p, occurrences(p))
        assert core.generators == p.generators
        assert absent == []


class TestPivotSearch:
    def test_single_occurrence_first_in_declaration_order(self):
        p = parse_presentation("< a, b, c | b a c b >")
        g = find_single_occurrence(p, occurrences(p))
        assert g is not None and g.name == "a"

    def test_single_occurrence_counts_inverse_letters(self):
        p = parse_presentation("< a, b | b a^-1 b >")
        g = find_single_occurrence(p, occurrences(p))
        assert g is not None and g.name == "a"

    def test_no_single_occurrence(self):
        p = parse_presentation("< a | a^2 >")
        assert find_single_occurrence(p, occurrences(p)) is None

    def test_zero_exponent_first_in_declaration_order(self):
        p = parse_presentation("< a, b | a b a^-1 b^-1 >")
        g = find_zero_exponent(p, sums(p))
        assert g is not None and g.name == "a"

    def test_zero_exponent_skips_nonzero(self):
        p = parse_presentation("< a, t | t a t^-1 a^-2 >")
        g = find_zero_exponent(p, sums(p))
        assert g is not None and g.name == "t"

    def test_zero_exponent_absent(self):
        p = parse_presentation("< u, v | u^2 v^3 >")
        assert find_zero_exponent(p, sums(p)) is None

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_tally_fed_finders_match_the_letter_oracles(self, data):
        p = random_word_presentation(data)
        assert find_single_occurrence(p, occurrences(p)) == naive_single_occurrence(p)
        assert find_zero_exponent(p, sums(p)) == naive_zero_exponent(p)


class TestHnnRewrite:
    def test_torus_rewrite(self):
        reg = Registry()
        p = parse_presentation("< t, b | t b t^-1 b^-1 >", reg)
        t = p.generators[0]
        rw = hnn(p, t, reg)
        assert rw.stable == t
        assert rw.base.name == "b"
        assert names(rw.rewritten) == (("b@1", 1), ("b@0", -1))
        assert (rw.min_subscript, rw.max_subscript) == (0, 1)
        assert format_presentation(rw.child) == "< b@0, b@1 | b@1 b@0^-1 >"
        assert [(e.fresh.name, e.base.name, e.subscript) for e in rw.renaming] == [
            ("b@0", "b", 0),
            ("b@1", "b", 1),
        ]

    def test_negative_subscripts(self):
        reg = Registry()
        p = parse_presentation("< t, b | b t^-3 b t^3 >", reg)
        rw = hnn(p, p.generators[0], reg)
        assert names(rw.rewritten) == (("b@0", 1), ("b@-3", 1))
        assert (rw.min_subscript, rw.max_subscript) == (-3, 0)

    def test_stacked_stable_letters(self):
        reg = Registry()
        p = parse_presentation("< t, b | t t b t^-1 t^-1 b >", reg)
        rw = hnn(p, p.generators[0], reg)
        assert names(rw.rewritten) == (("b@2", 1), ("b@0", 1))
        assert (rw.min_subscript, rw.max_subscript) == (0, 2)

    def test_pivot_base_is_first_emitted(self):
        reg = Registry()
        p = parse_presentation("< t, b, c | c t b t^-1 b^-1 c >", reg)
        rw = hnn(p, p.generators[0], reg)
        assert rw.base.name == "c"

    def test_repeated_conjugate_is_one_atom(self):
        reg = Registry()
        p = parse_presentation("< a, t | t a t^-1 a^-1 t a t^-1 a^-1 >", reg)
        rw = hnn(p, p.generators[1], reg)
        assert names(rw.rewritten) == (("a@1", 1), ("a@0", -1)) * 2
        assert rw.rewritten is rw.child.relator
        ls = rw.rewritten.letters
        assert ls[0].gen is ls[2].gen and ls[1].gen is ls[3].gen
        assert ls[0].gen is not ls[1].gen
        assert [l.gen for l in ls[:2]] == [e.fresh for e in reversed(rw.renaming)]
        assert rw.child.generators == tuple(e.fresh for e in rw.renaming)

    def test_length_drops_by_stable_occurrences(self):
        reg = Registry()
        p = parse_presentation("< t, b | t b t^-1 b^-1 >", reg)
        rw = hnn(p, p.generators[0], reg)
        assert len(rw.rewritten) == len(p.relator) - 2

    def test_expansion_identity_frozen(self):
        reg = Registry()
        p = parse_presentation("< t, b | t t b t^-1 t^-1 b >", reg)
        rw = hnn(p, p.generators[0], reg)
        assert expand_rewritten(rw).letters == p.relator.letters

    def test_nonzero_sum_rejected(self):
        reg = Registry()
        p = parse_presentation("< t, b | t b >", reg)
        with pytest.raises(ValueError, match="nonzero"):
            hnn_rewrite(p, p.generators[0], reg)

    def test_absent_pivot_rejected(self):
        reg = Registry()
        p = parse_presentation("< t, b | b b >", reg)
        with pytest.raises(ValueError, match="fewer than two occurrences"):
            hnn_rewrite(p, p.generators[0], reg)

    def test_child_generators_ordered_by_parent_then_subscript(self):
        reg = Registry()
        p = parse_presentation("< t, b, c | t b c t^-1 b^-1 c^-1 >", reg)
        rw = hnn(p, p.generators[0], reg)
        assert [g.name for g in rw.child.generators] == [
            "b@0",
            "b@1",
            "c@0",
            "c@1",
        ]


class TestEmbeddingPair:
    def test_trefoil_pair(self):
        p = parse_presentation("< u, v | u^2 v^3 >")
        u, v = choose_embedding_pair(p, sums(p))
        assert (u.name, v.name) == ("u", "v")

    def test_ties_break_by_declaration_order(self):
        p = parse_presentation("< a, b, c | a b c a b c >")
        u, v = choose_embedding_pair(p, sums(p))
        assert (u.name, v.name) == ("a", "b")

    def test_smallest_product_wins(self):
        p = parse_presentation("< a, b, c | a^5 b^4 c^2 >")
        u, v = choose_embedding_pair(p, sums(p))
        assert (u.name, v.name) == ("b", "c")

    def test_needs_two_occurring(self):
        p = parse_presentation("< a | a^3 >")
        with pytest.raises(ValueError, match="at least two occurring"):
            choose_embedding_pair(p, sums(p))

    @pytest.mark.parametrize(
        "text, pair",
        [
            # u is not the generator of least |sum|.
            ("< a, b, c, d | a^3 b^2 c^2 d >", ("b", "d")),
            ("< a, b, c, d | a^-2 b^3 c^2 d^-3 >", ("a", "c")),
            # u has sum 0.
            ("< a, b, c | a b a^-1 b c^2 >", ("a", "b")),
            # v has sum 0.
            ("< a, b, c | a^2 b c b^-1 >", ("a", "b")),
        ],
    )
    def test_pinned_pairs(self, text, pair):
        p = parse_presentation(text)
        u, v = choose_embedding_pair(p, sums(p))
        assert (u.name, v.name) == pair

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_the_pairwise_oracle(self, data):
        p = random_word_presentation(data)
        outcomes = []
        for choose in (
            lambda: choose_embedding_pair(p, sums(p)),
            lambda: naive_embedding_pair(p),
        ):
            try:
                outcomes.append(choose())
            except ValueError as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1]


class TestZeroSumEmbedding:
    def test_trefoil_embedding(self):
        reg = Registry()
        p = parse_presentation("< u, v | u^2 v^3 >", reg)
        u, v = p.generators
        emb = embed(p, u, v, reg)
        assert (emb.alpha, emb.beta) == (2, 3)
        assert (emb.stable.name, emb.carrier.name) == ("t#1", "b#1")
        assert format_word(emb.image) == "b#1 t#1^-3 b#1 t#1^3"
        assert exponent_sum(emb.image, emb.stable) == 0
        assert occurrence_count(emb.image, emb.carrier) == 2
        assert format_presentation(emb.child) == (
            "< t#1, b#1 | b#1 t#1^-3 b#1 t#1^3 >"
        )

    def test_stable_can_vanish_from_image(self):
        reg = Registry()
        p = parse_presentation("< u, v | u v u v >", reg)
        u, v = p.generators
        emb = embed(p, u, v, reg)
        assert format_word(emb.image) == "b#1^2"
        assert occurrence_count(emb.image, emb.stable) == 0

    def test_spectator_generators_carry_over(self):
        reg = Registry()
        p = parse_presentation("< u, v, c | u v c u v c >", reg)
        u, v = choose_embedding_pair(p, sums(p))
        emb = embed(p, u, v, reg)
        assert [g.name for g in emb.child.generators] == ["t#1", "b#1", "c"]
        assert occurrence_count(emb.image, p.generators[2]) == 2

    def test_same_generator_rejected(self):
        reg = Registry()
        p = parse_presentation("< u, v | u^2 v^3 >", reg)
        u = p.generators[0]
        with pytest.raises(ValueError, match="distinct"):
            zero_sum_embedding(p, u, u, reg)

    def test_zero_sum_generator_rejected(self):
        reg = Registry()
        p = parse_presentation("< a, b | a b a^-1 b^-1 >", reg)
        a, b = p.generators
        with pytest.raises(ValueError, match="zero"):
            zero_sum_embedding(p, a, b, reg)


def _eligible_hnn(p):
    return find_zero_exponent(p, sums(p))


class TestRandomizedProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_hnn_expansion_identity_random(self, seed):
        rng = Random(seed)
        reg = Registry()
        p = random_presentation(rng, reg, max_gens=3, max_len=10)
        pivot = _eligible_hnn(p)
        if pivot is None or occurrence_count(p.relator, pivot) < 2:
            return
        if occurrence_count(p.relator, pivot) == len(p.relator):
            return
        rw = hnn(p, pivot, reg)
        assert expand_rewritten(rw).letters == p.relator.letters
        assert len(rw.rewritten) <= len(p.relator) - 2
        assert names(rw.rewritten) == tuple(
            (g.name, s) for g, s in ((l.gen, l.sign) for l in rw.child.relator)
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_embedding_image_properties_random(self, seed):
        rng = Random(seed)
        reg = Registry()
        p = random_presentation(rng, reg, max_gens=3, max_len=10)
        occurring = [g for g in p.generators if occurrence_count(p.relator, g) > 0]
        if len(occurring) < 2:
            return
        if any(exponent_sum(p.relator, g) == 0 for g in occurring):
            return
        u, v = choose_embedding_pair(p, sums(p))
        emb = embed(p, u, v, reg)
        assert exponent_sum(emb.image, emb.stable) == 0
        assert occurrence_count(emb.image, emb.carrier) == occurrence_count(
            p.relator, u
        )
        if occurrence_count(p.relator, v) >= 2:
            non_stable = len(emb.image) - occurrence_count(emb.image, emb.stable)
            assert non_stable <= len(p.relator) - 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_embedding_image_under_substitution(self, seed):
        rng = Random(seed)
        reg = Registry()
        p = random_presentation(rng, reg, max_gens=3, max_len=8)
        occurring = [g for g in p.generators if occurrence_count(p.relator, g) > 0]
        if len(occurring) < 2:
            return
        if any(exponent_sum(p.relator, g) == 0 for g in occurring):
            return
        u, v = choose_embedding_pair(p, sums(p))
        emb = embed(p, u, v, reg)
        images = {
            u: concat(single(emb.carrier), generator_power(emb.stable, -emb.beta)),
            v: generator_power(emb.stable, emb.alpha),
        }
        direct = substitute(p.relator, images)
        assert exponent_sum(direct, emb.stable) == 0
