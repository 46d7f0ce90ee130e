"""Word arithmetic: frozen examples plus properties against the naive
oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdim import (
    EMPTY_WORD,
    Letter,
    Registry,
    Word,
    concat,
    cyclic_reduce,
    equal_as_cyclic_words,
    exponent_sum,
    format_word,
    generator_power,
    inverse,
    occurrence_count,
    reduce_word,
    single,
    substitute,
)
from oracles import naive_cyclic_core, naive_equal_as_cyclic_words, naive_reduce

REG = Registry()
A = REG.declare("a")
B = REG.declare("b")
C = REG.declare("c")
GENS = (A, B, C)

letters = st.builds(
    Letter, st.sampled_from(GENS), st.sampled_from((1, -1))
)
words = st.lists(letters, max_size=30).map(lambda ls: Word(tuple(ls)))


def w(text: str) -> Word:
    """Tiny builder: space-separated tokens like 'a b^-1'."""
    out = []
    for tok in text.split():
        if "^" in tok:
            name, exp = tok.split("^")
            sign = 1 if int(exp) > 0 else -1
            count = abs(int(exp))
        else:
            name, sign, count = tok, 1, 1
        gen = {"a": A, "b": B, "c": C}[name]
        out.extend([Letter(gen, sign)] * count)
    return Word(tuple(out))


class TestFrozenExamples:
    def test_reduce_cancels_adjacent_pair(self):
        assert reduce_word(w("a a^-1")).letters == ()

    def test_reduce_inner_pair_exposes_outer(self):
        assert reduce_word(w("a b b^-1 a")) == w("a a")

    def test_reduce_already_reduced_is_flagged(self):
        r = reduce_word(w("a b"))
        assert r.reduced
        assert reduce_word(r) is r

    def test_cyclic_reduce_strips_conjugation(self):
        assert cyclic_reduce(w("a b a^-1")) == w("b")

    def test_cyclic_reduce_of_cyclically_reduced_word(self):
        assert cyclic_reduce(w("a b a^-1 b^-1")) == w("a b a^-1 b^-1")

    def test_exponent_sum_and_occurrences(self):
        r = w("a b a^-1 b^-1")
        assert exponent_sum(r, A) == 0
        assert occurrence_count(r, A) == 2
        assert exponent_sum(w("a a b"), A) == 2
        assert occurrence_count(w("a a b"), C) == 0

    def test_generator_power(self):
        assert generator_power(A, 3) == w("a a a")
        assert generator_power(A, -2) == w("a^-1 a^-1")
        assert generator_power(A, 0) == EMPTY_WORD

    def test_inverse_reverses_and_flips(self):
        assert inverse(w("a b^-1")) == w("b a^-1")

    def test_substitute_frozen_example(self):
        reg = Registry()
        u, v, t, b = (reg.declare(n) for n in "uvtb")
        images = {
            u: concat(single(b), generator_power(t, -3)),
            v: generator_power(t, 2),
        }
        got = substitute(Word(tuple([Letter(u, 1)] * 2 + [Letter(v, 1)] * 3)), images)
        expected = concat(
            single(b), generator_power(t, -3), single(b), generator_power(t, 3)
        )
        assert got == expected

    def test_substitute_inverse_letter_uses_inverse_image(self):
        images = {A: w("b c")}
        assert substitute(w("a^-1"), images) == w("c^-1 b^-1")

    def test_format_word(self):
        assert format_word(EMPTY_WORD) == "1"
        assert format_word(w("a a a")) == "a^3"
        assert format_word(w("a b^-1 b^-1")) == "a b^-2"
        assert format_word(w("a")) == "a"

    def test_equal_as_cyclic_words_rotation(self):
        assert equal_as_cyclic_words(w("a b c"), w("c a b"))
        assert not equal_as_cyclic_words(w("a b c"), w("b a c"))

    def test_equal_as_cyclic_words_conjugate(self):
        assert equal_as_cyclic_words(w("a b"), w("c a b c^-1"))


class TestRegistry:
    def test_declare_mints_distinct_atoms(self):
        reg = Registry()
        g1 = reg.declare("x")
        g2 = reg.declare("x")
        assert g1 != g2
        assert g1.name == g2.name == "x"

    def test_declare_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Registry().declare("")

    def test_embedding_pair_counts_per_registry(self):
        reg = Registry()
        t1, b1 = reg.embedding_pair()
        t2, b2 = reg.embedding_pair()
        assert (t1.name, b1.name) == ("t#1", "b#1")
        assert (t2.name, b2.name) == ("t#2", "b#2")
        other = Registry()
        t, b = other.embedding_pair()
        assert (t.name, b.name) == ("t#1", "b#1")


class TestProperties:
    @given(words)
    def test_reduce_matches_naive_oracle(self, word):
        assert reduce_word(word).letters == naive_reduce(word.letters)

    @given(words)
    def test_reduce_is_idempotent(self, word):
        once = reduce_word(word)
        assert reduce_word(once) == once

    @given(words)
    def test_word_times_inverse_is_trivial(self, word):
        assert reduce_word(concat(word, inverse(word))) == EMPTY_WORD

    @given(words)
    def test_reduction_removes_letters_in_pairs(self, word):
        dropped = len(word) - len(reduce_word(word))
        assert dropped >= 0
        assert dropped % 2 == 0

    @given(words, words)
    def test_exponent_sum_additive_over_concat(self, x, y):
        for g in GENS:
            assert exponent_sum(concat(x, y), g) == exponent_sum(
                x, g
            ) + exponent_sum(y, g)

    @given(words)
    def test_exponent_sum_invariant_under_reduction(self, word):
        for g in GENS:
            assert exponent_sum(reduce_word(word), g) == exponent_sum(word, g)
            assert exponent_sum(cyclic_reduce(word), g) == exponent_sum(
                word, g
            )

    @given(words)
    def test_cyclic_core_matches_naive_oracle(self, word):
        assert cyclic_reduce(word).letters == naive_cyclic_core(word.letters)

    @given(words)
    def test_cyclic_core_is_cyclically_reduced(self, word):
        core = cyclic_reduce(word)
        assert reduce_word(core) == core
        if len(core) >= 2:
            assert core.letters[0] != core.letters[-1].inverse()

    @given(words, st.integers(min_value=0, max_value=29))
    def test_cyclic_core_invariant_under_rotation(self, word, k):
        if not word.letters:
            return
        k %= len(word)
        rotated = Word(word.letters[k:] + word.letters[:k])
        assert equal_as_cyclic_words(word, rotated)

    @settings(max_examples=300)
    @given(
        st.lists(letters, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=5),
        words,
        st.sampled_from(("rotation", "altered", "other")),
        st.integers(min_value=0, max_value=40),
        letters,
    )
    def test_cyclic_equality_matches_all_rotations_oracle(
        self, period, repeats, other, how, k, l
    ):
        # Powers of a short word have long borders, which the prefix
        # function has to follow.
        word = Word(tuple(period) * repeats)
        if how == "other":
            rhs = other
        else:
            ls = word.letters
            k %= len(ls)
            ls = ls[k:] + ls[:k]
            if how == "altered":
                ls = ls[:-1] + (l,)
            rhs = Word(ls)
        assert equal_as_cyclic_words(word, rhs) == naive_equal_as_cyclic_words(
            word, rhs
        )

    @given(words, letters)
    def test_cyclic_equality_absorbs_conjugation(self, word, l):
        conj = Word((l,))
        assert equal_as_cyclic_words(word, concat(conj, word, inverse(conj)))

    @given(words, words)
    def test_substitute_is_a_homomorphism(self, x, y):
        reg = Registry()
        p = reg.declare("p")
        q = reg.declare("q")
        images = {A: w("a b"), B: single(q), C: concat(single(p), single(q, -1))}
        lhs = substitute(concat(x, y), images)
        rhs = reduce_word(concat(substitute(x, images), substitute(y, images)))
        assert lhs == rhs

    @given(words)
    def test_substitute_identity_images_reduces(self, word):
        for images in ({g: single(g) for g in GENS}, {}):
            assert substitute(word, images) == reduce_word(word)

    @given(words, st.dictionaries(st.sampled_from(GENS), words))
    def test_substitute_partial_map_is_completed_by_identity(self, word, images):
        completed = {g: single(g) for g in GENS} | images
        assert substitute(word, images) == substitute(word, completed)

    @settings(max_examples=50)
    @given(words)
    def test_format_is_parseable_shape(self, word):
        text = format_word(word)
        assert text
        assert "  " not in text
