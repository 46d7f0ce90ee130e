"""Presentation parsing, normalization, formatting, and error reporting."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdim import presentations
from asdim import (
    CertificateError,
    EmptyGeneratorsError,
    Letter,
    ParseError,
    Presentation,
    Registry,
    UnknownGeneratorError,
    Word,
    build_tower,
    emit_certificate,
    format_presentation,
    letters_of,
    parse_certificate,
    parse_presentation,
)
from oracles import naive_parse


def names(word):
    return tuple((l.gen.name, l.sign) for l in word.letters)


class TestParsing:
    def test_torus_relator(self):
        p = parse_presentation("< a, b | a b a^-1 b^-1 >")
        assert tuple(g.name for g in p.generators) == ("a", "b")
        assert names(p.relator) == (("a", 1), ("b", 1), ("a", -1), ("b", -1))

    def test_powers_expand(self):
        p = parse_presentation("< u, v | u^2 v^3 >")
        assert names(p.relator) == (("u", 1),) * 2 + (("v", 1),) * 3

    def test_negative_power(self):
        p = parse_presentation("< a | a^-2 >")
        assert names(p.relator) == (("a", -1), ("a", -1))

    def test_zero_power_contributes_nothing(self):
        p = parse_presentation("< a, b | a^0 b >")
        assert names(p.relator) == (("b", 1),)

    def test_commutator_sugar(self):
        left = parse_presentation("< a, b | [a, b] >")
        right = parse_presentation("< a, b | a b a^-1 b^-1 >")
        assert names(left.relator) == names(right.relator)

    def test_commutator_power(self):
        p = parse_presentation("< a, b | [a, b]^2 >")
        base = (("a", 1), ("b", 1), ("a", -1), ("b", -1))
        assert names(p.relator) == base + base

    def test_commutator_inverse_power(self):
        p = parse_presentation("< a, b | [a, b]^-1 >")
        assert names(p.relator) == (("b", 1), ("a", 1), ("b", -1), ("a", -1))

    def test_brackets_optional(self):
        assert format_presentation(
            parse_presentation("a, b | [a, b]")
        ) == format_presentation(parse_presentation("< a, b | [a, b] >"))

    def test_unit_relator(self):
        p = parse_presentation("< a | 1 >")
        assert len(p.relator) == 0
        assert format_presentation(p) == "< a | 1 >"

    def test_relator_is_cyclically_reduced_on_parse(self):
        p = parse_presentation("< a, b | a b a b^-1 a^-1 >")
        assert names(p.relator) == (("a", 1),)

    def test_generator_letter_power_in_relator(self):
        p = parse_presentation("< a, b | b a^3 b^-1 a^-3 >")
        assert len(p.relator) == 8

    def test_engine_names_are_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("< t#1, b#1 | b#1 >")
        assert exc.value.position == 3

    def test_subscripted_names_are_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("< b, b@0 | b@0 b >")
        assert exc.value.position == 6


class TestErrors:
    def test_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError) as exc:
            parse_presentation("< a | b >")
        assert exc.value.name == "b"
        assert exc.value.position >= 0

    def test_duplicate_generator(self):
        with pytest.raises(ParseError):
            parse_presentation("< a, a | a >")

    def test_empty_generator_list(self):
        with pytest.raises(EmptyGeneratorsError):
            parse_presentation("< | 1 >")

    def test_trailing_comma(self):
        with pytest.raises(ParseError):
            parse_presentation("< a, | a >")

    def test_missing_bar(self):
        with pytest.raises(ParseError):
            parse_presentation("< a > a")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_presentation("< a | a > junk")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_presentation("")

    def test_bad_power(self):
        with pytest.raises(ParseError):
            parse_presentation("< a | a^ >")

    def test_unterminated_commutator(self):
        with pytest.raises(ParseError):
            parse_presentation("< a, b | [a, b >")

    def test_number_other_than_unit_alone(self):
        with pytest.raises(ParseError):
            parse_presentation("< a | 2 >")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("< a | a^ >")
        assert isinstance(exc.value.position, int)


class TestLetterLimit:
    """A word may expand to at most MAX_LETTERS letters, counted before any
    letter is made; the limit is read at call time, so tests lower it."""

    @pytest.fixture
    def limit(self, monkeypatch):
        monkeypatch.setattr(presentations, "MAX_LETTERS", 12)
        return 12

    def test_the_limit_is_ten_million(self):
        assert presentations.MAX_LETTERS == 10_000_000

    @pytest.mark.parametrize(
        "text, position",
        [
            ("< a | a^99999999999999999999999 >", 6),
            ("< a | a^-1000000000000 >", 6),
            ("< a, b | b a^10000000 >", 11),
            ("< a, b | [a, b]^2500001 >", 9),
            ("< a, b | [a, b]^-1000000000000 >", 9),
        ],
    )
    def test_huge_powers_are_a_parse_error(self, text, position):
        with pytest.raises(ParseError, match="more than 10000000 letters") as exc:
            parse_presentation(text)
        assert exc.value.position == position

    def test_cancelling_powers_fold_before_counting(self):
        p = parse_presentation("< a, b | a^1000000000000 b^0 a^-1000000000000 >")
        assert len(p.relator) == 0
        assert len(parse_presentation("< a | a^30000000 a^-29999999 >").relator) == 1

    def test_boundary(self, limit):
        assert len(parse_presentation("< a, b | a^6 b^6 >").relator) == 12
        with pytest.raises(ParseError) as exc:
            parse_presentation("< a, b | a^6 b^7 >")
        assert exc.value.position == 13
        assert len(parse_presentation("< a, b | [a, b]^3 >").relator) == 12
        with pytest.raises(ParseError):
            parse_presentation("< a, b | [a, b]^2 [a, b] a^-1 >")

    def test_commutator_powers_count_as_written(self, limit):
        # [a, b]^2 [b, a]^2 folds to 1, but its runs are written out first.
        with pytest.raises(ParseError) as exc:
            parse_presentation("< a, b | [a, b]^2 [b, a]^2 >")
        assert exc.value.position == 18

    def test_too_many_digits(self):
        for text in ("< a | a^" + "9" * 5000 + " >", "< a, b | [a, b]^" + "9" * 5000 + " >"):
            with pytest.raises(ParseError, match="too many digits"):
                parse_presentation(text)

    def test_certificate_word_over_the_limit(self):
        doc = (
            '{"schema_version": 1, "root": {"kind": "free_leaf",'
            ' "presentation": "< a | a^100000000000 >", "bound": 0, "rank": 0}}'
        )
        with pytest.raises(CertificateError, match="more than 10000000 letters"):
            parse_certificate(doc)


class TestConstruction:
    def test_constructor_cyclically_reduces(self):
        reg = Registry()
        a = reg.declare("a")
        b = reg.declare("b")
        word = Word(
            (Letter(a, 1), Letter(b, 1), Letter(a, 1), Letter(b, -1), Letter(a, -1))
        )
        p = Presentation((a, b), word)
        assert names(p.relator) == (("a", 1),)

    def test_constructor_rejects_undeclared_letters(self):
        reg = Registry()
        a = reg.declare("a")
        b = reg.declare("b")
        with pytest.raises(ValueError):
            Presentation((a,), Word((Letter(b, 1),)))

    def test_constructor_rejects_duplicate_generators(self):
        reg = Registry()
        a = reg.declare("a")
        with pytest.raises(ValueError):
            Presentation((a, a), Word((Letter(a, 1),)))

    def test_letters_of(self):
        p = parse_presentation("< a, b, c | a c >")
        assert {g.name for g in letters_of(p)} == {"a", "c"}


class TestFormatting:
    def test_format_collapses_runs(self):
        p = parse_presentation("< u, v | u u v v v >")
        assert format_presentation(p) == "< u, v | u^2 v^3 >"

    @given(st.data())
    def test_format_parse_round_trip(self, data):
        reg = Registry()
        gens = tuple(reg.declare(n) for n in ("a", "b", "c"))
        letters = st.builds(
            Letter, st.sampled_from(gens), st.sampled_from((1, -1))
        )
        ls = data.draw(st.lists(letters, max_size=16))
        p = Presentation(gens, Word(tuple(ls)))
        text = format_presentation(p)
        again = parse_presentation(text)
        assert format_presentation(again) == text
        assert names(again.relator) == names(p.relator)


PLAIN_NAMES = ("a", "b", "x1", "g_2", "Zz")
SPACE = st.sampled_from(("", " ", "\t", "  ", "\n"))
GAP = st.sampled_from((" ", "  ", "\t", "\n", " \n\t "))


@st.composite
def power_text(draw):
    """"" or a power such as "^3", "^-2", "^ - 3" or "^0"."""
    n = draw(st.none() | st.integers(min_value=-4, max_value=4))
    if n is None:
        return ""
    sign = draw(SPACE) + "-" if n < 0 else ""
    return f"{draw(SPACE)}^{draw(SPACE)}{sign}{draw(SPACE)}{abs(n)}"


@st.composite
def presentation_text(draw):
    """Well-formed presentation text, with zero, negative and commutator
    powers and varied whitespace."""
    gen_names = draw(
        st.lists(
            st.sampled_from(PLAIN_NAMES),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        if draw(st.booleans()):
            x, y = draw(st.sampled_from(gen_names)), draw(st.sampled_from(gen_names))
            s1, s2, s3, s4 = (draw(SPACE) for _ in range(4))
            term = f"[{s1}{x}{s2},{s3}{y}{s4}]"
        else:
            term = draw(st.sampled_from(gen_names))
        terms.append(term + draw(power_text()))
    body = "".join(draw(GAP) + t for t in terms) if terms else " 1"
    genlist = ",".join(draw(SPACE) + n + draw(SPACE) for n in gen_names)
    if draw(st.booleans()):
        return f"{draw(SPACE)}<{genlist}|{body}{draw(SPACE)}>{draw(SPACE)}", body
    return f"{genlist}|{body}{draw(SPACE)}", body


class TestScannerAgainstNaiveParse:
    @settings(max_examples=300, deadline=None)
    @given(presentation_text())
    def test_relator_matches_the_character_level_oracle(self, case):
        text, _ = case
        assert names(parse_presentation(text).relator) == tuple(naive_parse(text))

    def test_engine_name_rejected_in_plain_relator(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("< a | a#1 >")
        assert exc.value.position == 7


# Grammar pieces in which every digit run has length one, so that no
# drawn exponent can ask for more than nine letters.
TOKENS = (
    "<", ">", "|", ",", "[", "]", "^", "-", " ", "\t",
    "a", "b", "t#1", "b@-2", "^2 ", "^-3 ", "^0 ", "1 ", "1",
)


# A certificate in which TestFuzz puts text as a presentation and as a word.
_reg = Registry()
HNN_CERT = emit_certificate(
    build_tower(parse_presentation("< a, b | [a, b] >", _reg), _reg)
)


class TestFuzz:
    """Any text either parses or raises ParseError, and any text as a
    certificate, or as a presentation or word inside one, parses or raises
    CertificateError: never another exception."""

    @staticmethod
    def check(text):
        try:
            parse_presentation(text)
        except ParseError:
            pass
        docs = [text]
        for key in ("presentation", "rewritten"):
            doc = json.loads(HNN_CERT)
            doc["root"][key] = text
            docs.append(json.dumps(doc))
        for doc in docs:
            try:
                parse_certificate(doc)
            except CertificateError:
                pass

    def test_power_digits_are_ascii(self):
        with pytest.raises(ParseError):
            parse_presentation("< a | a^\u00b2 >")

    def test_integer_too_long_for_json(self):
        with pytest.raises(CertificateError):
            parse_certificate("1" * 5000)

    @settings(max_examples=500, deadline=None)
    @given(st.text())
    def test_any_text(self, text):
        self.check(text)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(TOKENS), max_size=30).map("".join))
    def test_grammar_fragments(self, text):
        self.check(text)
