"""Certificate serialization: determinism, round trips, error handling,
and tree rendering."""

from __future__ import annotations

import json
import re
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdim import (
    EMPTY_WORD,
    CertificateError,
    EmbedStep,
    FreeLeaf,
    FreeSplit,
    Generator,
    HnnStep,
    Letter,
    Presentation,
    Registry,
    Word,
    build_tower,
    emit_certificate,
    format_presentation,
    format_word,
    inverse,
    parse_certificate,
    parse_presentation,
    render_tree,
    verify_certificate,
    walk,
)
from asdim import presentations
from asdim.sampling import random_cyclically_reduced_word
from oracles import naive_word

EXAMPLES = (
    "< a | a^4 >",
    "< a, b | 1 >",
    "< a, b | a^3 >",
    "< a, b | b a b >",
    "< a, b | a b a^-1 b^-1 >",
    "< u, v | u^2 v^3 >",
    "< u, v | u v u v >",
    "< a, b, c, d | [a, b] [c, d] >",
)


def build(text):
    reg = Registry()
    p = parse_presentation(text, reg)
    return build_tower(p, reg)


class TestEmit:
    def test_document_shape(self):
        doc = json.loads(emit_certificate(build("< a, b | a b a^-1 b^-1 >")))
        assert doc["schema_version"] == 1
        root = doc["root"]
        assert root["kind"] == "case1_hnn"
        assert root["presentation"] == "< a, b | a b a^-1 b^-1 >"
        assert root["bound"] == 2
        assert root["stable"] == "a"
        assert root["base"] == "b"
        assert root["rewritten"] == "b@1 b@0^-1"
        assert root["min_subscript"] == 0
        assert root["max_subscript"] == 1
        assert root["renaming"] == [["b@0", "b", 0], ["b@1", "b", 1]]
        assert root["child"]["kind"] == "single_elim"

    def test_integers_stay_integers(self):
        text = emit_certificate(build("< u, v | u^2 v^3 >"))
        assert "." not in json.dumps(json.loads(text))

    def test_emit_is_deterministic(self):
        a = emit_certificate(build("< u, v | u^2 v^3 >"))
        b = emit_certificate(build("< u, v | u^2 v^3 >"))
        assert a == b

    def test_key_order_is_stable(self):
        doc = emit_certificate(build("< a, b | a b a^-1 b^-1 >"))
        root_keys = list(json.loads(doc)["root"].keys())
        assert root_keys[:3] == ["kind", "presentation", "bound"]


# Each kind's own v1 keys in document order, after kind, presentation and
# bound, and the key of the next node's object.  Each key names the node
# field it holds.
V1_KEYS = {
    "free_leaf": ("rank",),
    "cyclic_leaf": ("order",),
    "single_elim": ("eliminated", "rank"),
    "free_split": ("split_off_rank",),
    "case1_hnn": (
        "stable",
        "base",
        "rewritten",
        "min_subscript",
        "max_subscript",
        "renaming",
    ),
    "case2_embed": ("u", "v", "alpha", "beta", "stable", "carrier", "image"),
}
V1_LINK = {"free_split": "child", "case1_hnn": "child", "case2_embed": "inner"}


def v1_value(value):
    """A node field as v1 writes it: integers as they are, a generator by
    its name, a word as text, renaming rows as [fresh, base, subscript]."""
    if isinstance(value, int):
        return value
    if isinstance(value, Generator):
        return value.name
    if isinstance(value, Word):
        return format_word(value)
    return [[e.fresh.name, e.base.name, e.subscript] for e in value]


def nested_v1(root):
    """The v1 document as nested objects, one per node, each holding the
    next under its link key: what json.dumps(indent=2) is given."""
    nodes = list(walk(root))
    objects = [
        {
            "kind": node.kind,
            "presentation": format_presentation(node.presentation),
            "bound": node.bound,
            **{key: v1_value(getattr(node, key)) for key in V1_KEYS[node.kind]},
        }
        for node in nodes
    ]
    for node, obj, below in zip(nodes, objects, objects[1:]):
        obj[V1_LINK[node.kind]] = below
    return {"schema_version": 1, "root": objects[0]}


# Names the parser never makes, so that string escaping is exercised.
ODD_NAMES = ("a", "b", "\u00e9", 'q"', "back\\slash", "\u2603", "t\n")


@st.composite
def chains(draw):
    """Built chains: a random presentation (some with names that JSON
    escapes) or the deep family for k <= 10, optionally cut at its first
    HNN step with that step's renaming emptied, or at its first HNN or
    embedding step with that step's word (rewritten or image) inverted, so
    that it is no longer the child's relator."""
    reg = Registry()
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=10))
        p = parse_presentation(f"< a, b | b^-1 a^{k} b^-1 a^{k} >", reg)
    else:
        names = draw(st.lists(st.sampled_from(ODD_NAMES), min_size=1, max_size=4, unique=True))
        gens = tuple(reg.declare(n) for n in names)
        rng = Random(draw(st.integers(min_value=0, max_value=10_000)))
        length = draw(st.integers(min_value=0, max_value=12))
        p = Presentation(gens, random_cyclically_reduced_word(rng, gens, length))
    root = build_tower(p, reg)
    if draw(st.booleans()):
        hnn = next((n for n in walk(root) if isinstance(n, HnnStep)), None)
        if hnn is not None:
            root = hnn._replace(renaming=())
    elif draw(st.booleans()):
        step = next((n for n in walk(root) if isinstance(n, (HnnStep, EmbedStep))), None)
        if step is not None:
            field = "rewritten" if isinstance(step, HnnStep) else "image"
            root = step._replace(**{field: inverse(getattr(step, field))})
    return root


class TestEmitMatchesJson:
    @settings(max_examples=300, deadline=None)
    @given(chains())
    def test_emit_is_json_dumps_of_the_nested_objects(self, root):
        assert emit_certificate(root) == json.dumps(nested_v1(root), indent=2)

    def test_empty_renaming_is_an_empty_list(self):
        root = build("< a, b | a b a^-1 b^-1 >")
        root = root._replace(renaming=())
        assert '"renaming": [],' in emit_certificate(root)

    def test_chain_of_1200_free_splits(self):
        reg = Registry()
        p = Presentation((reg.declare("a"),), EMPTY_WORD)
        root = FreeLeaf(p, 1)
        for _ in range(1200):
            root = FreeSplit(p, 0, root)
        doc = emit_certificate(root)
        assert len(render_tree(root).splitlines()) == 1201
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            expected = json.dumps(nested_v1(root), indent=2)
        finally:
            sys.setrecursionlimit(limit)
        assert doc == expected
        with pytest.raises(CertificateError, match="document nested too deeply"):
            parse_certificate(doc)


def holds_presentation(value):
    if isinstance(value, tuple):
        return any(holds_presentation(item) for item in value)
    return isinstance(value, Presentation)


class TestEachPresentationHeldOnce:
    """A built node holds its own presentation, and the next one only
    through its child."""

    @pytest.mark.parametrize("text", EXAMPLES)
    def test_no_other_field_holds_a_presentation(self, text):
        for node in walk(build(text)):
            holders = [
                f for f in type(node).__slots__ if holds_presentation(getattr(node, f))
            ]
            assert holders == ["presentation"]

    @pytest.mark.parametrize("text", EXAMPLES)
    def test_rewritten_and_image_are_the_child_relator(self, text):
        for node in walk(build(text)):
            if isinstance(node, HnnStep):
                assert node.rewritten is node.child.presentation.relator
            elif isinstance(node, EmbedStep):
                assert node.image is node.child.presentation.relator


class TestRoundTrip:
    @pytest.mark.parametrize("text", EXAMPLES)
    def test_emit_parse_emit_is_byte_identical(self, text):
        doc = emit_certificate(build(text))
        again = emit_certificate(parse_certificate(doc))
        assert again == doc

    @pytest.mark.parametrize("text", EXAMPLES)
    def test_parsed_certificate_verifies(self, text):
        doc = emit_certificate(build(text))
        assert verify_certificate(parse_certificate(doc)).ok

    @pytest.mark.parametrize("text", EXAMPLES)
    def test_parsed_words_share_the_child_relator_letters(self, text):
        """By design: the reader reads each relator text once per document,
        and a rewritten or image word with that text shares its letters."""
        for node in walk(parse_certificate(emit_certificate(build(text)))):
            if isinstance(node, (HnnStep, EmbedStep)):
                word = node.rewritten if isinstance(node, HnnStep) else node.image
                assert word.letters is node.child.presentation.relator.letters

    def test_one_generator_per_name_in_a_document(self):
        doc = emit_certificate(build("< a, b | a^3 >"))
        node = parse_certificate(doc)
        a = node.presentation.generators[0]
        assert a.name == "a"
        assert node.child.presentation.generators == (a,)


class TestParseErrors:
    def test_not_json(self):
        with pytest.raises(CertificateError):
            parse_certificate("not json at all")

    def test_nesting_beyond_the_json_limit(self):
        depth = 3000
        text = (
            '{"schema_version": 1, "root": '
            + '{"child": ' * depth + "{}" + "}" * depth + "}"
        )
        with pytest.raises(CertificateError, match="document nested too deeply"):
            parse_certificate(text)

    def test_wrong_schema_version(self):
        doc = json.loads(emit_certificate(build("< a | a^2 >")))
        doc["schema_version"] = 2
        with pytest.raises(CertificateError, match="schema_version"):
            parse_certificate(json.dumps(doc))

    def test_top_level_must_be_object(self):
        with pytest.raises(CertificateError):
            parse_certificate("[1, 2]")

    def test_missing_field(self):
        doc = json.loads(emit_certificate(build("< a | a^2 >")))
        del doc["root"]["order"]
        with pytest.raises(CertificateError, match="order"):
            parse_certificate(json.dumps(doc))

    def test_wrong_field_type(self):
        doc = json.loads(emit_certificate(build("< a | a^2 >")))
        doc["root"]["bound"] = "zero"
        with pytest.raises(CertificateError, match="bound"):
            parse_certificate(json.dumps(doc))

    def test_boolean_is_not_an_integer(self):
        doc = json.loads(emit_certificate(build("< a | a^2 >")))
        doc["root"]["bound"] = True
        with pytest.raises(CertificateError, match="bound"):
            parse_certificate(json.dumps(doc))

    def test_unknown_kind(self):
        doc = json.loads(emit_certificate(build("< a | a^2 >")))
        doc["root"]["kind"] = "mystery"
        with pytest.raises(CertificateError, match="mystery"):
            parse_certificate(json.dumps(doc))

    def test_malformed_renaming_row(self):
        doc = json.loads(emit_certificate(build("< a, b | a b a^-1 b^-1 >")))
        doc["root"]["renaming"][0] = ["b@0", "b"]
        with pytest.raises(CertificateError, match="renaming"):
            parse_certificate(json.dumps(doc))

    def test_bad_presentation_text(self):
        doc = json.loads(emit_certificate(build("< a | a^2 >")))
        doc["root"]["presentation"] = "< a | "
        with pytest.raises(CertificateError):
            parse_certificate(json.dumps(doc))


def spelling(word):
    return tuple((l.gen.name, l.sign) for l in word.letters)


HNN_DOC = emit_certificate(build("< a, b | a b a^-1 b^-1 >"))


def read_word(text):
    """text read as the rewritten word of a case1_hnn document."""
    doc = json.loads(HNN_DOC)
    doc["root"]["rewritten"] = text
    return parse_certificate(json.dumps(doc)).rewritten


def read_presentation(text):
    """text read as the presentation of a free_leaf document."""
    leaf = {"kind": "free_leaf", "presentation": text, "bound": 0, "rank": 0}
    doc = {"schema_version": 1, "root": leaf}
    return parse_certificate(json.dumps(doc)).presentation


# Plain names, and names with the "@" and "#" segments the engine adds.
NAMES = ("a", "b", "x1", "g_2", "Zz", "b@-3", "b@0", "t#1", "b#1", "c@2#1")


@st.composite
def spelled_words(draw, gen_names):
    """(name, sign) letters over a few of gen_names, with runs."""
    if not gen_names:
        return []
    alphabet = draw(st.lists(st.sampled_from(gen_names), min_size=1, max_size=3))
    letter = st.tuples(st.sampled_from(alphabet), st.sampled_from((1, -1)))
    return draw(st.lists(letter, max_size=16))


class TestReader:
    """The reader takes words and presentations exactly as format_word and
    format_presentation write them, over plain and engine names."""

    @settings(max_examples=300, deadline=None)
    @given(spelled_words(NAMES))
    def test_word_round_trip_keeps_every_letter(self, spelled):
        gens = {name: Registry().declare(name) for name in NAMES}
        text = format_word(Word(tuple(Letter(gens[n], e) for n, e in spelled)))
        assert spelling(read_word(text)) == tuple(spelled) == tuple(naive_word(text))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_presentation_round_trip(self, data):
        gen_names = data.draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=True))
        gens = {name: Registry().declare(name) for name in gen_names}
        spelled = data.draw(spelled_words(gen_names))
        p = Presentation(
            tuple(gens.values()), Word(tuple(Letter(gens[n], e) for n, e in spelled))
        )
        text = format_presentation(p)
        q = read_presentation(text)
        assert [g.name for g in q.generators] == gen_names
        assert spelling(q.relator) == spelling(p.relator)
        assert format_presentation(q) == text

    def test_word_fields_do_not_cancel(self):
        assert spelling(read_word("a b b^-1 a^-1 a^2 a^-2")) == (
            ("a", 1), ("b", 1), ("b", -1), ("a", -1),
            ("a", 1), ("a", 1), ("a", -1), ("a", -1),
        )

    def test_texts_that_fold_are_not_shared(self):
        """A word field and a relator with the same text whose runs fold:
        the word keeps its letters as written and the relator is reduced,
        whichever the reader meets first."""
        doc = json.loads(emit_certificate(build("< u, v | u^2 v^3 >")))
        embed = doc["root"]
        hnn = embed["inner"]
        assert (embed["kind"], hnn["kind"]) == ("case2_embed", "case1_hnn")
        # Read leaf up: the HNN node's presentation, then its rewritten
        # word, then the embedding's presentation.
        hnn["presentation"] = "< t#1, b#1 | b#1 t#1 t#1^-1 b#1 >"
        hnn["rewritten"] = "u v v^-1 u"
        embed["presentation"] = "< u, v | u v v^-1 u >"
        embed["image"] = "b#1 t#1 t#1^-1 b#1"
        node = parse_certificate(json.dumps(doc))
        assert spelling(node.presentation.relator) == (("u", 1), ("u", 1))
        assert spelling(node.image) == (
            ("b#1", 1), ("t#1", 1), ("t#1", -1), ("b#1", 1),
        )
        hnn_node = node.child
        assert spelling(hnn_node.presentation.relator) == (("b#1", 1), ("b#1", 1))
        assert spelling(hnn_node.rewritten) == (
            ("u", 1), ("v", 1), ("v", -1), ("u", 1),
        )

    def test_relator_is_reduced(self):
        assert spelling(read_presentation("< a, b | b a^2 a^-2 b^-1 a >").relator) == (
            ("a", 1),
        )

    def test_empty_generator_list(self):
        p = read_presentation("< | 1 >")
        assert p.generators == ()
        assert format_presentation(p) == "< | 1 >"

    def test_stacked_engine_names(self):
        p = read_presentation("< c@2#1, b@-3, t#1 | c@2#1^2 b@-3 t#1^-1 >")
        assert [g.name for g in p.generators] == ["c@2#1", "b@-3", "t#1"]
        assert spelling(p.relator) == (
            ("c@2#1", 1), ("c@2#1", 1), ("b@-3", 1), ("t#1", -1),
        )

    def test_word_letters_count_as_written(self, monkeypatch):
        monkeypatch.setattr(presentations, "MAX_LETTERS", 12)
        assert len(read_word("a^6 a^-6")) == 12
        with pytest.raises(CertificateError, match="more than 12 letters"):
            read_word("a^6 b a^-6")
        assert len(read_presentation("< a, b | a^7 a^-7 b >").relator) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "a\tb",
            "a  b",
            " a",
            "a ",
            "",
            "[a, b]",
            "a^0",
            "a^+2",
            "a^-0",
            "a^02",
            "a^",
            "a^ 2",
            "1 a",
            "a#",
            "a^10000001",
            "a^9999999 b a",
        ],
    )
    def test_non_canonical_word_is_rejected(self, text):
        with pytest.raises(CertificateError):
            read_word(text)

    @pytest.mark.parametrize(
        "text",
        [
            "< a | a\tb >",
            "< a |  a >",
            "<  | 1 >",
            "< a,b | a >",
            "< a , b | a >",
            "<a | a>",
            "a | a",
            "< a | [a, a] >",
            "< a | a^0 >",
            "< a | a^+2 >",
            "< a | a >\n",
            "< a | 1 1 >",
            "< a | b >",
            "< a, a | a >",
            "< a@ | a >",
            "< a | a^10000001 >",
        ],
    )
    def test_non_canonical_presentation_is_rejected(self, text):
        with pytest.raises(CertificateError):
            read_presentation(text)

    @pytest.mark.parametrize(
        "text, name",
        [("< a,b | a >", "a,b"), ("< a, 1b | a >", "1b"), ("<  | 1 >", "")],
    )
    def test_bad_name_in_a_presentation_is_named(self, text, name):
        message = re.escape(f"not a generator name: {name!r}")
        with pytest.raises(CertificateError, match=message):
            read_presentation(text)

    @pytest.mark.parametrize("name", ["", "b@", "1a", "a b", "[a"])
    def test_generator_field_must_be_a_name(self, name):
        doc = json.loads(HNN_DOC)
        doc["root"]["stable"] = name
        with pytest.raises(CertificateError, match="not a generator name"):
            parse_certificate(json.dumps(doc))


class TestTamperedDocumentsFailVerification:
    def test_tampered_bound(self):
        doc = json.loads(emit_certificate(build("< a, b | a b a^-1 b^-1 >")))
        doc["root"]["bound"] = 7
        node = parse_certificate(json.dumps(doc))
        assert not verify_certificate(node).ok

    def test_tampered_subscript(self):
        doc = json.loads(emit_certificate(build("< a, b | a b a^-1 b^-1 >")))
        doc["root"]["min_subscript"] = -5
        node = parse_certificate(json.dumps(doc))
        assert not verify_certificate(node).ok

    def test_cancelling_pair_in_rewritten_word(self):
        doc = json.loads(emit_certificate(build("< a, b | a b a^-1 b^-1 >")))
        doc["root"]["rewritten"] += " b@0 b@0^-1"
        report = verify_certificate(parse_certificate(json.dumps(doc)))
        assert [v.check for v in report.violations] == ["rewritten word"]

    def test_cancelling_pair_in_embedding_image(self):
        doc = json.loads(emit_certificate(build("< u, v | u^2 v^3 >")))
        root = doc["root"]
        assert root["kind"] == "case2_embed"
        root["image"] += f" {root['carrier']} {root['carrier']}^-1"
        report = verify_certificate(parse_certificate(json.dumps(doc)))
        assert [v.check for v in report.violations] == ["inner relator"]

    def test_tampered_relator(self):
        doc = json.loads(emit_certificate(build("< u, v | u^2 v^3 >")))
        doc["root"]["presentation"] = "< u, v | u^2 v^4 >"
        node = parse_certificate(json.dumps(doc))
        assert not verify_certificate(node).ok


class TestRenderTree:
    def test_headline_per_node(self):
        root = build("< u, v | u^2 v^3 >")
        text = render_tree(root)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("case2_embed")
        assert lines[1].startswith("  case1_hnn")
        assert lines[2].startswith("    single_elim")

    def test_mentions_bounds_and_presentations(self):
        text = render_tree(build("< a, b | a^3 >"))
        assert "bound=1" in text
        assert "< a, b | a^3 >" in text

    def test_render_is_deterministic(self):
        assert render_tree(build("< a, b | a b a^-1 b^-1 >")) == render_tree(
            build("< a, b | a b a^-1 b^-1 >")
        )


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-50, max_value=50)
    | st.sampled_from((10**20, -(10**20)))
    | st.integers(min_value=-(10**20), max_value=10**20)
    | st.text(max_size=8)
    | st.sampled_from(("a", "b@0", "b@1", "t#1", "< a | 1 >", "< a, b | a^2 >", "case1_hnn")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


class TestFuzzedDocuments:
    """A document with any one field replaced by any JSON value parses and
    verifies to a report, or raises CertificateError."""

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(EXAMPLES), st.data())
    def test_field_replaced(self, text, data):
        doc = json.loads(emit_certificate(build(text)))
        objects = [doc]
        obj = doc["root"]
        while obj is not None:
            objects.append(obj)
            obj = obj.get("child", obj.get("inner"))
        target = data.draw(st.sampled_from(objects))
        key = data.draw(st.sampled_from(sorted(target)))
        target[key] = data.draw(JSON_VALUES)
        try:
            node = parse_certificate(json.dumps(doc))
        except CertificateError:
            return
        verify_certificate(node)
