"""Certificate serialization: determinism, round trips, error handling,
and tree rendering."""

from __future__ import annotations

import json

import pytest

from asdim import (
    CertificateError,
    Registry,
    build_tower,
    emit_certificate,
    parse_certificate,
    parse_presentation,
    render_tree,
    verify_certificate,
)

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

    def test_parse_into_caller_registry(self):
        doc = emit_certificate(build("< a, b | a^3 >"))
        reg = Registry()
        node = parse_certificate(doc, reg)
        assert node.presentation.generators[0].name == "a"


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
