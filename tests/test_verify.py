"""Certificate verification: builder output always passes, corrupted
certificates never do."""

from __future__ import annotations

import json
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asdim import (
    HnnStep,
    Letter,
    Presentation,
    Registry,
    Word,
    build_tower,
    emit_certificate,
    parse_certificate,
    parse_presentation,
    random_presentation,
    verify_certificate,
    walk,
)
from oracles import naive_hnn_expansion


def build(text):
    reg = Registry()
    p = parse_presentation(text, reg)
    return build_tower(p, reg)


def spelled(*letters):
    """The word of (generator, sign) letters."""
    return Word(tuple(Letter(g, e) for g, e in letters))


def checks(root):
    return [v.check for v in verify_certificate(root).violations]


EXAMPLES = (
    "< a | a >",
    "< a | a^4 >",
    "< a, b | 1 >",
    "< a, b | a^3 >",
    "< a, b | b a b >",
    "< a, b | a b a^-1 b^-1 >",
    "< u, v | u^2 v^3 >",
    "< u, v | u v u v >",
    "< a, t | t a t^-1 a^-2 >",
    "< a, b, c, d | [a, b] [c, d] >",
)


class TestBuilderOutputVerifies:
    def test_examples(self):
        for text in EXAMPLES:
            report = verify_certificate(build(text))
            assert report.ok, f"{text}: {report}"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_random(self, seed):
        rng = Random(seed)
        reg = Registry()
        p = random_presentation(rng, reg, max_gens=4, max_len=12)
        report = verify_certificate(build_tower(p, reg))
        assert report.ok, f"{p}: {report}"


class TestTamperDetection:
    def test_wrong_bound_is_caught(self):
        root = build("< a, b | a b a^-1 b^-1 >")
        bad = root._replace(bound=root.bound - 1)
        report = verify_certificate(bad)
        assert not report.ok
        assert any(v.check == "bound" for v in report.violations)

    def test_wrong_rank_is_caught(self):
        root = build("< a, b | 1 >")
        bad = root._replace(rank=3)
        assert not verify_certificate(bad).ok

    def test_dropped_rewritten_letter_is_caught(self):
        root = build("< a, b | a b a^-1 b^-1 >")
        shorter = Word(root.rewritten.letters[1:], reduced=True)
        bad = root._replace(rewritten=shorter)
        report = verify_certificate(bad)
        assert not report.ok

    def test_swapped_pair_is_caught(self):
        root = build("< u, v | u^2 v^3 >")
        bad = root._replace(alpha=root.alpha + 1)
        report = verify_certificate(bad)
        assert not report.ok
        assert any(v.check == "alpha" for v in report.violations)

    def test_carrier_alone_replaced_is_caught(self):
        root = build("< u, v | u^2 v^3 >")
        report = verify_certificate(root._replace(carrier=Registry().declare("c")))
        assert [v.check for v in report.violations] == [
            "image",
            "image carrier",
            "inner generators",
        ]

    def test_free_leaf_on_a_longer_relator_is_caught(self):
        root = build("< a, b | 1 >")
        a, b = root.presentation.generators
        bad = root._replace(presentation=Presentation((a, b), spelled((a, 1), (b, 1))))
        assert checks(bad) == ["relator shape"]

    def test_cyclic_leaf_on_two_generators_is_caught(self):
        root = build("< a | a^4 >")
        gens = root.presentation.generators + (Registry().declare("c"),)
        bad = root._replace(presentation=Presentation(gens, root.presentation.relator))
        assert checks(bad) == ["relator shape"]

    def test_cyclic_leaf_of_order_one_is_caught(self):
        root = build("< a | a^4 >")
        (a,) = root.presentation.generators
        bad = root._replace(presentation=Presentation((a,), spelled((a, 1))), order=1)
        assert checks(bad) == ["order"]

    def test_hnn_child_not_shorter_is_caught(self):
        # Parent a b^-2: the child b@1 b@0^-1 is not two letters shorter.
        root = build("< a, b | a b a^-1 b^-1 >")
        a, b = root.presentation.generators
        parent = Presentation((a, b), spelled((a, 1), (b, -1), (b, -1)))
        assert checks(root._replace(presentation=parent)) == [
            "stable exponent",
            "stable occurrences",
            "expansion",
            "length",
        ]

    def test_violation_reports_are_printable(self):
        root = build("< a, b | a b a^-1 b^-1 >")
        bad = root._replace(bound=99)
        report = verify_certificate(bad)
        text = str(report)
        assert "bound" in text
        assert str(report.violations[0])

    def test_ok_report_prints_ok(self):
        assert "ok" in str(verify_certificate(build("< a | a^2 >")))


def violations(doc: dict) -> set[tuple[str, str]]:
    report = verify_certificate(parse_certificate(json.dumps(doc)))
    return {(v.check, v.detail) for v in report.violations}


# < u, v, w | u^2 v w v w > is Z * <u, x | u^2 x^2> with x = v w, the free
# product of Z and the Klein bottle group, so its asdim is 2.  This
# document claims 1: its carrier "u" is a retained parent generator, so
# the inner presentation merges it with u and loses a generator.
FORGED_EMBEDDING = {
    "schema_version": 1,
    "root": {
        "kind": "case2_embed",
        "presentation": "< u, v, w | u^2 v w v w >",
        "bound": 1,
        "u": "v",
        "v": "w",
        "alpha": 2,
        "beta": 2,
        "stable": "t",
        "carrier": "u",
        "image": "u^4",
        "inner": {
            "kind": "free_split",
            "presentation": "< t, u | u^4 >",
            "bound": 1,
            "split_off_rank": 1,
            "child": {
                "kind": "cyclic_leaf",
                "presentation": "< u | u^4 >",
                "bound": 0,
                "order": 4,
            },
        },
    },
}


def hnn_doc(renaming, rewritten, min_subscript, max_subscript, child):
    """A case1_hnn document over < a, t | a^2 t a^-1 t^-1 > (BS(1, 2)),
    whose honest chain has rows a@0 -> (a, 0), a@1 -> (a, 1) and the child
    < a@0, a@1 | a@0^2 a@1^-1 >."""
    return {
        "schema_version": 1,
        "root": {
            "kind": "case1_hnn",
            "presentation": "< a, t | a^2 t a^-1 t^-1 >",
            "bound": 1 + child["bound"],
            "stable": "t",
            "base": "a",
            "rewritten": rewritten,
            "min_subscript": min_subscript,
            "max_subscript": max_subscript,
            "renaming": renaming,
            "child": child,
        },
    }


def elim(presentation, eliminated, rank):
    return {
        "kind": "single_elim",
        "presentation": presentation,
        "bound": 1,
        "eliminated": eliminated,
        "rank": rank,
    }


def with_unused_row(base):
    """Rows x -> (a, 0), y -> (a, 1) expand x^2 y^-1 to the parent
    relator; a third row z -> (base, 0) names a child generator that does
    not occur, so the expansion cannot see its base."""
    child = {
        "kind": "free_split",
        "presentation": "< x, y, z | x^2 y^-1 >",
        "bound": 1,
        "split_off_rank": 1,
        "child": elim("< x, y | x^2 y^-1 >", "y", 1),
    }
    renaming = [["x", "a", 0], ["y", "a", 1], ["z", base, 0]]
    return hnn_doc(renaming, "x^2 y^-1", 0, 1, child)


class TestPreconditions:
    """Frozen documents that are consistent in every other check and are
    rejected only by the step preconditions."""

    def test_forged_embedding_with_retained_carrier_is_rejected(self):
        assert violations(FORGED_EMBEDDING) == {
            ("fresh letters", "carrier u is a retained parent generator"),
            ("inner generators", "2 generators, parent has 3"),
        }

    def test_embedding_stable_equal_to_carrier_is_rejected(self):
        root = build("< u, v | u^2 v^3 >")
        report = verify_certificate(root._replace(carrier=root.stable))
        assert any(
            (v.check, v.detail)
            == ("fresh letters", "stable and carrier are the same generator")
            for v in report.violations
        )

    def test_honest_hnn_document_verifies(self):
        honest = hnn_doc(
            [["x", "a", 0], ["y", "a", 1]],
            "x^2 y^-1",
            0,
            1,
            elim("< x, y | x^2 y^-1 >", "y", 1),
        )
        assert violations(honest) == set()

    def test_duplicate_base_subscript_row_is_rejected(self):
        doc = hnn_doc(
            [["x", "a", 0], ["y", "a", 0], ["z", "a", 1]],
            "x y z^-1",
            0,
            1,
            elim("< x, y, z | x y z^-1 >", "z", 2),
        )
        assert violations(doc) == {
            ("renaming", "two rows name the same (base, subscript) conjugate")
        }

    def test_duplicate_fresh_name_is_rejected(self):
        # The later row for y is the one the expansion uses.
        doc = hnn_doc(
            [["y", "a", 5], ["x", "a", 0], ["y", "a", 1]],
            "x^2 y^-1",
            0,
            5,
            elim("< x, y | x^2 y^-1 >", "y", 1),
        )
        assert violations(doc) == {
            ("renaming", "a fresh generator names more than one row")
        }

    def test_base_outside_the_parent_is_rejected(self):
        assert violations(with_unused_row("c")) == {
            ("renaming", "base c of z is not a non-stable parent generator")
        }

    def test_stable_letter_as_base_is_rejected(self):
        assert violations(with_unused_row("t")) == {
            ("renaming", "base t of z is not a non-stable parent generator")
        }


class TestForgedSubscripts:
    """A renaming subscript of any size is rejected as a failed expansion,
    in time linear in the relators: the telescoped word is reduced on runs,
    so t^(10^20) is one run, never 10^20 letters."""

    CERT = emit_certificate(build("< a, b | a b a^-1 b^-1 >"))

    @pytest.mark.parametrize("row", [0, 1])
    @pytest.mark.parametrize("subscript", [10**13, -(10**13), 10**20, -(10**20)])
    def test_huge_subscript_fails_the_expansion(self, row, subscript):
        doc = json.loads(self.CERT)
        doc["root"]["renaming"][row][2] = subscript
        report = verify_certificate(parse_certificate(json.dumps(doc)))
        assert ("expansion", "expanded child relator differs from the parent relator") in {
            (v.check, v.detail) for v in report.violations
        }

    def test_shifting_every_row_conjugates_the_expansion(self):
        # Shifting every subscript by n conjugates the expansion by t^n,
        # which the exact, not cyclic, comparison rejects.
        doc = json.loads(self.CERT)
        for row in doc["root"]["renaming"]:
            row[2] += 10**20
        report = verify_certificate(parse_certificate(json.dumps(doc)))
        assert "expansion" in {v.check for v in report.violations}


def hnn_nodes(seed: int, max_len: int) -> list[HnnStep]:
    rng = Random(seed)
    reg = Registry()
    p = random_presentation(rng, reg, max_gens=3, max_len=max_len)
    return [node for node in walk(build_tower(p, reg)) if isinstance(node, HnnStep)]


def expansion_verdict(node: HnnStep) -> str | None:
    """The verifier's verdict on the expansion of this node alone."""
    for v in verify_certificate(node).violations:
        if v.depth == 0 and (
            v.check == "expansion" or v.detail.startswith("no entry")
        ):
            return v.detail
    return None


def mutate(rows, how: str, j: int, k: int):
    rows = list(rows)
    if how == "shift":
        rows[j] = rows[j]._replace(subscript=rows[j].subscript + 1 + k % 3)
    elif how == "swap":
        a, b = rows[j], rows[k]
        rows[j] = a._replace(base=b.base, subscript=b.subscript)
        rows[k] = b._replace(base=a.base, subscript=a.subscript)
    elif how == "missing":
        del rows[j]
    elif how == "duplicate":
        # A later row for a fresh name is the one the expansion uses.
        rows.append(rows[j]._replace(fresh=rows[k].fresh))
    return tuple(rows)


class TestHnnExpansionOracle:
    """The telescoped expansion agrees with the product of conjugates."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.sampled_from((12, 24)),
        st.sampled_from((None, "shift", "swap", "missing", "duplicate")),
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=0, max_value=1_000),
    )
    def test_verdict_matches_naive_expansion(self, seed, max_len, how, j, k):
        nodes = hnn_nodes(seed, max_len)
        assume(nodes)
        node = nodes[j % len(nodes)]
        n = len(node.renaming)
        j, k = j % n, k % n
        if how in ("swap", "duplicate"):
            assume(j != k)
        if how is not None:
            node = node._replace(renaming=mutate(node.renaming, how, j, k))
        expected = naive_hnn_expansion(
            node.presentation.relator,
            node.child.presentation.relator,
            node.renaming,
            node.stable,
        )
        assert expansion_verdict(node) == expected
        if how is None:
            assert expected is None
