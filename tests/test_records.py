"""The package's immutable records: construction, immutability, equality,
_replace and repr, and an import that loads no dataclasses machinery."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from asdim import (
    BoundReport,
    CyclicLeaf,
    EmbedStep,
    FreeLeaf,
    FreeSplit,
    Generator,
    HnnStep,
    Letter,
    Presentation,
    Registry,
    SingleElim,
    VerificationReport,
    Violation,
    Word,
    build_tower,
    parse_presentation,
    summarize,
    verify_certificate,
    walk,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# repr(build_tower(...)) of < u, v | u^2 v^3 >, in the format frozen
# dataclasses print: every field of every node, each presentation once.
TREFOIL_REPR = (
    "EmbedStep(presentation=Presentation('< u, v | u^2 v^3 >'), "
    "u=u, v=v, alpha=2, beta=3, stable=t#1, carrier=b#1, "
    "image=Word('b#1 t#1^-3 b#1 t#1^3'), "
    "child=HnnStep(presentation=Presentation('< t#1, b#1 | b#1 t#1^-3 b#1 t#1^3 >'), "
    "stable=t#1, base=b#1, rewritten=Word('b#1@0 b#1@-3'), "
    "min_subscript=-3, max_subscript=0, "
    "renaming=(RenameEntry(fresh=b#1@-3, base=b#1, subscript=-3), "
    "RenameEntry(fresh=b#1@0, base=b#1, subscript=0)), "
    "child=SingleElim(presentation=Presentation('< b#1@-3, b#1@0 | b#1@0 b#1@-3 >'), "
    "eliminated=b#1@-3, rank=1, bound=1), bound=2), bound=2)"
)


def build(text):
    reg = Registry()
    return build_tower(parse_presentation(text, reg), reg)


def one_of_each():
    """One instance of every record class."""
    records = []
    for text in ("< a, b | 1 >", "< a | a^4 >", "< a, b | b a b >", "< a, b | a^3 >"):
        records += walk(build(text))
    hnn = build("< a, b | a b a^-1 b^-1 >")
    emb = build("< u, v | u^2 v^3 >")
    records += [hnn, emb, summarize(emb)]
    report = verify_certificate(hnn._replace(bound=7))
    records += [report, report.violations[0]]
    fresh = hnn.renaming[0].fresh
    records += [Registry().declare("a"), fresh, hnn.presentation, hnn.presentation.relator]
    return records


RECORD_CLASSES = {
    BoundReport,
    CyclicLeaf,
    EmbedStep,
    FreeLeaf,
    FreeSplit,
    Generator,
    HnnStep,
    Presentation,
    SingleElim,
    VerificationReport,
    Violation,
    Word,
}


def test_import_loads_no_dataclasses_machinery():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import asdim, asdim.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_one_of_each_covers_every_record_class():
    assert {type(r) for r in one_of_each()} == RECORD_CLASSES


@pytest.mark.parametrize("record", one_of_each(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    for name in type(record).__slots__:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


class TestConstruction:
    def test_positional_and_keyword_agree(self):
        p = parse_presentation("< a, b | 1 >")
        assert FreeLeaf(p, 2) == FreeLeaf(presentation=p, rank=2) == FreeLeaf(p, rank=2)
        assert FreeLeaf(p, 2).bound == 1

    def test_stored_bound_is_kept(self):
        p = parse_presentation("< a, b | 1 >")
        assert FreeLeaf(p, 2, 5).bound == 5
        assert FreeLeaf(p, 2, bound=5).bound == 5

    def test_missing_extra_and_repeated_values_raise(self):
        p = parse_presentation("< a, b | 1 >")
        with pytest.raises(TypeError):
            FreeLeaf(p)
        with pytest.raises(TypeError):
            FreeLeaf(p, 2, 1, 0)
        with pytest.raises(TypeError):
            FreeLeaf(p, 2, presentation=p)
        with pytest.raises(TypeError):
            FreeLeaf(p, 2, colour="red")
        with pytest.raises(TypeError):
            Violation(0, "kind", "check")


class TestReplace:
    def test_keeps_a_stored_bound(self):
        root = build("< a, b | a b a^-1 b^-1 >")
        forged = root._replace(bound=root.bound + 5)
        assert forged.bound == root.bound + 5
        again = forged._replace(child=root.child)
        assert again.bound == root.bound + 5
        assert again.renaming is root.renaming

    def test_changes_only_the_named_fields(self):
        emb = build("< u, v | u^2 v^3 >")
        changed = emb._replace(alpha=7)
        assert changed.alpha == 7
        assert [getattr(changed, f) for f in type(emb).__slots__ if f != "alpha"] == [
            getattr(emb, f) for f in type(emb).__slots__ if f != "alpha"
        ]

    @pytest.mark.parametrize("record", one_of_each(), ids=lambda r: type(r).__name__)
    def test_unknown_field_is_a_type_error(self, record):
        with pytest.raises(TypeError):
            record._replace(no_such_field=1)

    def test_presentation_replace_normalizes(self):
        p = parse_presentation("< a, b | a b >")
        a, b = p.generators
        w = Word((Letter(a, 1), Letter(b, 1), Letter(a, -1)))
        assert p._replace(relator=w).relator == Word((Letter(b, 1),))


class TestEquality:
    def test_word_ignores_reduced(self):
        w = parse_presentation("< a | a^3 >").relator
        plain, flagged = Word(w.letters), Word(w.letters, reduced=True)
        assert plain == flagged
        assert hash(plain) == hash(flagged)
        assert len({plain, flagged}) == 1
        assert Word(w.letters[:2]) != plain

    def test_presentation_compares_by_value(self):
        reg = Registry()
        p = parse_presentation("< a, b | a b a^-1 b^-1 >", reg)
        q = Presentation(p.generators, Word(p.relator.letters))
        assert p == q and hash(p) == hash(q)
        assert p != parse_presentation("< a, b | a b a^-1 b^-1 >", Registry())

    def test_generator_compares_by_identity(self):
        reg = Registry()
        a = reg.declare("a")
        twin = Generator(a.name)
        assert a == a and a != twin
        assert len({a, twin}) == 2

    def test_records_of_different_classes_differ(self):
        p = parse_presentation("< a | a^2 >")
        assert FreeLeaf(p, 1, 0) != CyclicLeaf(p, 1, 0)


def test_repr_matches_the_dataclass_repr():
    assert repr(build("< u, v | u^2 v^3 >")) == TREFOIL_REPR
    assert repr(summarize(build("< u, v | u^2 v^3 >"))) == (
        "BoundReport(length_bound=3, tower_bound=2, hnn_steps=1, node_count=3)"
    )
    assert repr(VerificationReport(())) == "VerificationReport(violations=())"


class TestDeepChain:
    """Equality, hashing and repr loop over a chain: on the 1,201-node
    chain of < a, b | b^-1 a^600 b^-1 a^600 > each returns."""

    @pytest.fixture(scope="class")
    def chain(self):
        root = build("< a, b | b^-1 a^600 b^-1 a^600 >")
        # A copy made node by node, so that comparing it walks the chain.
        copy = None
        for node in reversed(list(walk(root))):
            copy = node._replace() if copy is None else node._replace(child=copy)
        return root, copy

    def test_equal_and_hash_equal(self, chain):
        root, copy = chain
        assert copy is not root and copy.child is not root.child
        assert copy == root and not copy != root
        assert hash(copy) == hash(root)

    def test_a_change_at_the_leaf_is_seen(self, chain):
        root, _ = chain
        nodes = list(walk(root))
        changed = nodes[-1]._replace(bound=nodes[-1].bound + 1)
        for node in reversed(nodes[:-1]):
            changed = node._replace(child=changed)
        assert changed != root

    def test_repr_nests_every_node(self, chain):
        root, _ = chain
        text = repr(root)
        assert text.startswith("EmbedStep(presentation=Presentation('< a, b |")
        assert text.count("child=") == 1200
        assert text.endswith(", bound=2)")
