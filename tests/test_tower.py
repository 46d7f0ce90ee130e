"""Tower construction: guard order, bound arithmetic, termination,
determinism, and the relator-length bound."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asdim import (
    EMPTY_WORD,
    CyclicLeaf,
    EmbedStep,
    FreeLeaf,
    FreeSplit,
    HnnStep,
    Presentation,
    Registry,
    SingleElim,
    all_towers,
    best_tower,
    build_tower,
    ceil_half,
    emit_certificate,
    format_presentation,
    parse_presentation,
    random_presentation,
    summarize,
    verify_certificate,
    walk,
)
from oracles import naive_bound


def chain_kinds(root):
    return [type(node).__name__ for node in walk(root)]


ROOT = Path(__file__).resolve().parents[1]

# Every pass over a chain at a recursion limit far below the chain's
# depth; prints node count, verdict and rendered lines.
LOW_LIMIT_PIPELINE = """
import sys
from asdim import (
    Registry, build_tower, parse_presentation, render_tree, summarize,
    verify_certificate,
)
sys.setrecursionlimit(150)
reg = Registry()
root = build_tower(parse_presentation(sys.argv[1], reg), reg)
report = verify_certificate(root)
print(summarize(root).node_count, report.ok, len(render_tree(root).splitlines()))
"""


def build(text):
    reg = Registry()
    p = parse_presentation(text, reg)
    return build_tower(p, reg)


def depth_bound(root):
    """The chain-depth bound derived in build_tower's docstring: every
    HNN step, and every embedding step together with the step after it,
    drops at least two letters, and a free split at the root adds one
    node."""
    n = len(root.presentation.relator)
    return max(1, 2 * (n // 2) - 1) + isinstance(root, FreeSplit)


class TestCeilHalf:
    @pytest.mark.parametrize(
        "n,expected", [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 4)]
    )
    def test_values(self, n, expected):
        assert ceil_half(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ceil_half(-1)


class TestGuardOrder:
    def test_empty_relator_is_free(self):
        root = build("< a, b | 1 >")
        assert isinstance(root, FreeLeaf)
        assert root.rank == 2
        assert root.bound == 1

    def test_zero_generator_trivial_group(self):
        root = build_tower(Presentation((), EMPTY_WORD))
        assert isinstance(root, FreeLeaf)
        assert (root.rank, root.bound) == (0, 0)

    def test_absent_generator_splits_first(self):
        root = build("< a, b | a^3 >")
        assert isinstance(root, FreeSplit)
        assert root.split_off_rank == 1
        assert isinstance(root.child, CyclicLeaf)
        assert root.child.order == 3
        assert root.bound == 1

    def test_length_one_relator_kills_one_generator(self):
        root = build("< a, b | b >")
        assert isinstance(root, FreeSplit)
        assert isinstance(root.child, FreeLeaf)
        assert root.child.rank == 0
        assert root.bound == 1

    def test_length_one_relator_no_split(self):
        root = build("< a | a >")
        assert isinstance(root, FreeLeaf)
        assert (root.rank, root.bound) == (0, 0)

    def test_single_occurrence_elimination(self):
        root = build("< a, b | b a b >")
        assert isinstance(root, SingleElim)
        assert root.eliminated.name == "a"
        assert root.rank == 1
        assert root.bound == 1

    def test_single_generator_power_is_cyclic(self):
        root = build("< a | a^4 >")
        assert isinstance(root, CyclicLeaf)
        assert (root.order, root.bound) == (4, 0)

    def test_negative_power_order_is_length(self):
        root = build("< a | a^-3 >")
        assert isinstance(root, CyclicLeaf)
        assert root.order == 3

    def test_zero_sum_pivot_goes_hnn(self):
        root = build("< a, b | a b a^-1 b^-1 >")
        assert isinstance(root, HnnStep)
        assert root.stable.name == "a"

    def test_all_nonzero_goes_embedding(self):
        root = build("< u, v | u^2 v^3 >")
        assert isinstance(root, EmbedStep)
        assert (root.u.name, root.v.name) == ("u", "v")


class TestFrozenChains:
    def test_torus_chain(self):
        root = build("< a, b | a b a^-1 b^-1 >")
        assert chain_kinds(root) == ["HnnStep", "SingleElim"]
        rep = summarize(root)
        assert (rep.length_bound, rep.tower_bound) == (2, 2)
        assert (rep.hnn_steps, rep.node_count) == (1, 2)
        child = root.child
        assert len(child.presentation.relator) == 2

    def test_trefoil_chain(self):
        root = build("< u, v | u^2 v^3 >")
        assert chain_kinds(root) == ["EmbedStep", "HnnStep", "SingleElim"]
        rep = summarize(root)
        assert (rep.length_bound, rep.tower_bound) == (3, 2)
        hnn = root.child
        assert (hnn.min_subscript, hnn.max_subscript) == (-3, 0)
        elim = hnn.child
        assert elim.eliminated.name == "b#1@-3"
        assert elim.rank == 1

    def test_power_relator_chain(self):
        root = build("< a, b | a^3 >")
        assert chain_kinds(root) == ["FreeSplit", "CyclicLeaf"]
        assert summarize(root).tower_bound == 1

    def test_stable_vanishes_chain(self):
        root = build("< u, v | u v u v >")
        assert chain_kinds(root) == ["EmbedStep", "FreeSplit", "CyclicLeaf"]
        assert root.child.child.order == 2
        assert summarize(root).tower_bound == 1

    def test_genus_two_chain(self):
        root = build("< a, b, c, d | [a, b] [c, d] >")
        assert chain_kinds(root) == ["HnnStep", "SingleElim"]
        rep = summarize(root)
        assert rep.length_bound == 4
        assert rep.tower_bound == 2
        assert root.child.rank == 3

    def test_baumslag_solitar_chain(self):
        root = build("< a, t | t a t^-1 a^-2 >")
        assert isinstance(root, HnnStep)
        assert root.stable.name == "t"
        assert chain_kinds(root) == ["HnnStep", "SingleElim"]
        assert root.bound == 2


class TestBoundArithmetic:
    def test_leaf_bounds(self):
        for text, expected in (
            ("< a | a >", 0),
            ("< a, b | 1 >", 1),
            ("< a | a^5 >", 0),
            ("< a, b | b a b >", 1),
        ):
            leaf = build(text)
            assert leaf.child is None
            assert leaf.bound == leaf.bound_by_rule() == naive_bound(leaf) == expected

    def test_split_bound_is_at_least_one_for_positive_rank(self):
        root = build("< a, b, c | a^3 >")
        assert isinstance(root, FreeSplit)
        assert root.split_off_rank == 2
        assert isinstance(root.child, CyclicLeaf)
        assert root.bound == 1

    def test_hnn_adds_one(self):
        root = build("< a, b | a b a^-1 b^-1 >")
        assert root.bound == 1 + root.child.bound

    def test_embed_passes_through(self):
        root = build("< u, v | u^2 v^3 >")
        assert root.bound == root.child.bound

    def test_bound_of_ignores_stored_bounds(self):
        root = build("< a, b | a b a^-1 b^-1 >")
        tampered = root._replace(bound=root.bound + 5)
        assert naive_bound(tampered) == root.bound
        assert tampered.bound_by_rule() == root.bound
        child = root.child._replace(bound=root.child.bound + 5)
        assert naive_bound(root._replace(child=child)) == root.bound
        assert [v.check for v in verify_certificate(tampered).violations] == ["bound"]

    def test_stored_bounds_match_recomputation(self):
        for text in (
            "< a, b | a b a^-1 b^-1 >",
            "< u, v | u^2 v^3 >",
            "< a, b | a^3 >",
            "< a, t | t a^2 t^-1 a^-3 >",
        ):
            for node in walk(build(text)):
                assert node.bound == naive_bound(node)


class TestSummarize:
    def test_counts_hnn_steps_and_nodes(self):
        rep = summarize(build("< u, v | u^2 v^3 >"))
        assert rep.hnn_steps == 1
        assert rep.node_count == 3

    def test_single_node_chain(self):
        rep = summarize(build("< a | a^4 >"))
        assert rep.node_count == 1
        assert rep.hnn_steps == 0
        assert (rep.length_bound, rep.tower_bound) == (2, 0)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_bound_never_exceeds_half_length(self, seed):
        rng = Random(seed)
        reg = Registry()
        p = random_presentation(rng, reg, max_gens=4, max_len=12)
        root = build_tower(p, reg)
        assert root.bound <= ceil_half(len(p.relator))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    @example(487)  # < a, b, c | b^-2 c b^-2 c >: 6 nodes at |r| = 6
    @example(2631)  # 7 nodes at |r| = 8
    @example(30274)  # 8 nodes at |r| = 9
    @example(72619)  # 9 nodes at |r| = 10
    def test_chain_depth_is_bounded(self, seed):
        rng = Random(seed)
        reg = Registry()
        p = random_presentation(rng, reg, max_gens=4, max_len=12)
        root = build_tower(p, reg)
        assert len(chain_kinds(root)) <= depth_bound(root)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_chain_depth_bound_is_reached(self, k):
        root = build(f"< a, b | b^-1 a^{k} b^-1 a^{k} >")
        n = len(root.presentation.relator)
        assert len(chain_kinds(root)) == depth_bound(root) == n - 1

    def test_chain_passes_do_not_recurse(self):
        # 201 nodes: recursion over the nodes would not fit in 150 frames.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        text = "< a, b | b^-1 a^100 b^-1 a^100 >"
        proc = subprocess.run(
            [sys.executable, "-c", LOW_LIMIT_PIPELINE, text],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["201", "True", "201"]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_rebuild_is_deterministic(self, seed):
        rng = Random(seed)
        reg = Registry()
        p = random_presentation(rng, reg, max_gens=3, max_len=10)
        text = format_presentation(p)
        docs = set()
        for _ in range(2):
            r = Registry()
            docs.add(emit_certificate(build_tower(parse_presentation(text, r), r)))
        assert len(docs) == 1


class TestAlternatives:
    def test_all_towers_torus(self):
        reg = Registry()
        p = parse_presentation("< a, b | a b a^-1 b^-1 >", reg)
        towers = list(all_towers(p, reg))
        assert len(towers) == 2
        assert {t.stable.name for t in towers} == {"a", "b"}
        assert {t.bound for t in towers} == {2}

    def test_all_towers_forced_guard_is_singleton(self):
        reg = Registry()
        p = parse_presentation("< a | a^4 >", reg)
        assert len(list(all_towers(p, reg))) == 1

    def test_best_tower_no_worse_than_default(self):
        for text in (
            "< a, b | a b a^-1 b^-1 >",
            "< u, v | u^2 v^3 >",
            "< a, b, c | a b c a^-1 b^-1 c^-1 >",
        ):
            reg = Registry()
            p = parse_presentation(text, reg)
            default = build_tower(p, reg)
            best, examined = best_tower(p)
            assert best.bound <= default.bound
            assert examined >= 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_every_alternative_respects_length_bound(self, seed):
        rng = Random(seed)
        reg = Registry()
        p = random_presentation(rng, reg, max_gens=3, max_len=8)
        for root in all_towers(p):
            assert root.bound <= ceil_half(len(p.relator))
            for node in walk(root):
                assert node.bound == naive_bound(node)
