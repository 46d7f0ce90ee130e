"""Independent replay of a decomposition chain.

The verifier re-derives every claim a node makes from the node's own
presentation using only word arithmetic (reduce, substitute, exponent and
occurrence counts, cyclic comparison); it never calls the functions that
built the chain.  Violations come back as data, one entry per failed
check, so a caller can report all of them at once.

Replay is exact where the construction is exact: an HNN node's child
relator, expanded through the recorded renaming, must reproduce the
parent relator letter for letter.  Only the embedding image, which is
defined up to conjugacy by cyclic reduction, is compared as a cyclic
word.

The HNN expansion is telescoped.  Replacing each child letter x_k^(e_k),
renamed from base^(e_k) at subscript i_k, by its conjugate
t^(i_k) base^(e_k) t^(-i_k) gives a word in which every t^(-i_k) is
followed by t^(i_(k+1)).  The verifier writes each such pair as the
single power t^(i_(k+1) - i_k), that is t^(i_1) base_1 t^(i_2 - i_1)
base_2 ... base_n t^(-i_n).  The two words differ only by free
cancellations, so they have the same freely reduced form, and the check
remains pure free-group arithmetic.  The telescoped word is reduced as
2|s| + 1 runs (words.fold_runs), each power of t one run, and written
out as letters to compare with the parent relator only when it has |r|
of them, so the work is linear in |s| + |r| however large the stored
subscripts are.

The verifier also checks the preconditions that make a step's claim
follow: an HNN renaming maps distinct fresh generators to distinct
(base, subscript) rows whose bases are parent generators other than the
stable letter, and an embedding's stable and carrier letters are two new
generators, so the inner presentation has as many generators as the
parent.

The nodes are checked in one loop from the root down.  A node's kind
name and bound rule come from its class in asdim.tower, the rule the
builder applies, so the verifier has no bound arithmetic of its own.  A
rule only maps stored fields to an integer: the verifier still calls no
rewriting code.
"""

from __future__ import annotations

from .presentations import letters_of
from .tower import (
    CyclicLeaf,
    EmbedStep,
    FreeLeaf,
    FreeSplit,
    HnnStep,
    Node,
    SingleElim,
    walk,
)
from .words import (
    Letter,
    Word,
    _Record,
    concat,
    equal_as_cyclic_words,
    exponent_sum,
    fold_runs,
    generator_power,
    letter_pair,
    occurrence_count,
    reduce_word,  # noqa: F401  (benchmark/spans.py wraps this name)
    single,
    substitute,
)

__all__ = ["VerificationReport", "Violation", "verify_certificate"]


class Violation(_Record):
    __slots__ = ("depth", "kind", "check", "detail")

    def __str__(self) -> str:
        return f"depth {self.depth} ({self.kind}): {self.check}: {self.detail}"


class VerificationReport(_Record):
    __slots__ = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "certificate ok"
        return "\n".join(str(v) for v in self.violations)


def verify_certificate(root: Node) -> VerificationReport:
    out: list[Violation] = []
    for depth, node in enumerate(walk(root)):
        checks = _CHECKS.get(type(node))
        if checks is None:
            name = type(node).__name__
            out.append(Violation(depth, name, "kind", "unknown node type"))
            break
        kind = node.kind

        def flag(check: str, detail: str) -> None:
            out.append(Violation(depth, kind, check, detail))

        checks(node, node.presentation.relator, flag)
        expected = node.bound_by_rule()
        if node.bound != expected:
            flag("bound", f"stored {node.bound}, arithmetic gives {expected}")
    return VerificationReport(tuple(out))


def _verify_free_leaf(node: FreeLeaf, r: Word, flag) -> None:
    p = node.presentation
    if len(r) == 0:
        expected = len(p.generators)
    elif len(r) == 1:
        expected = len(p.generators) - 1
    else:
        flag("relator shape", f"relator has length {len(r)}, expected 0 or 1")
        expected = None
    if expected is not None and node.rank != expected:
        flag("rank", f"stored {node.rank}, expected {expected}")


def _verify_cyclic_leaf(node: CyclicLeaf, r: Word, flag) -> None:
    p = node.presentation
    if len(letters_of(p)) != 1 or len(p.generators) != 1:
        flag("relator shape", "not a one-generator power presentation")
    if node.order != len(r):
        flag("order", f"stored {node.order}, relator length {len(r)}")
    if node.order < 2:
        flag("order", f"stored {node.order}, expected at least 2")


def _verify_single_elim(node: SingleElim, r: Word, flag) -> None:
    gens = node.presentation.generators
    if node.eliminated not in gens:
        flag("eliminated", f"{node.eliminated.name} is not a generator here")
    n = occurrence_count(r, node.eliminated)
    if n != 1:
        flag("occurrence", f"{node.eliminated.name} occurs {n} times, need exactly 1")
    if node.rank != len(gens) - 1:
        flag("rank", f"stored {node.rank}, expected {len(gens) - 1}")


def _verify_free_split(node: FreeSplit, r: Word, flag) -> None:
    p = node.presentation
    core = node.child.presentation
    if core.relator.letters != r.letters:
        flag("core relator", "differs from the parent relator")
    parent_set = set(p.generators)
    core_set = set(core.generators)
    if not core_set <= parent_set:
        flag("core generators", "not a subset of the parent generators")
    occurring = letters_of(p)
    absent = [g for g in p.generators if g not in core_set]
    for g in absent:
        if g in occurring:
            flag("split-off absent", f"{g.name} occurs in the relator")
    for g in core.generators:
        if g not in occurring:
            flag("core occurring", f"{g.name} does not occur in the relator")
    if node.split_off_rank != len(absent):
        flag("split-off rank", f"stored {node.split_off_rank}, expected {len(absent)}")


def _verify_hnn(node: HnnStep, r: Word, flag) -> None:
    t = node.stable
    child_p = node.child.presentation
    s = child_p.relator

    if t not in node.presentation.generators:
        flag("stable letter", f"{t.name} is not a generator here")
    t_sum = exponent_sum(r, t)
    if t_sum != 0:
        flag("stable exponent", f"exponent sum of {t.name} is {t_sum}")
    t_count = occurrence_count(r, t)
    if t_count < 2:
        flag("stable occurrences", f"{t.name} occurs {t_count} times")

    entries = node.renaming
    fresh = {e.fresh for e in entries}
    if fresh != set(child_p.generators):
        flag("renaming", "renamed generators do not match the child generators")
    if len(fresh) != len(entries):
        flag("renaming", "a fresh generator names more than one row")
    if len({(e.base, e.subscript) for e in entries}) != len(entries):
        flag("renaming", "two rows name the same (base, subscript) conjugate")
    parent_gens = set(node.presentation.generators)
    for e in entries:
        if e.base == t or e.base not in parent_gens:
            flag(
                "renaming",
                f"base {e.base.name} of {e.fresh.name} is not a non-stable"
                " parent generator",
            )

    # Telescoped expansion on runs, see the module docstring: the run
    # t^(i_k - i_(k-1)) then base^(e_k) for each child letter, and
    # t^(-i_n) at the end.  A run's key is its generator's letter pair.
    pairs = {g: letter_pair(g) for g in {t, *(e.base for e in entries)}}
    rows = {e.fresh: (e.subscript, pairs[e.base]) for e in entries}
    runs: list[tuple] = []
    at = 0
    for l in s.letters:
        row = rows.get(l.gen)
        if row is None:
            flag("renaming", f"no entry for child generator {l.gen.name}")
            break
        runs += ((pairs[t], row[0] - at), (row[1], l.sign))
        at = row[0]
    else:
        runs.append((pairs[t], -at))
        folded = fold_runs(runs)
        same = sum([abs(e) for _, e in folded]) == len(r)
        if same:
            letters: list[Letter] = []
            for pair, e in folded:
                letters += (pair[e < 0],) * abs(e)
            same = tuple(letters) == r.letters
        if not same:
            flag("expansion", "expanded child relator differs from the parent relator")

    if node.rewritten.letters != s.letters:
        flag("rewritten word", "does not match the child relator")

    # "expansion" and "stable occurrences" imply this (each child letter is
    # one non-stable parent letter); it stays as a direct O(1) guard.
    if len(s) > len(r) - 2:
        flag("length", f"child relator has length {len(s)}, parent {len(r)}")

    present = letters_of(child_p)
    family = [
        e.subscript for e in entries if e.base == node.base and e.fresh in present
    ]
    if not family:
        flag("pivot family", f"no occurring conjugate of {node.base.name}")
    else:
        lo, hi = min(family), max(family)
        if node.min_subscript != lo:
            flag("min subscript", f"stored {node.min_subscript}, expected {lo}")
        if node.max_subscript != hi:
            flag("max subscript", f"stored {node.max_subscript}, expected {hi}")


def _verify_embed(node: EmbedStep, r: Word, flag) -> None:
    p = node.presentation
    u, v = node.u, node.v
    stable, carrier, image = node.stable, node.carrier, node.image

    if u == v:
        flag("pair", "u and v are the same generator")
    for g, label in ((u, "u"), (v, "v")):
        if g not in p.generators:
            flag("pair", f"{label} = {g.name} is not a generator here")
            return

    alpha = exponent_sum(r, u)
    beta = exponent_sum(r, v)
    if node.alpha != alpha or alpha == 0:
        flag("alpha", f"stored {node.alpha}, relator gives {alpha}")
    if node.beta != beta or beta == 0:
        flag("beta", f"stored {node.beta}, relator gives {beta}")

    u_image = concat(single(carrier), generator_power(stable, -beta))
    v_image = generator_power(stable, alpha)
    recomputed = substitute(r, {u: u_image, v: v_image})
    if not equal_as_cyclic_words(image, recomputed):
        flag("image", "stored image is not the rewritten relator")

    retained = [g for g in p.generators if g not in (u, v)]
    if stable == carrier:
        flag("fresh letters", "stable and carrier are the same generator")
    for g, label in ((stable, "stable"), (carrier, "carrier")):
        if g in retained:
            flag("fresh letters", f"{label} {g.name} is a retained parent generator")

    stable_sum = exponent_sum(image, stable)
    if stable_sum != 0:
        flag("image exponent", f"stable letter has exponent sum {stable_sum}")
    if occurrence_count(image, carrier) < 1:
        flag("image carrier", "carrier letter does not occur in the image")

    inner_p = node.child.presentation
    if inner_p.relator.letters != image.letters:
        flag("inner relator", "differs from the stored image")
    expected_gens = {stable, carrier} | set(retained)
    if set(inner_p.generators) != expected_gens:
        flag("inner generators", "do not match the embedding construction")
    if len(inner_p.generators) != len(p.generators):
        flag(
            "inner generators",
            f"{len(inner_p.generators)} generators, parent has {len(p.generators)}",
        )


_CHECKS = {
    FreeLeaf: _verify_free_leaf,
    CyclicLeaf: _verify_cyclic_leaf,
    SingleElim: _verify_single_elim,
    FreeSplit: _verify_free_split,
    HnnStep: _verify_hnn,
    EmbedStep: _verify_embed,
}
