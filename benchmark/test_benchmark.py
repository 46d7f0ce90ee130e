"""Self-test of the benchmark: the output check rejects corrupted chains,
and every workload runs end to end on a handful of items.

    python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from check import CheckFailure, check_item
from spans import Tracer

asdim = run.load_asdim()

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _check(item: workloads.Item, cert: str):
    reemitted = asdim.emit_certificate(asdim.parse_certificate(cert))
    return check_item(item, cert, reemitted)


def _find(doc: dict, kind: str) -> dict:
    node = doc["root"]
    while node["kind"] != kind:
        node = node.get("child", node.get("inner"))
    return node


# < u, v | u^2 v^3 > builds an embedding, then an HNN rewrite, then a leaf.
ITEM = workloads.Item(("u", "v"), (("u", 1),) * 2 + (("v", 1),) * 3, "< u, v | u^2 v^3 >")
CERT = asdim.emit_certificate(asdim.build_tower(asdim.parse_presentation(ITEM.text)))


def test_check_accepts_the_built_chain():
    stats = _check(ITEM, CERT)
    assert (stats.nodes, stats.embed_steps, stats.hnn_steps) == (3, 1, 1)
    assert stats.bound == 2
    assert stats.cert_bytes == len(CERT)


def test_check_rejects_a_corrupted_renaming_subscript():
    doc = json.loads(CERT)
    _find(doc, "case1_hnn")["renaming"][0][2] += 1
    with pytest.raises(CheckFailure, match="HNN child"):
        _check(ITEM, json.dumps(doc, indent=2))


def test_check_rejects_a_corrupted_embedding_exponent():
    doc = json.loads(CERT)
    _find(doc, "case2_embed")["alpha"] += 1
    with pytest.raises(CheckFailure, match="embedding image"):
        _check(ITEM, json.dumps(doc, indent=2))


def test_check_rejects_a_relator_other_than_the_generated_one():
    other = dataclasses.replace(ITEM, letters=ITEM.letters[::-1])
    with pytest.raises(CheckFailure, match="generated letters"):
        _check(other, CERT)


def test_check_rejects_a_reemission_that_differs():
    with pytest.raises(CheckFailure, match="byte-identical"):
        check_item(ITEM, CERT, CERT + " ")


def _small(name: str) -> workloads.Workload:
    """The five cheapest items of the workload's seed-1 round."""
    wl = workloads.make(name, 1)
    items = sorted(wl.items, key=lambda it: len(it.letters))[:5]
    return dataclasses.replace(wl, items=tuple(items))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_end_to_end(name):
    wl = _small(name)
    pipe = run.Pipeline(asdim, wl.search)
    ref, timed = run.Reference(len(wl.items)), run.Timed()
    run.run_round(wl, pipe, ref, timed)
    assert ref.wrong == 0 and None not in ref.stats and None not in ref.digest

    run.run_round(wl, pipe, ref, timed)
    assert (timed.items, timed.failed, len(timed.latencies)) == (10, 0, 10)
    e2e = run.end_to_end(timed, ref, wl, setup=0.05, rss=run.peak_rss_mb())
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value, _ in e2e.values())

    tracer, traced = Tracer(), run.Timed()
    tracer.install()
    try:
        run.run_round(wl, pipe, ref, traced, tracer.call)
    finally:
        tracer.uninstall()
    assert (traced.items, traced.failed, ref.wrong) == (5, 0, 0)
    assert asdim.tower.hnn_rewrite.__module__ == "asdim.rewriting"  # unwrapped again
    layers = run.per_layer(wl, ref, tracer, traced.busy, timed.busy / 2, cli_ms=0.1)
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layers}.items())
    items = {span[1] for span in tracer.spans}
    assert items == set(range(len(wl.items)))


def test_later_round_must_repeat_the_checked_certificate():
    wl = _small("random_batch")
    pipe = run.Pipeline(asdim, wl.search)
    ref, timed = run.Reference(len(wl.items)), run.Timed()
    run.run_round(wl, pipe, ref, timed)
    ref.digest[2] = hash("another certificate")
    run.run_round(wl, pipe, ref, timed)
    assert (timed.failed, ref.wrong) == (1, 1)


def test_expanded_letters_come_from_the_verifier_calls():
    tracer = Tracer()
    tracer.install()
    try:
        ok = asdim.verify_certificate(asdim.parse_certificate(CERT)).ok
    finally:
        tracer.uninstall()
    assert ok
    # The HNN check expands each child letter x_i to t^i x t^-i; the
    # embedding check maps u^2 v^3 under u -> b t^-3, v -> t^2.
    doc = json.loads(CERT)
    hnn = _find(doc, "case1_hnn")
    sizes = {f: 1 + 2 * abs(i) for f, _, i in hnn["renaming"]}
    child = hnn["child"]["presentation"].split("|")[1].strip(" >")
    hnn_letters = 0
    for tok in child.split():
        name, _, exp = tok.partition("^")
        hnn_letters += sizes[name] * abs(int(exp or 1))
    assert tracer.expanded == hnn_letters + 2 * 4 + 3 * 2


def test_more_rounds_fills_the_run_and_keeps_the_minimum():
    timed = run.Timed()
    timed.latencies = [0.125, 0.125]  # one round of 0.25 s
    assert run.more_rounds(1.0, timed, 1, 1) == 3
    assert run.more_rounds(0.1, timed, 1, 1) == 0
    assert run.more_rounds(0.1, timed, 1, 2) == 1


def test_workloads_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make(name, 7) == workloads.make(name, 7)
    assert workloads.random_batch(1).items != workloads.random_batch(2).items


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "deep_chains",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
