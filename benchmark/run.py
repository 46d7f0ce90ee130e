"""Benchmark of asdim: presentation text in, verified certificate out.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Every item goes through the same pipeline: parse_presentation ->
build_tower (best_tower on pivot_search) -> verify_certificate ->
emit_certificate -> parse_certificate -> verify_certificate.

A run times whole rounds of all items, each item's pipeline timed on its
own.  After each item's timed interval its outputs
are judged: in the first round check.py checks them independently and
their exact counts and a digest of the certificate are recorded; in every
later round, the traced one included, the certificate must match that
digest.

- With --trace 0 it times as many rounds as take about S seconds and prints
  the end-to-end metrics.  The set-up time is the median time to import
  asdim in a fresh interpreter, over a few imports timed before the first
  round and after each round, so that they sample the whole run.
- With --trace 1 it times rounds for about S/2 seconds, times the same
  inputs through `asdim batch --json`, then runs one round with spans
  recorded around every phase and every call from asdim.tower and
  asdim.verify into the layer below, writes the spans to benchmark/out/,
  and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from check import ChainStats, CheckFailure, check_item  # noqa: E402

# Fresh imports of asdim timed before the first round and after each round.
SETUP_IMPORTS = 3
MAX_REPORTS = 10
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import asdim\n"
    "print(time.perf_counter() - t)\n"
)


def load_asdim() -> Any:
    """Import asdim from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "asdim", "__init__.py")):
        raise ImportError(f"no asdim package under {SRC}")
    sys.path.insert(0, SRC)
    import asdim

    if os.path.dirname(os.path.dirname(os.path.abspath(asdim.__file__))) != SRC:
        raise ImportError(f"asdim was imported from {asdim.__file__}, not {SRC}")
    return asdim


def import_time() -> float:
    """Time to import asdim in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    ).stdout
    return float(out.strip().splitlines()[-1])


def time_imports(times: list[float]) -> None:
    times.extend(import_time() for _ in range(SETUP_IMPORTS))


def _direct(_name: str, fn: Any, *args: Any) -> Any:
    return fn(*args)


class Pipeline:
    """The per-item pipeline, with each phase callable through a hook so
    the traced round can record a span around it."""

    def __init__(self, asdim: Any, search: bool) -> None:
        self.a = asdim
        self.search = search

    def run(self, text: str, call: Any = _direct) -> tuple[Any, str, Any, bool, int]:
        a = self.a
        reg = a.Registry()
        p = call("parse", a.parse_presentation, text, reg)
        if self.search:
            root, examined = call("build", a.best_tower, p, reg)
        else:
            root, examined = call("build", a.build_tower, p, reg), 1
        ok = call("verify", a.verify_certificate, root).ok
        cert = call("emit", a.emit_certificate, root)
        parsed = call("cert_parse", a.parse_certificate, cert)
        reok = call("reverify", a.verify_certificate, parsed).ok
        return root, cert, parsed, ok and reok, examined


class Reference:
    """What each item gave the first time its outputs passed check.py: a
    digest of its certificate, the chains best_tower examined and the counts
    check.py took.  Every later run of the item must give the same."""

    def __init__(self, n: int) -> None:
        self.digest: list[int | None] = [None] * n
        self.examined = [0] * n
        self.stats: list[ChainStats | None] = [None] * n
        self.wrong = 0  # outputs found wrong, in any round


class Timed:
    """Per-item pipeline times of the rounds run into it.  busy is their
    sum: the wall time of the rounds without the checks made between items
    and the set-up imports made between rounds."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.items = 0
        self.failed = 0
        self.reports = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def report(self, msg: str, exc: bool = False) -> None:
        """Print the first few faults to standard error."""
        self.reports += 1
        if self.reports <= MAX_REPORTS:
            print(msg, file=sys.stderr)
            if exc:
                traceback.print_exc(file=sys.stderr)


def judge(pipe: Pipeline, ref: Reference, i: int, item: workloads.Item, outputs: tuple) -> None:
    """Raise CheckFailure when item i's outputs are wrong: a verification
    rejected them, check.py rejects them (until they have passed it once),
    or they differ from the outputs that passed it."""
    root, cert, parsed, ok, examined = outputs
    if not ok:
        raise CheckFailure("verify_certificate rejected the chain")
    # str hashes are 64-bit SipHash, stable within the process; hashlib is
    # avoided because loading it adds about 3.5 MiB to peak_rss_mb.
    digest = hash(cert)
    if ref.digest[i] is None:
        stats = check_item(item, cert, pipe.a.emit_certificate(parsed))
        if stats.bound != root.bound:
            raise CheckFailure("certificate bound differs from the chain")
        ref.digest[i], ref.examined[i], ref.stats[i] = digest, examined, stats
    elif digest != ref.digest[i] or examined != ref.examined[i]:
        raise CheckFailure("certificate or chains examined differ from the checked run")


def run_round(
    wl: workloads.Workload, pipe: Pipeline, ref: Reference, out: Timed, call: Any = _direct
) -> None:
    """Run every item once through the pipeline, each timed on its own, and
    judge its outputs after its timed interval.  `call` is the hook each
    phase runs through (the traced round records spans with it).  An item
    fails when it raises or when judge finds its outputs wrong."""
    lat = out.latencies
    clock = time.perf_counter
    run = pipe.run
    for i, item in enumerate(wl.items):
        t0 = clock()
        try:
            outputs = call("item", run, item.text, call)
        except Exception:
            lat.append(clock() - t0)
            out.failed += 1
            out.report(f"item {i} raised:", exc=True)
            continue
        lat.append(clock() - t0)
        try:
            judge(pipe, ref, i, item, outputs)
        except CheckFailure as e:
            ref.wrong += 1
            out.failed += 1
            out.report(f"item {i} ({item.text[:60]}): {e}")
    out.items += len(wl.items)


def more_rounds(seconds: float, out: Timed, rounds_done: int, at_least: int) -> int:
    """Further rounds so that all rounds take about `seconds` in total."""
    per_round = max(out.busy / rounds_done, 1e-9)
    return max(at_least - rounds_done, round(seconds / per_round) - rounds_done, 0)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[k - 1]


def _mean(values: list[int]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(
    timed: Timed, ref: Reference, wl: workloads.Workload, setup: float, rss: float
) -> dict:
    good = [s for s in ref.stats if s is not None]
    return {
        "items_per_s": (timed.items / timed.busy, "1/s"),
        "latency_p50_ms": (statistics.median(timed.latencies) * 1e3, "ms"),
        "latency_tail_ms": (percentile(timed.latencies, wl.tail) * 1e3, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MiB"),
        "cert_bytes_per_item": (_mean([s.cert_bytes for s in good]), "bytes"),
        "tower_bound_mean": (_mean([s.bound for s in good]), "dim"),
    }


def cli_pass(wl: workloads.Workload, asdim_cli: Any, ref: Reference, path: str) -> tuple[float, bool]:
    """Time `asdim batch --json FILE` on the round's inputs; return the
    time per item and whether its output agrees with the checked round.
    The CLI builds with build_tower, so its bounds are compared only where
    the pipeline does the same."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(item.text + "\n" for item in wl.items)
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = asdim_cli.main(["batch", "--json", path])
    elapsed = time.perf_counter() - t0
    rows = [json.loads(line) for line in sink.getvalue().splitlines()]
    agree = code == 0 and len(rows) == len(wl.items) and all(r["verified"] for r in rows)
    if agree and not wl.search:
        agree = [r["tower_bound"] for r in rows] == [s and s.bound for s in ref.stats]
    return elapsed / len(wl.items) * 1e3, agree


def per_layer(
    wl: workloads.Workload, ref: Reference, tracer: Any, traced_s: float,
    untraced_s: float, cli_ms: float,
) -> dict:
    n = len(wl.items)
    totals = tracer.totals()

    def ms(*names: str) -> float:
        return sum(totals.get(k, (0, 0, 0))[1] for k in names) / n / 1e6

    def self_ms(*names: str) -> float:
        return sum(totals.get(k, (0, 0, 0))[2] for k in names) / n / 1e6

    def calls(name: str) -> float:
        return totals.get(name, (0, 0, 0))[0] / n

    good = [s for s in ref.stats if s is not None]

    def stat(field: str) -> float:
        return _mean([getattr(s, field) for s in good])

    # The scans of the relator that decide the next step.  The pair choice
    # is counted here because best_tower never calls it (it tries every
    # pair), so on its own it would read 0 ms on pivot_search.
    guards = (
        "rewriting.find_single_occurrence",
        "rewriting.find_zero_exponent",
        "rewriting.split_free_part",
        "rewriting.choose_embedding_pair",
    )
    return {
        "presentations.parse_ms": (ms("parse"), "ms"),
        "certio.emit_ms": (ms("emit"), "ms"),
        "certio.parse_ms": (ms("cert_parse"), "ms"),
        "certio.json_depth": (stat("json_depth"), "levels"),
        "cli.batch_ms": (cli_ms, "ms"),
        "tower.build_ms": (ms("build"), "ms"),
        "tower.self_ms": (self_ms("build"), "ms"),
        "tower.nodes": (stat("nodes"), "count"),
        "tower.hnn_steps": (stat("hnn_steps"), "count"),
        "tower.embed_steps": (stat("embed_steps"), "count"),
        "tower.free_splits": (stat("free_splits"), "count"),
        "tower.towers_examined": (_mean([e for e, s in zip(ref.examined, ref.stats) if s]), "count"),
        "rewriting.guards_ms": (ms(*guards), "ms"),
        "rewriting.choose_pair_calls": (calls("rewriting.choose_embedding_pair"), "count"),
        "rewriting.hnn_rewrite_ms": (ms("rewriting.hnn_rewrite"), "ms"),
        "rewriting.hnn_rewrite_calls": (calls("rewriting.hnn_rewrite"), "count"),
        "rewriting.embedding_ms": (ms("rewriting.zero_sum_embedding"), "ms"),
        "rewriting.embedding_calls": (calls("rewriting.zero_sum_embedding"), "count"),
        "rewriting.max_generators": (stat("max_generators"), "count"),
        "rewriting.max_relator_letters": (stat("max_relator_letters"), "letters"),
        "rewriting.max_relator_syllables": (stat("max_relator_syllables"), "syllables"),
        "verify.verify_ms": (ms("verify"), "ms"),
        "verify.reverify_ms": (ms("reverify"), "ms"),
        "verify.self_ms": (self_ms("verify", "reverify"), "ms"),
        "verify.expanded_letters": (tracer.expanded / n, "letters"),
        "words.substitute_ms": (ms("words.substitute"), "ms"),
        "words.substitute_calls": (calls("words.substitute"), "count"),
        "words.reduce_ms": (ms("words.reduce_word"), "ms"),
        "words.cyclic_compare_ms": (ms("words.equal_as_cyclic_words"), "ms"),
        "words.letters_in": (tracer.letters_in / n, "letters"),
        "trace.overhead_ms": ((traced_s - untraced_s) / n * 1e3, "ms"),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        asdim = load_asdim()
    except ImportError as e:
        print(f"cannot load the program: {e}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    pipe = Pipeline(asdim, wl.search)
    ref = Reference(len(wl.items))
    timed = Timed()
    setup: list[float] = []
    if not args.trace:
        import_time()  # may compile bytecode; not kept
        time_imports(setup)
    run_round(wl, pipe, ref, timed)
    # Taken after one round, which has run every item: later rounds repeat
    # the same work, while the latencies kept grow with the number of rounds
    # a run fits, so a faster program would otherwise read as a larger one.
    rss = peak_rss_mb()

    if not args.trace:
        time_imports(setup)
        for _ in range(more_rounds(args.seconds, timed, 1, wl.min_rounds())):
            run_round(wl, pipe, ref, timed)
            time_imports(setup)
        metrics = end_to_end(timed, ref, wl, statistics.median(setup), rss)
        cli_ok = True
    else:
        import asdim.cli
        from spans import Tracer

        os.makedirs(OUT, exist_ok=True)
        tag = f"{args.workload}-{args.seed}"
        for _ in range(more_rounds(args.seconds / 2, timed, 1, 1)):
            run_round(wl, pipe, ref, timed)
        untraced_s = timed.busy / timed.items * len(wl.items)
        cli_ms, cli_ok = cli_pass(wl, asdim.cli, ref, os.path.join(OUT, f"inputs-{tag}.txt"))
        if not cli_ok:
            print("asdim batch output disagrees with the checked round", file=sys.stderr)
        tracer, traced = Tracer(), Timed()
        tracer.install()
        try:
            run_round(wl, pipe, ref, traced, tracer.call)
        finally:
            tracer.uninstall()
        timed.items += traced.items
        timed.failed += traced.failed
        metrics = per_layer(wl, ref, tracer, traced.busy, untraced_s, cli_ms)
        tracer.write(
            os.path.join(OUT, f"trace-{tag}.json"),
            {"workload": args.workload, "seed": args.seed, "items": len(wl.items)},
        )

    result = {
        "correct": ref.wrong == 0 and cli_ok,
        "attempted": timed.items,
        "failed": timed.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
