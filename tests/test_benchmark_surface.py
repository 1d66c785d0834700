"""The benchmark under perfbench/ traces the package by module attribute.

Its traced run replaces each function it times with a wrapper looked up by
name, so removing or renaming one of those names breaks the benchmark but no
other test.  Installing and restoring the wrappers here catches that.  Its
edge-class replay is the benchmark's own step()/advance() agreement check.
"""

import importlib
import os

from pavlov_cycle.dynamics import AllDefect, Strategy

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_benchmark_finds_every_name_it_traces(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    tracer = spans.Tracer()
    try:
        workloads.install_spans(tracer)  # AttributeError on a missing name
        wrapped = [(module, attr, getattr(module, attr), orig) for module, attr, orig in tracer._originals]
    finally:
        tracer.restore()
    assert wrapped
    for module, attr, wrapper, original in wrapped:
        assert wrapper is not original
        assert getattr(module, attr) is original


def test_edge_class_replay_agrees_across_a_refill(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    prefix = workloads.REFILL_SIZE + 1000  # both streams refill once
    cell = workloads.Cell("rp-refill", 50, AllDefect(), Strategy.rp(0.2), 7, prefix)
    tally = workloads.Tally()
    counts = workloads.edge_class_replay([cell], tally)["rp-refill"]
    assert (tally.attempted, tally.failed) == (1, 0), tally.reasons
    assert counts["steps"] == prefix
    assert counts["uniforms"] > workloads.REFILL_SIZE
