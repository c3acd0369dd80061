"""Tests of the benchmark itself: seeded inputs, the checker, counters, spans.

Run with ``python -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from compare import compare
from counters import text_counters
from run import END_TO_END, PLANS
from spans import PER_LAYER, Tracer
from workloads import GENERATORS, Runner, generate, import_program, mutate_assignment, poly_value

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def zw():
    """A fresh import of the program; the modules loaded before are put back."""
    saved = {n: m for n, m in sys.modules.items() if n == "zwreath" or n.startswith("zwreath.")}
    yield import_program()
    for name in [n for n in sys.modules if n == "zwreath" or n.startswith("zwreath.")]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = generate(workload, 7, 40)
    assert first == generate(workload, 7, 40)
    assert first != generate(workload, 8, 40)
    assert generate(workload, 7, 10) == first[:10]


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_planted_roots_are_roots(workload):
    for inst in generate(workload, 3, 60):
        if workload != "oracle-grid":
            assert poly_value(inst["terms"], inst["z"]) == 0
            assert all(any(a[i] for a in inst["terms"]) for i in range(len(inst["z"])))


def test_oracle_grid_is_mostly_non_roots():
    points = generate("oracle-grid", 5, 300)
    roots = sum(poly_value(p["terms"], p["z"]) == 0 for p in points)
    assert 0 < roots < len(points) / 2


def _first(workload, runner, n=1):
    outs = [runner.run(inst) for inst in generate(workload, 1, n)]
    return outs[0] if n == 1 else outs


def test_correct_program_passes_every_check(zw, tmp_path):
    for workload in sorted(GENERATORS):
        out = _first(workload, Runner(zw, workload, tmp_path))
        assert out.attempted >= 1 and out.failures == [], workload


def test_corrupted_witness_is_a_failure(zw, tmp_path, monkeypatch):
    honest = zw.reduction.witness

    def corrupted(f, z, spec):
        asg = honest(f, z, spec)
        asg["y"] = asg["y"] * spec.base_gen(1)
        return asg

    monkeypatch.setattr(zw.reduction, "witness", corrupted)
    out = _first("roots-large", Runner(zw, "roots-large", tmp_path))
    assert any(msg.startswith("check_system") for msg in out.failures)


def test_wrong_root_is_a_failure(zw, tmp_path, monkeypatch):
    honest = zw.reduction.extract_solution
    monkeypatch.setattr(zw.reduction, "extract_solution",
                        lambda out, asg: tuple(v + 1 for v in honest(out, asg)))
    out = _first("roots-large", Runner(zw, "roots-large", tmp_path))
    assert any(msg.startswith("extract") for msg in out.failures)


def test_wrong_oracle_verdict_is_a_failure(zw, tmp_path, monkeypatch):
    honest = zw.reduction.oracle_ef
    monkeypatch.setattr(zw.reduction, "oracle_ef",
                        lambda f, z: (honest(f, z)[0], not honest(f, z)[1]))
    out = _first("oracle-grid", Runner(zw, "oracle-grid", tmp_path))
    assert out.attempted == 1 and len(out.failures) == 1


def test_accepted_mutated_witness_is_a_failure(zw, tmp_path, monkeypatch):
    """A verify that passes the mutated witness is caught by the CLI workload."""
    monkeypatch.setattr(zw.cli, "check_system",
                        lambda system, asg, spec: zw.equations.CheckReport(True))
    out = _first("roots-small", Runner(zw, "roots-small", tmp_path))
    assert out.failures == ["verify mutated: exit 0, expected 1"]


def test_mutation_changes_exactly_one_line():
    text = "x1 := { active: (3); }\ny := { active: (0); b1: a1 - 1 }\n"
    mutated = mutate_assignment(text, 0.9)
    assert mutated == "x1 := { active: (3); }\ny := { active: (1); b1: a1 - 1 }\n"


def test_text_counters_read_the_literal_format():
    system = "# vars: x1 y dp_y_1 dp_y_2\n[x1, {a}] = 1\ny = 1\n"
    asg = "x1 := { active: (2,0); }\ny := { active: (0,0); b1: 3*a1^4*a2^-2 - a1 + 12, b2: a2 }\n"
    counts = text_counters(system, asg)
    assert counts == {"equations": 2, "declared_vars": 4, "delta_blocks": 2,
                      "text_bytes": len(system) + len(asg), "laurent_terms": 4,
                      "coeff_bits": 4, "exponent_span": 4}


def test_counters_repeat_for_the_same_seed(zw, tmp_path):
    for workload in sorted(GENERATORS):
        runs = []
        for _ in range(2):
            runner = Runner(zw, workload, tmp_path)
            runs.append([runner.counters(inst, runner.run(inst))
                         for inst in generate(workload, 2, 2)])
        assert runs[0] == runs[1] and runs[0][0], workload


def test_self_times_sum_to_the_root_span(zw, tmp_path):
    originals = (zw.cli.main, zw.cli.check_system, zw.wreath.WreathElement.__mul__)
    tracer = Tracer()
    for workload in ("roots-small", "iterated-depth"):
        runner = Runner(zw, workload, tmp_path)
        for i, inst in enumerate(generate(workload, 1, 2)):
            tracer.install(zw)
            try:
                out, _ = tracer.instance(f"{workload}-{i}", runner.run, inst)
            finally:
                tracer.uninstall()
            assert out.failures == []
    assert (zw.cli.main, zw.cli.check_system, zw.wreath.WreathElement.__mul__) == originals
    own = tracer.self_times()
    roots = [i for i, rec in enumerate(tracer.spans) if rec[4] == -1]
    assert len(roots) == 4 and all(t >= 0 for t in own)
    for i in roots:
        instance = tracer.spans[i][5]
        total = sum(t for rec, t in zip(tracer.spans, own) if rec[5] == instance)
        assert total == tracer.spans[i][3] - tracer.spans[i][2]
    layer = tracer.per_layer()
    assert layer["cli.verify_s"] > 0 and layer["interp.lift_s"] > 0
    assert layer["equations.equations_checked"] > 0 and layer["wreath.mul_calls"] > 0


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(GENERATORS) == sorted(PLANS)


def _records(spec, seeds, metric=None, values=None):
    """One set of fake records, every metric 1.0 except ``metric``, which takes ``values``."""
    recs = {}
    for w in spec["workloads"]:
        for i, seed in enumerate(seeds):
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
            if metric is not None:
                metrics[metric]["value"] = values[i]
            recs.setdefault(w["name"], []).append(
                {"seed": seed, "counters": {}, "result": {"correct": True, "metrics": metrics}})
    return recs


def test_compare_checks_every_spread_and_pairs_by_seed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(1, 11))
    steady = _records(spec, seeds)
    assert compare(steady, _records(spec, seeds), spec, out=lambda *_: None)
    wide = _records(spec, seeds, "setup_s", [1.0, 2.0] * 5)
    assert not compare(steady, wide, spec, out=lambda *_: None)
    lines = []
    compare(steady, _records(spec, [s + 100 for s in seeds]), spec, out=lines.append)
    assert all(" 0/0 " in ln for ln in lines if ln.lstrip().startswith("setup_s"))
