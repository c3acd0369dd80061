"""Acceptance suite: one test per criterion, exact checks, stated time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import math
import time

from zwreath.equations import check_system
from zwreath.interp import IteratedSpec, compile_iterated
from zwreath.laurent import aug_valuation
from zwreath.reduction import (compile, extract_solution, oracle_ef, parse_intpoly,
                               witness)
from zwreath.selftest import (check_centralizer_active, check_centralizer_base,
                              check_flatten, check_group_axioms, check_lcs,
                              check_nested_axioms, check_oracle,
                              check_reduction_roundtrip, check_ring_axioms,
                              run_suite)
from zwreath.wreath import GroupSpec, lcs_basis, lcs_rank


def _report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_oracle_sweep_product_polynomial():
    started = time.perf_counter()
    f = parse_intpoly("z1*z2 - 6")
    found = set()
    for z1 in range(-6, 7):
        for z2 in range(-6, 7):
            _, member = oracle_ef(f, (z1, z2), rank=1)
            assert member == (f.evaluate((z1, z2)) == 0), (z1, z2)
            if member:
                found.add((z1, z2))
    expected = {(1, 6), (2, 3), (3, 2), (6, 1), (-1, -6), (-2, -3), (-3, -2), (-6, -1)}
    assert found == expected
    assert len(found) == 8
    _report(1, "oracle sweep of z1*z2 - 6", started, 5)


def test_criterion_2_randomized_oracle_equivalence():
    started = time.perf_counter()
    failures = run_suite("acceptance-oracle", check_oracle, 2000, seed=0)
    assert failures == []
    _report(2, "2000 random oracle samples", started, 60)


def test_criterion_3_reduction_soundness_and_round_trip():
    started = time.perf_counter()
    failures = run_suite("acceptance-roundtrip", check_reduction_roundtrip, 200, seed=0)
    assert failures == []
    _report(3, "200 planted-root reductions", started, 120)


def test_criterion_4_negative_instance_sqrt2():
    started = time.perf_counter()
    f = parse_intpoly("z1^2 - 2")
    assert f.degree() == 2
    for z in range(-10, 11):
        e_f, member = oracle_ef(f, (z,), rank=1)
        assert not member, f"claimed root at z = {z}"
        assert aug_valuation(e_f) < 3
    _report(4, "z^2 - 2 has no root, |z| <= 10", started, 1)


def test_criterion_5_lower_central_series_ranks():
    started = time.perf_counter()
    failures = check_lcs(max_rank=3, max_index=5)
    assert failures == []
    # spot-check the closed form against an explicitly independent count
    for m in range(1, 4):
        for n in range(1, 4):
            spec = GroupSpec(m, n)
            for i in range(2, 6):
                enumerated = len(lcs_basis(i, spec))
                assert lcs_rank(i, spec) == enumerated == n * math.comb(i + m - 2, m - 1)
    _report(5, "lower-central-series ranks m,n<=3, i<=5", started, 1)


def test_criterion_6_centralizer_laws():
    started = time.perf_counter()
    base_failures = run_suite("acceptance-centralizer-base", check_centralizer_base,
                              1000, seed=0)
    active_failures = run_suite("acceptance-centralizer-active", check_centralizer_active,
                                1000, seed=0)
    assert base_failures == []
    assert active_failures == []
    _report(6, "centralizer laws, 1000 per direction", started, 10)


def test_criterion_7_iterated_pipeline_depth_three():
    started = time.perf_counter()
    f = parse_intpoly("z1 - 2")
    ispec = IteratedSpec((1, 1, 1))
    red = compile_iterated(f, ispec)
    asg = red.witness((2,))
    report = check_system(red.system, asg, ispec)
    assert report.ok, report.failures
    assert red.extract_solution(asg) == (2,)
    _report(7, "depth-3 pipeline for z - 2", started, 5)


def test_criterion_8_axiom_property_suites():
    started = time.perf_counter()
    assert run_suite("acceptance-ring", check_ring_axioms, 1000, seed=0) == []
    assert run_suite("acceptance-group", check_group_axioms, 1000, seed=0) == []
    assert run_suite("acceptance-nested", check_nested_axioms, 1000, seed=0) == []
    assert run_suite("acceptance-flatten", check_flatten, 200, seed=0) == []
    _report(8, "axiom suites 1000 each + 200 flatten words", started, 30)


def test_criterion_9_large_root_pipeline():
    started = time.perf_counter()
    f = parse_intpoly("z1 - 1000")
    spec = GroupSpec(1, 1)
    out = compile(f, spec)
    asg = witness(f, (1000,), spec)
    report = check_system(out.system, asg, spec)
    assert report.ok, report.failures
    assert extract_solution(out, asg) == (1000,)
    _report(9, "witness, check and extract for z - 1000", started, 2)
