"""The independent checker (``checker.py``) on networks of 10^5 and 10^6
nodes and on the networks that alterations grow with ``with_edges``."""

import pytest

from netcontrol import GenSpec, analyze, generate
from netcontrol.alteration import apply_plan, ic_to_smc, smc_to_ic_full
from netcontrol.components import (COMPONENT_KINDS, ComponentKind,
                                   largest_component)

from checker import check_analysis


@pytest.mark.parametrize("model", ["er", "sf"])
def test_analyses_at_ten_to_the_fifth_pass_the_checker(model):
    net = generate(GenSpec(model=model, n=100_000, avg_degree=10, seed=7))
    for seed in (0, 3):
        check_analysis(analyze(net, seed))


@pytest.mark.slow
@pytest.mark.parametrize("model", ["er", "sf"])
def test_analyses_at_ten_to_the_sixth_pass_the_checker(model):
    net = generate(GenSpec(model=model, n=1_000_000, avg_degree=10, seed=7))
    check_analysis(analyze(net, 0))


def test_both_alter_sf_steps_pass_the_checker():
    # alter-sf's two steps on SF N=6000, k=10, generator seed 1: saturate
    # the largest component, then cover the largest SMC of the result; the
    # networks before and after each step
    net = generate(GenSpec(model="sf", n=6000, avg_degree=10, seed=1))
    before = analyze(net)
    comp = before.report.component(before.report.cc_max)
    assert comp.kind is ComponentKind.IC
    plan = ic_to_smc(before, comp)
    net = apply_plan(net, plan)
    check_analysis(before)
    check_analysis(analyze(net, 0, plan.matching_after))
    saturated = analyze(net)
    report = saturated.report
    smc = report.kinds == COMPONENT_KINDS.index(ComponentKind.SMC)
    plan = smc_to_ic_full(saturated, report.component(
        largest_component(report.sizes, report.kinds, smc)))
    check_analysis(saturated)
    check_analysis(analyze(apply_plan(net, plan), 0, plan.matching_after))
