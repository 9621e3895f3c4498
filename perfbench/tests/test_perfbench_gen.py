"""The seeded generators produce the verdicts they promise."""

import random

import pytest

import ontolab as ol

import gen
import workloads

SMALLEST = gen.RUNGS[0]


def test_smallest_rung_local_instances_decide_local():
    rng = random.Random(7)
    scenario = gen.rung_scenario(SMALLEST)
    for npoints in range(1, 7):
        e = gen.local_instance(rng, scenario, npoints)
        assert ol.check_no_signalling(e)
        result = ol.decide_local(e)
        assert isinstance(result, ol.LocalWitness)
        assert ol.verify_witness(e, result)


@pytest.mark.parametrize("visibility", gen.VISIBILITIES)
def test_smallest_rung_nonlocal_instances_decide_nonlocal(visibility):
    e = gen.nonlocal_instance(random.Random(3), SMALLEST, visibility)
    assert ol.check_no_signalling(e)
    result = ol.decide_local(e)
    assert isinstance(result, ol.NonlocalityCertificate)
    assert ol.verify_certificate(e, result)


def test_nonlocal_instance_with_more_outcomes_is_nonlocal():
    # The coarse-graining argument in nonlocal_instance at its weakest
    # visibility and with a third outcome.
    e = gen.nonlocal_instance(random.Random(5), (2, 2, 3), gen.VISIBILITIES[0])
    assert ol.check_no_signalling(e)
    assert isinstance(ol.decide_local(e), ol.NonlocalityCertificate)


def test_every_op_of_a_smallest_rung_cycle_passes():
    zoo_ops = gen.ladder_zoo_ops()
    assert {op.local for op in zoo_ops} == {True, False}
    for lop in zoo_ops:
        assert workloads.decide_op(lop), lop.name
    rng = random.Random(11)
    scenario = gen.rung_scenario(SMALLEST)
    lop = gen.LadderOp("signed", "2-2-2", "", gen.nonlocal_instance(rng, SMALLEST, 1), False)
    assert workloads.signed_op(lop)
    lop = gen.LadderOp("decide", "2-2-2", "", gen.local_instance(rng, scenario, 3), True)
    assert workloads.decide_op(lop)


def test_wrong_expected_verdict_fails_the_op():
    e = gen.local_instance(random.Random(1), gen.rung_scenario(SMALLEST), 2)
    assert not workloads.decide_op(gen.LadderOp("decide", "2-2-2", "", e, False))


def test_same_seed_same_cycle():
    zoo_ops = gen.ladder_zoo_ops()
    a = gen.ladder_cycle(random.Random(4), zoo_ops)
    b = gen.ladder_cycle(random.Random(4), zoo_ops)
    assert [(op.rung, op.name, op.model) for op in a] == [(op.rung, op.name, op.model) for op in b]


@pytest.mark.parametrize("signalling", [False, True])
def test_wide_empirical_two_contexts_verdict(signalling):
    op = gen.wide_empirical_two(random.Random(2), 6, signalling)
    assert bool(ol.check_no_signalling(op.model)) == op.passes == (not signalling)
    assert workloads.wide_op(op)


@pytest.mark.parametrize("dependent", [False, True])
def test_wide_ontological_verdict(dependent):
    op = gen.wide_ontological(random.Random(2), 6, 3, dependent)
    assert bool(ol.is_parameter_independent(op.model)) == op.passes == (not dependent)
    assert workloads.wide_op(op)


def test_cli_cycle_exit_codes_match_the_zoo(tmp_path):
    files = workloads.write_zoo_files(tmp_path)
    cmds = gen.cli_cycle(random.Random(9), files)
    assert len({c.label for c in cmds}) == len(cmds)
    for cmd in cmds:
        assert workloads.run_in_process(cmd), cmd.argv


def test_cli_check_rejects_a_wrong_exit_code():
    cmd = gen.CliCommand("demo chsh", ("demo", "chsh"), 0, "text")
    assert not workloads.check_output(cmd, 3, "exit 3\n")
