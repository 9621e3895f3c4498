"""The recorder wraps ontolab from the outside and unwraps cleanly."""

import random

import ontolab as ol
from ontolab import localdecide, probcore
from ontolab.cli import main as climain

import gen
import layers
from recorder import Recorder


def bindings():
    return {
        "ol.decide_local": ol.decide_local,
        "localdecide.lp_feasibility": localdecide.lp_feasibility,
        "localdecide.check_no_signalling": localdecide.check_no_signalling,
        "climain.decide_local": climain.decide_local,
        "climain.main": climain.main,
        "events": probcore.MeasurementScenario.__dict__["events"],
        "post_init": probcore.EmpiricalModel.__dict__["__post_init__"],
    }


def test_install_rebinds_everywhere_and_uninstall_restores():
    before = bindings()
    rec = Recorder(layers.TARGETS)
    for _ in range(2):  # the second round reuses the first round's plan
        rec.install()
        try:
            during = bindings()
            assert all(during[k] is not before[k] for k in before)
        finally:
            rec.uninstall()
        after = bindings()
        assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_counters_count():
    e = gen.nonlocal_instance(random.Random(1), gen.RUNGS[0], 1)
    rec = Recorder(layers.TARGETS).install()
    try:
        rec.op = 0
        result = ol.decide_local(e)
    finally:
        rec.uninstall()
    names = [s.name for s in rec.spans]
    assert names[0] == layers.DECIDE
    solve = names.index(layers.SOLVE)
    assert rec.spans[solve].parent == 0
    assert all(s.op == 0 for s in rec.spans)
    assert rec.counters["localdecide.solve_calls"] == 1
    assert rec.counters["localdecide.tableau_rows"] == 17  # 16 events plus normalisation
    assert rec.counters["localdecide.tableau_cols"] == 16
    bits = max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for v in [*result.coefficients.values(), result.model_value, result.local_bound]
    )
    assert rec.counters["localdecide.certificate_max_bits"] == bits


def test_layer_metrics_report_every_metric_with_its_unit():
    rec = Recorder()
    metrics, _ = layers.layer_metrics(rec, {"cli.interpreter_ms": 1.0, "cli.import_ms": 2.0, "cli.import_core_ms": 3.0})
    assert list(metrics) == list(layers.UNITS)
    assert all(unit == layers.UNITS[name] for name, (_, unit) in metrics.items())
