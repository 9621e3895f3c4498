"""Which ontolab functions the traced run wraps, and the per-layer metrics
derived from their spans and counters.

Layers are named after ontolab's modules. An `_ms` metric is the inclusive
time of the named calls (nested calls of the same group counted once),
except the self times: `localdecide.decide_self_ms`,
`localdecide.signed_self_ms`, `modelio.parse_ms`, `ontomodel.checks_ms`,
`prepscen.checks_ms`, `properties.checks_ms` and `quantum.ms`. A self time
leaves out what the wrapped calls beneath it cover, so a model build that
a parse triggers counts under the build, not under the parse.
"""

from __future__ import annotations

import statistics

from ontolab import NonlocalityCertificate

from recorder import inclusive_time, self_time, self_times

LD = "ontolab.localdecide"
PC = "ontolab.probcore"
OM = "ontolab.ontomodel"
PS = "ontolab.prepscen"
PR = "ontolab.properties"
QU = "ontolab.quantum"
MIO = "ontolab.cli.modelio"

EMPIRICAL_BUILD = "probcore.EmpiricalModel"
ONTOLOGICAL_BUILD = "ontomodel.OntologicalModel"
BUILDS = (EMPIRICAL_BUILD, ONTOLOGICAL_BUILD)


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _on_solve(rec, rows, rhs):
    rec.count("localdecide.solve_calls")
    rec.count("localdecide.tableau_rows", len(rows))
    rec.count("localdecide.tableau_cols", len(rows[0]) if rows else 0)


def _on_decided(rec, result, *args, **kwargs):
    if isinstance(result, NonlocalityCertificate):
        values = list(result.coefficients.values()) + [result.model_value, result.local_bound]
        rec.maximum("localdecide.certificate_max_bits", max(_bits(v) for v in values))


def _on_empirical_build(rec, model):
    rec.count("probcore.model_builds")
    rec.count("probcore.support_checked", sum(len(d.weights) for d in model.tables.values()))


def _on_ontological_build(rec, model):
    rec.count("probcore.support_checked", sum(len(d.weights) for d in model.responses.values()))


def _on_events(rec, result, scenario, context):
    rec.count("probcore.carrier_events", len(result))
    if any(rec.inside(name) for name in BUILDS):
        rec.count("probcore.carrier_events_in_builds", len(result))


def _on_parse(rec, text):
    rec.count("modelio.bytes_parsed", len(text.encode("utf-8")) if isinstance(text, str) else len(text))


def _plain(layer, module, names):
    return [(f"{layer}.{n}", f"{module}:{n}", None, None) for n in names]


SOLVE = "localdecide.lp_feasibility"
DECIDE = "localdecide.decide_local"
SIGNED = "localdecide.quasi_local_decomposition"
VERIFY = ("localdecide.verify_witness", "localdecide.verify_certificate", "localdecide.verify_signed_weights")
ONTO_CHECKS = (
    "is_deterministic",
    "is_parameter_independent",
    "is_local",
    "factorizes",
    "observable_property",
    "onticity_report",
    "canonicalize",
    "operational_probabilities",
)
PREP_CHECKS = ("is_no_preparation_signalling", "is_preparation_independent", "overlap_event_probability")
PROPERTY_CHECKS = ("classify", "bayes_invert", "supports_overlap", "hs_equivalence")
QUANTUM_CALLS = ("born", "rationalize", "psi_complete_model", "observable_epistemicity", "steering_demo")

# (span name, target, on_call, on_return); see Recorder.wrap.
TARGETS = (
    [
        (SOLVE, f"{LD}:lp_feasibility", _on_solve, None),
        ("localdecide.global_assignments", f"{LD}:global_assignments", None, None),
        (DECIDE, f"{LD}:decide_local", None, _on_decided),
        (SIGNED, f"{LD}:quasi_local_decomposition", None, None),
        ("probcore.check_no_signalling", f"{PC}:check_no_signalling", None, None),
        (EMPIRICAL_BUILD, f"{PC}:EmpiricalModel.__post_init__", _on_empirical_build, None),
        (ONTOLOGICAL_BUILD, f"{OM}:OntologicalModel.__post_init__", _on_ontological_build, None),
        ("probcore.events", f"{PC}:MeasurementScenario.events", None, _on_events),
        ("modelio.parse_model_file", f"{MIO}:parse_model_file", _on_parse, None),
        ("modelio.serialize_model_file", f"{MIO}:serialize_model_file", None, None),
        ("cli.main", "ontolab.cli.main:main", None, None),
        ("cli.emit", "ontolab.cli.main:emit", None, None),
        ("cli.load_model", "ontolab.cli.zoo:load_model", None, None),
    ]
    + _plain("localdecide", LD, [v.split(".")[1] for v in VERIFY])
    + _plain("ontomodel", OM, ONTO_CHECKS)
    + _plain("prepscen", PS, PREP_CHECKS)
    + _plain("properties", PR, PROPERTY_CHECKS)
    + _plain("quantum", QU, QUANTUM_CALLS)
)

# name -> unit, in report order. cli.interpreter_ms, cli.import_ms and
# cli.import_core_ms come from child processes, not from spans.
UNITS = {
    "localdecide.solve_ms": "ms",
    "localdecide.solve_calls": "count",
    "localdecide.tableau_rows": "count",
    "localdecide.tableau_cols": "count",
    "localdecide.solve_share": "1",
    "localdecide.enumerate_ms": "ms",
    "localdecide.decide_self_ms": "ms",
    "localdecide.verify_ms": "ms",
    "localdecide.signed_self_ms": "ms",
    "localdecide.certificate_max_bits": "bits",
    "probcore.model_build_ms": "ms",
    "probcore.model_builds": "count",
    "probcore.carrier_events": "count",
    "probcore.support_per_carrier_event": "1",
    "probcore.no_signalling_ms": "ms",
    "modelio.parse_ms": "ms",
    "modelio.serialize_ms": "ms",
    "modelio.bytes_parsed": "bytes",
    "ontomodel.model_build_ms": "ms",
    "ontomodel.checks_ms": "ms",
    "prepscen.checks_ms": "ms",
    "properties.checks_ms": "ms",
    "quantum.ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_core_ms": "ms",
    "cli.zoo_load_ms": "ms",
    "cli.command_ms": "ms",
    "cli.render_ms": "ms",
}


def layer_metrics(rec, child_ms: dict) -> tuple:
    """Per-layer metrics from a recorder, plus notes for the report.

    `child_ms` holds the cli.interpreter_ms, cli.import_ms and
    cli.import_core_ms figures measured in child processes.
    """
    spans = rec.spans
    selfs = self_times(spans)
    c = rec.counters

    def incl(*names):
        return inclusive_time(spans, names) * 1000.0

    def own(*names):
        return self_time(spans, selfs, names) * 1000.0

    solve = incl(SOLVE)
    decide = incl(DECIDE)
    useful = c.get("probcore.support_checked", 0)
    attempted = max(c.get("probcore.carrier_events_in_builds", 0), useful)
    values = {
        "localdecide.solve_ms": solve,
        "localdecide.solve_calls": c.get("localdecide.solve_calls", 0),
        "localdecide.tableau_rows": c.get("localdecide.tableau_rows", 0),
        "localdecide.tableau_cols": c.get("localdecide.tableau_cols", 0),
        "localdecide.solve_share": solve / decide if decide else 0.0,
        "localdecide.enumerate_ms": incl("localdecide.global_assignments"),
        "localdecide.decide_self_ms": own(DECIDE),
        "localdecide.verify_ms": incl(*VERIFY),
        "localdecide.signed_self_ms": own(SIGNED),
        "localdecide.certificate_max_bits": c.get("localdecide.certificate_max_bits", 0),
        "probcore.model_build_ms": incl(EMPIRICAL_BUILD),
        "probcore.model_builds": c.get("probcore.model_builds", 0),
        "probcore.carrier_events": c.get("probcore.carrier_events", 0),
        "probcore.support_per_carrier_event": useful / attempted if attempted else 0.0,
        "probcore.no_signalling_ms": incl("probcore.check_no_signalling"),
        "modelio.parse_ms": own("modelio.parse_model_file"),
        "modelio.serialize_ms": incl("modelio.serialize_model_file"),
        "modelio.bytes_parsed": c.get("modelio.bytes_parsed", 0),
        "ontomodel.model_build_ms": incl(ONTOLOGICAL_BUILD),
        "ontomodel.checks_ms": own(*(f"ontomodel.{n}" for n in ONTO_CHECKS)),
        "prepscen.checks_ms": own(*(f"prepscen.{n}" for n in PREP_CHECKS)),
        "properties.checks_ms": own(*(f"properties.{n}" for n in PROPERTY_CHECKS)),
        "quantum.ms": own(*(f"quantum.{n}" for n in QUANTUM_CALLS)),
        "cli.zoo_load_ms": incl("cli.load_model"),
        "cli.command_ms": incl("cli.main"),
        "cli.render_ms": incl("cli.emit"),
        **child_ms,
    }
    notes = {
        "localdecide.solve_share base (decide_local ms)": round(decide, 3),
        "probcore.support_per_carrier_event base (carrier events enumerated to validate)": attempted,
    }
    return {name: (values[name], UNITS[name]) for name in UNITS}, notes


def decide_p50_by_rung(rec, rung_of_op: dict) -> dict:
    """Median decide_local time per rung; `rung_of_op` maps the ids of the
    cycle's decide ops to their rungs."""
    by_rung: dict = {}
    for s in rec.spans:
        if s.name == DECIDE and s.op in rung_of_op:
            by_rung.setdefault(rung_of_op[s.op], []).append((s.end - s.start) * 1000.0)
    return {rung: statistics.median(v) for rung, v in sorted(by_rung.items())}
