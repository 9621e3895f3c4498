"""Exact-arithmetic toolkit for finite ontological models.

Finite measurement and preparation scenarios with rational probabilities,
ontic/epistemic classification of properties, local-realizability
decisions with self-verifying witnesses and certificates, and a small
quantum layer that bridges Born probabilities into the exact setting.

The public names load lazily (PEP 562): `ontolab.decide_local` imports
`ontolab.localdecide` on first use and reads the name from it on every
lookup, so a patched or wrapped function in its home module is the one
seen here.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "probcore": (
        "Check",
        "Dist",
        "EmpiricalModel",
        "InvariantViolation",
        "JointOutcome",
        "MeasurementScenario",
        "NegativeWeight",
        "NotASubcontext",
        "OntolabError",
        "Rational",
        "SignallingWitness",
        "SumNotOne",
        "check_no_signalling",
        "is_delta",
        "make_dist",
        "marginalize",
        "mix_empirical",
        "product_dist",
    ),
    "properties": (
        "Classification",
        "Epistemic",
        "InvertedFamily",
        "Ontic",
        "PriorNotFullSupport",
        "Property",
        "bayes_invert",
        "classify",
        "hs_equivalence",
        "supports_overlap",
    ),
    "ontomodel": (
        "CanonicalLocalModel",
        "EPISTEMIC",
        "FactorizationWitness",
        "MarginalIllDefined",
        "NondeterministicWitness",
        "NotLocal",
        "ONTIC",
        "OntologicalModel",
        "ParameterDependenceWitness",
        "UNDEFINED",
        "UnknownPreparation",
        "canonicalize",
        "factorizes",
        "is_deterministic",
        "is_local",
        "is_parameter_independent",
        "observable_property",
        "onticity_report",
        "operational_probabilities",
    ),
    "localdecide": (
        "DEFAULT_ASSIGNMENT_CAP",
        "Feasible",
        "Infeasible",
        "LocalWitness",
        "NonlocalityCertificate",
        "Signalling",
        "SignedWeights",
        "TooManyAssignments",
        "decide_local",
        "global_assignments",
        "lp_feasibility",
        "quasi_local_decomposition",
        "verify_certificate",
        "verify_signed_weights",
        "verify_witness",
    ),
    "prepscen": (
        "OUTSIDE",
        "OVERLAP",
        "BadRegion",
        "DependenceWitness",
        "PBRParams",
        "PreparationModel",
        "PreparationScenario",
        "PrepSignallingWitness",
        "QOutOfRange",
        "as_measurement_model",
        "is_no_preparation_signalling",
        "is_preparation_independent",
        "overlap_event_probability",
        "pbr_counterexample",
        "product_preparation_model",
    ),
}

# public name -> home module
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "quantum")

__all__ = list(_HOME)


def __getattr__(name: str):
    # Not cached in the package globals: the lookup reads the home module
    # each time, so undoing a patch there shows here too.
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
