"""The package namespace: every public name resolves lazily, from the layer
that defines it, and nothing is cached in the package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ontolab

# The names the package exported when it imported every layer eagerly,
# by the module that defines them.
EAGER_EXPORTS = {
    "probcore": """Check Dist EmpiricalModel InvariantViolation JointOutcome
        MeasurementScenario NegativeWeight NotASubcontext OntolabError Rational
        SignallingWitness SumNotOne check_no_signalling is_delta make_dist
        marginalize mix_empirical product_dist""",
    "properties": """Classification Epistemic InvertedFamily Ontic
        PriorNotFullSupport Property bayes_invert classify hs_equivalence
        supports_overlap""",
    "ontomodel": """CanonicalLocalModel EPISTEMIC FactorizationWitness
        MarginalIllDefined NondeterministicWitness NotLocal ONTIC
        OntologicalModel ParameterDependenceWitness UNDEFINED
        UnknownPreparation canonicalize factorizes is_deterministic is_local
        is_parameter_independent observable_property onticity_report
        operational_probabilities""",
    "localdecide": """DEFAULT_ASSIGNMENT_CAP Feasible Infeasible LocalWitness
        NonlocalityCertificate Signalling SignedWeights TooManyAssignments
        decide_local global_assignments lp_feasibility
        quasi_local_decomposition verify_certificate verify_signed_weights
        verify_witness""",
    "prepscen": """OUTSIDE OVERLAP BadRegion DependenceWitness PBRParams
        PreparationModel PreparationScenario PrepSignallingWitness QOutOfRange
        as_measurement_model is_no_preparation_signalling
        is_preparation_independent overlap_event_probability
        pbr_counterexample product_preparation_model""",
}
HOME = {name: module for module, names in EAGER_EXPORTS.items() for name in names.split()}


def test_all_lists_the_eager_exports():
    assert sorted(ontolab.__all__) == sorted(HOME)
    assert set(ontolab.__all__) <= set(dir(ontolab))


@pytest.mark.parametrize("name", sorted(HOME))
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"ontolab.{HOME[name]}")
    assert getattr(ontolab, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from ontolab import *", namespace)
    assert all(namespace[name] is getattr(ontolab, name) for name in HOME)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ontolab.no_such_name
    assert not hasattr(ontolab, "no_such_name")


def test_a_patched_home_attribute_shows_through_and_is_gone_after_undo(monkeypatch):
    from ontolab import localdecide

    original = localdecide.decide_local

    def patched(e, cap):
        raise AssertionError("not called")

    monkeypatch.setattr(localdecide, "decide_local", patched)
    assert ontolab.decide_local is patched
    monkeypatch.undo()
    assert ontolab.decide_local is original
    assert "decide_local" not in vars(ontolab)


LAZY_PROBE = """
import sys
import ontolab
loaded = lambda: sorted(m for m in sys.modules if m.startswith("ontolab"))
print(*loaded())
print(ontolab.localdecide.__name__, *loaded())
print(ontolab.LocalWitness.__module__, *loaded())
"""


def test_importing_the_package_loads_no_layer_until_a_name_is_used():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ontolab",
        "ontolab.localdecide ontolab ontolab.localdecide ontolab.probcore",
        "ontolab.localdecide ontolab ontolab.localdecide ontolab.probcore",
    ]


def _annotation_strings(tree) -> list:
    """Expressions parsed from the string constants inside annotations."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return [
        ast.parse(const.value, mode="eval")
        for root in roots
        if root is not None
        for const in ast.walk(root)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    ]


def _unused_imports(tree) -> list:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    used = {
        node.id
        for root in [tree, *_annotation_strings(tree)]
        for node in ast.walk(root)
        if isinstance(node, ast.Name)
    }
    return sorted(set(imported) - used)


def test_no_module_imports_a_name_it_does_not_use():
    package = Path(ontolab.__file__).resolve().parent
    unused = {}
    for path in sorted(package.rglob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[str(path.relative_to(package))] = names
    assert unused == {}
