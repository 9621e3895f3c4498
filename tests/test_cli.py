"""End-to-end CLI runs, in process: exit codes, report shape, and the
JSON mode."""

import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ontolab import (
    Dist,
    EmpiricalModel,
    OntologicalModel,
    PreparationModel,
    PreparationScenario,
    Property,
    check_no_signalling,
)
from ontolab.probcore import Check, InternalError, JointOutcome
from ontolab.cli.main import RENDER, describe, main
from ontolab.cli.modelio import ENCODERS, model_file_for, parse_model_file, serialize_model_file
from ontolab.cli import zoo
from ontolab.cli.zoo import bell_scenario, pr_box
from ontolab.prepscen import DependenceWitness, PBRParams, pbr_counterexample

F = Fraction


@pytest.fixture
def cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def write_model(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(serialize_model_file(model_file_for(payload)))
    return str(path)


def signalling_box() -> EmpiricalModel:
    scenario = bell_scenario()
    tables = {
        ctx: Dist.delta(JointOutcome.of(ctx, ("0", "0"))) for ctx in scenario.cover
    }
    # the a0 marginal flips when the other side switches to b1
    tables[("a0", "b1")] = Dist.delta(JointOutcome.of(("a0", "b1"), ("1", "0")))
    return EmpiricalModel(scenario, tables)


def ontic_property() -> Property:
    return Property(
        ("u", "v"),
        ("0", "1"),
        {"u": Dist.delta("0"), "v": Dist.delta("1")},
    )


class TestExitCodes:
    def test_validate_zoo_model(self, cli):
        code, out, _ = cli("validate", "zoo:prbox")
        assert code == 0
        assert "kind empirical" in out
        assert "exit 0" in out

    def test_check_ns_passes_on_prbox(self, cli):
        code, out, _ = cli("check-ns", "zoo:prbox")
        assert code == 0
        assert "no-signalling" in out

    def test_check_ns_fails_with_witness(self, cli, tmp_path):
        path = write_model(tmp_path, signalling_box())
        code, out, _ = cli("check-ns", path)
        assert code == 4
        assert "fail" in out
        assert "a0" in out

    def test_decide_local_non_local(self, cli):
        code, out, _ = cli("decide-local", "zoo:prbox")
        assert code == 3
        assert "non-local" in out
        assert "verification" in out
        assert "exit 3" in out

    def test_decide_local_local(self, cli):
        code, out, _ = cli("decide-local", "zoo:deterministic-222-0101")
        assert code == 0
        assert "local" in out

    def test_decide_local_cap_exceeded(self, cli):
        code, _, err = cli("decide-local", "zoo:prbox", "--cap", "4")
        assert code == 2
        assert "error:" in err

    def test_classify_property_epistemic(self, cli):
        code, out, _ = cli("classify-property", "zoo:fuzzy-coin-property")
        assert code == 4
        assert "epistemic" in out
        assert "support-overlap" in out

    def test_classify_property_ontic(self, cli, tmp_path):
        path = write_model(tmp_path, ontic_property())
        code, out, _ = cli("classify-property", path)
        assert code == 0
        assert "ontic" in out

    def test_onto_report_psi_complete(self, cli):
        code, out, _ = cli("onto-report", "zoo:psi-complete-chsh")
        assert code == 4
        assert "parameter-independence  pass" in out
        assert "4 epistemic" in out

    def test_canonicalize_local_model(self, cli, tmp_path):
        from conftest import rand_bell_model

        h = rand_bell_model(random.Random(3), "local")
        path = write_model(tmp_path, h)
        code, out, _ = cli("canonicalize", path)
        assert code == 0
        assert "canonical-form" in out
        assert "operational-check  pass" in out

    def test_canonicalize_emits_the_canonical_artifact(self, cli, tmp_path):
        """Two deterministic states; preparation p mixes them, q fixes u."""
        scenario = bell_scenario()
        fixed = {
            "u": {"a0": "0", "a1": "1", "b0": "0", "b1": "1"},
            "v": {m: "1" for m in scenario.measurements},
        }
        responses = {
            (lam, ctx): Dist.delta(JointOutcome.of(ctx, tuple(fixed[lam][m] for m in ctx)))
            for lam in fixed
            for ctx in scenario.cover
        }
        h = OntologicalModel(
            scenario, ("p", "q"), ("u", "v"),
            {"p": Dist.uniform(["u", "v"]), "q": Dist.delta("u")}, responses,
        )
        path = write_model(tmp_path, h)
        code, out, _ = cli("canonicalize", path)
        assert code == 0
        assert "preparation p:\n      a0=0 a1=1 b0=0 b1=1  ->  1/2\n      a0=1 a1=1 b0=1 b1=1  ->  1/2" in out
        assert "operational-check  pass" in out
        code, out, _ = cli("canonicalize", path, "--json")
        assert code == 0
        verdict = next(v for v in json.loads(out)["verdicts"] if v["check"] == "canonical-form")
        artifact = verdict["artifact"]
        assert artifact["scenario"]["measurements"] == ["a0", "a1", "b0", "b1"]
        assert artifact["weights"] == {
            "p": {"0,1,0,1": "1/2", "1,1,1,1": "1/2"},
            "q": {"0,1,0,1": "1"},
        }

    def test_canonicalize_non_local_model(self, cli):
        code, out, _ = cli("canonicalize", "zoo:psi-complete-chsh")
        assert code == 4
        assert "local" in out
        assert "canonical-form" not in out

    def test_prep_check(self, cli):
        code, out, _ = cli("prep-check", "zoo:pbr-q")
        assert code == 4
        assert "no-preparation-signalling  pass" in out
        assert "preparation-independence   fail" in out


class TestPbr:
    def test_default_quarter(self, cli):
        code, out, _ = cli("pbr")
        assert code == 4
        assert "1/16" in out
        assert "overlap-event" in out

    def test_explicit_quarter_tables(self, cli):
        code, out, _ = cli("pbr", "--q", "1/4")
        assert code == 4
        for cell in ("(overlap, overlap): 0", "(overlap, outside): 1/4", "(outside, outside): 1/2"):
            assert cell in out

    def test_half_edge(self, cli):
        code, _, _ = cli("pbr", "--q", "1/2")
        assert code == 4

    def test_out_of_range(self, cli):
        code, _, err = cli("pbr", "--q", "3/4")
        assert code == 2
        assert "error:" in err

    def test_unparsable_q(self, cli):
        code, _, err = cli("pbr", "--q", "lots")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("q", ["1e-5000", "0.25"])
    def test_q_takes_the_model_file_grammar(self, cli, q):
        """`--q` reads `N` or `N/D`, as model files do: no exponents, no
        decimals."""
        code, _, err = cli("pbr", "--q", q)
        assert code == 2
        assert "error:" in err

    def test_q_with_too_many_digits_to_write(self, cli):
        """q itself reads, but q*q is past the int-string digit limit."""
        code, _, err = cli("pbr", "--q", "1/1" + "0" * 3000)
        assert code == 2
        assert "too many digits" in err


class TestDemos:
    def test_epr(self, cli):
        code, out, _ = cli("demo", "epr")
        assert code == 4
        assert "observable-x" in out
        assert "observable-z" in out
        assert "1/2" in out

    def test_steering_both_bases(self, cli):
        for basis in ("z", "x"):
            code, out, _ = cli("demo", "steering", "--basis", basis)
            assert code == 0
            assert "fidelity" in out
            assert "basis-independent" in out

    def test_chsh(self, cli):
        code, out, _ = cli("demo", "chsh")
        assert code == 3
        assert "2.82843" in out
        assert "non-local" in out


class TestInputErrors:
    def test_missing_file(self, cli):
        code, _, err = cli("validate", "no/such/file.json")
        assert code == 2
        assert "cannot read" in err

    def test_bad_json(self, cli, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, err = cli("validate", str(path))
        assert code == 2
        assert "line 1" in err

    def test_deeply_nested_json(self, cli, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, _, err = cli("validate", str(path))
        assert code == 2
        assert "nested too deeply" in err

    def test_rational_with_too_many_digits(self, cli, tmp_path):
        """Beyond the interpreter's 4300-digit int-string limit."""
        doc = json.loads(serialize_model_file(model_file_for(pr_box())))
        table = doc["payload"]["tables"]["a0,b0"]
        table["0,0"] = "1" + "0" * 4400 + "/2" + "0" * 4400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, _, err = cli("validate", str(path))
        assert code == 2
        assert "a0,b0/0,0" in err and "too many digits" in err

    def test_integer_literal_with_too_many_digits(self, cli, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"format_version": 1, "kind": "quantum-demo-config",'
            ' "payload": {"demo": "chsh", "max_denominator": 1' + "0" * 4400 + "}}"
        )
        code, _, err = cli("validate", str(path))
        assert code == 2
        assert "too many digits" in err

    @pytest.mark.parametrize(
        "once,twice",
        [
            ('"0,0": "1/2"', '"0,0": "1/2", "0,0": "1/2"'),
            ('"kind": "empirical"', '"kind": "empirical", "kind": "empirical"'),
        ],
        ids=["table", "document"],
    )
    def test_repeated_object_key(self, cli, tmp_path, once, twice):
        """The repeat carries the same value, so reading the last one would
        pass silently."""
        text = serialize_model_file(model_file_for(pr_box()))
        assert once in text
        path = tmp_path / "repeated.json"
        path.write_text(text.replace(once, twice, 1))
        code, _, err = cli("validate", str(path))
        assert code == 2
        assert "appears twice" in err

    def test_not_utf8(self, cli, tmp_path):
        path = tmp_path / "prbox.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        code, _, err = cli("validate", str(path))
        assert code == 2
        assert "line 1, column 1: not UTF-8" in err

    def test_demo_config_is_not_a_model_kind(self, cli, tmp_path):
        """The demos take their parameters from flags, so no file kind
        carries them."""
        path = tmp_path / "demo.json"
        path.write_text('{"format_version": 1, "kind": "quantum-demo-config", "payload": {"demo": "chsh"}}')
        code, _, err = cli("validate", str(path))
        assert code == 2
        assert "document/kind" in err

    @pytest.mark.parametrize(
        "name,mutate,path",
        [
            ("prbox", lambda p: p["scenario"]["measurements"].append("z"), "payload/scenario"),
            ("pbr-q", lambda p: p["tables"].update(psi0=p["tables"].pop("psi0,psi0")), "payload/tables/psi0"),
            (
                "pbr-q",
                lambda p: p["tables"]["psi0,psi0"].update(overlap=p["tables"]["psi0,psi0"].pop("overlap,outside")),
                "payload/tables/psi0,psi0/overlap",
            ),
        ],
        ids=["measurements-and-outcome-keys", "joint-preparation-key", "joint-state-key"],
    )
    def test_wire_refusal_names_its_path(self, cli, tmp_path, name, mutate, path):
        doc = json.loads(serialize_model_file(zoo.load_model(name)))
        mutate(doc["payload"])
        file = tmp_path / "mutated.json"
        file.write_text(json.dumps(doc))
        code, _, err = cli("validate", str(file))
        assert code == 2
        assert err.startswith(f"error: {path}: ")

    def test_wrong_kind(self, cli):
        code, _, err = cli("check-ns", "zoo:fuzzy-coin-property")
        assert code == 2
        assert "expected a model of kind 'empirical'" in err

    def test_unknown_zoo_entry(self, cli):
        code, _, err = cli("decide-local", "zoo:unicorn")
        assert code == 2
        assert "unicorn" in err

    def test_unknown_subcommand(self, cli):
        code, _, _ = cli("no-such-command")
        assert code == 2

    def test_no_arguments(self, cli):
        code, _, _ = cli()
        assert code == 2


class TestInternalErrors:
    def test_solver_fault_is_not_an_input_error(self, cli, monkeypatch, tmp_path):
        def broken(e, cap):
            raise InternalError("Farkas vector fails y.b > 0")

        monkeypatch.setattr("ontolab.localdecide.decide_local", broken)
        code, out, err = cli("decide-local", "zoo:prbox")
        assert code == 5
        assert out == ""
        assert err == "internal error: Farkas vector fails y.b > 0\n"
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, err = cli("decide-local", str(path))
        assert code == 2
        assert err.startswith("error: line 1")


class TestJsonMode:
    @pytest.mark.parametrize(
        "argv,expected_code",
        [
            (("pbr",), 4),
            (("decide-local", "zoo:hardy"), 3),
            (("onto-report", "zoo:psi-complete-chsh"), 4),
            (("demo", "epr"), 4),
            (("check-ns", "zoo:specker-triangle"), 0),
        ],
    )
    def test_reports_are_well_formed(self, cli, argv, expected_code):
        code, out, _ = cli(*argv, "--json")
        assert code == expected_code
        doc = json.loads(out)
        assert doc["exit_code"] == expected_code
        checks = [v["check"] for v in doc["verdicts"]]
        assert checks == sorted(checks)
        assert len(checks) == len(set(checks))
        for v in doc["verdicts"]:
            assert set(v) >= {"check", "outcome", "ok", "millis", "detail"}

    def test_certificate_artifact_is_serialized(self, cli):
        code, out, _ = cli("decide-local", "zoo:prbox", "--json")
        assert code == 3
        doc = json.loads(out)
        decision = next(v for v in doc["verdicts"] if v["check"] == "decision")
        cert = decision["artifact"]
        assert set(cert) == {"coefficients", "model_value", "local_bound"}
        assert cert["coefficients"]

    def test_preparation_signalling_witness_is_serialized(self, cli, tmp_path):
        scenario = PreparationScenario(("A", "B"), {"A": ("p",), "B": ("p", "q")}, {"A": ("x", "y"), "B": ("u",)})
        tables = {("p", "p"): Dist.delta(("x", "u")), ("p", "q"): Dist.delta(("y", "u"))}
        path = write_model(tmp_path, PreparationModel(scenario, tables))
        code, out, _ = cli("prep-check", path, "--json")
        assert code == 4
        verdict = next(v for v in json.loads(out)["verdicts"] if v["check"] == "no-preparation-signalling")
        assert verdict["artifact"]["marginal_a"] == {"x": "1"}

    def test_brief_truncates_details(self, cli):
        _, full, _ = cli("onto-report", "zoo:psi-complete-chsh")
        _, brief, _ = cli("onto-report", "zoo:psi-complete-chsh", "--brief")
        assert len(brief) < len(full)
        assert " ..." in brief


class TestZooCommand:
    def test_default_listing(self, cli):
        code, out, _ = cli("zoo")
        assert code == 0
        assert "prbox" in out
        assert "psi-complete-chsh" in out
        assert "expected ->" in out

    def test_brief_listing_drops_expectations(self, cli):
        code, out, _ = cli("zoo", "list", "--brief")
        assert code == 0
        assert "expected ->" not in out

    def test_json_listing(self, cli):
        code, out, _ = cli("zoo", "list", "--json")
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 30
        assert {"name", "kind", "summary", "expected"} <= set(entries[0])

    def test_export_round_trips(self, cli):
        code, out, _ = cli("zoo", "export", "prbox")
        assert code == 0
        assert parse_model_file(out).payload == pr_box()

    def test_export_with_q(self, cli):
        code, out, _ = cli("zoo", "export", "pbr-q", "--q", "1/3")
        assert code == 0
        table = parse_model_file(out).payload.table(("psi0", "psi1"))
        assert table.weight(("overlap", "outside")) == F(1, 3)

    @pytest.mark.parametrize(
        "args", [("prbox", "--q", "1/3"), ("hardy", "--max-denominator", "9")]
    )
    def test_export_refuses_a_knob_the_entry_does_not_take(self, cli, args):
        code, out, err = cli("zoo", "export", *args)
        assert code == 2
        assert out == ""
        assert "does not take" in err

    def test_export_with_max_denominator(self, cli):
        code, out, _ = cli("zoo", "export", "chsh-quantum", "--max-denominator", "100")
        assert code == 0
        assert check_no_signalling(parse_model_file(out).payload)

    def test_export_refuses_an_exponent_q(self, cli):
        code, _, err = cli("zoo", "export", "pbr-q", "--q", "1e-5000")
        assert code == 2
        assert "error:" in err

    def test_export_needs_a_name(self, cli):
        code, _, err = cli("zoo", "export")
        assert code == 2
        assert "error:" in err

    def test_export_unknown_entry(self, cli):
        code, _, err = cli("zoo", "export", "unicorn")
        assert code == 2
        assert "unicorn" in err


NO_NUMPY_PROBE = """
import sys
at_start = set(sys.modules)
import contextlib, io
from ontolab.cli.main import main
for argv in (
    ["check-ns", "zoo:prbox"],
    ["decide-local", "zoo:prbox"],
    ["zoo", "list"],
    ["demo", "epr"],
    ["demo", "steering"],
    ["demo", "chsh"],
    ["zoo", "export", "chsh-quantum"],
    ["onto-report", "zoo:psi-complete-chsh"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
print("numpy" in sys.modules)
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules and m not in at_start))
"""


def test_exact_subcommands_do_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    numpy_loaded, imported_late = proc.stdout.splitlines()
    assert numpy_loaded == "False"
    # No command pays for importing `dataclasses` or `inspect`; counted from
    # the probe's first line, so a site hook that loads them is not charged.
    assert imported_late == "[]"


def test_every_render_and_encoder_key_names_its_class():
    for key in [*RENDER, *ENCODERS]:
        module, _, name = key.rpartition(".")
        cls = getattr(importlib.import_module(module), name)
        assert f"{cls.__module__}.{cls.__qualname__}" == key


def test_describe_spells_out_none_fraction_and_tuple_fields():
    # Fields render through `RENDER` one level deep; None, having no entry,
    # reads as `str` writes it, while a missing witness reads empty.
    assert describe(None) == ""
    assert describe(Check(False, None)) == "ok False, witness None"
    witness = DependenceWitness(("p", "q"), ("x", "y"), F(1, 4), F(2, 6))
    assert describe(witness) == "joint_preparation (p, q), joint_state (x, y), actual 1/4, product 1/3"


IMPORT_PROBE = """
import contextlib, io, sys
from ontolab.cli.main import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m == "ontolab" or m.startswith("ontolab."))))
"""

_CORE = ("ontolab", "ontolab.cli", "ontolab.cli.main", "ontolab.cli.modelio", "ontolab.probcore")
_ONTO = ("ontolab.ontomodel", "ontolab.properties")


IMPORT_CASES = [
    (("check-ns",), "empirical", ()),
    (("validate",), "empirical", ()),
    (("decide-local",), "empirical", ("ontolab.localdecide",)),
    (("classify-property",), "property", ("ontolab.properties",)),
    (("onto-report",), "ontological", _ONTO),
    (("canonicalize",), "ontological", _ONTO),
    (("prep-check",), "preparation", ("ontolab.prepscen", *_ONTO)),
    (("pbr",), None, ("ontolab.prepscen", *_ONTO)),
    (("zoo", "list"), None, ("ontolab.cli.zoo",)),
]


@pytest.mark.parametrize("argv,kind,extra", IMPORT_CASES, ids=[" ".join(c[0]) for c in IMPORT_CASES])
def test_each_command_loads_only_the_layers_it_uses(tmp_path, argv, kind, extra):
    payloads = {
        "empirical": pr_box(),
        "property": ontic_property(),
        "ontological": zoo.chsh_psi_complete(),
        "preparation": pbr_counterexample(PBRParams(Fraction(1, 4))),
    }
    args = [*argv, write_model(tmp_path, payloads[kind])] if kind else list(argv)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted({*_CORE, *extra})
