import json
import math
import pathlib
import subprocess
import sys

import pytest

from bproc import runtime
from bproc.cli import main
from bproc.feel.parser import MAX_DEPTH, MAX_INT_DIGITS
from bproc.inputs import parse_inputs_file

from conftest import DTD_BPMN, DTD_DMN, FIXTURES, child_env, with_doctype

SHIPMENT = [str(FIXTURES / "shipment.bpmn"), str(FIXTURES / "shipment.dmn")]


def run_cli(*argv, cwd):
    import contextlib
    import io
    import os

    before = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(before)
    return code, out.getvalue(), err.getvalue()


def test_translate_writes_all_artifacts(tmp_path):
    code, out, _ = run_cli("translate", *SHIPMENT, "--seed", "42", cwd=tmp_path)
    assert code == 0
    base = tmp_path / "out" / "shipment"
    assert (base / "shipment.src.txt").exists()
    assert (base / "shipment.graph").exists()
    assert (base / "shipment.inputs").exists()
    assert "BALL(9)" in (base / "shipment.inputs").read_text()


def test_translate_with_a_list_constant_in_a_condition_or_a_cell(tmp_path):
    # inference meets a list it cannot hash: an UNHANDLED domain, not a traceback
    quote = (FIXTURES / "quote.bpmn").read_text()
    (tmp_path / "quote.bpmn").write_text(
        quote.replace("base in [1..10]", "base in [1..10] and base != [1, 2]"))
    cell = '<dmn:text>"unknown"</dmn:text>'
    dmn = (FIXTURES / "shipment.dmn").read_text()
    assert cell in dmn
    (tmp_path / "shipment.dmn").write_text(
        dmn.replace(cell, '<dmn:text>"unknown", &lt; [1, 2]</dmn:text>'))
    for argv, inputs, line in (
            (["quote.bpmn"], "quote/quote.inputs", "base : Integer : UNHANDLED(1;10;[1, 2])"),
            ([SHIPMENT[0], "shipment.dmn"], "shipment/shipment.inputs",
             'pType : String : UNHANDLED("l";"m";"s";"unknown";"xl";[1, 2])')):
        code, _, err = run_cli("translate", *argv, "--seed", "42", cwd=tmp_path)
        assert code == 0, err
        assert line in (tmp_path / "out" / inputs).read_text()


def test_graph_and_inputs_commands(tmp_path):
    assert run_cli("graph", *SHIPMENT, "--out", "g", cwd=tmp_path)[0] == 0
    assert (tmp_path / "g" / "shipment.graph").read_text().startswith("node ")
    assert run_cli("inputs", *SHIPMENT, "--out", "i", cwd=tmp_path)[0] == 0
    assert len((tmp_path / "i" / "shipment.inputs").read_text().splitlines()) == 2


def test_run_success_exit_zero(tmp_path):
    code, out, _ = run_cli("run", *SHIPMENT, "--seed", "7", "--sequential",
                           cwd=tmp_path)
    assert code == 0
    assert "success" in out
    assert (tmp_path / "out" / "shipment" / "shipment.trace").exists()
    assert (tmp_path / "out" / "shipment" / "shipment.out").exists()


def test_run_error_end_exit_one(tmp_path):
    # seed chosen so the sampled inputs reach an error end deterministically
    inputs = tmp_path / "forced.inputs"
    inputs.write_text('pType : String : ENUM("unknown") : "unknown"\n'
                      "pWeight : Double : BALL(9) : 5.0\n")
    code, out, _ = run_cli("run", *SHIPMENT, "--inputs-file", str(inputs),
                           "--sequential", cwd=tmp_path)
    assert code == 1
    assert "UNDEFINED_LENGTH" in out


def test_run_timeout_exit_four(tmp_path):
    code, out, err = run_cli("run", str(FIXTURES / "loop.bpmn"), "--timeout-ms", "100",
                             "--sequential", cwd=tmp_path)
    assert code == 4
    assert err.strip()  # exit codes >= 2 carry a stderr diagnostic
    summary = (tmp_path / "out" / "loop" / "loop.out").read_text()
    assert "status: timeout" in summary


def test_test_command_writes_verdict(tmp_path):
    code, out, _ = run_cli("test", *SHIPMENT, "-n", "1000", "--seed", "42",
                           "--sequential", cwd=tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "out" / "shipment" / "verdict.json").read_text())
    assert payload["result"] == "PASS"
    assert payload["runs"] == 1000


def test_fail_verdict_exit_one(tmp_path):
    code, out, _ = run_cli("test", str(FIXTURES / "triage.bpmn"), "--mode", "error",
                           "-n", "50", "--seed", "1", "--sequential", cwd=tmp_path)
    assert code == 1
    assert "FAIL" in out


def test_campaign_samples_from_edited_inputs_file(tmp_path):
    # narrow pType to the one value that reaches the undefined-length error
    inputs = tmp_path / "narrow.inputs"
    inputs.write_text('pType : String : ENUM("unknown") : "unknown"\n'
                      "pWeight : Double : BALL(9) : 5.0\n")
    code, out, _ = run_cli("test", *SHIPMENT, "--mode", "error", "-n", "10",
                           "--inputs-file", str(inputs), "--seed", "0",
                           "--sequential", cwd=tmp_path)
    assert code == 1
    assert "UNDEFINED_LENGTH" in out


def test_inputs_file_must_cover_every_input(tmp_path):
    inputs = tmp_path / "partial.inputs"
    inputs.write_text('pType : String : ENUM("s") : "s"\n')
    code, _, err = run_cli("run", *SHIPMENT, "--inputs-file", str(inputs),
                           cwd=tmp_path)
    assert code == 3
    assert "pWeight" in err


def test_inputs_file_with_a_non_number_ball_centre_is_a_model_error(tmp_path):
    inputs = tmp_path / "quote.inputs"
    inputs.write_text('base : Integer : BALL("a") : 7\n')
    for argv in (("run",), ("test", "-n", "5")):
        code, _, err = run_cli(argv[0], str(FIXTURES / "quote.bpmn"), *argv[1:],
                               "--inputs-file", str(inputs), cwd=tmp_path)
        assert code == 3
        assert err.splitlines() == ["bproc: InputsParseError: bad domain 'BALL(\"a\")': "
                                    "a BALL centre must be a number, not string (line 1)"]
    assert not (tmp_path / "out").exists()


def test_inputs_file_that_is_not_utf8_is_a_model_error(tmp_path):
    inputs = tmp_path / "latin1.inputs"
    inputs.write_bytes('pType : String : ENUM("s") : "s"\n'
                       '# Gewicht in kg, gemessen am Band \xfc\n'.encode("latin-1"))
    for argv in (("run",), ("test", "-n", "5")):
        code, _, err = run_cli(argv[0], *SHIPMENT, *argv[1:], "--inputs-file", str(inputs),
                               cwd=tmp_path)
        assert code == 3
        assert err.splitlines() == ["bproc: InputsParseError: the file is not UTF-8: "
                                    "invalid start byte at byte 67 (line 2)"]
    assert not (tmp_path / "out").exists()


def test_missing_dmn_is_a_model_error(tmp_path):
    code, _, err = run_cli("test", str(FIXTURES / "shipment.bpmn"), cwd=tmp_path)
    assert code == 3
    assert "UnresolvedTable" in err


@pytest.mark.parametrize("attack", ["laughs", "system"])
def test_document_type_declaration_is_a_model_error(tmp_path, attack):
    bpmn_file, dmn_file = tmp_path / "hostile.bpmn", tmp_path / "hostile.dmn"
    bpmn_file.write_text(with_doctype(attack, DTD_BPMN))
    dmn_file.write_text(with_doctype(attack, DTD_DMN))
    for paths in ([str(bpmn_file), SHIPMENT[1]], [SHIPMENT[0], str(dmn_file)]):
        code, _, err = run_cli("translate", *paths, cwd=tmp_path)
        assert code == 3
        assert "document type declarations are not accepted" in err
    assert not (tmp_path / "out").exists()


def with_encoding(path: pathlib.Path, encoding: str) -> bytes:
    """A fixture whose XML declaration names `encoding` instead of UTF-8."""
    text = path.read_text(encoding="ascii")
    declared = text.replace('encoding="UTF-8"', f'encoding="{encoding}"', 1)
    assert declared != text
    return declared.encode("ascii")


# unknown, not a text encoding, multi-byte, and failing to decode: expat cannot use any
@pytest.mark.parametrize("encoding", ["bogus", "rot13", "UTF-32", "shift_jis", "idna"])
def test_unusable_declared_encoding_is_a_model_error(tmp_path, encoding):
    for index, what in enumerate(("BPMN", "DMN")):
        paths = list(SHIPMENT)
        paths[index] = str(tmp_path / f"declared.{what.lower()}")
        pathlib.Path(paths[index]).write_bytes(with_encoding(pathlib.Path(SHIPMENT[index]),
                                                             encoding))
        code, _, err = run_cli("translate", *paths, cwd=tmp_path)
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith(f"bproc: SchemaError: malformed {what} XML: ")
    assert not (tmp_path / "out").exists()


def test_latin_1_declared_encoding_parses(tmp_path):
    paths = []
    for name in SHIPMENT:
        path = tmp_path / pathlib.Path(name).name
        path.write_bytes(with_encoding(pathlib.Path(name), "latin-1"))
        paths.append(str(path))
    assert run_cli("translate", *paths, "--seed", "42", cwd=tmp_path)[0] == 0
    assert run_cli("translate", *SHIPMENT, "--seed", "42", "--out", "utf8",
                   cwd=tmp_path)[0] == 0
    for suffix in ("src.txt", "graph", "inputs"):
        assert ((tmp_path / "out" / "shipment" / f"shipment.{suffix}").read_bytes()
                == (tmp_path / "utf8" / f"shipment.{suffix}").read_bytes())


def test_usage_errors(tmp_path):
    assert run_cli("frobnicate", *SHIPMENT, cwd=tmp_path)[0] == 2
    code, _, err = run_cli("test", "nothing.txt", cwd=tmp_path)
    assert code == 2
    assert err.strip()  # a diagnostic reaches stderr


@pytest.mark.parametrize("argv", [("run", "--timeout-ms", "-1"), ("run", "--timeout-ms", "0"),
                                  ("test", "-n", "5", "--timeout-ms", "0"),
                                  ("test", "-n", "5", "--timeout-ms", "-1")])
def test_non_positive_timeout_is_a_usage_error(tmp_path, argv):
    code, _, err = run_cli(argv[0], *SHIPMENT, *argv[1:], cwd=tmp_path)
    assert code == 2
    assert err.splitlines() == ["bproc: the timeout must be positive"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [("run", "--timeout-ms", "9" * 400),
                                  ("test", "-n", "5", "--timeout-ms", "9" * 400)])
def test_timeout_past_the_largest_double_is_a_usage_error(tmp_path, argv):
    code, _, err = run_cli(argv[0], *SHIPMENT, *argv[1:], cwd=tmp_path)
    assert code == 2
    assert err.splitlines() == ["bproc: the timeout is too large"]
    code, _, err = run_cli(argv[0], *SHIPMENT, *argv[1:-1], "-" + argv[-1], cwd=tmp_path)
    assert code == 2
    assert err.splitlines() == ["bproc: the timeout must be positive"]
    assert not (tmp_path / "out").exists()


def test_bad_env_seed_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("BPROC_SEED", "abc")
    code, _, err = run_cli("run", *SHIPMENT, cwd=tmp_path)
    assert code == 2
    assert err.splitlines() == ["bproc: $BPROC_SEED must be an integer, got 'abc'"]


def test_workers_flag_is_gone(tmp_path):
    code, _, err = run_cli("test", *SHIPMENT, "-n", "5", "--workers", "2", cwd=tmp_path)
    assert code == 2
    assert "--workers" in err


def test_smc_mode(tmp_path):
    code, out, _ = run_cli("test", *SHIPMENT, "--mode", "smc", "--epsilon", "0.2",
                           "--delta", "0.2", "--seed", "5", "--sequential",
                           cwd=tmp_path)
    assert code in (0, 1)
    payload = json.loads((tmp_path / "out" / "shipment" / "verdict.json").read_text())
    assert payload["runs"] >= 1


def test_smc_epsilon_lost_against_one_is_a_usage_error(tmp_path):
    code, _, err = run_cli("test", *SHIPMENT, "--mode", "smc", "--epsilon", "1e-17",
                           cwd=tmp_path)
    assert code == 2
    assert err.splitlines() == ["bproc: epsilon 1e-17 is too small: 1 - epsilon rounds to 1"]
    assert not (tmp_path / "out").exists()


def test_verdicts_reproducible_modulo_timing(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        run_cli("test", *SHIPMENT, "-n", "100", "--seed", "42", "--sequential",
                cwd=tmp_path / sub)
    ja = json.loads((tmp_path / "a/out/shipment/verdict.json").read_text())
    jb = json.loads((tmp_path / "b/out/shipment/verdict.json").read_text())
    for volatile in ("mean_run_ms", "stddev_run_ms"):
        ja.pop(volatile), jb.pop(volatile)
    assert ja == jb


def test_env_var_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("BPROC_SEED", "42")
    run_cli("inputs", *SHIPMENT, "--out", "env", cwd=tmp_path)
    monkeypatch.delenv("BPROC_SEED")
    run_cli("inputs", *SHIPMENT, "--out", "flag", "--seed", "42", cwd=tmp_path)
    assert (tmp_path / "env" / "shipment.inputs").read_text() == \
        (tmp_path / "flag" / "shipment.inputs").read_text()


EMPTY_RANGE = """<?xml version="1.0"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
  <process id="p">
    <dataObject id="DO_x"/>
    <dataObjectReference id="DOR_x" name="x" dataObjectRef="DO_x"/>
    <startEvent id="s">
      <dataOutputAssociation id="DOA_x"><targetRef>DOR_x</targetRef></dataOutputAssociation>
    </startEvent>
    <exclusiveGateway id="g" default="f_other"/>
    <endEvent id="e_in"/>
    <endEvent id="e_other"/>
    <sequenceFlow id="f0" sourceRef="s" targetRef="g"/>
    <sequenceFlow id="f_in" sourceRef="g" targetRef="e_in">
      <conditionExpression>x in (5.0..5.0]</conditionExpression>
    </sequenceFlow>
    <sequenceFlow id="f_other" sourceRef="g" targetRef="e_other"/>
  </process>
</definitions>
"""


def test_translate_of_an_empty_real_range_is_a_model_error(tmp_path):
    # no double lies in (5.0..5.0], so no sample can be drawn for x; a child
    # process, so that a sampler that never returns fails the test, not the suite
    (tmp_path / "empty.bpmn").write_text(EMPTY_RANGE)
    proc = subprocess.run([sys.executable, "-m", "bproc", "translate", "empty.bpmn"],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode == 3, proc.stderr
    assert "DomainMismatchError" in proc.stderr
    assert "'x'" in proc.stderr and "RANGE((5.0,5.0])" in proc.stderr


def test_a_ball_past_the_largest_double_draws_finite_values(tmp_path):
    # `x > 1e308` gives BALL(1e+308), whose upper end overflows a double
    (tmp_path / "huge.bpmn").write_text(EMPTY_RANGE.replace("x in (5.0..5.0]", "x > 1e308"))
    for seed in range(5):
        code, _, err = run_cli("inputs", "huge.bpmn", "--out", "i", "--seed", str(seed),
                               cwd=tmp_path)
        assert code == 0, err
        line = (tmp_path / "i" / "p.inputs").read_text().strip()
        assert line.startswith("x : Double : BALL(1e+308) : ")
        sample = float(line.rsplit(" : ", 1)[1])
        assert math.isfinite(sample)
        code, _, err = run_cli("run", "huge.bpmn", "--inputs-file", "i/p.inputs",
                               "--sequential", cwd=tmp_path)
        assert code == 0, err
        assert runtime.parse_summary_inputs(tmp_path / "out" / "p" / "p.out") == {"x": sample}
    code, _, err = run_cli("test", "huge.bpmn", "-n", "100", "--sequential", "--out", "t",
                           cwd=tmp_path)
    assert code == 0, err
    runs = sorted((tmp_path / "t" / "runs").glob("*.out"))
    assert len(runs) == 100
    assert all(math.isfinite(runtime.parse_summary_inputs(run)["x"]) for run in runs)


@pytest.mark.parametrize("condition, domain", [("x in [1..1e400]", "RANGE([1,1e999])"),
                                               ("x = 1e400", "ENUM(1e999)")])
def test_an_infinite_bound_or_value_round_trips_through_inputs_and_summary(
        tmp_path, condition, domain):
    (tmp_path / "inf.bpmn").write_text(EMPTY_RANGE.replace("x in (5.0..5.0]", condition))
    code, _, err = run_cli("inputs", "inf.bpmn", "--out", "i", cwd=tmp_path)
    assert code == 0, err
    line = (tmp_path / "i" / "p.inputs").read_text().strip()
    assert line.startswith(f"x : Double : {domain} : ")
    sample = parse_inputs_file(tmp_path / "i" / "p.inputs").specs[0].sample
    code, _, err = run_cli("run", "inf.bpmn", "--inputs-file", "i/p.inputs", "--sequential",
                           cwd=tmp_path)
    assert code == 0, err
    assert runtime.parse_summary_inputs(tmp_path / "out" / "p" / "p.out") == {"x": sample}


def test_module_entry_point(tmp_path):
    # `python -m bproc` must behave exactly like cli.main with the same argv
    argv = ["run", *SHIPMENT, "--seed", "3", "--sequential"]
    child_dir, inproc_dir = tmp_path / "child", tmp_path / "inproc"
    child_dir.mkdir()
    inproc_dir.mkdir()
    proc = subprocess.run([sys.executable, "-m", "bproc", *argv],
                          cwd=child_dir, env=child_env(),
                          capture_output=True, text=True)
    code, out, _ = run_cli(*argv, cwd=inproc_dir)
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
    assert proc.stderr == ""
    out_file = pathlib.Path("out", "shipment", "shipment.out")
    assert (child_dir / out_file).read_text() == (inproc_dir / out_file).read_text()


def deep_model(script_depth: int, condition_depth: int) -> str:
    """A script `y := x + 1 + ... + 1` and a gateway condition `((x > 0))`
    nested `script_depth` and `condition_depth` levels deep."""
    script = " + ".join(["x"] + ["1"] * (script_depth - 1))
    condition = "(" * (condition_depth - 2) + "x &gt; 0" + ")" * (condition_depth - 2)
    return f"""<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"
      xmlns:ext="http://x/ext"><process id="deep">
      <startEvent id="s"><extensionElements><ext:ioMapping>
        <ext:output source="x" target="x"/></ext:ioMapping></extensionElements></startEvent>
      <scriptTask id="t" resultVariable="y"><script>{script}</script></scriptTask>
      <exclusiveGateway id="g" default="f_low"/>
      <endEvent id="high"/><endEvent id="low"/>
      <sequenceFlow id="f0" sourceRef="s" targetRef="t"/>
      <sequenceFlow id="f1" sourceRef="t" targetRef="g"/>
      <sequenceFlow id="f_high" sourceRef="g" targetRef="high">
        <conditionExpression>{condition}</conditionExpression></sequenceFlow>
      <sequenceFlow id="f_low" sourceRef="g" targetRef="low"/>
    </process></definitions>"""


DEEP_COMMANDS = [("translate",), ("test", "-n", "20"), ("run", "--sequential"), ("run",)]


@pytest.mark.parametrize("command", DEEP_COMMANDS, ids=" ".join)
def test_expressions_at_the_depth_limit_run_through_every_command(command, tmp_path):
    (tmp_path / "deep.bpmn").write_text(deep_model(MAX_DEPTH, MAX_DEPTH))
    code, _, err = run_cli(*command, "deep.bpmn", cwd=tmp_path)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("command", DEEP_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("depths", [(MAX_DEPTH + 1, MAX_DEPTH), (MAX_DEPTH, MAX_DEPTH + 1)],
                         ids=["script", "condition"])
def test_an_expression_past_the_depth_limit_is_a_model_error(depths, command, tmp_path):
    (tmp_path / "deep.bpmn").write_text(deep_model(*depths))
    code, _, err = run_cli(*command, "deep.bpmn", cwd=tmp_path)
    assert code == 3
    assert f"FeelSyntaxError: expression nests deeper than {MAX_DEPTH} levels (column" in err


DEAD_END_TASK = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"
  xmlns:ext="http://x/ext"><process id="dead">
  <startEvent id="s"><extensionElements><ext:ioMapping>
    <ext:output source="x" target="x"/></ext:ioMapping></extensionElements></startEvent>
  <exclusiveGateway id="g" default="f_end"/>
  <task id="t"/>
  <endEvent id="e"/>
  <sequenceFlow id="f0" sourceRef="s" targetRef="g"/>
  <sequenceFlow id="f_t" sourceRef="g" targetRef="t">
    <conditionExpression>x &gt; 0</conditionExpression></sequenceFlow>
  <sequenceFlow id="f_end" sourceRef="g" targetRef="e"/>
</process></definitions>"""

MODEL_COMMANDS = [("translate",), ("test", "-n", "5"), ("run",)]


@pytest.mark.parametrize("command", MODEL_COMMANDS, ids=" ".join)
def test_a_task_with_no_outgoing_flow_is_a_model_error(command, tmp_path):
    (tmp_path / "dead.bpmn").write_text(DEAD_END_TASK)
    code, _, err = run_cli(*command, "dead.bpmn", cwd=tmp_path)
    assert (code, err.splitlines()) == \
        (3, ["bproc: SchemaError: task 't' has no outgoing flow; "
             "only an end event ends a path"])
    assert not (tmp_path / "out").exists()


def shipment_dmn_with_nots(count: int) -> str:
    """shipment.dmn with the cell `"s"` of GetLength inside `count` not(...)."""
    text = (FIXTURES / "shipment.dmn").read_text()
    cell = '<dmn:text>"s"</dmn:text>'
    assert text.count(cell) == 1
    return text.replace(cell, f'<dmn:text>{"not(" * count}"s"{")" * count}</dmn:text>')


@pytest.mark.parametrize("command", MODEL_COMMANDS, ids=" ".join)
def test_a_cell_past_the_not_depth_limit_is_a_model_error(command, tmp_path):
    (tmp_path / "at.dmn").write_text(shipment_dmn_with_nots(MAX_DEPTH))
    (tmp_path / "past.dmn").write_text(shipment_dmn_with_nots(MAX_DEPTH + 1))
    argv = (*command, "--seed", "3", SHIPMENT[0])
    expected = run_cli(*argv, SHIPMENT[1], "--out", "plain", cwd=tmp_path)
    # an even number of wrappers leaves the cell's meaning as it was
    assert run_cli(*argv, "at.dmn", "--out", "plain", cwd=tmp_path) == expected
    code, _, err = run_cli(*argv, "past.dmn", "--out", "past", cwd=tmp_path)
    assert (code, err.splitlines()) == \
        (3, [f"bproc: FeelSyntaxError: table 'GetLengthDT' rule 1 input 1: expression "
             f"nests deeper than {MAX_DEPTH} levels (column {4 * MAX_DEPTH + 1})"])
    assert not (tmp_path / "past").exists()


def loop_with_init(script: str) -> str:
    """loop.bpmn with the script of its first task replaced by `script`."""
    text = (FIXTURES / "loop.bpmn").read_text()
    assert text.count("<bpmn:script>0</bpmn:script>") == 1
    return text.replace("<bpmn:script>0</bpmn:script>", f"<bpmn:script>{script}</bpmn:script>")


def test_a_number_past_the_doubles_is_an_engine_fault(tmp_path):
    (tmp_path / "big.bpmn").write_text(loop_with_init("2 ** 1100 * 1.5"))
    code, out, err = run_cli("run", "big.bpmn", "--sequential", cwd=tmp_path)
    assert (code, err.splitlines()) == \
        (4, ["bproc: engine fault: Activity_Init: number too large for a double"])
    assert out.startswith("fault: ENGINE_FAULT (Activity_Init: number too large for a double)")


def test_an_over_long_integer_literal_is_a_model_error(tmp_path):
    (tmp_path / "at.bpmn").write_text(loop_with_init("n + " + "1" * MAX_INT_DIGITS))
    assert run_cli("translate", "at.bpmn", cwd=tmp_path)[0] == 0
    (tmp_path / "past.bpmn").write_text(loop_with_init("n + " + "1" * (MAX_INT_DIGITS + 1)))
    code, _, err = run_cli("translate", "past.bpmn", "--out", "past", cwd=tmp_path)
    assert (code, err.splitlines()) == \
        (3, [f"bproc: FeelSyntaxError: integer literal longer than {MAX_INT_DIGITS} digits "
             f"(column 5)"])
    assert not (tmp_path / "past").exists()


@pytest.mark.parametrize("name", ["floor", "ceiling"])
def test_floor_of_an_infinite_double_is_an_engine_fault(name, tmp_path):
    (tmp_path / "inf.bpmn").write_text(loop_with_init(f"{name}(1e308 * 10)"))
    code, out, err = run_cli("run", "inf.bpmn", "--sequential", cwd=tmp_path)
    message = f"Activity_Init: {name}(...) takes a finite number"
    assert (code, err.splitlines()) == (4, [f"bproc: engine fault: {message}"])
    assert out.startswith(f"fault: ENGINE_FAULT ({message})")


def test_a_malformed_cell_is_named_by_its_table_rule_and_column(tmp_path):
    dmn_file = tmp_path / "shipment.dmn"
    text = pathlib.Path(SHIPMENT[1]).read_text(encoding="utf-8")
    malformed = text.replace("<dmn:text>&lt;= 9.0</dmn:text>", "<dmn:text>&lt;= 9.0 +</dmn:text>")
    assert malformed.count("9.0 +") == 1
    dmn_file.write_text(malformed, encoding="utf-8")
    code, _, err = run_cli("test", SHIPMENT[0], str(dmn_file), "-n", "5", cwd=tmp_path)
    assert code == 3
    assert err.splitlines() == ["bproc: FeelSyntaxError: table 'DetermineModeDT' rule 2 "
                                "input 2: expected an expression, found 'end of input' "
                                "(column 9)"]


def test_a_condition_that_holds_only_for_nan_is_a_model_error(tmp_path):
    bpmn_file = tmp_path / "quote.bpmn"
    text = (FIXTURES / "quote.bpmn").read_text(encoding="utf-8")
    bpmn_file.write_text(text.replace("base in [1..10]", "base = 1e999 - 1e999"),
                         encoding="utf-8")
    for command in ("inputs", "run"):
        code, _, err = run_cli(command, str(bpmn_file), cwd=tmp_path)
        assert code == 3
        assert err.splitlines() == ["bproc: DomainMismatchError: sample for 'base' cannot "
                                    "be drawn: ENUM(nan) holds NaN"]
    assert not (tmp_path / "out").exists()
