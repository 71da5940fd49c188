import functools
import importlib.util
import os
import pathlib
import sys

import pytest

import bproc
from bproc import compile_model, feel, parse_bpmn, parse_dmn

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@functools.cache
def load_script(path: str):
    """The script at `path` under the repository root (such as
    `tools/opcounts.py`), imported once as a module of its own dotted name
    (`tools.opcounts`), under which `dataclasses` finds it."""
    name = pathlib.PurePath(path).with_suffix("").as_posix().replace("/", ".")
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tool(name: str):
    """The script `tools/<name>.py`, imported once as a module."""
    return load_script(f"tools/{name}.py")


def load_fixture(name: str, *dmn_names: str):
    """(ProcessModel, [DecisionTable]) for a bundled .bpmn plus its .dmn files."""
    model = parse_bpmn((FIXTURES / f"{name}.bpmn").read_bytes())
    tables = []
    for dmn_name in dmn_names:
        tables.extend(parse_dmn((FIXTURES / f"{dmn_name}.dmn").read_bytes()))
    return model, tables


def compile_fixture(name: str, *dmn_names: str, sample_seed: int = 0):
    model, tables = load_fixture(name, *dmn_names)
    return compile_model(model, tables, sample_seed=sample_seed)


def input_spec(model, name: str):
    """The InputSpec of a compiled model's input variable `name`."""
    return next(s for s in model.input_vars if s.name == name)


def hit_arrays(model) -> tuple[bytearray, bytearray]:
    """A campaign's pair of hit arrays for `model`, as `run_campaign` makes
    them: one byte per node and one per distinct pair of its graph."""
    return bytearray(len(model.graph.node_index)), bytearray(len(model.graph.edge_index))


def parse_summary_inputs(path) -> dict[str, object]:
    """Read back the `input <name> = <value>` lines of a summary file."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("input ") and " = " in line:
                head, value_text = line[len("input "):].split(" = ", 1)
                values[head.strip()] = feel.evaluate(feel.parse_expr(value_text), {})
    return values


def child_env() -> dict[str, str]:
    """Environment for a child `python -m bproc` that imports this same bproc.

    The source root of the imported package goes first on PYTHONPATH, so the
    child finds it from any working directory and ignores other installed
    copies; entries already there are kept, made absolute against this
    process's working directory.
    """
    source_root = pathlib.Path(bproc.__file__).resolve().parent.parent
    entries = [str(source_root)]
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry:
            entries.append(os.path.abspath(entry))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}


_LAUGHS = "".join(['<!ENTITY lol0 "lol">'] + [f'<!ENTITY lol{i} "{f"&lol{i - 1};" * 10}">'
                                                for i in range(1, 10)])

# minimal valid models with a `{ref}` placeholder, for `with_doctype`
DTD_BPMN = ('<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">'
            '<process id="p" name="P{ref}"><startEvent id="s"/><endEvent id="e"/>'
            '<sequenceFlow id="f" sourceRef="s" targetRef="e"/></process></definitions>')
DTD_DMN = ('<definitions xmlns="https://www.omg.org/spec/DMN/20191111/MODEL/">'
           '<decision id="D1" name="d{ref}"><decisionTable id="DT1">'
           '<input label="x"><inputExpression><text>x</text></inputExpression></input>'
           '<output name="y"/><rule><inputEntry><text>-</text></inputEntry>'
           '<outputEntry><text>1</text></outputEntry></rule>'
           '</decisionTable></decision></definitions>')


PROLOG_ITEMS = ["<!-- a comment -->", "<?bproc note?>", "\n<!-- c --><?pi x?>\n"]


def after_declaration(prolog: str, document: str) -> str:
    """`document`, which starts with an XML declaration, with `prolog` right
    behind that declaration."""
    head, tail = document.split("?>", 1)
    return head + "?>" + prolog + tail


def with_doctype(attack: str, document: str) -> str:
    """`document` (no XML declaration, a `{ref}` placeholder inside) behind a
    document type declaration: "laughs" nests ten entities ten deep, 10**9
    characters once `&lol9;` at the placeholder is expanded; "system" names an
    external DTD. Without the declaration (and with `{ref}` empty) the
    document is well formed."""
    root = document.lstrip("<").split(None, 1)[0]
    if attack == "laughs":
        return (f'<?xml version="1.0"?><!DOCTYPE {root} [{_LAUGHS}]>'
                + document.format(ref="&lol9;"))
    return (f'<?xml version="1.0"?><!DOCTYPE {root} SYSTEM "bproc-model.dtd">'
            + document.format(ref=""))


@pytest.fixture(scope="session")
def shipment():
    return compile_fixture("shipment", "shipment", sample_seed=42)


@pytest.fixture(scope="session")
def shipment_parsed():
    return load_fixture("shipment", "shipment")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES
