"""SHA-256 pins of what the front end writes for a model: the readable
source (`render_source`), the inputs file and the graph file.

The fixtures are compiled as the goldens are (sample seed 42). The two
generated shapes follow `perfbench/models.py` and are built here, so the
pins hold whatever the benchmark does: `diamonds` forks a send and a
receive task per unit behind an exclusive gate, `chain` is a sequence of
script tasks `v<i> := v<i-1> + 1`. The pins were taken from the front end
before it was rewritten to set a model up in one pass; any change to them
is a change to the output formats.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from bproc import compile_model, parse_bpmn
from bproc.compiler import render_source
from bproc.inputs import write_inputs_file
from bproc.runtime import render_graph_file
from golden_support import FIXTURE_PLAN, compiled

HEADER = ('<?xml version="1.0" encoding="UTF-8"?>\n'
          '<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL"'
          ' xmlns:ext="http://bproc.dev/schema/1.0/ext" id="Definitions_{pid}"'
          ' targetNamespace="http://bproc.dev/bench">\n'
          '<bpmn:process id="{pid}" name="{pid}" isExecutable="true">\n')
FOOTER = '</bpmn:process>\n</bpmn:definitions>\n'
SEED = 7


def diamonds(count: int, seed: int) -> bytes:
    rng = random.Random(seed)
    increments = [rng.randint(1, 9) for _ in range(count)]
    out = [HEADER.format(pid="diamonds"),
           '<bpmn:startEvent id="Start" name="start"><bpmn:extensionElements>'
           '<ext:ioMapping><ext:output source="x" target="x"/></ext:ioMapping>'
           '</bpmn:extensionElements></bpmn:startEvent>\n',
           '<bpmn:exclusiveGateway id="Gate" name="gate"/>\n',
           '<bpmn:endEvent id="EndEarly" name="early"/>\n',
           '<bpmn:endEvent id="End" name="done"/>\n',
           '<bpmn:sequenceFlow id="F_start" sourceRef="Start" targetRef="Gate"/>\n',
           '<bpmn:sequenceFlow id="F_early" sourceRef="Gate" targetRef="EndEarly">'
           '<bpmn:conditionExpression>x &gt;= 0 and x &lt; 10'
           '</bpmn:conditionExpression></bpmn:sequenceFlow>\n',
           '<bpmn:sequenceFlow id="F_go" sourceRef="Gate" targetRef="Split1">'
           '<bpmn:conditionExpression>x &gt;= 10 and x &lt;= 99'
           '</bpmn:conditionExpression></bpmn:sequenceFlow>\n']
    for i, k in enumerate(increments, start=1):
        prev = "x" if i == 1 else f"m{i - 1}"
        after = f"Split{i + 1}" if i < count else "End"
        out.append(
            f'<bpmn:parallelGateway id="Split{i}"/>\n'
            f'<bpmn:sendTask id="Send{i}"><bpmn:extensionElements>'
            f'<ext:ioMapping channel="c{i}"><ext:input source="={prev} + {k}" target="v"/>'
            f'</ext:ioMapping></bpmn:extensionElements></bpmn:sendTask>\n'
            f'<bpmn:receiveTask id="Recv{i}"><bpmn:extensionElements>'
            f'<ext:ioMapping channel="c{i}"><ext:output source="v" target="m{i}"/>'
            f'</ext:ioMapping></bpmn:extensionElements></bpmn:receiveTask>\n'
            f'<bpmn:parallelGateway id="Join{i}"/>\n'
            f'<bpmn:sequenceFlow id="F{i}s" sourceRef="Split{i}" targetRef="Send{i}"/>\n'
            f'<bpmn:sequenceFlow id="F{i}r" sourceRef="Split{i}" targetRef="Recv{i}"/>\n'
            f'<bpmn:sequenceFlow id="F{i}a" sourceRef="Send{i}" targetRef="Join{i}"/>\n'
            f'<bpmn:sequenceFlow id="F{i}b" sourceRef="Recv{i}" targetRef="Join{i}"/>\n'
            f'<bpmn:sequenceFlow id="F{i}n" sourceRef="Join{i}" targetRef="{after}"/>\n')
    out.append(FOOTER)
    return "".join(out).encode()


def chain(count: int, seed: int) -> bytes:
    start = random.Random(seed).randint(0, 999)
    out = [HEADER.format(pid="chain"), '<bpmn:startEvent id="Start"/>\n',
           '<bpmn:endEvent id="End"/>\n']
    for i in range(1, count + 1):
        expr = str(start) if i == 1 else f"v{i - 1} + 1"
        after = f"T{i + 1}" if i < count else "End"
        out.append(
            f'<bpmn:scriptTask id="T{i}" resultVariable="v{i}">'
            f'<bpmn:script>{expr}</bpmn:script></bpmn:scriptTask>\n'
            f'<bpmn:sequenceFlow id="F{i}" sourceRef="T{i}" targetRef="{after}"/>\n')
    out.append('<bpmn:sequenceFlow id="F0" sourceRef="Start" targetRef="T1"/>\n')
    out.append(FOOTER)
    return "".join(out).encode()


def digests(x, tmp_path) -> tuple[str, str, str]:
    """(source, inputs file, graph file) SHA-256 digests of a compiled model."""
    inputs_path = tmp_path / "model.inputs"
    write_inputs_file(inputs_path, x.input_vars)
    return tuple(hashlib.sha256(text).hexdigest() for text in (
        render_source(x).encode(), inputs_path.read_bytes(),
        render_graph_file(x.graph).encode()))


PINS = {
    "shipment": ("4a74930989fe45453497f065310f4552486a508f022745f60005151951accc65",
                 "f7526ec21e2ef9d6fb9d5a72ce664e8558d8f2cfa5caa90497a67886bd25733d",
                 "5643a1699c5ed09dbbededc383f6a06b4c953e1417d4726fecfcdf94040e1080"),
    "discount": ("3c26c26ff8c9c8ce5721c67d3c5c5ef6cbdfc197226511a252377714cea2b6ba",
                 "958132f21da730cbe97933a1a3bda1b2fc77d908fa28ef91a5e54aaa8b835a3b",
                 "b6d85b41ab84f31513c237e7e858b462a26d5144c49495a84dbb3b35a7d73f16"),
    "triage": ("338989ddbd553f872ecf9eac94e647b2ed0369075e8d0ad61353609bbe9c7105",
               "326a708925cb6b69fac4e202c74a189cb663a5eedf1f011b33a039f41dcc8d15",
               "3922a7574ed480d073a059d4f59cd009cddcf61f5cd240c3118878b44e52c54f"),
    "quote": ("bf606219b93ceee05c69ee843463fdb0a1afd311f3707ac5a88dc676a6ff0a25",
              "f0b4bfe6903cf7da7ce6a2de213d830ee8254cb49c66961536a47a41c1bcbdb8",
              "60f050d942ffefe870a12939e38901e218d1b13fe79e55f58b9d07eb7360422f"),
    "onboarding": ("38585dffc2fa06abc0a9fa7782fc0473d701db0ebb194509200d0f689e9f1625",
                   "56e920e24ec2a8d2bbd8b5a26835683d5ef04e5fad9ab8a69f7be615d4536c0c",
                   "2016e8d404a37ab61cc9e1646d4bc46265d89ae24ad1689bdb2af1b1f35def02"),
    "loop": ("f019fbb1d43d3caf3dc11c51bc2b8f4ddb821cc63315651979425010a19c8b0d",
             "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
             "93d8aba36d2599c30dd2fc3b148d07463a95389da688f0bd22a581a003b2126d"),
    "pingpong": ("38c67147a5353da2f4769873e1e422cd7d35df5f74fb715b31136184312facb5",
                 "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
                 "7d5f382e98df96484e97dbd353f7b9ee30354c3f9cbed7e0525d287ab7e6d46e"),
    "pingpong_sendfirst": ("f8eb27ac2d19376470e69c01fff803824680238fe57c7ed0b41f1383e1bc37ea",
                           "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
                           "f781f9126aff3d28d40b99ff3acfcf35b7773234fa54daed305004a429167c3f"),
    "diamonds_1": ("fbc15ef3cb3ae7d8dba18f00348094118d2e76da84e3dc82683294e121e7cad0",
                   "df73a21cab8810526bc3823c35bafc82b30df2f1bb9bdfd71d4cd1275ca50055",
                   "1166fa546af7d1fb26e53ef9291be7b1357e2a3689b7fef59c6eab30229be7eb"),
    "diamonds_5": ("f421293dc2221b64c61a7af13c793511c395ea30e55b27df2eb5f0a71f762db4",
                   "df73a21cab8810526bc3823c35bafc82b30df2f1bb9bdfd71d4cd1275ca50055",
                   "5b182e6beb78e5ea6126e198449eeda750e3c94ec61caac3070e7f3b9f5cf93a"),
    "diamonds_50": ("e83a387d74e010ec19faab8c59f2a49cdef65344aea00e0b3eaca2abbacbd351",
                    "df73a21cab8810526bc3823c35bafc82b30df2f1bb9bdfd71d4cd1275ca50055",
                    "2c2cf211a439e55488d1083867fa697790735531a79fd3d6eef3805aa295012c"),
    "chain_1": ("9c2380a153e8ed277436d72b7d138af7c57c79de7838e044269193123233f9ef",
                "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
                "06a52eeaf1f0f65f89e14f64fa8ce493aa2692f2b3f01ad0a22e7e2e6613bb4c"),
    "chain_5": ("b1eda5f123d8dfc65b13a10a695be6d030abf170f7de8e8d1536a600e7d6cef0",
                "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
                "4da4c582ef9c214b517fb159d00d6ed283e0497fb2278a8c581b65d36a495d31"),
    "chain_50": ("666da8ff669b01552c784ddb5e3153f41bb9856ba572293360cf96f941879d09",
                 "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
                 "db0f4ed22a7fea77da099b7fcdbd093dbe9eb1df32e50187a58459f4d83997a7"),
}


def build(name: str):
    if name in FIXTURE_PLAN:
        return compiled(name)
    shape, units = name.rsplit("_", 1)
    generate = {"diamonds": diamonds, "chain": chain}[shape]
    return compile_model(parse_bpmn(generate(int(units), SEED)), ())


CASES = [*FIXTURE_PLAN, *(f"{shape}_{units}" for shape in ("diamonds", "chain")
                          for units in (1, 5, 50))]


@pytest.mark.parametrize("name", CASES)
def test_front_end_output_matches_its_pin(name, tmp_path):
    assert digests(build(name), tmp_path) == PINS[name]
