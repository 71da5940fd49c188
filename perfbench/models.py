"""Seeded generators for the two structured model shapes the benchmark uses.

Both are plain XML strings built with the standard library, so the program
under test only ever sees BPMN bytes.

diamonds  start -> exclusive gate -> D fork/join diamonds -> end. The gate
          sends every input x < EXIT_BELOW straight to an early end event.
          Diamond i forks a send task and a receive task on channel c<i>
          (send first in document order, as in fixtures/pingpong.bpmn); the
          send carries m<i-1> + k_i, the receive stores it in m<i>, so the
          last receive holds x + sum(k_i).
chain     start -> N script tasks (v<i> := v<i-1> + 1) -> end, with no input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

HEADER = ('<?xml version="1.0" encoding="UTF-8"?>\n'
          '<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL"'
          ' xmlns:ext="http://bproc.dev/schema/1.0/ext" id="Definitions_{pid}"'
          ' targetNamespace="http://bproc.dev/bench">\n'
          '<bpmn:process id="{pid}" name="{pid}" isExecutable="true">\n')
FOOTER = '</bpmn:process>\n</bpmn:definitions>\n'

# x is inferred as RANGE [0, 99] from the two gate conditions and drawn
# uniformly, so about one run in ten exits early.
X_LO, X_HI, EXIT_BELOW = 0, 99, 10


@dataclass(frozen=True)
class Diamonds:
    xml: bytes
    diamonds: int
    increments: tuple[int, ...]

    def exits_early(self, x: int) -> bool:
        return x < EXIT_BELOW

    def expected_path(self, x: int) -> list[str]:
        """Node path of a sequential run: each fork runs its send branch,
        then its receive branch, then activates the join."""
        if self.exits_early(x):
            return ["Start", "Gate", "EndEarly"]
        path = ["Start", "Gate"]
        for i in range(1, self.diamonds + 1):
            path += [f"Split{i}", f"Send{i}", f"Recv{i}", f"Join{i}"]
        return path + ["End"]

    def expected_last_write(self, x: int) -> tuple[str, int] | None:
        if self.exits_early(x):
            return None
        return f"m{self.diamonds}", x + sum(self.increments)


def diamonds(count: int, seed: int) -> Diamonds:
    rng = random.Random(seed)
    increments = tuple(rng.randint(1, 9) for _ in range(count))
    out = [HEADER.format(pid="diamonds"),
           '<bpmn:startEvent id="Start" name="start"><bpmn:extensionElements>'
           '<ext:ioMapping><ext:output source="x" target="x"/></ext:ioMapping>'
           '</bpmn:extensionElements></bpmn:startEvent>\n',
           '<bpmn:exclusiveGateway id="Gate" name="gate"/>\n',
           '<bpmn:endEvent id="EndEarly" name="early"/>\n',
           '<bpmn:endEvent id="End" name="done"/>\n',
           '<bpmn:sequenceFlow id="F_start" sourceRef="Start" targetRef="Gate"/>\n',
           '<bpmn:sequenceFlow id="F_early" sourceRef="Gate" targetRef="EndEarly">'
           f'<bpmn:conditionExpression>x &gt;= {X_LO} and x &lt; {EXIT_BELOW}'
           '</bpmn:conditionExpression></bpmn:sequenceFlow>\n',
           '<bpmn:sequenceFlow id="F_go" sourceRef="Gate" targetRef="Split1">'
           f'<bpmn:conditionExpression>x &gt;= {EXIT_BELOW} and x &lt;= {X_HI}'
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
    return Diamonds("".join(out).encode(), count, increments)


def chain(count: int, seed: int) -> bytes:
    start = random.Random(seed).randint(0, 999)
    out = [HEADER.format(pid="chain"),
           '<bpmn:startEvent id="Start"/>\n',
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
