#!/usr/bin/env python3
"""Cost per unit of generated models at 1x, 4x and 16x a base size.

    python tools/scale.py

Each shape builds a model of a given number of units:

    diamonds       perfbench's send/receive diamonds (`models.diamonds`),
                   run in parallel mode on x = 50; a unit is a diamond
    chains         perfbench's script-task chain (`models.chain`); a unit
                   is a task
    nested_forks   `nested_forks_xml`: forks nested a unit deep, with a
                   write per level, run in parallel mode, so each write
                   meets the race check
    nested_forks_no_writes
                   the same forks with a manual task in place of each
                   write
    gateway        `gateway_xml(range(units))`: one exclusive gateway with
                   a unit's arm `x = i`, run on the last arm's value
    table          `table_xml`: one business rule task over a Unique table
                   with a unit's rule `x = i`, run on the last rule's value

Each point (shape, size) is measured in `REPEAT` (5) fresh child
processes (`--point SHAPE UNITS`), and the median of each phase is kept:
parse (`parse_bpmn`, and `parse_dmn` for the table), compile
(`compile_model`), the first run (`run_once` on the new model, which lowers
it and builds its trace records) and a warm run (the mean of the next runs,
at least three and 50 ms of them). For each shape it prints each phase's
microseconds per unit at 1x, 4x and 16x the shape's base size, and the
exponent fitted to the three points by least squares on log time against
log size: 1 is linear, 0 does not grow with size.
Run it from the repository root, or anywhere with `src/` on the path.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bproc import RunOptions, compile_model, parse_bpmn, parse_dmn, run_once  # noqa: E402
from bproc.feel.values import render_value  # noqa: E402
from perfbench import models  # noqa: E402

DEFINITIONS = ('<?xml version="1.0"?><definitions '
               'xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" '
               'xmlns:ext="http://x/ext"><process id="p" name="P">')
FOOTER = '</process></definitions>'
START_X = ('<startEvent id="start"><extensionElements><ext:ioMapping>'
           '<ext:output source="x" target="x"/></ext:ioMapping></extensionElements>'
           '</startEvent>')
#: the three sizes of a shape, as multiples of its base size
FACTORS = (1, 4, 16)
PHASES = ("parse", "compile", "first_run", "warm_run")
REPEAT = 5  # fresh processes per point
WARM_S = 0.05  # the least time spent on warm runs at a point


def nested_forks_xml(levels: int, writes: bool = True) -> str:
    """start -> fork S1 -> end. Fork Si's first case is fork S(i+1) and its
    join, its second a script task Wi, `v := i`, or a manual task without
    `writes`; the last fork's first case is a manual task. So each write
    is inside i forks, and no fork or join edge orders two of them."""
    out = [DEFINITIONS, '<startEvent id="start"/><endEvent id="end"/>',
           '<sequenceFlow id="f_start" sourceRef="start" targetRef="S1"/>',
           '<sequenceFlow id="f_end" sourceRef="J1" targetRef="end"/>']
    for i in range(1, levels + 1):
        if writes:
            out.append(f'<scriptTask id="W{i}" resultVariable="v"><script>{i}</script>'
                       '</scriptTask>')
        else:
            out.append(f'<manualTask id="W{i}"/>')
        if i < levels:
            first = f"S{i + 1}"
            out.append(f'<sequenceFlow id="fn{i}" sourceRef="J{i + 1}" targetRef="J{i}"/>')
        else:
            first = f"T{i}"
            out.append(f'<manualTask id="T{i}"/>'
                       f'<sequenceFlow id="ft{i}" sourceRef="T{i}" targetRef="J{i}"/>')
        out.append(f'<parallelGateway id="S{i}"/><parallelGateway id="J{i}"/>'
                   f'<sequenceFlow id="fa{i}" sourceRef="S{i}" targetRef="{first}"/>'
                   f'<sequenceFlow id="fb{i}" sourceRef="S{i}" targetRef="W{i}"/>'
                   f'<sequenceFlow id="fw{i}" sourceRef="W{i}" targetRef="J{i}"/>')
    return "".join(out) + FOOTER


def gateway_xml(constants, default: bool = False) -> str:
    """start (writes x) -> one exclusive gateway g -> case i, `x =
    constants[i]`, to end event e<i>, and with `default`, a default flow to
    end event ed; x's domain is the enum of the constants."""
    out = [DEFINITIONS, START_X,
           '<exclusiveGateway id="g" default="fd"/>' if default else '<exclusiveGateway id="g"/>',
           '<sequenceFlow id="f_start" sourceRef="start" targetRef="g"/>']
    for i, constant in enumerate(constants):
        out.append(f'<endEvent id="e{i}"/><sequenceFlow id="f{i}" sourceRef="g" '
                   f'targetRef="e{i}"><conditionExpression>x = {render_value(constant)}'
                   '</conditionExpression></sequenceFlow>')
    if default:
        out.append('<endEvent id="ed"/><sequenceFlow id="fd" sourceRef="g" targetRef="ed"/>')
    return "".join(out) + FOOTER


def table_xml(rules: int) -> tuple[str, str]:
    """(BPMN, DMN): start (writes x) -> business rule task `t` calling the
    Unique table T, whose rule i is `x = i` -> y := i, for i < `rules` ->
    end; x's domain is the enum of the rules' values."""
    bpmn = (DEFINITIONS + START_X + '<businessRuleTask id="t"><extensionElements>'
            '<ext:calledDecision decisionId="T"/></extensionElements></businessRuleTask>'
            '<endEvent id="end"/><sequenceFlow id="f1" sourceRef="start" targetRef="t"/>'
            '<sequenceFlow id="f2" sourceRef="t" targetRef="end"/>' + FOOTER)
    out = ['<?xml version="1.0"?><definitions '
           'xmlns="https://www.omg.org/spec/DMN/20191111/MODEL/">'
           '<decision id="T" name="T"><decisionTable hitPolicy="UNIQUE">'
           '<input label="x"><inputExpression><text>x</text></inputExpression></input>'
           '<output name="y"/>']
    for i in range(rules):
        out.append(f'<rule><inputEntry><text>{i}</text></inputEntry>'
                   f'<outputEntry><text>{i}</text></outputEntry></rule>')
    return bpmn, "".join(out) + '</decisionTable></decision></definitions>'


#: shape -> (base units, the model's (BPMN, DMN or None) at a size, the
#: run's input lists at that size, its mode)
SHAPES = {
    "diamonds": (100, lambda n: (models.diamonds(n, 7).xml, None),
                 lambda n: {"x": [50]}, "parallel"),
    "chains": (400, lambda n: (models.chain(n, 7), None), lambda n: {}, "sequential"),
    "nested_forks": (100, lambda n: (nested_forks_xml(n), None), lambda n: {}, "parallel"),
    "nested_forks_no_writes": (100, lambda n: (nested_forks_xml(n, writes=False), None),
                               lambda n: {}, "parallel"),
    "gateway": (250, lambda n: (gateway_xml(range(n)), None), lambda n: {"x": [n - 1]},
                "sequential"),
    "table": (250, table_xml, lambda n: {"x": [n - 1]}, "sequential"),
}


def measure(shape: str, units: int) -> dict:
    """The seconds of each phase at one point, and the warm run's status."""
    _, build, inputs_at, mode = SHAPES[shape]
    bpmn_text, dmn_text = build(units)
    lists, options = inputs_at(units), RunOptions(mode=mode, seed=2)
    t0 = time.perf_counter()
    process = parse_bpmn(bpmn_text)
    tables = parse_dmn(dmn_text) if dmn_text is not None else []
    t1 = time.perf_counter()
    model = compile_model(process, tables)
    t2 = time.perf_counter()
    run_once(model, lists, options)
    t3 = time.perf_counter()
    runs, end = 0, t3
    while runs < 3 or end - t3 < WARM_S:
        _, summary = run_once(model, lists, options)
        runs, end = runs + 1, time.perf_counter()
    return {"parse": t1 - t0, "compile": t2 - t1, "first_run": t3 - t2,
            "warm_run": (end - t3) / runs, "status": summary.status}


def exponent(sizes, seconds) -> float:
    """The least-squares slope of log seconds on log size."""
    xs, ys = [math.log(n) for n in sizes], [math.log(max(s, 1e-9)) for s in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)


def _point(shape: str, units: int) -> dict:
    done = subprocess.run([sys.executable, __file__, "--point", shape, str(units)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def sweep(shape: str, base: int, repeat: int) -> list[str]:
    """The Markdown rows of one shape: a phase per row."""
    sizes = [base * f for f in FACTORS]
    medians, statuses = {phase: [] for phase in PHASES}, set()
    for units in sizes:
        points = [_point(shape, units) for _ in range(repeat)]
        statuses.update(p["status"] for p in points)
        for phase in PHASES:
            medians[phase].append(statistics.median(p[phase] for p in points))
    rows = []
    for phase in PHASES:
        per_unit = " | ".join(f"{s / n * 1e6:.3f}" for s, n in zip(medians[phase], sizes))
        rows.append(f"| {shape} | {phase} | {per_unit} | "
                    f"{exponent(sizes, medians[phase]):.2f} | {', '.join(sorted(statuses))} |")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--point", nargs=2, metavar=("SHAPE", "UNITS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point is not None:
        print(json.dumps(measure(args.point[0], int(args.point[1]))))
        return 0
    print("| shape | phase | " + " | ".join(f"µs/unit {f}x" for f in FACTORS)
          + " | exponent | warm run status |")
    print("| --- | --- | " + "---: | " * len(FACTORS) + "---: | --- |")
    for shape, (base, *_) in SHAPES.items():
        for row in sweep(shape, base, REPEAT):
            print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
