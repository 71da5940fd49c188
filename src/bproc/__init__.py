"""Toolchain for executing and verifying BPMN 2.0 processes with linked
DMN decision tables.

Pipeline: parse_bpmn / parse_dmn -> compile_model -> run_once or
run_campaign; infer_domains and the inputs file sit in between to describe
the input variables the environment must supply.

Records built in bulk, at set-up or per run (model nodes, flows and
variable roles, FEEL syntax trees, compiler steps and routines, and a
run's variable-write and table-result records), are slotted dataclasses
compared and hashed by value, but not frozen: a frozen `__init__` sets
every field through `object.__setattr__`, which costs several times a
plain one. Nothing assigns to them after construction, and
`tests/test_construction.py` checks that parsing, compiling, rendering
and running leave a model's records as they were built. The node and edge
trace records, built once per program and shared by every run, stay
frozen.
"""

from .bpmn import (ProcessGraph, ProcessModel, classify_variables, extract_graph,
                   parse_bpmn)
from .compiler import ExecutableModel, compile_model, render_source
from .dmn import DecisionTable, Rule, evaluate_table, parse_dmn
from .errors import BprocError
from .feel import (StaticType, evaluate, infer_types, match_unary, parse_expr,
                   parse_unary_test, render)
from .inputs import (BallDomain, EnumDomain, InputSpec, RangeDomain, UnhandledDomain,
                     infer_domains, parse_inputs_file, sample_domain, write_inputs_file)
from .runtime import (RunOptions, RunSummary, Trace, run_once, write_artifacts)
from .verifier import (CampaignConfig, CoverageReport, ErrorSeek, FixedBudget, Smc,
                       Verdict, accumulate_coverage, run_campaign, smc_sample_size)

__version__ = "0.1.0"

__all__ = [
    "BprocError",
    "parse_expr", "parse_unary_test", "evaluate", "match_unary", "render",
    "infer_types", "StaticType",
    "parse_bpmn", "classify_variables", "extract_graph", "ProcessModel", "ProcessGraph",
    "parse_dmn", "evaluate_table", "DecisionTable", "Rule",
    "compile_model", "render_source", "ExecutableModel",
    "run_once", "RunOptions", "RunSummary", "Trace", "write_artifacts",
    "infer_domains", "sample_domain", "write_inputs_file", "parse_inputs_file",
    "InputSpec", "EnumDomain", "BallDomain", "RangeDomain", "UnhandledDomain",
    "run_campaign", "accumulate_coverage", "smc_sample_size",
    "CampaignConfig", "FixedBudget", "ErrorSeek", "Smc", "CoverageReport", "Verdict",
]
