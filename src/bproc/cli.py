"""Command-line front end: parse -> compile -> analyze -> run -> verify.

Exit codes: 0 success/PASS, 1 FAIL (or an error end on `run`), 2 usage
error, 3 model error (schema, role conflicts, unresolved tables, bad
inputs file), 4 engine fault or timeout.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bpmn, compiler, dmn, inputs as inputs_mod, runtime, verifier
from .errors import BprocError, ConfigError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_ENGINE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bproc",
        description="Compile BPMN+DMN processes and verify them with randomized "
                    "coverage campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("paths", nargs="+",
                       help="one .bpmn file plus any number of .dmn files")
        p.add_argument("--out", default=None,
                       help="output directory (default ./out/<processId>/)")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (falls back to $BPROC_SEED, then 0)")
        p.add_argument("--verbose", action="store_true")

    p_translate = sub.add_parser("translate",
                                 help="write readable source, graph and inputs files")
    p_graph = sub.add_parser("graph", help="write the process graph file only")
    p_inputs = sub.add_parser("inputs", help="write the inferred inputs file only")
    p_run = sub.add_parser("run", help="execute the process once")
    p_test = sub.add_parser("test", help="run a verification campaign")
    for p in (p_translate, p_graph, p_inputs, p_run, p_test):
        add_common(p)

    for p in (p_run, p_test):
        p.add_argument("--inputs-file", default=None,
                       help="use this inputs file instead of inferring one")
        p.add_argument("--timeout-ms", type=int, default=5000,
                       help="per-run timeout in milliseconds")
        p.add_argument("--sequential", action="store_true",
                       help="approximate parallel branches by running them in order")

    p_test.add_argument("--mode", choices=("fixed", "error", "smc"), default="fixed")
    p_test.add_argument("-n", type=int, default=1000, help="run budget")
    p_test.add_argument("--theta-nodes", type=float, default=0.0)
    p_test.add_argument("--theta-edges", type=float, default=0.0)
    p_test.add_argument("--combiner", choices=verifier.COMBINERS, default="and")
    p_test.add_argument("--epsilon", type=float, default=0.01)
    p_test.add_argument("--delta", type=float, default=0.01)
    p_test.add_argument("--property", choices=("no-error", "coverage-unreachable"),
                        default="no-error", help="the property checked under --mode smc")
    return parser


def _load_models(paths):
    bpmn_paths = [p for p in paths if p.endswith(".bpmn")]
    dmn_paths = [p for p in paths if p.endswith(".dmn")]
    stray = [p for p in paths if not p.endswith((".bpmn", ".dmn"))]
    if stray:
        raise ConfigError(f"unrecognized file extensions: {stray}")
    if len(bpmn_paths) != 1:
        raise ConfigError(f"exactly one .bpmn file is required, got {len(bpmn_paths)}")
    with open(bpmn_paths[0], "rb") as fh:
        model = bpmn.parse_bpmn(fh.read())
    tables = []
    for path in dmn_paths:
        with open(path, "rb") as fh:
            tables.extend(dmn.parse_dmn(fh.read()))
    return model, tables


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("BPROC_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"$BPROC_SEED must be an integer, got {env!r}") from None


def _out_dir(args, model) -> str:
    return args.out or os.path.join("out", model.process_id)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"bproc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BprocError as exc:
        print(f"bproc: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(f"bproc: {exc}", file=sys.stderr)
        return EXIT_MODEL


def _dispatch(args) -> int:
    model, tables = _load_models(args.paths)
    seed = _seed_of(args)
    out_dir = _out_dir(args, model)

    if args.command == "graph":  # needs only the parsed model, not the tables
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{model.process_id}.graph")
        _write(path, runtime.render_graph_file(bpmn.extract_graph(model)))
        print(path)
        return EXIT_OK

    inputs_file = getattr(args, "inputs_file", None)
    parsed = inputs_mod.parse_inputs_file(inputs_file) if inputs_file else inputs_mod.InputsFile()
    overrides = parsed.overrides

    executable = compiler.compile_model(model, tables, sample_seed=seed)
    if inputs_file:
        # the (possibly hand-edited) file overrides the inferred specs
        by_name = parsed.by_name()
        missing = [s.name for s in executable.input_vars if s.name not in by_name]
        if missing:
            raise BprocError(f"inputs file {inputs_file!r} lacks variables {missing}")
        executable.input_vars = [by_name[s.name] for s in executable.input_vars]
    if args.verbose:
        for note in executable.diagnostics:
            print(f"bproc: note: {note}", file=sys.stderr)

    if args.command == "inputs":
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{model.process_id}.inputs")
        inputs_mod.write_inputs_file(path, executable.input_vars, overrides)
        print(path)
        return EXIT_OK

    if args.command == "translate":
        os.makedirs(out_dir, exist_ok=True)
        src_path = os.path.join(out_dir, f"{model.process_id}.src.txt")
        _write(src_path, compiler.render_source(executable))
        graph_path = os.path.join(out_dir, f"{model.process_id}.graph")
        _write(graph_path, runtime.render_graph_file(executable.graph))
        inputs_path = os.path.join(out_dir, f"{model.process_id}.inputs")
        inputs_mod.write_inputs_file(inputs_path, executable.input_vars, overrides)
        for path in (src_path, graph_path, inputs_path):
            print(path)
        return EXIT_OK

    if args.command == "run":
        lists = {spec.name: [spec.sample] for spec in executable.input_vars}
        options = runtime.RunOptions(
            mode="sequential" if args.sequential else "parallel",
            timeout_s=_timeout_s(args.timeout_ms),
            seed=seed)
        trace, summary = runtime.run_once(executable, lists, options)
        paths = runtime.write_artifacts(trace, summary, executable.graph, out_dir,
                                        stem=model.process_id)
        if args.verbose:
            sys.stdout.write(runtime.render_trace_file(trace, executable.graph))
        print(f"{summary.status}: {summary.code} ({summary.message}) -> {paths['.out']}")
        if summary.status == "success":
            return EXIT_OK
        if summary.status == "error":
            return EXIT_FAIL
        print(f"bproc: engine {summary.status}: {summary.message}", file=sys.stderr)
        return EXIT_ENGINE

    # test
    mode: verifier.FixedBudget | verifier.ErrorSeek | verifier.Smc
    if args.mode == "fixed":
        mode = verifier.FixedBudget(args.n, args.theta_nodes, args.theta_edges,
                                    args.combiner)
    elif args.mode == "error":
        mode = verifier.ErrorSeek(args.n)
    else:
        mode = verifier.Smc(args.epsilon, args.delta, args.property,
                            args.theta_nodes, args.theta_edges, args.combiner)
    cfg = verifier.CampaignConfig(mode=mode, timeout_s=_timeout_s(args.timeout_ms),
                                  seed=seed, sequential=args.sequential)
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, f"{model.process_id}.graph"),
           runtime.render_graph_file(executable.graph))
    verdict = verifier.run_campaign(executable, cfg, overrides, out_dir)
    print(f"{verdict.result}: {verdict.reason}")
    print(os.path.join(out_dir, "verdict.json"))
    return EXIT_OK if verdict.result == "PASS" else EXIT_FAIL


def _timeout_s(timeout_ms: int) -> float:
    try:
        return timeout_ms / 1000.0
    except OverflowError:  # more digits than a float holds
        raise ConfigError("the timeout must be positive" if timeout_ms < 0
                          else "the timeout is too large") from None


def _write(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
