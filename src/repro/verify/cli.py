"""``python -m repro.verify`` — fuzz, replay, shrink, report.

Examples::

    # deterministic 200-program differential fuzz session
    python -m repro.verify fuzz --budget 200 --seed 0

    # prove the harness catches a seeded semantics bug end to end
    python -m repro.verify fuzz --budget 50 --self-check

    # route metamorphic variant runs through the campaign result cache
    python -m repro.verify fuzz --budget 200 --cache-dir .redsoc-cache

    # re-run a stored failure (name in the store, or a spec JSON path)
    python -m repro.verify replay fuzz-0-12
    python -m repro.verify replay .redsoc-verify/failures/fuzz-0-12/shrunk.json

    # shrink a stored failure under an injected defect
    python -m repro.verify shrink fuzz-0-12 --defect eor-lsb

    # summarise the last session
    python -m repro.verify report

Exit codes follow the campaign CLI: 0 success, 1 findings/divergence,
2 usage error.  ``fuzz --self-check`` inverts the findings sense — the
injected defect *must* be caught (and shrink to a small reproducer),
otherwise the verifier itself is broken.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.campaign import ResultCache, cached_simulate
from repro.core import ENGINES
from repro.core.config import CORES
from repro.core.cpu import simulate

from .artifacts import DEFAULT_ROOT, ArtifactStore, load_spec_file
from .defects import DEFAULT_DEFECT, DEFECTS
from .generator import ProgramSpec, materialize
from .oracle import SimulateFn
from .session import (
    DEFAULT_MAX_FAILURES,
    FuzzOutcome,
    check_spec,
    run_fuzz,
    shrink_finding,
)

#: shrunk reproducers larger than this fail ``--self-check`` — the
#: shrinker, not just the oracle, has to be working
SELF_CHECK_MAX_INSTRUCTIONS = 10


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential fuzzing of the ReDSOC simulator "
                    "against its golden model.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", choices=sorted(CORES),
                       default="small",
                       help="core preset (default: small)")
        p.add_argument("--out", type=Path, default=Path(DEFAULT_ROOT),
                       help=f"artifact root (default: {DEFAULT_ROOT})")
        p.add_argument("--no-metamorphic", action="store_true",
                       help="skip the timing-relation properties")
        p.add_argument("--cache-dir", type=Path, default=None,
                       help="route metamorphic variant simulations "
                            "through a campaign result cache")
        p.add_argument("--engines", nargs="+", metavar="ENGINE",
                       choices=list(ENGINES.names()), default=None,
                       help="cross-check these simulation backends "
                            "against the audited run on every program "
                            "and mode (full-SimStats bit-identity)")

    fuzz = sub.add_parser("fuzz", help="run a deterministic fuzz session")
    common(fuzz)
    fuzz.add_argument("--budget", type=int, default=200, metavar="N",
                      help="programs to generate (default: 200)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="session seed (default: 0)")
    fuzz.add_argument("--max-failures", type=int,
                      default=DEFAULT_MAX_FAILURES, metavar="K",
                      help="stop after K findings "
                           f"(default: {DEFAULT_MAX_FAILURES})")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="keep failing programs un-minimised")
    fuzz.add_argument("--self-check", nargs="?", const=DEFAULT_DEFECT,
                      choices=sorted(DEFECTS), metavar="DEFECT",
                      default=None,
                      help="inject a named semantics defect and require "
                           f"the fuzzer to catch it (default defect: "
                           f"{DEFAULT_DEFECT})")
    fuzz.add_argument("--quiet", "-q", action="store_true",
                      help="suppress per-program progress")
    fuzz.add_argument("--log-json", action="store_true",
                      help="structured JSON log lines on stderr, "
                           "correlated by a per-session id")

    replay = sub.add_parser(
        "replay", help="re-run a stored failure through the oracle")
    common(replay)
    replay.add_argument("target", metavar="NAME_OR_PATH",
                        help="failure name in the store, or a spec JSON "
                             "file path")
    replay.add_argument("--defect", choices=sorted(DEFECTS), default=None,
                        help="re-inject a defect while replaying")
    replay.add_argument("--full", action="store_true",
                        help="replay the original spec, not the shrunk "
                             "one")

    shr = sub.add_parser("shrink", help="minimise a stored failure")
    common(shr)
    shr.add_argument("target", metavar="NAME_OR_PATH",
                     help="failure name in the store, or a spec JSON "
                          "file path")
    shr.add_argument("--defect", choices=sorted(DEFECTS), default=None,
                     help="inject a defect while evaluating candidates")
    shr.add_argument("--max-evaluations", type=int, default=1500,
                     metavar="N",
                     help="candidate evaluation budget (default: 1500)")

    report = sub.add_parser("report",
                            help="summarise the stored session")
    report.add_argument("--out", type=Path, default=Path(DEFAULT_ROOT),
                        help=f"artifact root (default: {DEFAULT_ROOT})")
    return parser


def _simulate_fn(args: argparse.Namespace) -> SimulateFn:
    if args.cache_dir is None:
        return simulate
    cache = ResultCache(args.cache_dir)
    return lambda trace, config: cached_simulate(trace, config, cache)


def _load_target(args: argparse.Namespace, *,
                 prefer_shrunk: bool) -> ProgramSpec:
    path = Path(args.target)
    if path.is_file():
        return load_spec_file(path)
    return ArtifactStore(args.out).load_spec(args.target,
                                             shrunk=prefer_shrunk)


def _print_listing(spec: ProgramSpec) -> None:
    program = materialize(spec)
    print(f"  {len(program.instructions)} instruction(s):")
    for instr in program.instructions:
        print(f"    {instr!r}")


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.obs.log import stderr_logger, stdlib_logs_to

    store = ArtifactStore(args.out)
    logger = None
    if args.log_json:
        from repro.obs.trace import IdSource
        session_id = IdSource(args.seed).trace_id()
        logger = stderr_logger(component="verify").bind(
            session_id=session_id, seed=args.seed,
            budget=args.budget, config=args.config)
        logger.info("fuzz.start",
                    self_check=args.self_check,
                    metamorphic=not args.no_metamorphic)

    def progress(index: int, verdict) -> None:
        if logger is not None and not verdict.ok:
            logger.warning("fuzz.finding", name=verdict.name,
                           index=index,
                           divergences=len(verdict.divergences),
                           first=str(verdict.divergences[0]))
        if not args.quiet and not verdict.ok:
            first = verdict.divergences[0]
            print(f"[FAIL] {verdict.name}: {first} "
                  f"(+{len(verdict.divergences) - 1} more)")

    with stdlib_logs_to(logger):
        outcome = run_fuzz(budget=args.budget, seed=args.seed,
                           config=CORES[args.config],
                           metamorphic=not args.no_metamorphic,
                           engines=args.engines,
                           do_shrink=not args.no_shrink,
                           defect=args.self_check,
                           max_failures=args.max_failures,
                           simulate_fn=_simulate_fn(args),
                           store=store, progress=progress)
    if logger is not None:
        logger.info("fuzz.done",
                    programs_run=outcome.programs_run,
                    findings=len(outcome.findings))
    if not args.quiet:
        print(outcome.coverage.render())
        print(f"session written to {store.session_path}")
    if args.self_check is not None:
        return _self_check_result(outcome)
    if outcome.findings:
        print(f"{len(outcome.findings)} finding(s) — artifacts under "
              f"{store.root / 'failures'}", file=sys.stderr)
        return 1
    print(f"ok: {outcome.programs_run} program(s), no divergence")
    return 0


def _self_check_result(outcome: FuzzOutcome) -> int:
    """0 iff the injected defect was caught and shrunk small enough."""
    if not outcome.findings:
        print(f"self-check FAILED: defect {outcome.defect!r} survived "
              f"{outcome.programs_run} program(s) undetected",
              file=sys.stderr)
        return 1
    sizes = [f.shrunk.instructions for f in outcome.findings
             if f.shrunk is not None and f.shrunk.instructions]
    best = min(sizes, default=None)
    if sizes and best > SELF_CHECK_MAX_INSTRUCTIONS:
        print(f"self-check FAILED: smallest reproducer has {best} "
              f"instructions (> {SELF_CHECK_MAX_INSTRUCTIONS})",
              file=sys.stderr)
        return 1
    detail = (f", smallest reproducer {best} instruction(s)"
              if best is not None else "")
    print(f"self-check ok: defect {outcome.defect!r} caught in "
          f"{len(outcome.findings)} finding(s){detail}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    spec = _load_target(args, prefer_shrunk=not args.full)
    verdict = check_spec(spec, config=CORES[args.config],
                         metamorphic=not args.no_metamorphic,
                         engines=args.engines,
                         defect=args.defect,
                         simulate_fn=_simulate_fn(args))
    print(f"{spec.name}: {verdict.instructions} dynamic instruction(s), "
          f"cycles {verdict.cycles}")
    if verdict.ok:
        print("no divergence")
        return 0
    for divergence in verdict.divergences:
        print(f"  {divergence}")
    return 1


def _cmd_shrink(args: argparse.Namespace) -> int:
    spec = _load_target(args, prefer_shrunk=False)
    verdict = check_spec(spec, config=CORES[args.config],
                         metamorphic=not args.no_metamorphic,
                         engines=args.engines,
                         defect=args.defect,
                         simulate_fn=_simulate_fn(args))
    if verdict.ok:
        print(f"{spec.name} does not fail — nothing to shrink",
              file=sys.stderr)
        return 2
    result = shrink_finding(spec, verdict, config=CORES[args.config],
                            defect=args.defect,
                            simulate_fn=_simulate_fn(args),
                            max_evaluations=args.max_evaluations)
    directory = ArtifactStore(args.out).failure_dir(spec.name)
    if directory.is_dir():
        (directory / "shrunk.json").write_text(
            json.dumps(result.spec.to_dict(), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"wrote {directory / 'shrunk.json'}")
    print(f"{spec.name}: shrunk to {result.instructions} "
          f"instruction(s) in {result.evaluations} evaluation(s)")
    _print_listing(result.spec)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.out)
    if not store.session_path.is_file():
        print(f"no session at {store.session_path} "
              f"(run `python -m repro.verify fuzz` first)",
              file=sys.stderr)
        return 2
    session = store.read_session()
    coverage = session.get("coverage", {})
    total = len(coverage.get("static", {})) or 1
    covered = total - len(coverage.get("missing_static", []))
    defect = session.get("defect")
    print(f"seed {session['seed']}, budget {session['budget']}, "
          f"config {session['config']}"
          + (f", injected defect {defect!r}" if defect else ""))
    print(f"{session['programs_run']} program(s), "
          f"{coverage.get('dynamic_instructions', 0)} dynamic "
          f"instruction(s), opcode coverage {covered}/{total}")
    findings = session.get("findings", [])
    if not findings:
        print("no findings")
        return 0
    print(f"{len(findings)} finding(s):")
    for finding in findings:
        size = finding.get("shrunk_instructions")
        print(f"  {finding['name']}: {', '.join(finding['checks'])}"
              + (f" (reproducer: {size} instrs)" if size else ""))
    for name, directory in ArtifactStore(args.out).failures().items():
        print(f"  artifacts: {directory}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"fuzz": _cmd_fuzz, "replay": _cmd_replay,
               "shrink": _cmd_shrink, "report": _cmd_report}[args.command]
    try:
        return handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
