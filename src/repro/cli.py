"""Command-line interface: ``python -m repro <command> ...``.

Exposes the library's main flows without writing Python:

========================  ===================================================
``simulate``              assemble + run a program, print stats
``assemble``              assemble to a binary XPF object file
``disasm``                assemble a program and print its disassembly
``characterize``          run the bundled suite, fit the model, write JSON
``estimate``              macro-model energy of one or more programs (fast path)
``reference``             reference RTL-level energy of a program (slow path)
``explore``               design-space exploration over a bundled search space
``discover``              mine + legalize + score custom instructions from a profile
``profile``               streaming energy/execution profile of a program
``serve``                 long-running batch estimation service (HTTP)
``experiments``           regenerate the paper's tables/figures
========================  ===================================================

Programs are assembly files in the dialect of :mod:`repro.asm`; custom
instructions are attached with ``--extensions mnemonic,mnemonic,...``
drawn from the bundled library (see ``--list-extensions``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .asm import AsmError, ImageError, assemble, disassemble_program
from .core import EnergyMacroModel, EnergyProfiler
from .obs import TraceObserver, run_session
from .programs.extensions import ALL_SPEC_FACTORIES
from .rtl import reference_energy
from .xtcore import (
    DEFAULT_MAX_INSTRUCTIONS,
    ProcessorConfig,
    SimulationError,
    build_processor,
)

#: Exit code for unusable input files (missing program, malformed image).
EXIT_BAD_INPUT = 2
#: Exit code for a run that completed but recorded sample failures.
EXIT_DEGRADED = 3
#: Exit code for a run aborted by the fault-tolerance policy.
EXIT_ABORTED = 4


def _die(message: str, code: int = EXIT_BAD_INPUT) -> "SystemExit":
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _load_model(path: str) -> EnergyMacroModel:
    try:
        return EnergyMacroModel.load(path)
    except (OSError, ValueError) as exc:
        raise _die(f"cannot load model {path!r}: {exc}")


def _build_config(name: str, extensions: str) -> ProcessorConfig:
    if not extensions:
        return build_processor(name)
    mnemonics = [token.strip() for token in extensions.split(",") if token.strip()]
    specs = []
    for mnemonic in mnemonics:
        factory = ALL_SPEC_FACTORIES.get(mnemonic)
        if factory is None:
            raise _die(
                f"unknown extension {mnemonic!r}; available: "
                + ", ".join(sorted(ALL_SPEC_FACTORIES))
            )
        specs.append(factory())
    return build_processor(name, specs)


def _load_program(path: str, config: ProcessorConfig):
    name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    if path.endswith(".xpf"):
        from .asm import read_image

        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise _die(f"cannot read program file {path!r}: {exc.strerror or exc}")
        try:
            return read_image(data, config.isa, name=name)
        except ImageError as exc:
            raise _die(f"malformed XPF image {path!r}: {exc}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise _die(f"cannot read program file {path!r}: {exc.strerror or exc}")
    try:
        return assemble(source, name, isa=config.isa)
    except AsmError as exc:
        raise _die(f"cannot assemble {path!r}: {exc}")


def _cmd_list_extensions(_args: argparse.Namespace) -> int:
    from .tie import compile_spec

    for mnemonic in sorted(ALL_SPEC_FACTORIES):
        impl = compile_spec(ALL_SPEC_FACTORIES[mnemonic]())
        print(f"{mnemonic:<12} {impl.spec.fmt:<4} {impl.spec.description}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.trace_limit < 0:
        raise _die("--trace-limit must be >= 0")
    config = _build_config("cli", args.extensions)
    program = _load_program(args.program, config)
    observers = (TraceObserver(),) if args.trace else ()
    result = run_session(
        config,
        program,
        observers=observers,
        max_instructions=args.max_instructions,
    )
    print(f"engine: {result.engine}")
    print(result.stats.summary())
    if args.trace:
        trace = observers[0].records
        for record in trace[: args.trace_limit]:
            print(f"  {record!r}")
        if len(trace) > args.trace_limit:
            print(f"  ... ({len(trace) - args.trace_limit} more records)")
    if args.dump_word:
        for symbol in args.dump_word:
            print(f"{symbol} = {result.word(symbol)} ({result.word(symbol):#010x})")
    return 0


def _cmd_assemble(args: argparse.Namespace) -> int:
    from .asm import write_image

    config = _build_config("cli", args.extensions)
    program = _load_program(args.program, config)
    image = write_image(program, config.isa)
    with open(args.output, "wb") as handle:
        handle.write(image)
    print(
        f"wrote {args.output}: {len(program)} instructions, "
        f"{sum(len(b) for _, b in program.data)} data bytes, {len(image)} bytes total"
    )
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    config = _build_config("cli", args.extensions)
    program = _load_program(args.program, config)
    print(disassemble_program(program, config.isa), end="")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .core import (
        CharacterizationRunError,
        CharacterizationRunner,
        Characterizer,
        RunnerTask,
        audit_coverage,
    )
    from .programs import characterization_suite

    if args.max_failures is not None and args.max_failures < 0:
        raise _die("--max-failures must be >= 0")

    from .tech import CalibrationError

    try:
        characterizer = Characterizer(
            method=args.method, operating_point=args.operating_point
        )
    except CalibrationError as exc:
        raise _die(f"bad --operating-point: {exc}")
    failures = []
    if args.from_samples:
        try:
            count = characterizer.load_samples(args.from_samples)
        except (OSError, ValueError) as exc:
            raise _die(f"cannot load samples: {exc}")
        print(f"loaded {count} cached samples from {args.from_samples}")
    else:
        suite = characterization_suite(include_variants=not args.core_only)
        runner = CharacterizationRunner(
            characterizer,
            max_failures=args.max_failures,
            progress=(lambda msg: print(f"  {msg}")) if args.verbose else None,
        )
        try:
            report = runner.run(
                [RunnerTask.from_case(case) for case in suite], fit=False
            )
        except CharacterizationRunError as exc:
            print(f"repro: characterization aborted: {exc}", file=sys.stderr)
            return EXIT_ABORTED
        failures = report.failures
        if failures:
            print(report.summary(), file=sys.stderr)
    if args.save_samples:
        characterizer.save_samples(args.save_samples)
        print(f"saved {len(characterizer)} samples to {args.save_samples}")
    if not characterizer.samples:
        print("repro: characterization produced no samples", file=sys.stderr)
        return EXIT_ABORTED
    coverage = audit_coverage(characterizer.samples, characterizer.template)
    if not coverage.is_adequate:
        print(coverage.summary(), file=sys.stderr)
        if failures:
            print(
                "repro: failures degraded suite coverage below the template; "
                "not fitting a model from the survivors",
                file=sys.stderr,
            )
            return EXIT_ABORTED
        print("warning: suite does not fully cover the template", file=sys.stderr)
    result = characterizer.fit()
    print(result.fitting_error_table())
    print()
    print(result.model.coefficient_table())
    result.model.save(args.output)
    print(f"\nmodel written to {args.output}")
    if failures:
        print(
            f"warning: model fitted from survivors; {len(failures)} sample "
            "failure(s) — see summary above",
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .tech import CalibrationError

    model = _load_model(args.model)
    if args.operating_point:
        try:
            model = model.at(args.operating_point)
        except CalibrationError as exc:
            raise _die(f"bad --operating-point: {exc}")
    # model load + config build (TIE compilation) happen once; each extra
    # program then costs only one untraced instruction-set simulation —
    # the mini-batch fast path that amortizes the one-time setup.
    config = _build_config("cli", args.extensions)
    estimates = []
    for path in args.program:
        program = _load_program(path, config)
        estimates.append(
            model.estimate(config, program, max_instructions=args.max_instructions)
        )
    if args.format == "json":
        import json

        entries = []
        for estimate in estimates:
            entry = {
                "program": estimate.program_name,
                "processor": estimate.processor_name,
                "energy": estimate.energy,
                "cycles": estimate.cycles,
                "edp": estimate.energy * estimate.cycles,
            }
            if estimate.operating_point is not None:
                entry["seconds"] = estimate.seconds
                entry["edp_seconds"] = estimate.edp_seconds
            if args.variables:
                entry["variables"] = dict(estimate.variables)
            entries.append(entry)
        payload = {
            "format": "repro-estimates/1",
            "model_digest": model.digest(),
            "operating_point": (
                model.operating_point.key
                if model.operating_point is not None
                else None
            ),
            "estimates": entries,
        }
        print(json.dumps(payload, indent=2))
        return 0
    if len(estimates) == 1:
        (estimate,) = estimates
        print(estimate.summary())
    else:
        with_time = model.operating_point is not None
        header = f"{'program':<24}{'energy':>14}{'cycles':>10}{'EDP':>15}"
        if with_time:
            header += f"{'time_us':>12}"
        print(header)
        print("-" * len(header))
        for estimate in estimates:
            row = (
                f"{estimate.program_name:<24}{estimate.energy:>14.1f}"
                f"{estimate.cycles:>10}{estimate.energy * estimate.cycles:>15.4g}"
            )
            if with_time:
                row += f"{estimate.seconds * 1e6:>12.2f}"
            print(row)
        if with_time:
            print(f"(at {model.operating_point.key})")
    if args.variables:
        for estimate in estimates:
            if len(estimates) > 1:
                print(f"\n{estimate.program_name}:")
            for key, value in estimate.variables.items():
                if value:
                    print(f"  {key:<16}{value:14.1f}  x {model.coefficient(key):10.2f}")
    return 0


def _load_discovered(path: str) -> str:
    """Register the ``discovered:<workload>`` space from a manifest file;
    returns the space name."""
    from .discover import DiscoveryError, DiscoveryManifest, register_discovered

    try:
        manifest = DiscoveryManifest.load(path)
    except OSError as exc:
        raise _die(f"cannot read manifest {path!r}: {exc.strerror or exc}")
    except DiscoveryError as exc:
        raise _die(f"bad manifest {path!r}: {exc}")
    return register_discovered(manifest)


def _cmd_explore(args: argparse.Namespace) -> int:
    import json as json_module

    from .core.runner import TooManyFailures
    from .dse import (
        SpaceError,
        available_spaces,
        cross_check,
        explore,
        get_space,
        make_strategy,
        with_operating_points,
    )
    from .dse.space import BUILTIN_SPACES
    from .tech import CalibrationError, carbon_overlay, carbon_table

    if args.discovered:
        _load_discovered(args.discovered)

    if args.list_spaces:
        # runtime-registered spaces (e.g. from --discovered) list alongside
        # the bundled ones, annotated by origin
        builtin = frozenset(BUILTIN_SPACES)
        for name in available_spaces():
            origin = "builtin" if name in builtin else "registered"
            print(f"[{origin}] {get_space(name).describe()}")
        return 0
    if args.model is None:
        raise _die("a model JSON file is required (or use --list-spaces)")
    model = _load_model(args.model)
    try:
        space = get_space(args.space)
    except SpaceError as exc:
        raise _die(str(exc))
    if args.op_axis:
        # fold the operating point into the space itself: one exploration
        # ranks DVFS settings against micro-architecture choices
        axis = [token.strip() for token in args.op_axis.split(",") if token.strip()]
        if not axis:
            raise _die("--op-axis needs a comma-separated list of operating points")
        try:
            space = with_operating_points(space, axis)
        except SpaceError as exc:
            raise _die(str(exc))
    points = args.operating_point if args.operating_point else [None]
    if args.format == "csv" and len(points) > 1:
        raise _die("csv format supports a single operating point")
    # derive the per-point models up front so a typo dies before any
    # simulation is spent
    point_models = []
    for point in points:
        try:
            point_models.append(model.at(point))
        except CalibrationError as exc:
            raise _die(f"bad --operating-point {point!r}: {exc}")
    if args.objective in ("time", "edp_seconds") and not args.op_axis:
        if any(m.operating_point is None for m in point_models):
            raise _die(
                f"objective {args.objective!r} needs a clock: pass "
                "--operating-point/--op-axis or use a model characterized "
                "at an operating point"
            )
    if args.carbon is not None and args.carbon <= 0:
        raise _die("--carbon takes a positive executions-per-second rate")
    if args.max_failures is not None and args.max_failures < 0:
        raise _die("--max-failures must be >= 0")
    for flag, value in (("--top-k", args.top_k), ("--verify-top", args.verify_top)):
        if value is not None and value < 1:
            raise _die(f"{flag} must be >= 1")
    progress = (lambda msg: print(f"  {msg}", file=sys.stderr)) if args.verbose else None
    reports = []
    for point, point_model in zip(points, point_models):
        try:
            # stateful strategies (greedy, random) must start fresh per point
            strategy = make_strategy(
                args.strategy,
                budget=args.budget,
                seed=args.seed,
                objective=args.objective,
                restarts=args.restarts,
            )
        except ValueError as exc:
            raise _die(str(exc))
        try:
            report = explore(
                point_model,
                space,
                strategy,
                objective=args.objective,
                max_instructions=args.max_instructions,
                max_failures=args.max_failures,
                progress=progress,
            )
        except TooManyFailures as exc:
            print(f"repro: exploration aborted: {exc}", file=sys.stderr)
            return EXIT_ABORTED
        reports.append(report)

    def carbon_rows(report):
        return carbon_overlay(
            report.ranked(args.top_k), executions_per_second=args.carbon
        )

    if args.format == "json":
        payloads = []
        for report in reports:
            payload = report.to_payload()
            if args.carbon is not None:
                payload["carbon"] = carbon_rows(report)
            payloads.append(payload)
        if len(payloads) == 1:
            rendered = json_module.dumps(payloads[0], indent=2)
        else:
            rendered = json_module.dumps(
                {"format": "repro-dse-scenario-matrix/1", "points": payloads},
                indent=2,
            )
    elif args.format == "csv":
        rendered = reports[0].to_csv()
    else:
        sections = []
        for point, report in zip(points, reports):
            lines = []
            if len(reports) > 1:
                lines.append(f"=== operating point {point} ===")
            lines.append(report.table(top_k=args.top_k))
            if args.carbon is not None:
                lines.append(carbon_table(carbon_rows(report)))
            sections.append("\n".join(lines))
        rendered = "\n\n".join(sections)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered if rendered.endswith("\n") else rendered + "\n")
        print(f"report written to {args.output}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    if args.verify_top:
        for report in reports:
            if len(report.scores) < 2:
                print(
                    "repro: not enough scored points to cross-check", file=sys.stderr
                )
                continue
            result = cross_check(
                space,
                report.scores,
                top_k=args.verify_top,
                objective=args.objective,
                max_instructions=args.max_instructions,
                operating_point=report.operating_point,
            )
            print(result.table())
            if result.rho < 0.9:
                print(
                    f"warning: macro-model top-{args.verify_top} ranking diverges "
                    f"from the reference (rho {result.rho:.3f} < 0.9)",
                    file=sys.stderr,
                )
    if any(not report.scores for report in reports):
        print("repro: exploration scored no candidates", file=sys.stderr)
        return EXIT_ABORTED
    total_failures = sum(len(report.failures) for report in reports)
    if total_failures:
        print(
            f"warning: {total_failures} candidate failure(s) during exploration",
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    from .discover import (
        DiscoveryError,
        DiscoveryOptions,
        LegalizeOptions,
        discover_workload,
    )
    from .discover.pipeline import SOFTWARE_CASES

    model = _load_model(args.model)
    if args.workload not in SOFTWARE_CASES:
        raise _die(
            f"unknown workload {args.workload!r}; available: "
            + ", ".join(sorted(SOFTWARE_CASES))
        )
    if args.top_k < 1:
        raise _die("--top-k must be >= 1")
    if args.max_ports not in (1, 2):
        raise _die("--max-ports must be 1 or 2 (the operand-bus width)")
    if not 0.0 <= args.min_coverage <= 1.0:
        raise _die("--min-coverage must be within [0, 1]")
    options = DiscoveryOptions(
        top_k=args.top_k,
        max_nodes=args.max_nodes,
        max_ports=args.max_ports,
        min_coverage=args.min_coverage,
        legalize=LegalizeOptions(max_latency=args.max_latency),
        max_instructions=args.max_instructions,
    )
    progress = (lambda msg: print(f"  {msg}", file=sys.stderr)) if args.verbose else None
    try:
        report = discover_workload(args.workload, model, options, progress=progress)
    except DiscoveryError as exc:
        print(f"repro: discovery aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED

    rendered = report.to_json() if args.format == "json" else report.table()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered if rendered.endswith("\n") else rendered + "\n")
        print(f"report written to {args.output}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    if args.manifest:
        manifest = report.manifest()
        manifest.save(args.manifest)
        print(
            f"manifest with {len(manifest.entries)} verified candidate(s) "
            f"written to {args.manifest} (load with `explore --discovered`)"
        )
    if not report.evaluated:
        print("repro: no candidate survived verification", file=sys.stderr)
        return EXIT_ABORTED
    if report.failures:
        print(
            f"warning: {len(report.failures)} candidate(s) failed after "
            "legalization",
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return 0


def _cmd_reference(args: argparse.Namespace) -> int:
    from .tech import CalibrationError

    config = _build_config("cli", args.extensions)
    program = _load_program(args.program, config)
    try:
        report, _ = reference_energy(
            config,
            program,
            max_instructions=args.max_instructions,
            operating_point=args.operating_point,
        )
    except CalibrationError as exc:
        raise _die(f"bad --operating-point: {exc}")
    print(report.summary())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .obs import CacheEventObserver, EnergyTimelineObserver, HotSpotObserver
    from .tech import CalibrationError

    if args.top is not None and args.top < 1:
        raise _die("--top must be >= 1")
    model = _load_model(args.model)
    if args.operating_point:
        try:
            model = model.at(args.operating_point)
        except CalibrationError as exc:
            raise _die(f"bad --operating-point: {exc}")
    config = _build_config("cli", args.extensions)
    program = _load_program(args.program, config)

    # All requested profilers ride the same event stream: one simulation,
    # no trace, any number of observers.
    profiler = EnergyProfiler(model)
    region_observer = profiler.observer(program)
    observers = [region_observer]
    timeline_observer = hot_observer = cache_observer = None
    if args.timeline is not None:
        if args.timeline < 1:
            raise _die("--timeline takes a positive instructions-per-interval count")
        timeline_observer = EnergyTimelineObserver(
            model, interval_instructions=args.timeline
        )
        observers.append(timeline_observer)
    if args.hot:
        hot_observer = HotSpotObserver()
        observers.append(hot_observer)
    if args.cache_events:
        cache_observer = CacheEventObserver()
        observers.append(cache_observer)
    run_session(
        config,
        program,
        observers=observers,
        max_instructions=args.max_instructions,
    )
    region_report = profiler.report_from(region_observer, config, program)

    if args.format == "json":
        payload = {"regions": region_report.to_payload()}
        if timeline_observer is not None:
            payload["timeline"] = timeline_observer.report.to_payload()
        if hot_observer is not None:
            payload["hot_spots"] = hot_observer.report.to_payload()
        if cache_observer is not None:
            payload["cache_events"] = cache_observer.report.to_payload()
        print(json.dumps(payload, indent=2))
        return 0

    sections = [region_report.table(top=args.top)]
    if timeline_observer is not None:
        sections.append(timeline_observer.report.table())
    if hot_observer is not None:
        sections.append(hot_observer.report.table(top=args.top))
    if cache_observer is not None:
        sections.append(cache_observer.report.table())
    print("\n\n".join(sections))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import EstimationService, RetryPolicy, run_server

    model = _load_model(args.model)
    if args.workers < 0:
        raise _die("--workers must be >= 0")
    if args.queue_limit < 1:
        raise _die("--queue-limit must be >= 1")
    if args.batch_max < 1:
        raise _die("--batch-max must be >= 1")
    if args.timeout <= 0:
        raise _die("--timeout must be positive")
    if args.max_attempts < 1:
        raise _die("--max-attempts must be >= 1")
    if args.quarantine_after < 1:
        raise _die("--quarantine-after must be >= 1")
    if args.drain_grace < 0:
        raise _die("--drain-grace must be >= 0")
    chaos = None
    if args.chaos:
        from .testing.faults import ServiceChaosPlan

        try:
            chaos = ServiceChaosPlan.parse(args.chaos)
        except ValueError as exc:
            raise _die(f"bad --chaos spec: {exc}")
    prewarm: list[str] = []
    if args.prewarm:
        if args.prewarm.strip() == "suite":
            prewarm = ["suite"]
        else:
            prewarm = [t.strip() for t in args.prewarm.split(",") if t.strip()]
    try:
        service = EstimationService(
            model,
            workers=args.workers,
            queue_limit=args.queue_limit,
            batch_max=args.batch_max,
            dedupe=not args.no_dedupe,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            request_timeout=args.timeout,
            prewarm=prewarm,
            quarantine_after=args.quarantine_after,
            drain_grace=args.drain_grace,
            chaos=chaos,
        )
    except ValueError as exc:
        raise _die(str(exc))
    try:
        asyncio.run(
            run_server(
                service,
                host=args.host,
                port=args.port,
                port_file=args.port_file,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .analysis import (
        default_context,
        run_fig3,
        run_fig4,
        run_speedup,
        run_table1,
        run_table2,
    )

    runners = {
        "table1": run_table1,
        "fig3": run_fig3,
        "table2": run_table2,
        "fig4": run_fig4,
        "speedup": run_speedup,
    }
    selected = list(runners) if args.which == "all" else [args.which]
    print("characterizing (one-time cost)...", file=sys.stderr)
    ctx = default_context()
    if args.output:
        from .analysis import markdown_report

        text = markdown_report(ctx, include_ablations=args.ablations)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
        return 0
    for name in selected:
        print(f"\n=== {name} ===")
        print(runners[name](ctx).report())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy estimation for extensible processors (DATE 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_program_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("program", help="assembly source file")
        p.add_argument(
            "--extensions",
            default="",
            help="comma-separated custom instructions from the bundled library",
        )
        p.add_argument("--max-instructions", type=int, default=DEFAULT_MAX_INSTRUCTIONS)

    p = sub.add_parser("list-extensions", help="list the bundled custom instructions")
    p.set_defaults(func=_cmd_list_extensions)

    p = sub.add_parser("simulate", help="assemble and simulate a program")
    add_program_options(p)
    p.add_argument("--trace", action="store_true", help="collect and print a trace")
    p.add_argument("--trace-limit", type=int, default=40)
    p.add_argument(
        "--dump-word",
        action="append",
        metavar="SYMBOL",
        help="print the 32-bit word at a data symbol after the run",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("assemble", help="assemble to a binary XPF object file")
    add_program_options(p)
    p.add_argument("-o", "--output", required=True, help="output .xpf path")
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("disasm", help="assemble and disassemble a program")
    add_program_options(p)
    p.set_defaults(func=_cmd_disasm)

    def add_operating_point(p: argparse.ArgumentParser, help_text: str) -> None:
        p.add_argument(
            "--operating-point",
            metavar="POINT",
            default=None,
            help=help_text + " (e.g. '65nm@1.1V@800MHz'; see docs/CALIBRATION.md)",
        )

    p = sub.add_parser("characterize", help="fit the macro-model over the bundled suite")
    p.add_argument("-o", "--output", default="macro_model.json")
    p.add_argument("--method", choices=("nnls", "ols", "ridge"), default="nnls")
    add_operating_point(
        p, "technology operating point to characterize the model at"
    )
    p.add_argument("--core-only", action="store_true", help="use only the 25-program core")
    p.add_argument(
        "--save-samples",
        metavar="PATH",
        help="persist the collected (variables, energy) samples as JSON",
    )
    p.add_argument(
        "--from-samples",
        metavar="PATH",
        help="re-fit from cached samples instead of re-running the suite",
    )
    p.add_argument(
        "--max-failures",
        type=int,
        default=None,
        metavar="N",
        help="abort once more than N test programs fail (default: unlimited)",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("estimate", help="macro-model energy estimate (fast path)")
    p.add_argument("model", help="model JSON from `characterize`")
    p.add_argument(
        "program",
        nargs="+",
        help="assembly source file(s); several amortize the one-time setup",
    )
    p.add_argument(
        "--extensions",
        default="",
        help="comma-separated custom instructions from the bundled library",
    )
    p.add_argument("--max-instructions", type=int, default=DEFAULT_MAX_INSTRUCTIONS)
    p.add_argument("--variables", action="store_true", help="print the variable breakdown")
    add_operating_point(p, "rescale the model to this operating point first")
    p.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format; json carries the model digest and operating "
        "point alongside each estimate (default table)",
    )
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "explore", help="design-space exploration over the macro-model"
    )
    p.add_argument(
        "model", nargs="?", default=None, help="model JSON from `characterize`"
    )
    p.add_argument(
        "--space",
        default="reed_solomon",
        help="registered search space (see --list-spaces)",
    )
    p.add_argument(
        "--list-spaces",
        action="store_true",
        help="list the available search spaces (bundled and registered)",
    )
    p.add_argument(
        "--discovered",
        metavar="MANIFEST",
        help="register the discovered:<workload> space from a `discover "
        "--manifest` file before exploring",
    )
    p.add_argument(
        "--strategy",
        choices=("exhaustive", "random", "greedy"),
        default="exhaustive",
    )
    p.add_argument(
        "--budget", type=int, default=None, help="candidate budget (random strategy)"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for random/greedy")
    p.add_argument(
        "--restarts", type=int, default=1, help="greedy hill-climb restarts"
    )
    p.add_argument(
        "--objective",
        choices=("energy", "cycles", "edp", "area", "time", "edp_seconds"),
        default="edp",
        help="ranking/climbing objective (default edp); time and "
        "edp_seconds need an operating point for the clock",
    )
    p.add_argument(
        "--operating-point",
        action="append",
        metavar="POINT",
        help="score against this technology operating point "
        "(e.g. '65nm@1.1V@800MHz'); repeat the flag to explore a "
        "scenario matrix, one exploration per point",
    )
    p.add_argument(
        "--op-axis",
        metavar="POINTS",
        help="comma-separated operating points added to the space as an "
        "extra knob, so one exploration ranks DVFS settings against "
        "micro-architecture choices",
    )
    p.add_argument(
        "--carbon",
        type=float,
        default=None,
        metavar="RPS",
        help="append a carbon/TCO overlay assuming RPS executions per second",
    )
    p.add_argument("--top-k", type=int, default=None, help="show only the best K points")
    p.add_argument(
        "--max-failures",
        type=int,
        default=None,
        metavar="N",
        help="abort once more than N candidates fail (default: unlimited)",
    )
    p.add_argument("--max-instructions", type=int, default=DEFAULT_MAX_INSTRUCTIONS)
    p.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    p.add_argument("-o", "--output", help="write the report to a file")
    p.add_argument(
        "--verify-top",
        type=int,
        default=None,
        metavar="K",
        help="cross-check the top-K ranking against the reference RTL estimator",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("reference", help="reference RTL-level energy (slow path)")
    add_program_options(p)
    add_operating_point(p, "scale the RTL activity energies to this operating point")
    p.set_defaults(func=_cmd_reference)

    p = sub.add_parser(
        "discover",
        help="mine, legalize and score custom instructions from a profile",
    )
    p.add_argument("model", help="model JSON from `characterize`")
    p.add_argument(
        "--workload",
        default="reed_solomon",
        help="bundled workload whose software baseline is profiled "
        "(fir, reed_solomon)",
    )
    p.add_argument(
        "--top-k",
        type=int,
        default=8,
        help="legalized candidates carried into rewrite + scoring (default 8)",
    )
    p.add_argument(
        "--max-nodes",
        type=int,
        default=6,
        help="block-miner subgraph size bound (default 6)",
    )
    p.add_argument(
        "--max-ports",
        type=int,
        default=2,
        help="register-file read ports a candidate may use (default 2)",
    )
    p.add_argument(
        "--min-coverage",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="drop candidates covering less than FRAC of dynamic instructions",
    )
    p.add_argument(
        "--max-latency",
        type=int,
        default=6,
        help="issue-cycle budget for a candidate datapath (default 6)",
    )
    p.add_argument("--max-instructions", type=int, default=DEFAULT_MAX_INSTRUCTIONS)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("-o", "--output", help="write the report to a file")
    p.add_argument(
        "--manifest",
        metavar="PATH",
        help="also write the verified candidates as a manifest for "
        "`explore --discovered`",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser(
        "profile",
        help="streaming energy/execution profile (regions, timeline, hot spots)",
    )
    p.add_argument("model", help="model JSON from `characterize`")
    add_program_options(p)
    p.add_argument("--top", type=int, default=None, help="show only the hottest N rows")
    p.add_argument(
        "--timeline",
        type=int,
        default=None,
        metavar="N",
        help="add a per-interval energy timeline (N instructions per interval)",
    )
    p.add_argument(
        "--hot",
        action="store_true",
        help="add a hot-PC / basic-block execution histogram",
    )
    p.add_argument(
        "--cache-events",
        action="store_true",
        help="add cache-miss / uncached-fetch / interlock event counts",
    )
    p.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default table)",
    )
    add_operating_point(p, "rescale the model to this operating point first")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "serve", help="long-running batch estimation service (JSON over HTTP)"
    )
    p.add_argument("model", help="model JSON from `characterize`")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8731, help="TCP port (0 picks an ephemeral port)"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="forked estimation workers (0 = in-process serial fallback)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="pending-request bound before 429 backpressure (default 64)",
    )
    p.add_argument(
        "--batch-max",
        type=int,
        default=8,
        metavar="N",
        help=(
            "max requests dispatched to a free worker as one batch: whatever "
            "queued while the workers were busy, up to N (default 8)"
        ),
    )
    p.add_argument(
        "--no-dedupe",
        action="store_true",
        help="disable request coalescing and the in-memory result memo",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="per-batch worker timeout in seconds (default 30)",
    )
    p.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        metavar="N",
        help="attempts per batch before failing its requests (default 2)",
    )
    p.add_argument(
        "--prewarm",
        metavar="NAMES",
        help="comma-separated bundled benchmarks to pre-compile before forking "
        "workers ('suite' = all 25)",
    )
    p.add_argument(
        "--quarantine-after",
        type=int,
        default=2,
        metavar="N",
        help="singleton pool crashes before a request key is quarantined "
        "(default 2)",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds SIGTERM waits for in-flight work before forcing "
        "shutdown (default 10)",
    )
    p.add_argument(
        "--chaos",
        metavar="SPEC",
        help="inject deterministic service faults, e.g. "
        "'seed=7,crashes=3,hangs=1,resets=1,horizon=24,hang=2.5,poison=a|b' "
        "(testing only)",
    )
    p.add_argument(
        "--port-file",
        metavar="PATH",
        help="write the bound port here once listening (for --port 0 "
        "supervisors: CI smokes, the benchmark)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("experiments", help="regenerate the paper's tables/figures")
    p.add_argument(
        "which",
        nargs="?",
        default="all",
        choices=("all", "table1", "fig3", "table2", "fig4", "speedup"),
    )
    p.add_argument(
        "-o", "--output", help="write a combined Markdown report instead of printing"
    )
    p.add_argument(
        "--ablations", action="store_true", help="include ablation studies (slow)"
    )
    p.set_defaults(func=_cmd_experiments)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_instructions", 1) < 1:
        raise _die("--max-instructions must be >= 1")
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except SimulationError as exc:
        # A program that assembles but fails at run time (instruction
        # budget exhausted, jump to an unmapped address) is bad input.
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BrokenPipeError:
        # The reader went away (``repro ... | head``).  Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
