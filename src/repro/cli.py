"""Command-line interface: ``python -m repro <command>``.

Six commands wrap the library for file-based use:

* ``analyze``      — load rules (JSON) and master data (CSV), report the
  rule dependency structure, the certain regions, and the user burden;
  structurally lints the rule file first (exit 2 on error findings);
* ``lint``         — run the :mod:`repro.lint` static analyzer over a rule
  file and a master backend (memory/sqlite/remote) and render the report
  as text, JSON, or SARIF; ``--fail-on`` turns findings into exit code 1
  (the CI gate);
* ``mine``         — discover editing rules from a master CSV and write
  them as a JSON rule file (review before deploying; see ablation A4);
  lints the discovered rules first unless ``--no-lint``;
* ``batch-repair`` — stream a dirty CSV through the batch repair engine
  (shared caches, chunked execution, optional concurrency) and write the
  repaired rows plus a throughput report; ``--preflight`` controls the
  engine's structural lint gate; ``--progress`` prints live heartbeat
  lines (tuples/s, ETA, cache hit rates, per-worker throughput) to stderr;
* ``serve-master`` — expose a master CSV (memory- or sqlite-backed) as an
  HTTP master server that remote ``batch-repair --master-backend remote``
  clients consult through a read-through cache; serves Prometheus
  telemetry on ``GET /metrics``;
* ``metrics``      — scrape a running ``serve-master``'s ``/metrics`` and
  print it (Prometheus text or JSON);
* ``demo``         — run the paper's running example end to end.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import io as rule_io
from repro.analysis.closure import mandatory_attrs
from repro.analysis.dependency_graph import DependencyGraph
from repro.discovery import discover_editing_rules, rules_only
from repro.engine.csvio import relation_from_csv, relation_to_csv
from repro.repair.region_search import comp_c_region, g_region


def _load_rules_file(path: str):
    """Parse a rule JSON file, raising ``ValueError`` with the E100 shape
    on malformed content (the CLI-level 'unparsable-rules' diagnostic)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return rule_io.loads(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(
            f"E100 [unparsable-rules]: {path} is not a valid rule file: "
            f"{exc}"
        ) from exc


def _cmd_analyze(args) -> int:
    from repro.lint import run_lint

    try:
        master = relation_from_csv(args.master)
        rules = _load_rules_file(args.rules)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    schema = master.schema  # same-schema deployments (R = Rm), as in Sect. 6

    # Structural preflight: a rule naming an unknown attribute used to die
    # deep inside comp_c_region with a bare KeyError; fail with the
    # diagnostics instead.
    report = run_lint(rules, schema)
    if report.errors:
        print(f"error: {args.rules} fails structural lint:", file=sys.stderr)
        for diagnostic in report.errors:
            print(diagnostic.describe(), file=sys.stderr)
        print("(run `repro lint` for the full report)", file=sys.stderr)
        return 2

    print(f"master data : {len(master)} tuples over {len(schema)} attributes")
    print(f"rule set    : {len(rules)} editing rules")
    graph = DependencyGraph(rules)
    cycle = graph.find_cycle()
    cycle_note = (
        f" (cyclic: {' -> '.join(cycle + [cycle[0]])})" if cycle else ""
    )
    print(f"dependencies: {graph.edge_count} edges{cycle_note}")
    unfixable = sorted(mandatory_attrs(schema, rules))
    print(f"unfixable   : {unfixable} (must be user-validated)")

    regions = comp_c_region(rules, master, schema,
                            validate_patterns=args.validate_patterns)
    if not regions:
        print("\nNO certain region exists: the rules cannot guarantee "
              "complete fixes for any tuple. Add rules or master data.")
        return 1
    print("\ncertain regions (best first):")
    for candidate in regions:
        print(f"  {candidate.describe()}")
    greedy = g_region(rules, master, schema,
                      validate_patterns=args.validate_patterns)
    if greedy is not None:
        print(f"\ngreedy baseline would ask for {greedy.size} attributes; "
              f"CompCRegion asks for {regions[0].size}.")
    return 0


def _cmd_mine(args) -> int:
    master = relation_from_csv(args.master)
    discovered = discover_editing_rules(
        master,
        max_lhs_size=args.max_key,
        min_key_ratio=args.min_selectivity,
    )
    print(f"mined {len(discovered)} rules from {len(master)} master tuples")
    for d in discovered[: args.show]:
        print(f"  {d.describe()}")
    rules = rules_only(discovered)
    if args.lint:
        from repro.lint import run_lint

        report = run_lint(rules, master.schema, master)
        print(f"lint: {report.summary()}")
        if report.errors:
            for diagnostic in report.errors:
                print(diagnostic.describe(), file=sys.stderr)
            print(f"error: refusing to write {args.output}: discovered "
                  f"rules have error-level lint findings (re-run with "
                  f"--no-lint to write them anyway)", file=sys.stderr)
            return 2
    text = rule_io.dumps(rules)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"\nwrote {args.output} - review before deploying (an FD that "
          f"holds on master data need not be a domain invariant).")
    return 0


def _cmd_lint(args) -> int:
    from repro.engine.store import StoreError, as_master_store
    from repro.lint import apply_fixits, run_lint, sarif_rule_metadata

    try:
        with open(args.rules, encoding="utf-8") as handle:
            text = handle.read()
        try:
            rules, region, rule_lines = rule_io.load_document(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"E100 [unparsable-rules]: {args.rules} is not a valid rule "
                f"file: {exc}"
            ) from exc
        store = as_master_store(_load_master_store(args))
    except (OSError, ValueError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # With --fix this is a fixed-point loop: removing a rule can surface
    # new findings (a subsumed rule becomes dead, a region extension becomes
    # minimal), so re-lint after each batch.  Five rounds bound pathological
    # rule files.  The last lint ran on the final rules and region and is
    # the one reported; without --fix the file is linted exactly once.
    applied_total = 0
    for _ in range(5):
        try:
            report = run_lint(rules, store.schema, store, region=region)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not args.fix:
            break
        result = apply_fixits(rules, report.diagnostics, region)
        if not result.changed:
            break
        rules, region = result.rules, result.region
        applied_total += len(result.applied)
        for fixit in result.applied:
            print(f"fix: {json.dumps(fixit, sort_keys=True, default=str)}")
    else:
        print("error: --fix did not reach a fixed point after 5 rounds",
              file=sys.stderr)
        return 2
    if applied_total:
        text = rule_io.dumps(rules, region=region)
        with open(args.rules, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        rule_lines = rule_io.rule_source_lines(text + "\n", len(rules))
        print(f"fix: applied {applied_total} fix-it(s) and rewrote "
              f"{args.rules}")
    elif args.fix:
        print("fix: no applyable fix-its")

    if args.format == "text":
        rendered = report.describe()
    elif args.format == "json":
        rendered = report.to_json()
    else:
        rendered = json.dumps(
            report.to_sarif(
                artifact_uri=args.rules,
                rule_metadata=sarif_rule_metadata(report.passes_run),
                rule_lines=rule_lines,
            ),
            indent=2,
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.format} report to {args.output}")
        print(report.summary())
    else:
        print(rendered)
    return 1 if report.fails(args.fail_on) else 0


def _load_master_store(args):
    """Build the master backend the user asked for.

    ``memory`` materializes the CSV as a Relation behind an
    :class:`~repro.engine.store.InMemoryStore`; ``sqlite`` streams it
    straight into a :class:`~repro.engine.store.SqliteStore` (on disk when
    ``--sqlite-path`` is given, else a private in-memory database), so the
    master never has to fit in RAM; ``remote`` opens a
    :class:`~repro.engine.remote.RemoteStore` read-through client against
    a running ``serve-master`` instance (``--master-url``) — no master
    file is read locally at all.
    """
    if args.master_backend == "remote":
        from repro.engine.remote import RemoteStore

        if not args.master_url:
            raise ValueError(
                "--master-backend remote needs --master-url "
                "(e.g. http://127.0.0.1:8787, see `serve-master`)"
            )
        if args.master:
            raise ValueError(
                "--master and --master-backend remote are mutually "
                "exclusive: the remote server owns the master data"
            )
        return RemoteStore(
            args.master_url,
            poll_interval=args.master_poll,
            probe_cache_size=args.probe_cache_size,
        )
    if not args.master:
        raise ValueError(
            f"--master is required with --master-backend {args.master_backend}"
        )
    if args.master_backend == "sqlite":
        from repro.engine.csvio import stream_rows_from_csv
        from repro.engine.store import SqliteStore

        stream = stream_rows_from_csv(args.master)
        # fresh=True: the CSV is the source of truth; re-running against an
        # existing --sqlite-path must rebuild, not append to, the table.
        return SqliteStore(
            stream.schema, stream, path=args.sqlite_path, fresh=True,
            probe_cache_size=args.probe_cache_size,
        )
    return relation_from_csv(args.master)


def _count_csv_data_rows(path) -> int:
    """Non-blank line count minus the header — the --progress ETA total.

    An approximation (a quoted field containing a newline would overcount),
    which is fine for a heartbeat denominator; returns ``None`` on any
    read failure so progress degrades to the unknown-total display and the
    real error surfaces from the actual CSV parse.
    """
    try:
        with open(path, "rb") as handle:
            total = sum(1 for line in handle if line.strip())
    except OSError:
        return None
    return max(total - 1, 0)


def _cmd_batch_repair(args) -> int:
    from repro.engine.store import StoreError, as_master_store
    from repro.obs import ProgressReporter
    from repro.repair.batch import BatchRepairEngine
    from repro.repair.certainfix import IncompleteFix, ValidationFailed

    progress = None
    if args.progress:
        progress = ProgressReporter(
            label="batch-repair",
            total=_count_csv_data_rows(args.input),
            interval=args.progress_interval,
        )
    try:
        master = as_master_store(_load_master_store(args))
        with open(args.rules, encoding="utf-8") as handle:
            rules = rule_io.loads(handle.read())
        engine = BatchRepairEngine(
            rules,
            master,
            master.schema,  # same-schema deployments (R = Rm), as in Sect. 6
            use_bdd=not args.no_bdd,
            memoize=not args.no_memoize,
            chunk_size=args.chunk_size,
            concurrency=args.workers,
            on_incomplete=args.on_incomplete,
            preflight=args.preflight,
            max_rounds=args.max_rounds,
        )
        with engine:
            result = engine.run_csv(
                args.input, clean_path=args.clean, progress=progress
            )
    except IncompleteFix as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: raise --max-rounds, or use --on-incomplete keep to "
              "get the truncated sessions", file=sys.stderr)
        return 2
    except StoreError as exc:
        # Master-store infrastructure failure (unreachable server, closed
        # connection, vanished database file); the message carries its own
        # remedy, and a mid-run failure attaches the partial report.
        print(f"error: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report is not None and report.tuples:
            print(f"(failed after {report.tuples} monitored tuples)",
                  file=sys.stderr)
        return 2
    except (OSError, ValueError, ValidationFailed) as exc:
        # Missing or malformed input files (bad header, ragged row, invalid
        # rules JSON, misaligned clean file), no certain region for (Σ, Dm),
        # or clean values that keep conflicting with master data.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.report.describe())

    if args.output:
        relation_to_csv(result.to_relation(master.schema), args.output)
        print(f"wrote {result.report.tuples} repaired rows to {args.output}")
    if args.report:
        payload = result.report.to_dict()
        # Backend-side accounting rides along when the store keeps any:
        # LRU hit/miss/eviction/purge counts (sqlite, remote) and the
        # remote client's transport + delta-reconciliation counters.
        if hasattr(master, "probe_cache_info"):
            payload["probe_cache"] = master.probe_cache_info()
        if hasattr(master, "connection_info"):
            payload["connection"] = master.connection_info()
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote report to {args.report}")
    return 0 if result.report.incomplete == 0 else 2


def _cmd_serve_master(args) -> int:
    from repro.engine.remote import MasterServer
    from repro.engine.store import as_master_store

    try:
        store = as_master_store(_load_master_store(args))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = MasterServer(store, host=args.host, port=args.port)
    print(f"serving {store!r}")
    print(f"  url: {server.url}")
    print(f"  metrics: {server.url}/metrics (Prometheus text; "
          f"?format=json for JSON)")
    print(f"  point clients at it with: batch-repair --master-backend "
          f"remote --master-url {server.url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
    return 0


def _cmd_metrics(args) -> int:
    """Scrape a running ``serve-master``'s ``/metrics`` endpoint."""
    from urllib.error import URLError
    from urllib.request import urlopen

    url = args.master_url.rstrip("/") + "/metrics"
    if args.format == "json":
        url += "?format=json"
    try:
        with urlopen(url, timeout=args.timeout) as response:
            body = response.read().decode("utf-8")
    except (URLError, OSError, ValueError) as exc:
        print(f"error: cannot scrape {url}: {exc}", file=sys.stderr)
        print("hint: is `python -m repro serve-master` running there?",
              file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(json.loads(body)["metrics"], indent=2))
    else:
        sys.stdout.write(body)
    return 0


def _cmd_demo(args) -> int:
    from repro.core.fixes import chase
    from repro.datasets import make_running_example

    ex = make_running_example()
    out = chase(ex.inputs["t1"], ("zip", "phn", "type"), ex.rules, ex.master)
    print("The paper's running example - fixing tuple t1:")
    print(out.explain())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Certain fixes with editing rules and master data "
                    "(Fan et al., VLDB 2010) - reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="vet a rule file against master data")
    analyze.add_argument("--rules", required=True, help="rules JSON file")
    analyze.add_argument("--master", required=True, help="master data CSV")
    analyze.add_argument("--validate-patterns", type=int, default=32)
    analyze.set_defaults(func=_cmd_analyze)

    mine = sub.add_parser("mine", help="discover rules from master data")
    mine.add_argument("--master", required=True, help="master data CSV")
    mine.add_argument("--output", required=True, help="rules JSON to write")
    mine.add_argument("--max-key", type=int, default=2)
    mine.add_argument("--min-selectivity", type=float, default=0.01)
    mine.add_argument("--show", type=int, default=10)
    mine.add_argument(
        "--lint", action=argparse.BooleanOptionalAction, default=True,
        help="lint discovered rules before writing; error-level findings "
             "fail the command (--no-lint skips the check)",
    )
    mine.set_defaults(func=_cmd_mine)

    lint = sub.add_parser(
        "lint",
        help="statically analyze a rule file against a master backend",
    )
    lint.add_argument("--rules", required=True, help="rules JSON file")
    lint.add_argument(
        "--master",
        help="master data CSV (required for the memory and sqlite "
             "backends; not used with --master-backend remote)",
    )
    lint.add_argument(
        "--master-backend", choices=("memory", "sqlite", "remote"),
        default="memory",
        help="master-data backend the master-aware passes probe (same "
             "choices as batch-repair)",
    )
    lint.add_argument(
        "--sqlite-path",
        help="with --master-backend sqlite: database file to use "
             "(default: private in-memory database)",
    )
    lint.add_argument(
        "--master-url",
        help="with --master-backend remote: base URL of the master server",
    )
    lint.add_argument(
        "--master-poll", type=float, default=None, metavar="SECONDS",
        help="with --master-backend remote: version re-poll interval",
    )
    lint.add_argument(
        "--probe-cache-size", type=int, default=4096, metavar="LINES",
        help="with the sqlite and remote backends: LRU probe-cache bound "
             "(0 disables caching; default: 4096)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report rendering (default: text)",
    )
    lint.add_argument(
        "--fail-on", choices=("error", "warning", "info"), default="error",
        help="exit 1 when findings at/above this severity exist "
             "(default: error)",
    )
    lint.add_argument(
        "--output",
        help="write the rendered report to this file instead of stdout "
             "(the summary still prints; used for CI SARIF artifacts)",
    )
    lint.add_argument(
        "--fix", action="store_true",
        help="apply machine fix-its (remove_rule from W103/W104/W108, "
             "extend_region from I208) to --rules in place, re-linting "
             "until a fixed point, then report on the fixed file",
    )
    lint.set_defaults(func=_cmd_lint)

    batch = sub.add_parser(
        "batch-repair",
        help="stream a dirty CSV through the batch repair engine",
    )
    batch.add_argument("--rules", required=True, help="rules JSON file")
    batch.add_argument(
        "--master",
        help="master data CSV (required for the memory and sqlite "
             "backends; not used with --master-backend remote)",
    )
    batch.add_argument("--input", required=True, help="dirty input CSV")
    batch.add_argument(
        "--clean", required=True,
        help="ground-truth CSV aligned row-for-row with --input; plays the "
             "truthful simulated user (programmatic callers may supply any "
             "oracle via BatchRepairEngine.run_csv instead)",
    )
    batch.add_argument("--output", help="repaired rows CSV to write")
    batch.add_argument("--report", help="JSON throughput report to write")
    batch.add_argument(
        "--master-backend", choices=("memory", "sqlite", "remote"),
        default="memory",
        help="master-data backend: 'memory' (Relation + hash indexes), "
             "'sqlite' (out-of-core indexed tables with an LRU probe "
             "cache) or 'remote' (read-through HTTP client against a "
             "`serve-master` instance; see --master-url)",
    )
    batch.add_argument(
        "--sqlite-path",
        help="with --master-backend sqlite: database file to use "
             "(default: private in-memory database)",
    )
    batch.add_argument(
        "--master-url",
        help="with --master-backend remote: base URL of the master server "
             "(e.g. http://127.0.0.1:8787)",
    )
    batch.add_argument(
        "--master-poll", type=float, default=None, metavar="SECONDS",
        help="with --master-backend remote: re-poll the server version on "
             "reads at most every SECONDS (0 = every read; default: only "
             "observe versions piggybacked on this client's own requests — "
             "enough when mutations flow through this process)",
    )
    batch.add_argument(
        "--probe-cache-size", type=int, default=4096, metavar="LINES",
        help="with the sqlite and remote backends: LRU probe-cache bound "
             "(0 disables caching; default: 4096).  Eviction and per-key "
             "purge counts surface in the JSON --report and on /metrics",
    )
    batch.add_argument("--chunk-size", type=int, default=256)
    batch.add_argument(
        "--workers", type=int, default=1,
        help="monitoring workers: 1 (default) repairs on this process's "
             "one thread; N > 1 starts a pool of N worker processes, each "
             "rehydrating its own engine and caches (with --master-backend "
             "sqlite requires --sqlite-path)",
    )
    batch.add_argument("--max-rounds", type=int, default=12)
    batch.add_argument(
        "--on-incomplete", choices=("keep", "raise"), default="keep",
        help="policy for sessions that exhaust --max-rounds",
    )
    batch.add_argument(
        "--preflight", choices=("error", "warn", "off", "certify"),
        default="error",
        help="lint gate before precompute: 'error' refuses rule programs "
             "with error-level structural findings, 'warn' prints findings "
             "and continues, 'off' skips linting, 'certify' additionally "
             "runs the exact master-aware certification (E205/W206/I208) "
             "and refuses provably inconsistent programs",
    )
    batch.add_argument("--no-bdd", action="store_true",
                       help="disable the shared Suggest+ BDD cache")
    batch.add_argument("--no-memoize", action="store_true",
                       help="disable validated-pattern memoization")
    batch.add_argument(
        "--progress", action="store_true",
        help="print live heartbeat lines to stderr while monitoring "
             "(tuples/s, ETA, cache hit rates, per-worker throughput)",
    )
    batch.add_argument(
        "--progress-interval", type=float, default=1.0, metavar="SECONDS",
        help="minimum seconds between --progress heartbeats (default: 1.0)",
    )
    batch.set_defaults(func=_cmd_batch_repair)

    serve = sub.add_parser(
        "serve-master",
        help="expose a master CSV as an HTTP master server",
    )
    serve.add_argument("--master", required=True, help="master data CSV")
    serve.add_argument(
        "--master-backend", choices=("memory", "sqlite"), default="memory",
        help="backing store for the served master (remote clients see the "
             "same API either way)",
    )
    serve.add_argument(
        "--sqlite-path",
        help="with --master-backend sqlite: database file to use "
             "(default: private in-memory database)",
    )
    serve.add_argument(
        "--probe-cache-size", type=int, default=4096, metavar="LINES",
        help="with --master-backend sqlite: LRU probe-cache bound for the "
             "served store (0 disables caching; default: 4096)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback only)")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port (0 = ephemeral, printed at startup)")
    serve.set_defaults(func=_cmd_serve_master)

    metrics = sub.add_parser(
        "metrics",
        help="scrape a running serve-master's /metrics endpoint",
    )
    metrics.add_argument(
        "--master-url", required=True,
        help="base URL of the master server (e.g. http://127.0.0.1:8787)",
    )
    metrics.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="'text' prints the Prometheus exposition verbatim; 'json' "
             "pretty-prints the lossless snapshot (default: text)",
    )
    metrics.add_argument("--timeout", type=float, default=10.0,
                         help="scrape timeout in seconds")
    metrics.set_defaults(func=_cmd_metrics)

    demo = sub.add_parser("demo", help="run the paper's running example")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
