#!/usr/bin/env python3
"""End-to-end telemetry smoke: serve-master + batch-repair --progress + /metrics.

Spins up a :class:`repro.engine.remote.MasterServer` over a sqlite-backed
master (so the probe-cache gauges are live), drives the real CLI
``batch-repair`` path against it over the remote backend with
``--progress``, scrapes ``GET /metrics`` *mid-batch* and again after the
run, validates every exposition with the strict Prometheus parser, and
exercises the ``repro metrics`` subcommand in both output formats.

Checks (any failure exits non-zero — ``make metrics-smoke`` and the CI
remote job use this as the live-telemetry gate):

- mid-batch scrape parses cleanly and already carries request series;
- progress heartbeats appeared on stderr (rate + cache hit rates);
- final scrape has probe traffic, latency quantiles (+_sum/_count),
  probe-cache gauges, and store gauges matching the served master;
- ``repro metrics`` prints the same exposition; ``--format json``
  round-trips through :func:`repro.obs.snapshot_from_dict`.

Run:  PYTHONPATH=src python benchmarks/metrics_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro import io as rule_io
from repro.cli import main as cli_main
from repro.engine.csvio import relation_to_csv
from repro.engine.relation import Relation
from repro.engine.remote import MasterServer
from repro.engine.store import SqliteStore
from repro.experiments.config import ExperimentConfig, load_workload
from repro.obs import parse_prometheus_text, snapshot_from_dict

MASTER_SIZE = 300
INPUT_SIZE = 60


def _scrape(url: str) -> dict:
    """Fetch and strictly parse the server's Prometheus exposition."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=10) as resp:
        body = resp.read().decode("utf-8")
    return parse_prometheus_text(body)


def _series_named(parsed: dict, name: str) -> dict:
    return {key: value for key, value in parsed.items() if key[0] == name}


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"  ok: {message}")


def run() -> int:
    config = ExperimentConfig(
        dataset="hosp", master_size=MASTER_SIZE, input_size=INPUT_SIZE
    )
    bundle, data = load_workload(config)

    with tempfile.TemporaryDirectory(prefix="metrics-smoke-") as tmp:
        tmpdir = Path(tmp)
        rules_json = tmpdir / "rules.json"
        dirty_csv = tmpdir / "dirty.csv"
        clean_csv = tmpdir / "clean.csv"
        report_json = tmpdir / "report.json"
        rules_json.write_text(rule_io.dumps(bundle.rules) + "\n")
        relation_to_csv(
            Relation(bundle.schema, (dt.dirty for dt in data)), dirty_csv
        )
        relation_to_csv(
            Relation(bundle.schema, (dt.clean for dt in data)), clean_csv
        )

        store = SqliteStore(bundle.schema, bundle.master)
        with MasterServer(store) as server:
            print(f"[metrics-smoke] serving |Dm|={len(bundle.master)} "
                  f"at {server.url} (sqlite backend)")

            argv = [
                "batch-repair",
                "--rules", str(rules_json),
                "--input", str(dirty_csv),
                "--clean", str(clean_csv),
                "--report", str(report_json),
                "--master-backend", "remote",
                "--master-url", server.url,
                "--progress", "--progress-interval", "0",
                "--chunk-size", "16",
            ]
            stderr_sink = io.StringIO()
            stdout_sink = io.StringIO()
            batch_rc: list = []

            def run_batch() -> None:
                batch_rc.append(cli_main(argv))

            worker = threading.Thread(target=run_batch, daemon=True)
            # redirect_* swap the sys-module globals, so the worker
            # thread's heartbeat/report output lands in the sinks too.
            with contextlib.redirect_stderr(stderr_sink), \
                    contextlib.redirect_stdout(stdout_sink):
                worker.start()
                # Mid-batch scrapes: poll until the server has seen probe
                # traffic from the live run (or the batch finishes first
                # on a fast machine — then the loop just records that).
                mid_parsed = None
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline and worker.is_alive():
                    parsed = _scrape(server.url)
                    requests = _series_named(
                        parsed, "repro_server_requests_total"
                    )
                    if any("probe" in dict(key[1]).get("endpoint", "")
                           for key in requests):
                        mid_parsed = parsed
                        break
                    time.sleep(0.02)
                worker.join(timeout=120.0)
            if worker.is_alive():
                raise AssertionError("batch-repair did not finish in 120s")

            print("[metrics-smoke] batch finished; checking")
            _check(batch_rc == [0],
                   f"batch-repair exited 0 (got {batch_rc})")
            if mid_parsed is not None:
                _check(bool(mid_parsed),
                       "mid-batch /metrics parsed cleanly with live "
                       "probe traffic")
            else:
                print("  note: batch finished before a mid-batch scrape "
                      "landed; relying on the final scrape")

            heartbeats = [line for line in
                          stderr_sink.getvalue().splitlines()
                          if line.startswith("[batch-repair]")]
            _check(len(heartbeats) >= 2,
                   f"progress heartbeats on stderr ({len(heartbeats)} lines)")
            _check(any("tuples/s" in line for line in heartbeats),
                   "heartbeats report a tuples/s rate")
            _check(any("suggest" in line for line in heartbeats),
                   "heartbeats report the suggestion cache hit rate")

            report = json.loads(report_json.read_text())
            _check(report["tuples"] == INPUT_SIZE,
                   f"report covers all {INPUT_SIZE} tuples")
            _check("region_precompute_s" in report["timings"],
                   "report timings carry region_precompute_s")

            final = _scrape(server.url)
            requests = _series_named(final, "repro_server_requests_total")
            probe_hits = sum(
                value for key, value in requests.items()
                if "probe" in dict(key[1]).get("endpoint", "")
                and dict(key[1]).get("status") == "200"
            )
            _check(probe_hits > 0,
                   f"server counted probe requests ({int(probe_hits)})")
            latency = _series_named(final, "repro_server_request_seconds")
            _check(any(dict(key[1]).get("quantile") == "0.95"
                       for key in latency),
                   "request latency summary exposes a p95 quantile")
            _check(any(key[0] == "repro_server_request_seconds_count"
                       for key in final),
                   "request latency summary exposes _count")
            cache_gauges = {
                key[0] for key in final
                if key[0].startswith("repro_server_probe_cache_")
            }
            _check(cache_gauges >= {"repro_server_probe_cache_hits",
                                    "repro_server_probe_cache_misses",
                                    "repro_server_probe_cache_size"},
                   "sqlite probe-cache gauges are exposed")
            rows = final[("repro_server_store_rows", ())]
            _check(rows == len(bundle.master),
                   f"store-rows gauge matches served master ({int(rows)})")

            # The `repro metrics` subcommand against the same server.
            text_sink = io.StringIO()
            with contextlib.redirect_stdout(text_sink):
                rc = cli_main(["metrics", "--master-url", server.url])
            _check(rc == 0, "repro metrics exits 0")
            _check(bool(parse_prometheus_text(text_sink.getvalue())),
                   "repro metrics output parses as Prometheus text")

            json_sink = io.StringIO()
            with contextlib.redirect_stdout(json_sink):
                rc = cli_main(["metrics", "--master-url", server.url,
                               "--format", "json"])
            _check(rc == 0, "repro metrics --format json exits 0")
            snapshot = snapshot_from_dict(json.loads(json_sink.getvalue()))
            _check(snapshot.counter_value(
                       "repro_server_requests_total",
                       endpoint="/metrics", status="200") > 0,
                   "JSON snapshot round-trips and counts /metrics scrapes")

    print("[metrics-smoke] PASS")
    return 0


def main() -> int:
    try:
        return run()
    except AssertionError as exc:
        print(f"[metrics-smoke] FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
