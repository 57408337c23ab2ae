#!/usr/bin/env python3
"""Validate and diff BENCH_*.json artifacts (schema cht.bench.v1).

Usage:
  bench_diff.py validate ARTIFACT.json [ARTIFACT.json ...]
      Checks every artifact against the pinned schema. Exit 1 on any
      violation — CI's bench-smoke job runs this over all emitted artifacts.

  bench_diff.py diff OLD_DIR NEW_DIR
      Validates both sides, then prints per-metric deltas for artifacts
      present in both directories (matched by file name). Purely
      informational: exit code reflects schema validity only.

  bench_diff.py check OLD_DIR NEW_DIR
      The drift gate. Validates both sides, then exits 1 if any
      deterministic value differs: every field of every artifact (metrics,
      table rows, configs, counters, histograms, latencies) is a function of
      the seed, so any change is a behaviour change. Skipped, because they
      measure the host: BENCH_micro.json, and fields named like
      google-benchmark's wall-clock output (WALL_CLOCK_FIELD). An artifact
      present on one side only also fails.

  bench_diff.py --selftest
      Runs `check` on the fixtures in bench_diff_fixtures/: a simulated-time
      drift must fail, a wall-clock drift must pass.

No third-party dependencies; the artifact format is plain JSON written by
src/metrics/json.cc (see docs/OBSERVABILITY.md for the field-by-field spec).
"""

import json
import pathlib
import re
import sys

SCHEMA = "cht.bench.v1"
SCHEMA_VERSION = 1

ROOT_KEYS = [
    "schema",
    "schema_version",
    "name",
    "smoke",
    "sections",
    "metrics",
    "configs",
    "observability",
    "latencies",
]

LATENCY_KEYS = {"label", "count", "p50_us", "p90_us", "p99_us", "max_us", "mean_us"}
HISTOGRAM_KEYS = {"count", "sum", "min", "max", "mean", "p50", "p99", "buckets"}
MESSAGE_KEYS = {"sent", "delivered", "dropped", "by_type"}
CONFIG_KEYS = {"label", "n", "seed", "delta_us", "epsilon_us", "gst_us",
               "pre_gst_loss", "overrides"}


# Artifacts and fields that time the host rather than the simulation.
WALL_CLOCK_ARTIFACTS = {"BENCH_micro.json"}
WALL_CLOCK_FIELD = re.compile(r"(^cpus|_time_ns|items_per_second)$")

FIXTURES = pathlib.Path(__file__).resolve().parent / "bench_diff_fixtures"


class Violation(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise Violation(msg)


def _check_number(value, where):
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{where}: expected a number, got {type(value).__name__}")


def validate_artifact(doc, name):
    _require(isinstance(doc, dict), f"{name}: root is not an object")
    for key in ROOT_KEYS:
        _require(key in doc, f"{name}: missing root key '{key}'")
    _require(doc["schema"] == SCHEMA,
             f"{name}: schema is {doc['schema']!r}, expected {SCHEMA!r}")
    _require(doc["schema_version"] == SCHEMA_VERSION,
             f"{name}: schema_version is {doc['schema_version']!r}, "
             f"expected {SCHEMA_VERSION}")
    _require(isinstance(doc["name"], str) and doc["name"],
             f"{name}: 'name' must be a non-empty string")
    _require(isinstance(doc["smoke"], bool), f"{name}: 'smoke' must be a bool")

    _require(isinstance(doc["sections"], list), f"{name}: 'sections' not a list")
    for i, section in enumerate(doc["sections"]):
        where = f"{name}: sections[{i}]"
        _require(isinstance(section, dict), f"{where} not an object")
        for key in ("id", "claim", "rows", "notes"):
            _require(key in section, f"{where} missing '{key}'")
        headers = section.get("headers", [])
        for row in section["rows"]:
            _require(isinstance(row, list), f"{where}: row not a list")
            if headers:
                _require(len(row) <= len(headers),
                         f"{where}: row wider than headers")

    _require(isinstance(doc["metrics"], dict), f"{name}: 'metrics' not an object")
    for key, value in doc["metrics"].items():
        _check_number(value, f"{name}: metrics['{key}']")

    _require(isinstance(doc["configs"], list), f"{name}: 'configs' not a list")
    for i, config in enumerate(doc["configs"]):
        where = f"{name}: configs[{i}]"
        _require(isinstance(config, dict), f"{where} not an object")
        missing = CONFIG_KEYS - config.keys()
        _require(not missing, f"{where} missing {sorted(missing)}")
        _require(isinstance(config["overrides"], dict),
                 f"{where}: 'overrides' not an object")

    _require(isinstance(doc["observability"], list),
             f"{name}: 'observability' not a list")
    for i, obs in enumerate(doc["observability"]):
        where = f"{name}: observability[{i}]"
        _require(isinstance(obs, dict), f"{where} not an object")
        _require("label" in obs, f"{where} missing 'label'")
        _require("messages" in obs, f"{where} missing 'messages'")
        missing = MESSAGE_KEYS - obs["messages"].keys()
        _require(not missing, f"{where}: messages missing {sorted(missing)}")
        for hname, hist in obs.get("histograms", {}).items():
            hwhere = f"{where}: histograms['{hname}']"
            missing = HISTOGRAM_KEYS - hist.keys()
            _require(not missing, f"{hwhere} missing {sorted(missing)}")
            for lower, count in hist["buckets"]:
                _check_number(lower, f"{hwhere}: bucket lower bound")
                _require(isinstance(count, int) and count > 0,
                         f"{hwhere}: bucket counts must be positive ints")

    _require(isinstance(doc["latencies"], list), f"{name}: 'latencies' not a list")
    for i, latency in enumerate(doc["latencies"]):
        where = f"{name}: latencies[{i}]"
        missing = LATENCY_KEYS - latency.keys()
        _require(not missing, f"{where} missing {sorted(missing)}")
        _require(latency["p50_us"] <= latency["p99_us"] <= latency["max_us"],
                 f"{where}: percentiles not monotone "
                 f"(p50={latency['p50_us']} p99={latency['p99_us']} "
                 f"max={latency['max_us']})")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise Violation(f"{path}: unreadable or invalid JSON: {e}")


def cmd_validate(paths):
    failures = 0
    for path in paths:
        try:
            validate_artifact(load(path), str(path))
            print(f"ok       {path}")
        except Violation as e:
            print(f"INVALID  {e}")
            failures += 1
    return 1 if failures else 0


def flat_metrics(doc):
    """All comparable numbers in one artifact, as {dotted-name: value}."""
    out = dict(doc["metrics"])
    for latency in doc["latencies"]:
        for key in ("count", "p50_us", "p99_us", "max_us"):
            out[f"latency.{latency['label']}.{key}"] = latency[key]
    for obs in doc["observability"]:
        label = obs["label"]
        msgs = obs["messages"]
        for key in ("sent", "delivered", "dropped"):
            out[f"observability.{label}.messages.{key}"] = msgs[key]
        for cname, value in obs.get("counters", {}).items():
            out[f"observability.{label}.{cname}"] = value
    return out


def cmd_diff(old_dir, new_dir):
    old_dir, new_dir = pathlib.Path(old_dir), pathlib.Path(new_dir)
    rc = 0
    old_files = {p.name: p for p in sorted(old_dir.glob("*.json"))}
    new_files = {p.name: p for p in sorted(new_dir.glob("*.json"))}
    rc |= cmd_validate(list(old_files.values()) + list(new_files.values()))
    for name in sorted(old_files.keys() & new_files.keys()):
        old = flat_metrics(load(old_files[name]))
        new = flat_metrics(load(new_files[name]))
        print(f"\n== {name} ==")
        for key in sorted(old.keys() | new.keys()):
            a, b = old.get(key), new.get(key)
            if a is None:
                print(f"  + {key} = {b}")
            elif b is None:
                print(f"  - {key} (was {a})")
            elif a != b:
                pct = f" ({(b - a) / a * 100.0:+.1f}%)" if a else ""
                print(f"    {key}: {a} -> {b}{pct}")
    for name in sorted(new_files.keys() - old_files.keys()):
        print(f"\n== {name} == (new artifact)")
    for name in sorted(old_files.keys() - new_files.keys()):
        print(f"\n== {name} == (artifact disappeared)")
        rc = 1
    return rc


def deterministic_fields(value, path="", out=None):
    """Every leaf of an artifact as {path: value}, minus wall-clock fields."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, child in value.items():
            if not WALL_CLOCK_FIELD.search(key):
                deterministic_fields(child, f"{path}.{key}" if path else key,
                                     out)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            deterministic_fields(child, f"{path}[{i}]", out)
    else:
        out[path] = value
    return out


def cmd_check(old_dir, new_dir):
    old_dir, new_dir = pathlib.Path(old_dir), pathlib.Path(new_dir)
    old_files = {p.name: p for p in sorted(old_dir.glob("*.json"))}
    new_files = {p.name: p for p in sorted(new_dir.glob("*.json"))}
    rc = cmd_validate(list(old_files.values()) + list(new_files.values()))
    for name in sorted(old_files.keys() ^ new_files.keys()):
        side = "baseline" if name in old_files else "new run"
        print(f"DRIFT    {name}: only in the {side}")
        rc = 1
    for name in sorted(old_files.keys() & new_files.keys()):
        if name in WALL_CLOCK_ARTIFACTS:
            print(f"skipped  {name} (wall clock)")
            continue
        old = deterministic_fields(load(old_files[name]))
        new = deterministic_fields(load(new_files[name]))
        drifted = [k for k in sorted(old.keys() | new.keys())
                   if old.get(k) != new.get(k)]
        if not drifted:
            print(f"same     {name}")
            continue
        rc = 1
        print(f"DRIFT    {name}: {len(drifted)} field(s)")
        for key in drifted[:20]:
            print(f"    {key}: {old.get(key, '<absent>')} -> "
                  f"{new.get(key, '<absent>')}")
    return rc


def cmd_selftest():
    failures = 0
    for fixture, want in (("baseline", 0), ("sim-drift", 1),
                          ("wall-drift", 0)):
        print(f"-- check baseline {fixture} (want exit {want})")
        got = cmd_check(FIXTURES / "baseline", FIXTURES / fixture)
        if got != want:
            print(f"SELFTEST FAILED: {fixture} exited {got}, want {want}")
            failures += 1
    print("selftest ok" if failures == 0 else "selftest FAILED")
    return 1 if failures else 0


def main(argv):
    if len(argv) >= 3 and argv[1] == "validate":
        return cmd_validate(argv[2:])
    if len(argv) == 4 and argv[1] == "diff":
        return cmd_diff(argv[2], argv[3])
    if len(argv) == 4 and argv[1] == "check":
        return cmd_check(argv[2], argv[3])
    if len(argv) == 2 and argv[1] == "--selftest":
        return cmd_selftest()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
