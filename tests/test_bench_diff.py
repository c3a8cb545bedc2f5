"""The perf-regression gate: diff_bench routing, thresholds, CLI exit codes."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.errors import ObservabilityError
from repro.obs import DIFF_SCHEMA, diff_bench, diff_bench_files, render_diff
from repro.obs.export import (
    BENCH_SCHEMA,
    COLUMNAR_BENCH_SCHEMA,
    PARALLEL_BENCH_SCHEMA,
    SERVER_BENCH_SCHEMA,
)


def parallel_payload(seconds_1=1.0, seconds_4=0.2, speedup=5.0,
                     name="scatter_repeated_renders"):
    return {
        "schema": PARALLEL_BENCH_SCHEMA,
        "benchmarks": [{
            "name": name,
            "arms": {
                "serial": {"workers": 0, "seconds": seconds_1},
                "workers4": {"workers": 4, "seconds": seconds_4},
            },
            "speedup": speedup,
        }],
    }


def columnar_payload(row_s=0.5, col_s=0.05, speedup=10.0,
                     name="fast_scatter_cull_restrict"):
    return {
        "schema": COLUMNAR_BENCH_SCHEMA,
        "benchmarks": [{
            "name": name,
            "arms": {
                "row": {"seconds": row_s},
                "columnar": {"seconds": col_s},
            },
            "speedup": speedup,
            "counters": {"columnar.batches": 4, "columnar.fallback": 0},
        }],
    }


def server_payload(p50=0.02, p99=0.07, throughput=1000.0,
                   name="fig4_ws_load"):
    return {
        "schema": SERVER_BENCH_SCHEMA,
        "benchmarks": [{
            "name": name,
            "viewers": 50,
            "renders_per_viewer": 6,
            "latency": {"p50_s": p50, "p99_s": p99,
                        "mean_s": p50, "max_s": p99},
            "throughput_cps": throughput,
            "frames": {"delivered": 300, "dropped": 0},
            "cache": {"hits": 300},
        }],
    }


def obs_payload(mean_s=0.1, name="bench_lazy_render"):
    return {
        "schema": BENCH_SCHEMA,
        "benchmarks": [
            {"name": name, "timing": {"mean_s": mean_s, "rounds": 5}},
        ],
    }


# ---------------------------------------------------------------------------
# diff_bench routing and report shape
# ---------------------------------------------------------------------------


def test_identity_diff_has_no_regressions():
    report = diff_bench(parallel_payload(), parallel_payload())
    assert report["schema"] == DIFF_SCHEMA
    assert report["bench_schema"] == PARALLEL_BENCH_SCHEMA
    assert report["regressions"] == []
    assert report["improvements"] == []
    assert {row["status"] for row in report["comparisons"]} == {"ok"}
    # Both arms and the headline speedup are compared.
    metrics = [row["metric"] for row in report["comparisons"]]
    assert metrics.count("seconds") == 2
    assert metrics.count("speedup") == 1


def test_parallel_slowdown_and_speedup_direction():
    base = parallel_payload(seconds_1=1.0, seconds_4=0.2, speedup=5.0)
    # 2x slower wall time and halved speedup: both flagged.
    curr = parallel_payload(seconds_1=2.0, seconds_4=0.4, speedup=2.5)
    report = diff_bench(base, curr)
    statuses = {(r["name"], r["metric"]): r["status"]
                for r in report["comparisons"]}
    assert statuses[("scatter_repeated_renders[serial]", "seconds")] == \
        "regression"
    assert statuses[("scatter_repeated_renders", "speedup")] == "regression"
    # Speedup is higher-is-better: a raised speedup is an improvement.
    better = parallel_payload(speedup=9.0)
    report = diff_bench(parallel_payload(), better)
    speedup_row = [r for r in report["comparisons"]
                   if r["metric"] == "speedup"][0]
    assert speedup_row["status"] == "improvement"


def test_columnar_schema_routes_to_arm_comparison():
    report = diff_bench(columnar_payload(), columnar_payload())
    assert report["bench_schema"] == COLUMNAR_BENCH_SCHEMA
    metrics = [row["metric"] for row in report["comparisons"]]
    assert metrics.count("seconds") == 2
    assert metrics.count("speedup") == 1
    assert report["regressions"] == []


def test_columnar_speedup_collapse_is_a_regression():
    # The columnar arm losing its edge (10x -> 3x) must trip the gate even
    # if absolute wall times moved less than the threshold.
    base = columnar_payload(speedup=10.0)
    curr = columnar_payload(col_s=0.17, speedup=3.0)
    report = diff_bench(base, curr)
    by_metric = {row["metric"]: row["status"]
                 for row in report["comparisons"]}
    assert by_metric["speedup"] == "regression"


def test_server_schema_compares_latency_and_throughput():
    report = diff_bench(server_payload(), server_payload())
    metrics = {row["metric"] for row in report["comparisons"]}
    assert metrics == {"p50_s", "p99_s", "throughput_cps"}
    assert not report["regressions"]


def test_server_latency_regression_trips_the_gate():
    # p99 doubling (0.07 -> 0.15) is past the 50% threshold.
    report = diff_bench(server_payload(), server_payload(p99=0.15))
    assert [row["name"] for row in report["regressions"]] == ["fig4_ws_load"]
    assert report["regressions"][0]["metric"] == "p99_s"


def test_server_throughput_is_higher_is_better():
    # Throughput collapsing is a regression; latency dropping with it is an
    # improvement, not a second regression.
    report = diff_bench(server_payload(),
                        server_payload(p99=0.03, throughput=400.0))
    by_metric = {row["metric"]: row["status"]
                 for row in report["comparisons"]}
    assert by_metric["throughput_cps"] == "regression"
    assert by_metric["p99_s"] == "improvement"


def test_obs_schema_compares_mean_s():
    report = diff_bench(obs_payload(0.100), obs_payload(0.130))
    assert report["bench_schema"] == BENCH_SCHEMA
    [row] = report["comparisons"]
    assert row["metric"] == "mean_s"
    assert row["status"] == "regression"  # 0.13/0.10 = +30% > 25%
    assert row["ratio"] == 1.3


def test_obs_threshold_boundary():
    # Exactly at +25% is not a regression; just past it is.
    at = diff_bench(obs_payload(0.100), obs_payload(0.125))
    assert at["regressions"] == []
    past = diff_bench(obs_payload(0.100), obs_payload(0.1251))
    assert [r["name"] for r in past["regressions"]] == ["bench_lazy_render"]


def test_threshold_overrides():
    base, curr = obs_payload(0.100), obs_payload(0.140)
    assert diff_bench(base, curr)["regressions"] != []
    assert diff_bench(base, curr, threshold=0.5)["regressions"] == []
    assert diff_bench(base, curr,
                      thresholds={"mean_s": 0.5})["regressions"] == []
    # Per-metric override leaves other metrics at their defaults.
    report = diff_bench(parallel_payload(speedup=5.0),
                        parallel_payload(seconds_4=0.6, speedup=2.0),
                        thresholds={"speedup": 0.9})
    assert [r["metric"] for r in report["regressions"]] == ["seconds"]


def test_min_seconds_floor_skips_micro_timings():
    base = obs_payload(0.001)
    curr = obs_payload(0.004)  # 4x "slower" but both under the 5ms floor
    report = diff_bench(base, curr)
    assert report["regressions"] == []
    assert report["comparisons"][0]["status"] == "ok"
    # Lowering the floor flags it again.
    report = diff_bench(base, curr, min_seconds=0.0005)
    assert len(report["regressions"]) == 1


def test_missing_and_added_benchmarks():
    base = parallel_payload()
    curr = parallel_payload(name="join_slaved_viewers")
    report = diff_bench(base, curr)
    assert report["comparisons"] == []
    assert report["missing"] == ["scatter_repeated_renders"]
    assert report["added"] == ["join_slaved_viewers"]


def test_schema_mismatch_and_unknown_schema_raise():
    with pytest.raises(ObservabilityError):
        diff_bench(parallel_payload(), obs_payload())
    with pytest.raises(ObservabilityError):
        diff_bench({"schema": "nope/9", "benchmarks": []},
                   {"schema": "nope/9", "benchmarks": []})
    with pytest.raises(ObservabilityError):
        diff_bench({}, obs_payload())


def test_diff_bench_files_and_render(tmp_path):
    base_path = tmp_path / "base.json"
    curr_path = tmp_path / "curr.json"
    base_path.write_text(json.dumps(parallel_payload()))
    curr_path.write_text(json.dumps(parallel_payload(seconds_4=0.5,
                                                     speedup=2.0)))
    report = diff_bench_files(base_path, curr_path)
    assert len(report["regressions"]) == 2
    text = render_diff(report)
    assert "2 regressions" in text
    assert "✗" in text
    assert "higher-is-better" in text


# ---------------------------------------------------------------------------
# CLI: repro bench-diff exit codes (the CI gate)
# ---------------------------------------------------------------------------


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_identity_passes_strict(tmp_path, capsys):
    base = _write(tmp_path, "base.json", parallel_payload())
    curr = _write(tmp_path, "curr.json", parallel_payload())
    assert cli.main(["bench-diff", base, curr, "--strict"]) == 0
    out = capsys.readouterr().out
    assert "0 regressions" in out


def test_cli_synthetic_2x_slowdown_fails(tmp_path, capsys):
    """Acceptance fixture: a 2x slowdown must trip the gate."""
    base = _write(tmp_path, "base.json", parallel_payload(
        seconds_1=1.0, seconds_4=0.2, speedup=5.0))
    slow = _write(tmp_path, "slow.json", parallel_payload(
        seconds_1=2.0, seconds_4=0.4, speedup=2.5))
    assert cli.main(["bench-diff", base, slow]) == 1
    out = capsys.readouterr().out
    assert "regression" in out


def test_cli_json_output(tmp_path, capsys):
    base = _write(tmp_path, "base.json", obs_payload(0.1))
    curr = _write(tmp_path, "curr.json", obs_payload(0.2))
    assert cli.main(["bench-diff", base, curr, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == DIFF_SCHEMA
    assert len(report["regressions"]) == 1


def test_cli_threshold_flag(tmp_path):
    base = _write(tmp_path, "base.json", obs_payload(0.1))
    curr = _write(tmp_path, "curr.json", obs_payload(0.2))
    assert cli.main(["bench-diff", base, curr, "--threshold", "1.5"]) == 0


def test_cli_strict_fails_on_missing_benchmark(tmp_path):
    base = _write(tmp_path, "base.json", parallel_payload())
    curr = _write(tmp_path, "curr.json",
                  parallel_payload(name="join_slaved_viewers"))
    # Non-strict: nothing comparable, nothing regressed -> pass.
    assert cli.main(["bench-diff", base, curr]) == 0
    # Strict: a benchmark vanished from the current run -> fail.
    assert cli.main(["bench-diff", base, curr, "--strict"]) == 1


def test_committed_baseline_matches_repo_artifact():
    """The acceptance-criteria invocation: the committed baseline diffs
    cleanly against the repo's own BENCH_parallel.json."""
    assert cli.main([
        "bench-diff",
        "benchmarks/baselines/BENCH_parallel.json",
        "BENCH_parallel.json",
        "--strict",
    ]) == 0


def test_cli_update_baselines_writes_validated_copy(tmp_path, capsys):
    baseline = tmp_path / "baselines" / "BENCH_columnar.json"
    current = _write(tmp_path, "curr.json", columnar_payload())
    assert cli.main(["bench-diff", str(baseline), current,
                     "--update-baselines"]) == 0
    out = capsys.readouterr().out
    assert "baseline updated" in out
    assert json.loads(baseline.read_text())["schema"] == COLUMNAR_BENCH_SCHEMA
    # The refreshed baseline immediately diffs clean against its source.
    assert cli.main(["bench-diff", str(baseline), current, "--strict"]) == 0


def test_cli_update_baselines_rejects_invalid_payload(tmp_path, capsys):
    baseline = tmp_path / "BENCH_columnar.json"
    bad = _write(tmp_path, "bad.json",
                 {"schema": COLUMNAR_BENCH_SCHEMA, "benchmarks": [
                     {"name": "x", "arms": {}}]})
    assert cli.main(["bench-diff", str(baseline), bad,
                     "--update-baselines"]) == 1
    assert not baseline.exists()
    assert "invalid bench file" in capsys.readouterr().err


def test_committed_server_baseline_is_valid():
    """The committed server baseline schema-validates and records the
    50-viewer fig4 run under the 250ms p99 acceptance ceiling."""
    with open("benchmarks/baselines/BENCH_server.json") as handle:
        payload = json.load(handle)
    assert payload["schema"] == SERVER_BENCH_SCHEMA
    assert cli.main(["stats", "--validate-bench",
                     "benchmarks/baselines/BENCH_server.json"]) == 0
    run = payload["benchmarks"][0]
    assert run["viewers"] == 50
    assert run["latency"]["p99_s"] < 0.25
    assert run["frames"]["dropped"] == 0


def test_committed_columnar_baseline_is_valid():
    """The committed columnar baseline schema-validates and records the
    >=10x speedup on at least two of the three workloads."""
    with open("benchmarks/baselines/BENCH_columnar.json") as handle:
        payload = json.load(handle)
    assert payload["schema"] == COLUMNAR_BENCH_SCHEMA
    assert cli.main(["stats", "--validate-bench",
                     "benchmarks/baselines/BENCH_columnar.json"]) == 0
    fast = [b for b in payload["benchmarks"] if b["speedup"] >= 10.0]
    assert len(fast) >= 2, [b["speedup"] for b in payload["benchmarks"]]
