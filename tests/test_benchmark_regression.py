"""Tests for the benchmark regression harness (``benchmarks/regression.py``).

The harness is a standalone script (not part of the installed package),
so it is loaded by file path. The gate table and ``--compare`` rows are
covered with hand-built snapshots; the suite itself is exercised
end-to-end in smoke mode against a tiny injected workload so the test
stays fast.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def regression():
    spec = importlib.util.spec_from_file_location(
        "bench_regression", REPO_ROOT / "benchmarks" / "regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny_workloads(regression, monkeypatch):
    """Every pinned input replaced by one tiny graph, so runs stay fast."""
    from repro.generators import barabasi_albert
    from repro.harness.workloads import Workload, get_workload

    tiny = barabasi_albert(150, 2, seed=0)
    analogs = get_workload.__globals__["PAPER_ANALOGS"]
    monkeypatch.setattr(
        regression,
        "get_workload",
        lambda name: Workload(name=name, graph=tiny, spec=analogs[name]),
    )


def snapshot(stages, graphs=("g",)):
    return {"schema_version": 2, "graphs": {g: {} for g in graphs}, "stages": stages}


def compare(regression, baseline, current):
    rows = [row for row in regression.GATES if row.name == "compare"]
    return regression.evaluate(current, rows, baseline)


class TestCompare:
    def test_counter_increase_over_tolerance_is_regression(self, regression):
        base = snapshot({"g/fdiam": {"edges_examined": 1_000, "bfs_count": 10}})
        cur = snapshot({"g/fdiam": {"edges_examined": 1_500, "bfs_count": 10}})
        regs = compare(regression, base, cur)
        assert len(regs) == 1 and "edges_examined" in regs[0]

    def test_counter_increase_within_old_tolerance_fails(self, regression):
        base = snapshot({"g/fdiam": {"edges_examined": 1_000}})
        cur = snapshot({"g/fdiam": {"edges_examined": 1_001}})
        regs = compare(regression, base, cur)
        assert len(regs) == 1 and "edges_examined" in regs[0]

    def test_counter_decrease_fails_and_names_refresh(self, regression):
        base = snapshot({"g/fdiam": {"bfs_count": 100}})
        cur = snapshot({"g/fdiam": {"bfs_count": 50}})
        regs = compare(regression, base, cur)
        assert len(regs) == 1 and "bfs_count" in regs[0]
        assert regression.REFRESH_COMMAND in regs[0]

    def test_exact_result_change_always_fails(self, regression):
        base = snapshot({"g/fdiam": {"diameter": 28}})
        cur = snapshot({"g/fdiam": {"diameter": 27}})
        regs = compare(regression, base, cur)
        assert len(regs) == 1 and "diameter" in regs[0]

    def test_timing_dependent_counters_are_not_compared(self, regression):
        base = snapshot({"g/query_service_load": {"gather_pass_ratio": 27.9}})
        cur = snapshot({"g/query_service_load": {"gather_pass_ratio": 20.1}})
        assert not compare(regression, base, cur)

    def test_missing_stages_are_skipped(self, regression):
        # Rows of graphs the run did not build, and of stages it did not
        # select, are not the run's to produce.
        base = snapshot({
            "g/fdiam": {"bfs_count": 10},
            "g/sumsweep_scalar": {"bfs_count": 10},
            "h/fdiam_lanes64": {},
        })
        cur = snapshot({"g/fdiam": {"bfs_count": 10}, "g/fdiam_warm": {}})
        assert not compare(regression, base, cur)

    def test_stale_baseline_row_fails(self, regression):
        # A row of a built graph whose stage no longer exists.
        base = snapshot(
            {"g/fdiam": {"bfs_count": 10}, "g/fdiam_lanes64": {"bfs_count": 1}}
        )
        cur = snapshot({"g/fdiam": {"bfs_count": 10}})
        regs = compare(regression, base, cur)
        assert len(regs) == 1 and "g/fdiam_lanes64" in regs[0]
        assert regression.REFRESH_COMMAND in regs[0]


#: For each gate row, keyed by ``(name, check)``: a record that breaks
#: its bound (at the boundary where the bound is strict).
VIOLATING = {
    ("warm", "verified"): {"verified": False},
    ("warm", "diameter"): {"diameter": 27, "cold_diameter": 28},
    ("warm", "bfs_count"): {"bfs_count": 3, "cold_bfs_count": 4},
    ("scaling", ("workers_2_ecc_checksum", "workers_4_ecc_checksum")): {
        "ecc_checksum": 1016,
        "workers_2_ecc_checksum": 1016,
        "workers_4_ecc_checksum": 1017,
    },
    ("scaling", ("workers_2_backend", "workers_4_backend")): {
        "workers_2_backend": "multiprocess",
        "workers_4_backend": "bitparallel",
    },
    ("bytes-per-edge", "ratio_vs_npz_reordered"): {"ratio_vs_npz_reordered": 2.999},
    ("service", "mismatches"): {"mismatches": 1},
    ("service", ("coalescing_ratio", "gather_pass_ratio")): {
        "coalescing_ratio": 50.0,
        "gather_pass_ratio": 3.99,
    },
    ("churn", "mismatches"): {"mismatches": 1},
    ("churn", "repair_bfs"): {"repair_bfs": 173, "recompute_bfs": 173},
    ("stream-encode", "byte_identical"): {"byte_identical": False},
    ("stream-encode", "encoder_peak_bytes"): {
        "encoder_peak_bytes": 100,
        "encoder_peak_bound_bytes": 100,
    },
}


class TestGates:
    def test_every_gate_row_rejects_a_violating_record(self, regression):
        rows = [row for row in regression.GATES if row.name != "compare"]
        assert {(row.name, row.check) for row in rows} == set(VIOLATING)
        for row in rows:
            for graph in row.graphs:
                key = f"{graph}/{row.stage}"
                bad = snapshot({key: VIOLATING[row.name, row.check]})
                assert regression.evaluate(bad, [row]), (graph, row)

    def test_missing_field_fails(self, regression):
        row = next(r for r in regression.GATES if r.name == "churn")
        bad = snapshot({f"{row.graphs[0]}/{row.stage}": {}})
        assert regression.evaluate(bad, [row])

    def test_rows_cover_only_their_graphs(self, regression):
        churn = [r for r in regression.GATES if r.name == "churn"]
        # repair may lose to recompute on the high-diameter analog.
        record = {"mismatches": 0, "repair_bfs": 426, "recompute_bfs": 426}
        assert not regression.evaluate(
            snapshot({"USA-road-d.NY/dynamic_churn": record}), churn
        )
        assert regression.evaluate(
            snapshot({"internet/dynamic_churn": record}), churn
        )
        # Served answers are audited on both analogs.
        service = [r for r in regression.GATES if r.name == "service"]
        assert regression.evaluate(
            snapshot({"USA-road-d.NY/query_service_load": {"mismatches": 1}}),
            service,
        )

    def test_gate_plan_runs_only_the_gated_stages(self, regression):
        assert regression.gate_plan(["stream-encode", "bytes-per-edge"]) == [
            ("road-1M", "store_compress"),
            ("road-10M", "store_stream_encode"),
            ("powerlaw-10M", "store_stream_encode"),
        ]
        assert regression.gate_plan(["service"]) == [
            (g, "query_service_load") for g in regression.FULL_GRAPHS
        ]
        assert set(regression.GATE_NAMES) == {
            "warm", "scaling", "bytes-per-edge", "service", "churn",
            "stream-encode",
        }

    def test_gate_cli_writes_only_its_records(
        self, regression, tiny_workloads, tmp_path
    ):
        out = tmp_path / "gate.json"
        assert regression.main(["--gate", "warm", "--out", str(out)]) == 0
        snap = json.loads(out.read_text())
        assert set(snap["stages"]) == {
            f"{g}/fdiam_warm" for g in regression.FULL_GRAPHS
        }
        with pytest.raises(SystemExit):
            regression.main(["--gate", "compare"])

    def test_combined_gates_compare_against_a_full_baseline(
        self, regression, tiny_workloads, tmp_path
    ):
        # A full baseline holds rows for stages these gates do not run on
        # graphs they build; only a row whose stage is gone is stale.
        out = tmp_path / "gates.json"
        gates = ["--gate", "warm", "--gate", "churn"]
        assert regression.main([*gates, "--out", str(out)]) == 0
        base = json.loads(out.read_text())
        base["stages"]["internet/fdiam"] = {"bfs_count": 1, "diameter": 1}
        base["stages"]["USA-road-d.NY/query_service_load"] = {"mismatches": 0}
        base["stages"]["road-1M/store_compress"] = {"npz_bytes": 1}
        path = tmp_path / "base.json"
        path.write_text(json.dumps(base))
        assert regression.main([*gates, "--compare", str(path)]) == 0

        base["stages"]["internet/fdiam_lanes64"] = {"bfs_count": 1}
        path.write_text(json.dumps(base))
        assert regression.main([*gates, "--compare", str(path)]) == 1


class TestSuiteRoundTrip:
    def test_smoke_run_and_self_compare(self, regression, tiny_workloads, tmp_path):
        snap = regression.run_suite(smoke=True)
        assert snap["graphs"]["internet"]["vertices"] == 150
        assert "internet/fdiam" in snap["stages"]
        assert "internet/spectrum_lanes64" in snap["stages"]
        assert snap["stages"]["internet/spectrum_lanes64"]["sweeps"] >= 1
        assert "internet/spectrum_scalar" not in snap["stages"]

        out = tmp_path / "bench.json"
        out.write_text(json.dumps(snap))
        assert not compare(regression, json.loads(out.read_text()), snap)

    def test_full_snapshot_includes_gather_ratio(self, regression, tiny_workloads):
        snap = regression.run_suite(smoke=False, graphs=("internet",))
        lanes = snap["stages"]["internet/spectrum_lanes64"]
        assert lanes["gather_pass_ratio_vs_scalar"] >= 4.0
        assert "edge_ratio_vs_scalar" in lanes


class TestCommittedBaseline:
    def test_baseline_file_is_valid(self, regression):
        # The committed snapshot the CI smoke job gates against.
        path = REPO_ROOT / "BENCH_2026-08-07.json"
        snap = json.loads(path.read_text())
        assert snap["schema_version"] == regression.SCHEMA_VERSION
        assert set(snap["graphs"]) == set(regression.FULL_GRAPHS) | set(
            regression.SCALE_GRAPHS
        )
        lanes = snap["stages"]["internet/spectrum_lanes64"]
        # Acceptance criterion: >= 4x fewer edge-gather passes on the
        # pinned power-law analog, with lane occupancy reported.
        assert lanes["gather_pass_ratio_vs_scalar"] >= 4.0
        assert 0 < lanes["lane_occupancy"] <= 1
        # Every gate row holds on the records it covers (the 10^7 tier's
        # byte-identical, O(chunk) streaming encode included), and the
        # baseline has no row of a stage that no longer exists.
        assert not regression.evaluate(snap)
        assert not regression.evaluate(snap, baseline=snap)
        # No record carries time or memory.
        timing = {"qps", "p50_ms", "p95_ms", "p99_ms", "peak_rss_mb"}
        for record in snap["stages"].values():
            assert not [
                k for k in record
                if "wall" in k or k.startswith("speedup_") or k in timing
            ]
