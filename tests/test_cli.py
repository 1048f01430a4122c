"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.generators import disjoint_union, grid_2d, path_graph
from repro.graph import save_npz, write_edge_list


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.el"
    write_edge_list(grid_2d(10, 10), path)
    return str(path)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["g.el"])
        assert args.engine == "parallel"
        assert not args.no_winnow

    def test_all_flags(self):
        args = build_parser().parse_args(
            ["g.npz", "--engine", "serial", "--no-winnow", "--no-eliminate",
             "--no-chain", "--start-vertex-zero", "--spectrum", "--stats"]
        )
        assert args.engine == "serial"
        assert args.no_winnow and args.no_eliminate and args.no_chain
        assert args.start_vertex_zero and args.spectrum and args.stats


class TestMain:
    def test_basic_run(self, grid_file, capsys):
        assert main([grid_file]) == 0
        out = capsys.readouterr().out
        assert "diameter : 18" in out
        assert "vertices : 100" in out

    def test_stats_flag(self, grid_file, capsys):
        assert main([grid_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "BFS traversals" in out
        assert "winnow" in out
        assert "ecc batch      : 1 (degree skew" in out
        assert "lane sweeps    : 0 (0 redundant evaluations)" in out

    def test_stats_report_lane_batching(self, tmp_path, capsys):
        from repro.generators import barabasi_albert

        path = tmp_path / "ba.el"
        write_edge_list(barabasi_albert(600, 3, seed=5), path)
        assert main([str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "ecc batch      : 64 (hub-heavy, bound " in out
        assert "lane sweeps    : 0 (" not in out

    def test_spectrum_flag(self, grid_file, capsys):
        assert main([grid_file, "--spectrum"]) == 0
        out = capsys.readouterr().out
        # 10x10 grid: centre cells sit 5+5 steps from the far corner.
        assert "radius    : 10" in out
        assert "periphery" in out

    def test_serial_engine(self, grid_file, capsys):
        assert main([grid_file, "--engine", "serial"]) == 0
        assert "diameter : 18" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["batched", "bitparallel"])
    def test_removed_engine_rejected(self, grid_file, capsys, engine):
        with pytest.raises(SystemExit) as exc:
            main([grid_file, "--engine", engine])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_ablation_flags_same_answer(self, grid_file, capsys):
        assert main([grid_file, "--no-winnow", "--no-chain"]) == 0
        assert "diameter : 18" in capsys.readouterr().out

    def test_disconnected_reported_infinite(self, tmp_path, capsys):
        path = tmp_path / "two.npz"
        save_npz(disjoint_union([path_graph(4), path_graph(6)]), path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "infinite" in out
        assert "largest component eccentricity = 5" in out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/graph.el"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_format(self, tmp_path, capsys):
        bad = tmp_path / "graph.weird"
        bad.write_text("0 1\n")
        assert main([str(bad)]) == 2


class TestFuzzCLI:
    def test_clean_campaign_exits_zero(self, tmp_path, capsys):
        code = main([
            "fuzz", "--budget", "3", "--seed", "5", "--trials", "4",
            "--max-vertices", "32", "--artifacts", str(tmp_path), "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
        assert "families:" in out
        assert list(tmp_path.iterdir()) == []

    def test_injected_fault_exits_one_with_artifact(self, tmp_path, capsys):
        code = main([
            "fuzz", "--budget", "60", "--seed", "1", "--trials", "8",
            "--max-vertices", "40", "--artifacts", str(tmp_path),
            "--inject", "eliminate-off-by-one", "--quiet",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        artifacts = sorted(tmp_path.glob("*.npz"))
        assert artifacts

    def test_replay_roundtrip(self, tmp_path, capsys):
        code = main([
            "fuzz", "--budget", "60", "--seed", "1", "--trials", "8",
            "--max-vertices", "40", "--artifacts", str(tmp_path),
            "--inject", "eliminate-off-by-one", "--quiet",
        ])
        assert code == 1
        capsys.readouterr()
        artifact = sorted(tmp_path.glob("*.npz"))[0]
        # Healthy build: the artifact replays clean.
        assert main(["fuzz", "--replay", str(artifact)]) == 0
        assert "clean" in capsys.readouterr().out
        # With the fault active the replay reproduces the failure.
        assert main([
            "fuzz", "--replay", str(artifact),
            "--inject", "eliminate-off-by-one",
        ]) == 1
        assert "disagreement" in capsys.readouterr().out

    def test_unknown_fault_rejected(self, capsys):
        assert main(["fuzz", "--inject", "nope", "--budget", "1"]) == 2
        assert "unknown fault" in capsys.readouterr().err

    def test_replay_missing_file(self, capsys):
        assert main(["fuzz", "--replay", "/nonexistent/x.npz"]) == 2
        assert "error" in capsys.readouterr().err


class TestServeCLI:
    def test_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(["g.npz"])
        assert args.graphs == ["g.npz"]
        assert args.batch_limit == 256
        assert args.max_pending == 1024

    def test_memory_budget_still_parses(self):
        # The serve benchmark's command line still passes the inert flag.
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(
            ["g=path", "--memory-budget", "17467"]
        )
        assert args.graphs == ["g=path"]
        assert args.memory_budget == 17467

    def test_missing_graph_file(self, capsys):
        assert main(["serve", "/nonexistent/g.npz"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_scheduler_config(self, grid_file, capsys):
        code = main([
            "serve", grid_file, "--batch-limit", "0",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_serves_and_answers(self, tmp_path):
        """Boot `repro serve` in a subprocess, query it, shut down."""
        import asyncio
        import os
        import re
        import subprocess
        import sys
        import time
        from pathlib import Path

        from repro.service import ServiceClient

        path = tmp_path / "grid.npz"
        save_npz(grid_2d(8, 8), str(path))

        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parent.parent / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", f"grid={path}",
                "--port", "0", "--no-mmap",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            port = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line and proc.poll() is not None:
                    break
                m = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
                if m:
                    port = int(m.group(1))
                    break
            assert port is not None, "server never reported its port"

            async def ask():
                async with ServiceClient("127.0.0.1", port) as client:
                    status, payload = await client.query(
                        "grid", "dist 0 63", "diam"
                    )
                    assert status == 200, payload
                    return payload["answers"]

            answers = asyncio.run(ask())
            assert answers == [14, 14]  # corner-to-corner on an 8x8 grid
        finally:
            proc.terminate()
            proc.wait(timeout=10)
