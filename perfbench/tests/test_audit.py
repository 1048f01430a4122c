"""The answer audits catch an injected wrong answer."""

import dataclasses

from loadgen import Op
import diameter
import serve


def _path_graph(tmp_path, n=6):
    from repro.generators.primitives import path_graph
    from repro.graph.io import save_npz

    path = tmp_path / "g.npz"
    save_npz(path_graph(n, name="g"), path, compressed=False)
    return {"g": {"path": str(path), "n": n}}


def _query(answers, epochs, queries=("dist 0 5", "ecc 0", "diam")):
    op = Op(0.0, "/query", {"graph": "g", "queries": list(queries)}, tag="read")
    op.status, op.body = 200, {"answers": list(answers), "epochs": list(epochs)}
    return op


CFG = dataclasses.replace(serve.CONFIGS["serve-churn"], tenants=("g",))


def test_static_audit_flags_only_the_wrong_request(tmp_path):
    meta = _path_graph(tmp_path)
    good = _query([5, 5, 5], [0, 0, 0])
    bad = _query([5, 5, 4], [0, 0, 0])  # injected wrong diameter
    wrong, messages = serve.audit(CFG, meta, {"light": [good, bad]})
    assert wrong == {id(bad)}
    assert len(messages) == 1 and "'diam'" in messages[0]


def test_churn_audit_replays_mutations_to_each_answers_epoch(tmp_path):
    meta = _path_graph(tmp_path)
    write = Op(0.0, "/mutate", {"graph": "g", "insert": [[0, 5]], "delete": []}, tag="mutate")
    write.status = 200
    write.body = {"epoch": 1, "applied": {"inserted": 1, "deleted": 0,
                                          "noop_inserts": 0, "noop_deletes": 0}}
    before = _query([5, 5, 5], [0, 0, 0])  # answered before the write
    after = _query([1, 3, 3], [1, 1, 1])  # the 6-cycle after it
    stale = _query([5], [1], queries=["dist 0 5"])  # pre-write answer, new epoch
    wrong, _ = serve.audit(CFG, meta, {"light": [before, write, after, stale]})
    assert wrong == {id(stale)}


def test_diameter_audit_counts_a_wrong_answer_without_aborting(tmp_path):
    from repro.generators.primitives import cycle_graph, path_graph
    from repro.store import save_scsr

    files, oracle = {}, {}
    for name, graph, d, regime in (("p", path_graph(9, name="p"), 8, "small-world"),
                                   ("c", cycle_graph(10, name="c"), 5, "high-diameter")):
        files[name] = str(tmp_path / f"{name}.scsr")
        save_scsr(graph, files[name])
        oracle[name] = {"n": graph.num_vertices, "regime": regime, "diameter": d}
    oracle["c"]["diameter"] = 4  # injected wrong reference answer
    result = diameter.measure(files, oracle, 0, 0.0, setups=1, max_passes=1)
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert result["wrong"] and result["wrong"][0].startswith("c:")
    assert result["e2e"]["rate"] > 0 and result["e2e"]["typical_ms"] > 0


def test_diameter_passes_after_the_first_run_other_labelings(tmp_path):
    from repro.generators.primitives import cycle_graph, path_graph
    from repro.store import save_scsr

    files, oracle = {}, {}
    for name, graph, d, regime in (("p", path_graph(9, name="p"), 8, "small-world"),
                                   ("c", cycle_graph(10, name="c"), 5, "high-diameter")):
        files[name] = str(tmp_path / f"{name}.scsr")
        save_scsr(graph, files[name])
        oracle[name] = {"n": graph.num_vertices, "regime": regime, "diameter": d}
    result = diameter.measure(files, oracle, 3, 60.0, setups=1, max_passes=3)
    assert result["attempted"] == 6
    assert result["failed"] == 0
    assert result["detail"]["passes"] == 3
