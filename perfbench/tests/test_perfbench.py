"""The benchmark's own gate, at a small size.

* Count metrics repeat exactly across two runs with the same seed.
* Every metric named in ``BENCHMARK.json`` is printed, with its unit.
* Every output check fails when handed a wrong expected result.
* Without the engine sources the command fails without a result.

Runs go through ``perfbench/run.py`` in subprocesses with
``--scale small`` and a fixed operation count (``--ops``), so a run
takes a couple of seconds and its counts do not depend on timing.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: Operations per small run: enough to reach every layer the workload
#: uses (a vacuum, a spill, a gang) and stay quick.
OPS = {"cartel-web": 200, "tpcc-durable": 210, "label-analytics": 10}

#: Count metrics the engine's logic determines.
EXACT = ("core.rules.covers_calls_per_op", "db.indexes.lookups_per_op",
         "db.transactions.visible_calls_per_op",
         "db.wal.fsyncs_per_commit", "db.spill.bytes_per_op")


def run(workload: str, trace: int, seed: int = 3, cwd: str = ROOT,
        script: str = os.path.join(ROOT, "perfbench", "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--ops",
         str(OPS[workload]), "--scale", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pairs():
    return {name: (result(run(name, 1)), result(run(name, 1)))
            for name in WORKLOADS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(traced_pairs, workload):
    first, second = traced_pairs[workload]
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_workloads_reach_their_layers(traced_pairs):
    metric = {name: pair[0]["metrics"] for name, pair in
              traced_pairs.items()}
    assert metric["cartel-web"]["platform.self_ms_per_op"]["value"] > 0
    assert metric["tpcc-durable"]["db.wal.fsyncs_per_commit"]["value"] == 1
    assert metric["tpcc-durable"][
        "db.storage.versions_reclaimed_per_1k_ops"]["value"] > 0
    analytics = metric["label-analytics"]
    for name in ("db.spill.bytes_per_op", "db.parallel.gangs_per_op",
                 "db.pages.evictions_per_op"):
        assert analytics[name]["value"] > 0, name
    assert analytics["sql.parse_cache_hit_ratio"]["value"] < 0.5


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(traced_pairs, workload):
    untraced = result(run(workload, 0))
    for spec_key, printed in (("end_to_end", untraced),
                              ("per_layer", traced_pairs[workload][0])):
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in printed["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], float)
                   for m in printed["metrics"].values())
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cartel-web", 0, cwd=str(tmp_path),
               script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# each output check rejects a wrong expected result
# ---------------------------------------------------------------------------

def _small(name: str, tmp_path, ops: int):
    workload = WORKLOADS[name](5, "small", str(tmp_path))
    workload.setup()
    records = [workload.run_op(workload.next_op(i)) for i in range(ops)]
    return workload, records


def test_response_check_rejects_wrong_body(tmp_path):
    workload, records = _small("cartel-web", tmp_path, 40)
    expected = {(r[0], r[1]): r[3] for r in records}
    assert checks.check_responses(records, expected) == 40
    key = next(iter(expected))
    wrong = dict(expected)
    wrong[key] = {"cars": []} if wrong[key] != {"cars": []} else {}
    with pytest.raises(checks.CheckFailed):
        checks.check_responses(records, wrong)
    with pytest.raises(checks.CheckFailed):
        checks.check_status("probe", 200, 403)
    workload.close()


def test_tpcc_checks_reject_wrong_state(tmp_path):
    from repro.db.dump import _check_and_load, dump_database
    workload, _records = _small("tpcc-durable", tmp_path, 30)
    session = workload.tpcc.session
    tables = [session.query(sql) for sql in (
        "SELECT w_id, w_ytd FROM Warehouse",
        "SELECT d_w_id, d_id, d_ytd, d_next_o_id FROM District",
        "SELECT o_w_id, o_d_id, o_id, o_ol_cnt FROM Orders",
        "SELECT no_w_id, no_d_id, no_o_id FROM NewOrder",
        "SELECT ol_w_id, ol_d_id, ol_o_id FROM OrderLine")]
    tables = [[tuple(row) for row in rows] for rows in tables]
    checks.check_tpcc_consistency(*tables)
    corruptions = (
        (0, lambda rows: [(w, ytd + 1.0) for w, ytd in rows]),
        (1, lambda rows: [(w, d, ytd, nxt + 1) for w, d, ytd, nxt in rows]),
        (3, lambda rows: [r[:2] + (r[2] + 5,) for r in rows]),
        (4, lambda rows: rows[:-1]))
    for position, corrupt in corruptions:
        wrong = list(tables)
        wrong[position] = corrupt(tables[position])
        with pytest.raises(checks.CheckFailed):
            checks.check_tpcc_consistency(*wrong)
    live = _check_and_load(dump_database(workload.db))
    checks.check_same_dump(live, copy.deepcopy(live))
    for mutate in (lambda d: d["tables"]["Stock"]["rows"].pop(),
                   lambda d: d["sequences"].update(history=10 ** 6)):
        wrong = copy.deepcopy(live)
        mutate(wrong)
        with pytest.raises(checks.CheckFailed):
            checks.check_same_dump(live, wrong)
    workload.close()


def test_analytics_checks_reject_wrong_rows(tmp_path):
    workload, records = _small("label-analytics", tmp_path, 10)
    visible = checks.visible_facts(workload.facts, workload.held)
    for shape, params, got, labels in records:
        want = checks.expected_result(shape, params, visible,
                                      workload.segments)
        checks.check_query(shape, params, got, want)
        checks.check_covered(shape, labels, workload.held)
        wrong = [tuple(v + 1 if isinstance(v, int) else v for v in row)
                 for row in want] or [(0,)]
        with pytest.raises(checks.CheckFailed):
            checks.check_query(shape, params, got, wrong)
    # Ground truth that ignored Query-by-Label would count hidden rows.
    everything = [row for _tag, row in workload.facts]
    shape, params, got, _labels = next(r for r in records
                                       if r[0] == "aggregate")
    with pytest.raises(checks.CheckFailed):
        checks.check_query(shape, params, got, checks.expected_result(
            shape, params, everything, workload.segments))
    hidden = next(tag for tag, _row in workload.facts
                  if tag is not None and tag not in workload.held)
    with pytest.raises(checks.CheckFailed):
        checks.check_covered("filter", [frozenset([hidden])],
                             workload.held)
    with pytest.raises(checks.CheckFailed):
        checks.check_row_labels("filter", (), [frozenset()],
                                [frozenset([hidden])])
    workload.close()
