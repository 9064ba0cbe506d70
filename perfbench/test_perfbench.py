"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed=1, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.splitlines()
    return json.loads(record)["run"], json.loads(result)


def test_spec_lists_the_workloads_and_metrics_the_code_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [m for m, _ in run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_exactly_the_spec_metrics(workload, trace):
    _, result = parse(bench(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_repeats_inputs_and_counts(workload):
    first_record, first = parse(bench(workload, seed=5, trace=1))
    second_record, second = parse(bench(workload, seed=5, trace=1))
    other_record, _ = parse(bench(workload, seed=6, trace=1))
    assert first_record["inputs_sha256"] == second_record["inputs_sha256"]
    assert first_record["inputs_sha256"] != other_record["inputs_sha256"]
    counts = [m for m in first["metrics"] if first["metrics"][m]["unit"] == "count"]
    assert counts
    for m in counts + ["tensor.product.pairs_kept_ratio"]:
        assert first["metrics"][m] == second["metrics"][m], m


def test_perturbed_psi_file_counts_as_failed_checks(tmp_path):
    workload = WORKLOADS["psi-cli"]
    _, tc, exp, state = run.set_up(workload, 3, tmp_path, False)
    lines = state.path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    coeff, rest = lines[i].split(" ", 1)
    lines[i] = "%d %s" % (int(coeff) + 1, rest)
    state.path.write_text("\n".join(lines) + "\n")
    _, outputs = run.timed_pass(workload, tc, exp, state)
    failed, attempted = run.check_pass(workload, tc, state, outputs)
    assert attempted == 13
    # verify-psi reads the bundled data and still passes; tau and casson fail.
    assert failed > 0
    assert failed <= attempted - 7


def test_item_that_raises_is_a_failed_check(tmp_path):
    workload = WORKLOADS["sweep-g3"]
    _, tc, exp, state = run.set_up(workload, 3, tmp_path, True)
    bad = ((1, 2), (((1,), (2,)),), 1)  # not null-homologous: L_k raises
    state.items = [bad] + state.items
    _, outputs = run.timed_pass(workload, tc, exp, state)
    assert outputs[0] is None
    failed, attempted = run.check_pass(workload, tc, state, outputs)
    assert (failed, attempted) == (2, 2 * len(state.items))


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("lie-audit", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_clock_leaves_probes_out_and_scales_by_them():
    clock = speed.SpeedClock()
    t0 = run.perf_counter()
    clock.start()
    while run.perf_counter() - t0 < 0.2:
        speed.probe()
    scaled = clock.stop()
    probes = clock._probes
    # one probe before the region, one after, and one every INTERVAL_S within
    assert len(probes) >= 0.2 / speed.INTERVAL_S / 2
    wall = probes[-1][0] - probes[0][1]
    in_region = sum(p[2] for p in probes[1:-1])
    assert clock.raw == pytest.approx(wall - in_region, rel=1e-3)
    low, high = min(p[2] for p in probes), max(p[2] for p in probes)
    assert clock.raw * speed.PROBE_REF_S / high <= scaled <= clock.raw * speed.PROBE_REF_S / low
