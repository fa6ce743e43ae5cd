"""Steadiness self-checks of the benchmark.

    python3 -m pytest perfbench/tests -q        (from the repository root)

They need the monolab sources under src/ and take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import gen
import run
from conftest import BENCH, ROOT


def _cheap(jobs, limit=12):
    """Non-anchor jobs of the light kinds, enough to touch every layer."""
    heavy = ("mck-g3", "mck-g4", "budget350", "budget450")
    return [j for j in jobs if not j["anchor"] and not any(h in j["id"] for h in heavy)][:limit]


@pytest.fixture
def runner():
    work = os.path.join(BENCH, "_work", "test-%d" % os.getpid())
    runner = run.Runner(ROOT, work)
    yield runner
    runner.close()
    shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_job_list_is_deterministic_and_its_mix_fixed(workload):
    assert gen.build(workload, 5) == gen.build(workload, 5)
    jobs_a, files_a = gen.build(workload, 5)
    jobs_b, files_b = gen.build(workload, 6)
    assert [j["id"] for j in jobs_a] == [j["id"] for j in jobs_b]
    assert [j["heavy"] for j in jobs_a] == [j["heavy"] for j in jobs_b]
    assert jobs_a != jobs_b
    anchors_a = [j for j in jobs_a if j["anchor"]]
    assert anchors_a == [j for j in jobs_b if j["anchor"]]
    for job in anchors_a:
        for name in job["argv"]:
            assert files_a.get(name) == files_b.get(name)


def test_tracer_wraps_every_binding():
    code = (
        "import sys, tracer, monolab.words\n"
        "t = tracer.Tracer('probe'); t.install()\n"
        "assert monolab.johnson.sp_image is monolab.words.sp_image\n"
        "assert monolab.lattices.smith_normal_form is monolab._linalg.smith_normal_form\n"
        "assert hasattr(monolab._linalg.EchelonLattice.insert, '__wrapped__')\n"
        "monolab.johnson.stale = monolab.words.sp_image.__wrapped__\n"
        "try:\n"
        "    t.assert_covered()\n"
        "except RuntimeError as exc:\n"
        "    assert 'monolab.johnson.stale' in str(exc)\n"
        "else:\n"
        "    sys.exit('a stale binding went unnoticed')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src") + os.pathsep + BENCH)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_counts_repeat_and_traced_stdout_matches(runner):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"][:-len(".calls")] for m in json.load(fh)["per_layer"]
                    if m["name"].endswith(".calls")]
    for workload in gen.WORKLOADS:
        jobs = _cheap(runner.setup(workload, 3))
        plain = runner.run_pass(jobs, traced=False)
        first = runner.run_pass(jobs, traced=True)
        second = runner.run_pass(jobs, traced=True)
        assert run.failures([plain, first, second], {}, False) == []
        for a, b in zip(first["jobs"], second["jobs"]):
            assert a["trace"]["counts"] == b["trace"]["counts"]
            assert ({k: v["calls"] for k, v in a["trace"]["stats"].items()}
                    == {k: v["calls"] for k, v in b["trace"]["stats"].items()})
        # a listed per-layer metric must read above 0 on every workload
        for layer in declared:
            assert sum(rec["trace"]["stats"][layer]["calls"] for rec in first["jobs"]) > 0, layer


def test_peak_rss_is_the_jobs_own(runner):
    jobs = runner.setup("orbits", 3)
    big = next(j for j in jobs if j["id"] == "anchor-explore-mck-g2-mod3")
    small = next(j for j in jobs if j["id"].endswith("-budget150"))
    p = runner.run_pass([big, small], traced=False)
    assert run.failures([p], {}, False) == []
    rss = [rec["rss_mb"] for rec in p["jobs"]]
    # the budget-5000 explore holds a larger seen set than the budget-150 one,
    # and both read above the launcher they were forked from
    assert rss[0] > rss[1] > runner.floor_kb / 1024.0


def test_checks_catch_wrong_output():
    jobs, _ = gen.build("orbits", 4)
    compare = next(j for j in jobs if j["check"]["kind"] == "compare" and
                   j["id"].endswith("depth3"))
    doc = {"schema": gen.SCHEMA, "type": "orbit_certificate", "verdict": "same-orbit",
           "witness": [[0, "left"]], "explored": 3, "budget": 20000}
    assert "witness replay" in checks.check(compare, json.dumps(doc).encode())
    jobs, _ = gen.build("fibrations", 4)
    conj = next(j for j in jobs if j["check"]["kind"] == "conjugate")
    letters = [{"coords": c} for c in conj["check"]["letters"]]
    doc = {"schema": gen.SCHEMA, "type": "factorization", "letters": letters}
    assert checks.check(conj, json.dumps(doc).encode()) is None
    assert "reference" in checks.check(conj, json.dumps(doc).encode(), reference="0" * 64)
    letters[0] = {"coords": [-x for x in letters[0]["coords"]]}
    assert "differ" in checks.check(conj, json.dumps(doc).encode())


def test_a_job_reads_its_contended_speed():
    # half the passes fast, half slow: the job reads slow, not a coin toss
    assert run.upper([0.14, 0.22, 0.14, 0.22, 0.14, 0.22]) == pytest.approx(0.22)
    assert run.upper([0.3]) == 0.3
    recs = [{"id": "a", "wall": w, "cpu": w, "rss_mb": 20.0} for w in (0.1, 0.2, 0.1, 0.2)]
    passes = [{"wall": 1.0, "jobs": [rec]} for rec in recs]
    passes[0]["jobs"].append({"id": "heavy", "wall": 4.0, "cpu": 3.9, "rss_mb": 30.0})
    metrics, notes = run.end_to_end(passes, 0.5)
    assert metrics["batch_s"] == pytest.approx(0.2 + 4.0)
    assert metrics["cpu_s"] == pytest.approx(0.2 + 3.9)
    assert metrics["peak_rss_mb"] == 30.0 and notes["jobs"] == 2


def test_benchmark_definition_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} <= set(run.PER_LAYER)


def _bench(args, cwd):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_smoke_mode_is_quick_and_correct():
    proc = _bench(["--workload", "orbits", "--seed", "2", "--seconds", "1", "--trace", "0",
                   "--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = _bench(["--workload", "orbits", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
