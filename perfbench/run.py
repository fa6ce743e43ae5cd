"""End-to-end and per-layer benchmark of the monolab command line.

    python3 perfbench/run.py --workload fibrations|certify|orbits --seed N \
        --seconds S --trace 0|1 [--smoke] [--record]

Run it from the root of a monolab checkout; it reads the package from
``src`` and writes only under ``perfbench/_work`` (scratch, removed at exit)
and ``perfbench/results`` (one JSON document per run).

The load is a closed loop with one client: the seeded job list of the
workload runs one job at a time, each job a fresh ``python -m monolab``
process, and passes over the list repeat while another pass fits in
``--seconds``; without tracing, the anchor and other heavy jobs run in the
first two passes only.
Every job's exit code, stderr and stdout are checked (see
checks.py).  With ``--trace 0`` the last line reports the end-to-end
metrics; with ``--trace 1`` one untraced pass is followed by traced passes
(tracer.py) and the last line reports the per-layer metrics.

``--smoke`` runs the anchor jobs only, in a single pass.  ``--record``
rewrites the stdout sha256 references of the default seed.
"""

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
SETUP_REPS = 9          # set-ups per run; setup_s is their median
STARTUP_REPS = 5        # `monolab --help` runs per traced run; cli.startup_s is their median
TAIL_BEYOND = 10        # job_tail_s is the highest percentile with this many jobs beyond it
HEAVY_PASSES = 2        # untraced passes that run the heavy jobs too
JOB_TIMEOUT = 100       # seconds; a job still running then is killed, and fails

END_TO_END = (("batch_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Per-layer metrics the traced run reports, with their units.  The benchmark
# definition lists only those that read above 0 on every workload; the rest
# read 0 wherever their layer is idle, and are printed and kept in the
# results document.
PER_LAYER = [
    ("cli.startup_s", "s"), ("cli.outside_run_s", "s"),
    ("schemas.dumps.self_s", "s"), ("schemas.decode.self_s", "s"), ("schemas.bytes_out", "bytes"),
    ("words.sp_image.calls", "count"), ("words.sp_image.letters", "count"),
    ("words.sp_image.self_s", "s"), ("words.PositiveFactorization.calls", "count"),
    ("words.partial_conjugation.self_s", "s"),
    ("homology.twist_matrix.calls", "count"), ("homology.twist_matrix.self_s", "s"),
    ("homology.SpMap.__matmul__.calls", "count"), ("homology.SpMap.__matmul__.self_s", "s"),
    ("linalg.mat_mul.calls", "count"), ("linalg.mat_mul.self_s", "s"),
    ("scenarios.CurveTable.calls", "count"), ("scenarios.CurveTable.self_s", "s"),
    ("scenarios.family.self_s", "s"),
    ("invariants.full_report.calls", "count"), ("invariants.full_report.self_s", "s"),
    ("linalg.rank.calls", "count"), ("linalg.rank.self_s", "s"),
    ("linalg.smith_normal_form.calls", "count"), ("linalg.smith_normal_form.self_s", "s"),
    ("lattices.signature.self_s", "s"), ("lattices.orthogonal_complement.self_s", "s"),
    ("lattices.enumerate_pattern.self_s", "s"),
    ("johnson.tau_word.calls", "count"), ("johnson.tau_word.self_s", "s"),
    ("johnson.commutator_tau.calls", "count"), ("johnson.commutator_tau.self_s", "s"),
    ("johnson.sp_action_quotient.calls", "count"), ("johnson.sp_action_quotient.self_s", "s"),
    ("johnson.wedge3.calls", "count"), ("johnson.reduce_to_quotient.calls", "count"),
    ("johnson.saturate.calls", "count"), ("johnson.saturate.self_s", "s"),
    ("johnson.saturate.rank", "count"),
    ("linalg.EchelonLattice.insert.calls", "count"), ("linalg.EchelonLattice.insert.self_s", "s"),
    ("linalg.EchelonLattice.insert.grew_ratio", "ratio"), ("johnson.distinguish.self_s", "s"),
    ("johnson.check_certificate.self_s", "s"),
    ("lattices.SublatticeBasis.member.calls", "count"),
    ("lattices.SublatticeBasis.member.self_s", "s"),
    ("linalg.EchelonLattice.reduce.calls", "count"),
    ("hurwitz.apply_move.calls", "count"), ("hurwitz.apply_move.self_s", "s"),
    ("hurwitz.canonical_form.calls", "count"), ("hurwitz.canonical_form.self_s", "s"),
    ("hurwitz.orbit_explore.self_s", "s"), ("hurwitz.orbit_explore.states", "count"),
    ("hurwitz.same_orbit.self_s", "s"), ("hurwitz.same_orbit.states", "count"),
    ("hurwitz.states_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
]

# The ROADMAP baselines, read from the spans of the anchor jobs:
# (name, job id, span name, letters of the sp_image word or None).
BASELINES = {
    "fibrations": [("sp_image_chain_g4_n3_word", "anchor-chain-g4-n3", "words.sp_image", 432),
                   ("invariant_grid_mck_g2-5_n0-10", "anchor-grid-mck", "cli.run", None)],
    "certify": [("distinguish_1_3_chain_g5", "anchor-distinguish-chain-g5",
                 "johnson.distinguish", None),
                ("distinguish_1_3_mck_g4", "anchor-distinguish-mck-g4-deep",
                 "johnson.distinguish", None),
                ("deep_replay_1_3_mck_g4", "anchor-distinguish-mck-g4-deep",
                 "johnson.check_certificate", None)],
    "orbits": [("orbit_explore_mck_g2_mod3_budget5000", "anchor-explore-mck-g2-mod3",
                "hurwitz.orbit_explore", None)],
}


def median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs jobs as fresh processes, one at a time, from one directory.  The
    jobs are forked by launcher.py, not by this process, so that each job's
    max RSS is its own and not the harness's (see there)."""

    def __init__(self, root, work):
        self.src = os.path.join(root, "src")
        self.work = work
        self.inputs = os.path.join(work, "inputs")
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=self.src, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        self.env = env
        self.passes = 0
        self.floor_kb = 0       # the launcher's peak RSS, a floor under every job's
        self.launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def spawn(self, argv, out_path, err_path):
        """Wall seconds, CPU seconds, max RSS in MB and exit code of one
        process."""
        request = {"argv": argv, "cwd": self.inputs, "env": self.env, "out": out_path,
                   "err": err_path, "timeout": JOB_TIMEOUT}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        r = json.loads(reply)
        self.floor_kb = max(self.floor_kb, r["floor_kb"])
        return r["wall"], r["cpu"], r["rss_kb"] / 1024.0, r["code"]

    def setup(self, workload, seed):
        """Generate the inputs and compile the package; returns the jobs."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        jobs, files = gen.build(workload, seed)
        gen.write_inputs(files, self.inputs)
        if not compileall.compile_dir(os.path.join(self.src, "monolab"), quiet=1, force=True):
            raise SystemExit("error: compiling the monolab package failed")
        self.spawn([sys.executable, "-m", "monolab", "--help"], os.devnull, os.devnull)
        return jobs

    def run_pass(self, jobs, traced):
        """One pass over the job list; returns its wall time and the job
        records, in job-list order.  The jobs run in an order shuffled
        afresh for each pass, so that like jobs do not all land in the same
        slow or fast phase of a shared machine."""
        self.passes += 1
        out_dir = os.path.join(self.work, "pass%d" % self.passes)
        os.makedirs(out_dir)
        order = list(range(len(jobs)))
        random.Random("pass%d" % self.passes).shuffle(order)
        records = [None] * len(jobs)
        start = time.perf_counter()
        for i in order:
            job = jobs[i]
            base = os.path.join(out_dir, job["id"])
            if traced:
                argv = [sys.executable, os.path.join(HERE, "tracer.py"), base + ".trace", job["id"]]
            else:
                argv = [sys.executable, "-m", "monolab"]
            wall, cpu, rss_mb, code = self.spawn(argv + job["argv"], base + ".out",
                                                 base + ".err")
            records[i] = {"id": job["id"], "job": job, "wall": wall, "code": code, "cpu": cpu,
                          "rss_mb": rss_mb, "base": base}
        wall = time.perf_counter() - start
        for rec in records:
            with open(rec["base"] + ".out", "rb") as fh:
                rec["out"] = fh.read()
            with open(rec["base"] + ".err", "rb") as fh:
                rec["err"] = fh.read()
            if traced and os.path.exists(rec["base"] + ".trace"):
                with open(rec["base"] + ".trace", encoding="utf-8") as fh:
                    rec["trace"] = json.load(fh)
        return {"wall": wall, "traced": traced, "jobs": records}


def load_references():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def failures(passes, reference, complete):
    """(job id, pass index, reason) for every failed job run.  ``complete``
    requires a reference for every job."""
    found = []
    first_out = {}
    for idx, p in enumerate(passes):
        for rec in p["jobs"]:
            job = rec["job"]
            ref = reference.get(job["id"])
            if rec["code"] != job["exit"]:
                reason = "exit code %d, expected %d" % (rec["code"], job["exit"])
            elif b"Traceback (most recent call last)" in rec["err"]:
                reason = "traceback on stderr"
            elif ref is None and complete:
                reason = "no recorded reference for the default seed"
            elif p["traced"] and "trace" not in rec:
                reason = "tracer wrote no trace"
            else:
                reason = checks.check(job, rec["out"], ref)
            if reason is None and first_out.setdefault(job["id"], rec["out"]) != rec["out"]:
                reason = "stdout differs between passes" + (" (traced)" if p["traced"] else "")
            if reason is not None:
                found.append((job["id"], idx, reason))
    return found


def upper(values):
    """The 90th percentile (inclusive) of a job's times over passes."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(passes, setup_s):
    """Each job is taken at the 90th percentile of its times over the passes
    that ran it.  A short job runs at one of two speeds, about 1.5x apart,
    as the shared machine is or is not contended, and the share of each
    varies from run to run: a job's median reads whichever speed held most
    of its passes, while its upper percentile reads the contended speed,
    which nearly every run visits.  The list's figures are then sums and
    order statistics over jobs."""
    samples = {}
    for p in passes:
        for rec in p["jobs"]:
            samples.setdefault(rec["id"], []).append(rec)
    n = len(samples)
    wall = [upper([r["wall"] for r in recs]) for recs in samples.values()]
    cpu = [upper([r["cpu"] for r in recs]) for recs in samples.values()]
    tail = max(0, n - TAIL_BEYOND - 1)     # index of the tail job among the sorted jobs
    metrics = {
        "batch_s": sum(wall),
        "job_p50_s": median(wall),
        "job_tail_s": sorted(wall)[tail],
        "cpu_s": sum(cpu),
        "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p["jobs"]),
        "setup_s": setup_s,
    }
    notes = {"job_tail_percentile": 100.0 * (tail + 1) / n, "jobs": n,
             "passes": len(passes), "pass_wall_s": [p["wall"] for p in passes]}
    return metrics, notes


def _span_time(trace, name):
    return sum(s[2] - s[1] for s in trace["spans"] if s[0] == name)


def per_layer(untraced, traced, startup):
    """Per-layer metrics from the traced passes: times are medians over
    passes of per-pass totals, counts come from the first traced pass."""
    def pass_totals(p):
        stats, counts = {}, {}
        for rec in p["jobs"]:
            for name, s in rec["trace"]["stats"].items():
                tot = stats.setdefault(name, [0, 0.0])
                tot[0] += s["calls"]
                tot[1] += s["self_s"]
            for name, c in rec["trace"]["counts"].items():
                counts[name] = counts.get(name, 0) + c
        hurwitz = sum(_span_time(rec["trace"], name) for rec in p["jobs"]
                      for name in ("hurwitz.orbit_explore", "hurwitz.same_orbit"))
        outside = [rec["wall"] - _span_time(rec["trace"], "cli.run") for rec in p["jobs"]]
        return stats, counts, hurwitz, median(outside)

    totals = [pass_totals(p) for p in traced]
    stats, counts = totals[0][0], totals[0][1]
    repeat = all(t[1] == counts and {k: v[0] for k, v in t[0].items()}
                 == {k: v[0] for k, v in stats.items()} for t in totals)
    states = counts["hurwitz.orbit_explore.states"] + counts["hurwitz.same_orbit.states"]
    hurwitz_s = median([t[2] for t in totals])
    traced_batch = median([p["wall"] for p in traced])
    inserts = stats["linalg.EchelonLattice.insert"][0]
    out = {}
    for name, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = stats[layer][0]
        elif kind == "self_s":
            out[name] = median([t[0][layer][1] for t in totals])
        elif name in counts:
            out[name] = counts[name]
    out.update({
        "cli.startup_s": startup,
        "cli.outside_run_s": median([t[3] for t in totals]),
        "linalg.EchelonLattice.insert.grew_ratio":
            counts["linalg.EchelonLattice.insert.grew"] / inserts if inserts else 0.0,
        "hurwitz.states_per_s": states / hurwitz_s if hurwitz_s else 0.0,
        "trace.overhead_frac": (traced_batch - untraced["wall"]) / untraced["wall"],
    })
    missing = [name for name, _ in PER_LAYER if name not in out]
    if missing:
        raise RuntimeError("per-layer metrics not computed: %s" % ", ".join(missing))
    notes = {"counts_repeat_across_traced_passes": repeat,
             "overhead_base_untraced_batch_s": untraced["wall"],
             "traced_batch_s": traced_batch}
    return out, notes


def baselines(workload, untraced, traced):
    """The ROADMAP baselines: span seconds in the first traced pass (which
    include the tracer's cost on hot calls inside them) and the untraced
    wall seconds of the whole anchor job."""
    out = {}
    spans_by_job = {rec["id"]: rec["trace"]["spans"] for rec in traced["jobs"]}
    walls = {rec["id"]: rec["wall"] for rec in untraced["jobs"]}
    for name, job_id, span, letters in BASELINES[workload]:
        durations = [s[2] - s[1] for s in spans_by_job.get(job_id, ())
                     if s[0] == span and (letters is None or s[5] == letters)]
        if durations:
            out[name] = {"span": span, "span_s": median(durations), "spans": len(durations),
                         "job_wall_untraced_s": walls[job_id]}
    return out


def record_reference(workload, jobs, p):
    refs = load_references()
    refs[workload] = {job["id"]: checks.sha256(rec["out"]) for job, rec in zip(jobs, p["jobs"])}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="anchor jobs only, one pass")
    ap.add_argument("--record", action="store_true",
                    help="record stdout references for the default seed")
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "monolab", "cli.py")):
        print("error: run from the root of a monolab checkout (src/monolab not found)",
              file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        print("error: --record is for the default seed %d" % DEFAULT_SEED, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.pycache_prefix = None
    work = os.path.join(HERE, "_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    runner = Runner(root, work)
    try:
        return measure(args, runner, spec)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)


def measure(args, runner, spec):
    setups = []
    for _ in range(1 if args.smoke else SETUP_REPS):
        start = time.perf_counter()
        jobs = runner.setup(args.workload, args.seed)
        setups.append(time.perf_counter() - start)
    setup_s = median(setups)
    if args.smoke:
        jobs = [j for j in jobs if j["anchor"]]

    # Without tracing, the anchors and the other heavy jobs, all slower than
    # the tail job, run in the first HEAVY_PASSES passes only: the time they
    # leave gives the short jobs, which set job_p50_s and job_tail_s, more
    # passes.
    repeated = [j for j in jobs if not j["heavy"]]
    passes = []
    start = time.perf_counter()

    def fits(next_jobs):
        done = [p for p in passes if p["traced"] == bool(args.trace)]
        if not done:
            return True
        like = [p["wall"] for p in done if len(p["jobs"]) == len(next_jobs)]
        if not like:    # the last pass's wall, scaled down to the jobs to run
            ids = {j["id"] for j in next_jobs}
            last = done[-1]
            share = (sum(r["wall"] for r in last["jobs"] if r["id"] in ids)
                     / sum(r["wall"] for r in last["jobs"]))
            like = [last["wall"] * share]
        return time.perf_counter() - start + median(like) <= args.seconds

    def next_pass():
        """The jobs of the next pass, or None when no pass fits; a pass of
        the short jobs where one with the heavy jobs does not fit."""
        if args.smoke:
            return None
        if args.trace:
            options = [jobs]
        elif len(passes) < HEAVY_PASSES:
            options = [jobs, repeated]
        else:
            options = [repeated]
        return next((o for o in options if fits(o)), None)

    passes.append(runner.run_pass(jobs, traced=False))
    while (todo := next_pass()) is not None:
        passes.append(runner.run_pass(todo, traced=bool(args.trace)))

    reference = {} if args.record else load_references().get(args.workload, {})
    if args.seed != DEFAULT_SEED:
        reference = {j["id"]: reference[j["id"]] for j in jobs
                     if j["anchor"] and j["id"] in reference}
    failed = failures(passes, reference, args.seed == DEFAULT_SEED and not args.record)
    attempted = sum(len(p["jobs"]) for p in passes)
    failed_runs = len(failed)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "failures": failed,
              "jobs": [{"id": r["id"], "wall_s": r["wall"], "cpu_s": r["cpu"],
                        "rss_mb": r["rss_mb"], "traced": p["traced"]}
                       for p in passes for r in p["jobs"]]}
    if args.trace:
        untraced, traced = passes[0], passes[1:]
        startup = []
        for i in range(STARTUP_REPS):
            wall, _, _, _ = runner.spawn([sys.executable, "-m", "monolab", "--help"],
                                      os.devnull, os.devnull)
            startup.append(wall)
        units = dict(PER_LAYER)
        if all("trace" in r for p in traced for r in p["jobs"]):
            metrics, notes = per_layer(untraced, traced, median(startup))
            result["baselines"] = baselines(args.workload, untraced, traced[0])
        else:       # the failures say why
            metrics, notes = dict.fromkeys(units, 0.0), {}
    else:
        metrics, notes = end_to_end(passes, setup_s)
        units = dict(END_TO_END)
    notes["failed_frac"] = failed_runs / attempted
    notes["launcher_floor_mb"] = runner.floor_kb / 1024.0
    result.update(metrics=metrics, notes=notes)
    if args.record and not failed:
        record_reference(args.workload, jobs, passes[0])

    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                         "-smoke" if args.smoke else "")
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for job_id, idx, reason in failed:
        print("FAILED %s (pass %d): %s" % (job_id, idx + 1, reason))
    for key, value in sorted(notes.items()):
        print("note %s = %s" % (key, value))
    for key, value in sorted(result.get("baselines", {}).items()):
        print("baseline %s = %.4f s (%s span), untraced job %.4f s"
              % (key, value["span_s"], value["span"], value["job_wall_untraced_s"]))
    for key, value in metrics.items():
        print("%s = %s %s" % (key, value, units[key]))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": failed_runs,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
