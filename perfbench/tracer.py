"""Outside-in tracer for one monolab invocation.

    python perfbench/tracer.py OUT.json JOB_ID ARGV...

Imports monolab, wraps every function listed in TARGETS wherever it is
bound (the module attribute, the names other monolab modules imported with
``from ... import``, aliases, class methods), checks that no unwrapped
binding is left, then calls ``monolab.cli.run(ARGV)`` and exits with its
code.  Stdout belongs to the program alone.  At exit OUT.json receives, per
metric name, the call count and self time, the extra counters, and the
spans of the coarse calls.

Coarse calls get a span (name, start, end, parent span, job id).  Hot calls
only add to their counters; their time is charged to the enclosing frame
like any child's, so a span's self time is its duration minus the time its
children, coarse or hot, cover.
"""

import json
import sys
import time

# (module, attribute path, metric name, coarse?)
TARGETS = [
    ("cli", "run", "cli.run", True),
    ("schemas", "dumps", "schemas.dumps", True),
    ("schemas", "decode_homology_class", "schemas.decode", True),
    ("schemas", "decode_sp_map", "schemas.decode", True),
    ("schemas", "decode_word", "schemas.decode", True),
    ("schemas", "decode_factorization", "schemas.decode", True),
    ("schemas", "decode_torelli_word", "schemas.decode", True),
    ("schemas", "decode_fibration_spec", "schemas.decode", True),
    ("schemas", "decode_gram", "schemas.decode", True),
    ("words", "sp_image", "words.sp_image", True),
    ("words", "partial_conjugation", "words.partial_conjugation", True),
    ("words", "PositiveFactorization.__init__", "words.PositiveFactorization", False),
    ("homology", "twist_matrix", "homology.twist_matrix", False),
    ("homology", "SpMap.__matmul__", "homology.SpMap.__matmul__", False),
    ("_linalg", "mat_mul", "linalg.mat_mul", False),
    ("_linalg", "rank", "linalg.rank", False),
    ("_linalg", "smith_normal_form", "linalg.smith_normal_form", True),
    ("_linalg", "EchelonLattice.insert", "linalg.EchelonLattice.insert", False),
    ("_linalg", "EchelonLattice.reduce", "linalg.EchelonLattice.reduce", False),
    ("scenarios", "CurveTable.__init__", "scenarios.CurveTable", True),
    ("scenarios", "family", "scenarios.family", True),
    ("invariants", "full_report", "invariants.full_report", True),
    ("lattices", "signature", "lattices.signature", True),
    ("lattices", "orthogonal_complement", "lattices.orthogonal_complement", True),
    ("lattices", "enumerate_pattern", "lattices.enumerate_pattern", True),
    ("lattices", "SublatticeBasis.member", "lattices.SublatticeBasis.member", False),
    ("johnson", "tau_word", "johnson.tau_word", True),
    ("johnson", "commutator_tau", "johnson.commutator_tau", True),
    ("johnson", "sp_action_quotient", "johnson.sp_action_quotient", False),
    ("johnson", "wedge3", "johnson.wedge3", False),
    ("johnson", "reduce_to_quotient", "johnson.reduce_to_quotient", False),
    ("johnson", "saturate", "johnson.saturate", True),
    ("johnson", "distinguish", "johnson.distinguish", True),
    ("johnson", "check_certificate", "johnson.check_certificate", True),
    ("hurwitz", "apply_move", "hurwitz.apply_move", False),
    ("hurwitz", "canonical_form", "hurwitz.canonical_form", False),
    ("hurwitz", "orbit_explore", "hurwitz.orbit_explore", True),
    ("hurwitz", "same_orbit", "hurwitz.same_orbit", True),
]


def _counters(name):
    """Extra counts for a metric, as (counter name, f(args, result) -> int),
    and the span argument recorded for it, if any."""
    if name == "words.sp_image":
        return ("words.sp_image.letters", lambda a, r: len(a[0].letters)), True
    if name == "schemas.dumps":
        return ("schemas.bytes_out", lambda a, r: len(r.encode("utf-8")) + 1), False
    if name == "johnson.saturate":
        return ("johnson.saturate.rank", lambda a, r: len(r.rows)), False
    if name == "linalg.EchelonLattice.insert":
        return ("linalg.EchelonLattice.insert.grew", lambda a, r: int(bool(r))), False
    if name in ("hurwitz.orbit_explore", "hurwitz.same_orbit"):
        return (name + ".states", lambda a, r: r.explored), False
    return None, False


class Tracer:
    def __init__(self, job_id):
        self.job_id = job_id
        self.t0 = time.perf_counter()
        self.frames = [[0.0, None]]     # per open call: [child time, span index]
        self.spans = []                 # [name, start, end, parent, job, arg]
        self.stats = {}                 # metric -> [calls, self seconds]
        self.counts = {}
        self.originals = {}             # id(original) -> metric name

    def wrap(self, fn, name, coarse):
        stats = self.stats.setdefault(name, [0, 0.0])
        counter, span_arg = _counters(name)
        if counter:
            self.counts.setdefault(counter[0], 0)
        frames, spans, counts, clock = self.frames, self.spans, self.counts, time.perf_counter
        job, t0 = self.job_id, self.t0

        def traced(*args, **kwargs):
            frame = [0.0, None]
            if coarse:
                parent = next((f[1] for f in reversed(frames) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent, job,
                              len(args[0].letters) if span_arg else None])
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                frames[-1][0] += duration
                stats[0] += 1
                stats[1] += duration - frame[0]
                if coarse:
                    spans[frame[1]][1:3] = [start - t0, end - t0]
            if counter:
                counts[counter[0]] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import monolab.cli  # noqa: F401  (imports every module the CLI uses)
        modules = _monolab_modules()
        for mod_name, path, name, coarse in TARGETS:
            mod = modules["monolab." + mod_name]
            owner, _, attr = path.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            orig = vars(holder)[attr]
            if id(orig) in self.originals:
                raise RuntimeError("target listed twice: %s.%s" % (mod_name, path))
            self.originals[id(orig)] = name
            wrapped = self.wrap(orig, name, coarse)
            if owner:
                setattr(holder, attr, wrapped)
            else:
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, key, wrapped)
        self.assert_covered()

    def assert_covered(self):
        """No module or class namespace in monolab still holds an original."""
        left = []
        for mod in _monolab_modules().values():
            spaces = [(mod.__name__, vars(mod))]
            spaces += [(mod.__name__ + "." + k, vars(v)) for k, v in vars(mod).items()
                       if isinstance(v, type) and v.__module__ == mod.__name__]
            for where, space in spaces:
                for key, value in space.items():
                    if id(value) in self.originals:
                        left.append("%s.%s" % (where, key))
        if left:
            raise RuntimeError("unwrapped bindings remain: " + ", ".join(sorted(left)))

    def document(self):
        return {"job": self.job_id,
                "stats": {k: {"calls": c, "self_s": s} for k, (c, s) in self.stats.items()},
                "counts": self.counts,
                "spans": self.spans}


def _monolab_modules():
    return {k: v for k, v in sys.modules.items()
            if v is not None and (k == "monolab" or k.startswith("monolab."))}


def main(argv):
    out_path, job_id, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(job_id)
    tracer.install()
    import monolab.cli
    try:
        code = monolab.cli.run(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.document(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
