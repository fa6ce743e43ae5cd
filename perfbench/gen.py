"""Seeded inputs and job lists for the monolab benchmark.

The inputs are built here from closed formulas and scrambled with Hurwitz
moves written in this file, without importing monolab: the program under
test receives only the generated files and argv, and never makes its own
inputs.  The same seed gives the same files and the same job list.  The
mix of jobs per (workload, family, genus) and the anchor jobs are the same
for every seed, so the cost of a job list is comparable across seeds.
"""

import json
import os
import random

SCHEMA = "monolab/1"
WORKLOADS = ("fibrations", "certify", "orbits")


# -- homology of the genus-G surface, basis a_1..a_G, b_1..b_G ----------------


def unit(n, i):
    v = [0] * n
    v[i] = 1
    return tuple(v)


def pairing(u, v):
    """Algebraic intersection <u, v> with <a_i, b_i> = +1."""
    g = len(u) // 2
    return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))


def twist(c, x, power=1):
    """The twist about c (power +1 or -1) applied to the class x."""
    k = power * pairing(x, c)
    if k == 0:
        return x
    return tuple(xi + k * ci for xi, ci in zip(x, c))


def apply_word(word, x):
    """Image of x under a word of (coords, power) letters; the rightmost
    letter acts first."""
    for c, power in reversed(word):
        x = twist(c, x, power)
    return x


# A letter of a positive factorization is (coords, split): split is None for a
# nonseparating letter and the pair of side genera for a separating one.


def mck_letters(g):
    """The length-(4g+4) identity factorization on the genus-2g surface."""
    n = 4 * g

    def a_sum(lo, hi):
        v = [0] * n
        for i in range(lo, hi + 1):
            v[i - 1] = 1
        return v

    classes = [tuple(-x for x in a_sum(1, 2 * g))]
    for k in range(1, g + 1):
        for lo, hi in ((k, 2 * g + 1 - k), (k + 1, 2 * g - k)):
            v = a_sum(lo, hi)
            v[n // 2 + k - 1] += 1
            v[n // 2 + 2 * g - k] += 1
            classes.append(tuple(v))
    half = [(c, None) for c in classes] + [((0,) * n, (g, g))]
    return half + half


def chain_block(g):
    """One block (c_1 ... c_2g)^(4g+2) of the chain relation on genus g; its
    image is the identity, and the chain factorization is three blocks."""
    b = [unit(2 * g, g + i) for i in range(g)]
    chain = [b[0]]
    for i in range(g):
        chain.append(unit(2 * g, i))
        if i + 1 < g:
            chain.append(tuple(x - y for x, y in zip(b[i + 1], b[i])))
    return [(c, None) for c in chain] * (4 * g + 2)


def hurwitz_move(letters, pos, direction):
    """(u, v) -> (T_u v, u) to the left, (u, v) -> (v, T_v^-1 u) to the right.
    A separating letter has the zero class, which every twist fixes."""
    out = list(letters)
    (cu, su), (cv, sv) = out[pos], out[pos + 1]
    if direction == "left":
        out[pos], out[pos + 1] = (twist(cu, cv), sv), (cu, su)
    else:
        out[pos], out[pos + 1] = (cv, sv), (twist(cv, cu, -1), su)
    return out


def scramble(letters, rng, moves):
    """Apply random Hurwitz moves; the product, hence the image, is kept."""
    for _ in range(moves):
        letters = hurwitz_move(letters, rng.randrange(len(letters) - 1),
                               rng.choice(("left", "right")))
    return letters


def random_class(rng, n):
    while True:
        v = tuple(rng.choice((-1, 0, 0, 1)) for _ in range(n))
        if any(v):
            return v


def random_word(rng, n, length):
    return [(random_class(rng, n), rng.choice((1, -1))) for _ in range(length)]


# -- documents ----------------------------------------------------------------


def _letter_doc(coords, power=1, split=None):
    return {"coords": list(coords), "power": power,
            "separating": split is not None,
            "split": list(split) if split is not None else None}


def factorization_doc(letters):
    return {"schema": SCHEMA, "type": "factorization", "genus": len(letters[0][0]) // 2,
            "letters": [_letter_doc(c, 1, s) for c, s in letters], "target": "identity"}


def word_doc(word, genus):
    return {"schema": SCHEMA, "type": "word", "genus": genus,
            "letters": [_letter_doc(c, p) for c, p in word]}


def gram_doc(matrix):
    return {"schema": SCHEMA, "type": "gram", "matrix": [list(r) for r in matrix]}


def random_gram(rng, diag, ops):
    """A^T D A for D = diag and a random unimodular A, with the inverse rows
    x_i = A^-1 e_i (so x_i^T G x_j = D_ij)."""
    n = len(diag)
    a = [list(unit(n, i)) for i in range(n)]
    inv = [list(unit(n, i)) for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        # A <- E A with E = I + k e_i e_j^T; A^-1 <- A^-1 E^-1
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= k * row[i]
    gram = tuple(tuple(sum(a[t][i] * diag[t] * a[t][j] for t in range(n)) for j in range(n))
                 for i in range(n))
    classes = [tuple(inv[r][c] for r in range(n)) for c in range(n)]
    return gram, classes


def blowdown_gram(incidence):
    """Reducible-fiber components (consecutive pairs meet once, square -1)
    followed by (-1)-sections, with the given component-section incidence."""
    n_comp, n_sec = len(incidence), len(incidence[0])
    n = n_comp + n_sec
    gram = [[0] * n for _ in range(n)]
    for i in range(n_comp):
        gram[i][i] = -1
        if i % 2:
            gram[i][i - 1] = gram[i - 1][i] = 1
        for j in range(n_sec):
            gram[i][n_comp + j] = gram[n_comp + j][i] = incidence[i][j]
    for j in range(n_sec):
        gram[n_comp + j][n_comp + j] = -1
    return tuple(tuple(r) for r in gram), [unit(n, n_comp + j) for j in range(n_sec)]


# -- job lists ------------------------------------------------------------------


class _Jobs:
    """Collects jobs and the input files they read."""

    def __init__(self, workload, seed):
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.jobs = []
        self.files = {}

    def file(self, name, doc):
        self.files[name] = doc
        return name

    def add(self, jid, argv, check, anchor=False, heavy=False):
        """``heavy`` marks a job slower than the tail job; the anchors are
        heavy too.  Untraced, heavy jobs run in the first passes only."""
        self.jobs.append({"id": jid, "argv": [str(a) for a in argv], "exit": 0,
                          "check": check, "anchor": anchor, "heavy": anchor or heavy})


def _fibrations(J):
    rng = J.rng
    J.add("anchor-grid-mck", ["invariants", "--family", "mck", "--grid", "2..5,0..10", "--csv"],
          {"kind": "grid", "family": "mck", "rows": 44}, anchor=True)
    J.add("anchor-chain-g4-n3", ["invariants", "--family", "chain", "--genus", 4, "--n", 3],
          {"kind": "invariants_text"}, anchor=True)
    # a twisted member costs in proportion to n, so n stays in a narrow range
    for g in (2, 3, 4):
        n = rng.randint(4, 6)
        J.add("inv-mck-g%d" % g, ["invariants", "--family", "mck", "--genus", g, "--n", n, "--json"],
              {"kind": "invariants_json", "fiber_genus": 2 * g, "cycles": 4 * g + 4})
    n = rng.randint(2, 4)
    J.add("inv-chain-g3", ["invariants", "--family", "chain", "--genus", 3, "--n", n],
          {"kind": "invariants_text"})
    n0 = rng.randint(3, 5)
    J.add("grid-mck", ["invariants", "--family", "mck", "--grid", "2..3,%d..%d" % (n0, n0 + 2),
                       "--csv"], {"kind": "grid", "family": "mck", "rows": 6}, heavy=True)
    n0 = rng.randint(2, 4)
    J.add("grid-chain", ["invariants", "--family", "chain", "--grid", "3..3,%d..%d" % (n0, n0 + 1),
                         "--csv"], {"kind": "grid", "family": "chain", "rows": 2}, heavy=True)
    for fam, g, cycles, genus in (("mck", 2, 12, 4), ("mck", 3, 16, 6), ("chain", 3, 252, 3)):
        J.add("scenario-%s-g%d" % (fam, g),
              ["scenario", fam, "--genus", g, "--n", rng.randint(4, 6)],
              {"kind": "spec", "fiber_genus": genus, "cycles": cycles})
    for g in (3, 4):
        letters = scramble(mck_letters(g), rng, 40)
        f = J.file("mck%d.json" % g, factorization_doc(letters))
        J.add("verify-mck-g%d" % g, ["verify", f], {"kind": "verify", "letters": len(letters)})
        J.add("verify-json-mck-g%d" % g, ["verify", f, "--json"],
              {"kind": "verify_json", "letters": len(letters)})
        word = random_word(rng, 4 * g, 6)
        w = J.file("conj-mck%d.json" % g, word_doc(word, 2 * g))
        J.add("conjugate-mck-g%d" % g, ["conjugate", f, "--word", w],
              {"kind": "conjugate", "letters": _conjugated(letters, word, len(letters))})
    block = chain_block(4)
    k = len(block)
    letters = block * 2 + scramble(block, rng, 40)
    f = J.file("chain4.json", factorization_doc(letters))
    J.add("verify-chain-g4", ["verify", f], {"kind": "verify", "letters": len(letters)})
    word = random_word(rng, 8, 4)
    w = J.file("conj-chain4.json", word_doc(word, 4))
    J.add("conjugate-chain-g4", ["conjugate", f, "--word", w, "--prefix", k],
          {"kind": "conjugate", "letters": _conjugated(letters, word, k)}, heavy=True)
    for variant in (1, 2):
        incidence = [(0, 0, 0, 1), (1, 1, 1, 0)] if variant == 1 else [(0, 0, 0, 0), (1, 1, 1, 1)]
        _lattice_jobs(J, "blowdown%d" % variant, *blowdown_gram(incidence))
    incidence = [tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(6)]
    _lattice_jobs(J, "blowdown-seeded", *blowdown_gram(incidence))
    for rank in (16, 24, 32):
        diag = [rng.choice((1, -1, 2, -2)) for _ in range(rank)]
        diag[0], diag[1] = 1, -1
        gram, classes = random_gram(rng, diag, 3 * rank)
        _lattice_jobs(J, "seeded%d" % rank, gram, classes[:2],
                      inertia=(sum(d > 0 for d in diag), sum(d < 0 for d in diag), 0))
    diag = [rng.choice((1, -1, 2)) for _ in range(3)]
    gram, _ = random_gram(rng, diag, 4)
    f = J.file("enum.json", gram_doc(gram))
    pattern = [[gram[0][0], gram[0][1]], [gram[1][0], gram[1][1]]]
    J.add("enumerate", ["lattice", "enumerate", f, "--pattern", json.dumps(pattern), "--bound", 3],
          {"kind": "enumerate", "gram": gram, "pattern": pattern, "bound": 3})


def _conjugated(letters, word, k):
    """Expected classes after conjugating the k first-acting letters."""
    r = len(letters)
    return [list(c) if i < r - k or s is not None else list(apply_word(word, c))
            for i, (c, s) in enumerate(letters)]


def _lattice_jobs(J, name, gram, classes, inertia=None):
    f = J.file("%s.json" % name, gram_doc(gram))
    J.add("sig-" + name, ["lattice", "sig", f, "--json"],
          {"kind": "signature", "gram": gram, "inertia": inertia})
    J.add("parity-" + name, ["lattice", "parity", f], {"kind": "parity", "gram": gram})
    c = J.file("%s-classes.json" % name, {"vectors": [list(v) for v in classes]})
    J.add("complement-" + name, ["lattice", "complement", f, "--classes", c],
          {"kind": "complement", "gram": gram, "classes": classes})


def _certify(J):
    rng = J.rng
    J.add("anchor-distinguish-chain-g5",
          ["distinguish", "--family", "chain", "--genus", 5, "--n", 1, "--m", 3],
          {"kind": "distinguish_text", "n": 1, "m": 3}, anchor=True)
    J.add("anchor-distinguish-mck-g4-deep",
          ["distinguish", "--family", "mck", "--genus", 4, "--n", 1, "--m", 3, "--deep-check"],
          {"kind": "distinguish_text", "n": 1, "m": 3}, anchor=True)
    # 14 cheap jobs, then groups of 7 like jobs around the median and around
    # the tail job (the 11th slowest), then 7 heavy ones: each order
    # statistic falls inside a group rather than between two.  The median
    # group is six chain g=4 distinguish jobs, whose cost the seed hardly
    # moves, and one johnson g=6 job, whose cost it moves by up to 2x
    distinguish = [("chain", 3, []), ("chain", 3, []), ("chain", 3, ["--json"]),
                   ("chain", 3, ["--json"]), ("chain", 3, ["--deep-check"]),      # cheap
                   ("chain", 4, []), ("chain", 4, []), ("chain", 4, []),
                   ("chain", 4, ["--json"]), ("chain", 4, ["--json"]),
                   ("chain", 4, ["--json"]),                                    # median
                   ("mck", 2, []), ("mck", 2, ["--json"]), ("mck", 2, ["--deep-check"]),
                   ("mck", 2, ["--json", "--deep-check"]),
                   ("chain", 4, ["--json", "--deep-check"]),                    # tail
                   ("mck", 3, ["--json"]), ("chain", 5, []), ("chain", 5, ["--json"]),
                   ("chain", 5, ["--deep-check"])]                              # heavy
    for i, (fam, g, flags) in enumerate(distinguish):
        # the seeds at n and m cost about n + m Johnson evaluations, so the
        # sum is fixed and the seed picks how it splits
        n = rng.randint(1, 6)
        m = 7 - n
        kind = "distinguish_json" if "--json" in flags else "distinguish_text"
        J.add("distinguish-%d-%s-g%d%s" % (i, fam, g, "".join(flags).replace("--", "-")),
              ["distinguish", "--family", fam, "--genus", g, "--n", n, "--m", m] + flags,
              {"kind": kind, "n": n, "m": m}, heavy=i >= 16)
    # at genus 8 a 3-letter conjugator can need more memory than the mck g=4
    # anchor, which would let the seed pick peak_rss_mb; 2 letters never do
    for genus, count, conjugator in ((4, 4, 3), (5, 5, 3), (6, 1, 3), (7, 2, 3), (8, 1, 2)):
        for i in range(count):
            f = J.file("torelli%d-%d.json" % (genus, i),
                       _torelli_doc(rng, genus, factors=2, conjugator=conjugator))
            J.add("johnson-g%d-%d" % (genus, i), ["johnson", f, "--json"],
                  {"kind": "johnson", "genus": genus}, heavy=genus == 8)


def _torelli_doc(rng, genus, factors, conjugator):
    n = 2 * genus
    out = []
    for _ in range(factors):
        j, i = rng.sample(range(genus), 2)
        out.append({
            "conjugator": word_doc(random_word(rng, n, conjugator), genus),
            "generator": {"cls": list(unit(n, genus + j)),
                          "side": [[list(unit(n, i)), list(unit(n, genus + i))]]},
            "exp": rng.choice((1, -1, 2)),
        })
    return {"schema": SCHEMA, "type": "torelli_word", "genus": genus, "factors": out}


def _orbits(J):
    rng = J.rng
    f = J.file("mck2-anchor.json", factorization_doc(mck_letters(2)))
    J.add("anchor-explore-mck-g2-mod3", ["hurwitz", "explore", f, "--mod", 3, "--budget", 5000],
          {"kind": "explore", "budget": 5000}, anchor=True)
    # 14 short compares, then groups of 7 like explores around the median
    # and around the tail job (the 11th slowest), then 7 heavy jobs.  An
    # explore costs what its budget says whatever the seed; a compare stops
    # where the two searches meet, which the seed moves, so it runs short
    explores = ([(2, 2, 150)] * 7 + [(2, 3, 250)] * 7
                + [(2, 5, 450)] * 3 + [(3, mod, 300) for mod in (2, 3, 5)])
    for i, (g, mod, budget) in enumerate(explores):
        letters = scramble(mck_letters(g), rng, 30)
        name = "explore-%d-mck-g%d-mod%d-budget%d" % (i, g, mod, budget)
        f = J.file(name + ".json", factorization_doc(letters))
        J.add(name, ["hurwitz", "explore", f, "--mod", mod, "--budget", budget, "--json"],
              {"kind": "explore", "budget": budget}, heavy=i >= 14)
    compares = [(2, mod, depth) for mod in (2, 3, 5) for depth in (1, 2, 3)]
    compares += [(3, 2, 1), (3, 3, 1), (3, 5, 1), (3, 2, 2), (3, 3, 2)]
    for g, mod, depth in compares:
        start = scramble(mck_letters(g), rng, 30)
        end = scramble(start, rng, depth)
        name = "compare-mck-g%d-mod%d-depth%d" % (g, mod, depth)
        f1 = J.file(name + "-a.json", factorization_doc(start))
        f2 = J.file(name + "-b.json", factorization_doc(end))
        J.add(name, ["hurwitz", "compare", f1, f2, "--mod", mod, "--budget", 20000, "--json"],
              {"kind": "compare", "mod": mod, "start": start, "end": end})


_BUILDERS = {"fibrations": _fibrations, "certify": _certify, "orbits": _orbits}


def build(workload, seed):
    """(jobs, files) for one workload and seed; files maps name -> document."""
    J = _Jobs(workload, seed)
    _BUILDERS[workload](J)
    return J.jobs, J.files


def write_inputs(files, directory):
    os.makedirs(directory, exist_ok=True)
    for name, doc in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
