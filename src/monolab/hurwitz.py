"""Exploratory orbit search over elementary transformations, mod m.

Everything here happens at the level of letter classes reduced modulo a
small integer: a decidable, bounded shadow of the real orbit problem.  The
verdict vocabulary is deliberately weak.  "same-orbit" means the two
reduced factorizations are connected by moves *at this reduced level* (a
replayable witness is attached); "distinct-in-budget" and "unknown" claim
nothing beyond the search that was actually run.

A reduced state is a tuple of letters ``(coords mod m, separating,
split)``.  Each search interns the letters it meets in a private table
(``_Letters``) and keys on packed states: one fixed-width id per letter,
equal exactly when the ``canonical_form`` bytes are, which are for
reports and tests.  The table's moves and local products are filled once
per id pair, and the table is held by the search and its report alone.
Budgets are capped at ``MAX_BUDGET``, which bounds the ids.
"""

from collections import deque

from ._linalg import Frozen, identity_matrix
from .homology import GenusMismatchError, _right_twist, twist_coords

MAX_BUDGET = 200000
_DIRECTIONS = ("left", "right")


class QuotientConfig(Frozen):
    """Modulus and genus for the reduced search."""

    __slots__ = ("modulus", "genus")

    def __init__(self, modulus, genus):
        modulus = int(modulus)
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self._init(modulus=modulus, genus=int(genus))


def reduce_factorization(fact, cfg):
    """Reduced letter list: classes as smallest nonnegative residues."""
    if fact.genus != cfg.genus:
        raise GenusMismatchError("factorization genus differs from the config")
    m = cfg.modulus
    letters = []
    for letter in fact.letters:
        coords = tuple(c % m for c in letter.curve.coords)
        letters.append((coords, letter.separating, letter.split))
    return tuple(letters)


def canonical_form(state, cfg):
    """Deterministic, injective byte serialization of a reduced letter list,
    for reports and tests; the searches key on packed states."""
    return repr((cfg.genus, cfg.modulus, state)).encode("ascii")


def _pair_product(cu, cv, g, m):
    """The written-order product T_u T_v of two letter matrices, mod m."""
    rows = [list(r) for r in identity_matrix(2 * g)]
    _right_twist(rows, cu, 1)
    _right_twist(rows, cv, 1)
    return tuple(tuple(x % m for x in r) for r in rows)


def _move_pair(u, v, direction, m):
    """The letters that replace the adjacent pair (u, v) under a move."""
    (cu, su, pu), (cv, sv, pv) = u, v
    if direction == "left":
        return (tuple(x % m for x in twist_coords(cu, 1, cv)), sv, pv), u
    if direction == "right":
        return v, (tuple(x % m for x in twist_coords(cv, -1, cu)), su, pu)
    raise ValueError("direction must be 'left' or 'right'")


def apply_move(state, move, cfg):
    """One elementary transformation on the reduced state; each application
    asserts the local two-letter product is preserved mod m."""
    pos, direction = move
    g, m = cfg.genus, cfg.modulus
    letters = list(state)
    if not 0 <= pos <= len(letters) - 2:
        raise IndexError("move position out of range")
    u, v = letters[pos], letters[pos + 1]
    new = _move_pair(u, v, direction, m)
    if _pair_product(u[0], v[0], g, m) != _pair_product(new[0][0], new[1][0], g, m):
        raise AssertionError("move broke the local product mod m")
    letters[pos], letters[pos + 1] = new
    return tuple(letters)


class _Letters:
    """One search's letter table.  Each reduced letter gets an id in order of
    first sight, and a state packs to ``width`` big-endian bytes per id.

    Move code 2 pos + d is the move at ``pos`` in direction
    ``_DIRECTIONS[d]``.  Its result for a two-letter slice is filled once,
    and the slices' local products are interned (equal ids exactly when the
    matrices are equal); ``step`` still compares the two on every
    application.  A search expands at most ``budget`` states, each by
    2(n - 1) moves that make at most two letters each, so the ids stay below
    the letters of the roots plus 2 * 2(n - 1) * budget.
    """

    def __init__(self, roots, cfg, budget):
        n = len(roots[0])
        bound = sum(len(r) for r in roots) + 2 * 2 * max(n - 1, 0) * budget
        self.width = w = max(1, ((bound - 1).bit_length() + 7) // 8)
        self.cfg = cfg
        self.letters = []
        self._ids = {}
        self._moves = ({}, {})
        self._products = {}
        self._product_ids = {}
        self._slots = [(pos * w, (pos + 2) * w, self._moves[d])
                       for pos in range(n - 1) for d in (0, 1)]

    def _id(self, letter):
        code = self._ids.get(letter)
        if code is None:
            code = self._ids[letter] = len(self.letters).to_bytes(self.width, "big")
            self.letters.append(letter)
        return code

    def pack(self, state):
        return b"".join(self._id(letter) for letter in state)

    def unpack(self, packed):
        w = self.width
        return tuple(self.letters[int.from_bytes(packed[i:i + w], "big")]
                     for i in range(0, len(packed), w))

    def _fill(self, pair, d):
        g, m = self.cfg.genus, self.cfg.modulus
        u, v = self.unpack(pair)
        nu, nv = _move_pair(u, v, _DIRECTIONS[d], m)
        new = self._moves[d][pair] = self._id(nu) + self._id(nv)
        for key, (x, y) in ((pair, (u, v)), (new, (nu, nv))):
            if key not in self._products:
                prod = _pair_product(x[0], y[0], g, m)
                self._products[key] = self._product_ids.setdefault(
                    prod, len(self._product_ids))
        return new

    def step(self, state, code):
        """The packed state after move ``code``."""
        a, b, moves = self._slots[code]
        pair = state[a:b]
        new = moves.get(pair)
        if new is None:
            new = self._fill(pair, code & 1)
        products = self._products
        if products[pair] != products[new]:
            raise AssertionError("move broke the local product mod m")
        return state[:a] + new + state[b:]


def invert_move(move):
    pos, direction = move
    return (pos, "right" if direction == "left" else "left")


class OrbitCertificate(Frozen):
    """Outcome of a reduced-orbit question, with a replayable witness when
    the verdict is positive.  No field ever claims anything at the
    mapping-class level."""

    __slots__ = ("verdict", "witness", "explored", "budget", "reason")

    def __init__(self, verdict, witness, explored, budget, reason=""):
        if verdict not in ("same-orbit", "distinct-in-budget", "unknown"):
            raise ValueError("unknown verdict %r" % verdict)
        self._init(
            verdict=verdict,
            witness=tuple(witness) if witness is not None else None,
            explored=int(explored),
            budget=int(budget),
            reason=reason,
        )

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "witness": [list(mv) for mv in self.witness] if self.witness is not None else None,
            "explored": self.explored,
            "budget": self.budget,
            "reason": self.reason,
            "certification_level": (
                "reduced mod-m representation level; 'distinct-in-budget' is "
                "not a proof of inequivalence"
            ),
        }


class ExploreReport(Frozen):
    """The packed states one search reached, with the letter table that
    decodes them."""

    __slots__ = ("states", "letters", "complete", "explored", "budget")

    def __init__(self, states, letters, complete, explored, budget):
        self._init(states=states, letters=letters, complete=bool(complete),
                   explored=int(explored), budget=int(budget))

    @property
    def forms(self):
        """The sorted canonical forms of the states reached."""
        unpack, cfg = self.letters.unpack, self.letters.cfg
        return tuple(sorted(canonical_form(unpack(s), cfg) for s in self.states))

    def as_dict(self):
        return {
            "orbit_size": len(self.states),
            "closure_reached": self.complete,
            "explored": self.explored,
            "budget": self.budget,
            "certification_level": "reduced mod-m representation level",
        }


def _check_budget(budget):
    if not 1 <= budget <= MAX_BUDGET:
        raise ValueError("budget %d is outside 1..MAX_BUDGET = %d" % (budget, MAX_BUDGET))


def orbit_explore(fact, cfg, budget):
    """Breadth-first closure of the reduced orbit, capped at ``budget``
    states; a new state that does not fit ends it with closure not reached."""
    _check_budget(budget)
    start = reduce_factorization(fact, cfg)
    letters = _Letters((start,), cfg, budget)
    step, codes = letters.step, range(2 * (len(start) - 1))
    root = letters.pack(start)
    # a dict keeps insertion order and, at a few thousand keys, takes less
    # than a third of a set's memory
    seen = {root: None}
    frontier = deque([root])
    while frontier:
        state = frontier.popleft()
        for code in codes:
            nxt = step(state, code)
            if nxt in seen:
                continue
            if len(seen) >= budget:
                return ExploreReport(seen, letters, False, len(seen), budget)
            seen[nxt] = None
            frontier.append(nxt)
    return ExploreReport(seen, letters, True, len(seen), budget)


def _invariant_mismatch(s1, s2):
    if len(s1) != len(s2):
        return "letter counts differ (a move invariant)"
    sep1 = sorted(l[2] for l in s1 if l[1])
    sep2 = sorted(l[2] for l in s2 if l[1])
    if sep1 != sep2:
        return "separating split multisets differ (a move invariant)"
    return None


def same_orbit(f1, f2, cfg, budget):
    """Bidirectional search for a move path between the reduced states.

    The positive verdict carries a witness that is replayed before being
    returned.  A negative in-budget verdict is only a statement about this
    search, except when a move invariant already separates the inputs.
    ``explored`` counts both roots and never exceeds ``budget`` (at least 2).
    """
    _check_budget(budget)
    if budget < 2:
        raise ValueError("budget %d is below 2, the two roots of the search" % budget)
    s1 = reduce_factorization(f1, cfg)
    s2 = reduce_factorization(f2, cfg)
    reason = _invariant_mismatch(s1, s2)
    if reason is not None:
        return OrbitCertificate("distinct-in-budget", None, 0, budget, reason)
    if s1 == s2:
        return OrbitCertificate("same-orbit", (), 0, budget)

    letters = _Letters((s1, s2), cfg, budget)
    step, codes = letters.step, range(2 * (len(s1) - 1))
    roots = letters.pack(s1), letters.pack(s2)
    # parent maps: packed state -> (packed parent, move code from the parent)
    parents = ({roots[0]: None}, {roots[1]: None})
    frontiers = (deque([roots[0]]), deque([roots[1]]))
    explored = 2
    meet = None
    while (frontiers[0] or frontiers[1]) and explored < budget and meet is None:
        # grow the smaller side while it has a frontier
        idx = 0 if frontiers[0] and (len(parents[0]) <= len(parents[1]) or not frontiers[1]) else 1
        mine, other = parents[idx], parents[1 - idx]
        state = frontiers[idx].popleft()
        for code in codes:
            nxt = step(state, code)
            if nxt in mine:
                continue
            mine[nxt] = (state, code)
            explored += 1
            if nxt in other:
                meet = nxt
                break
            if explored >= budget:
                break
            frontiers[idx].append(nxt)
    if meet is None:
        return OrbitCertificate("unknown", None, explored, budget,
                                "budget exhausted before the searches met")

    def moves_back(parent_map, state):
        """The moves from the root to ``state``, last move first."""
        moves = []
        while parent_map[state] is not None:
            state, code = parent_map[state]
            moves.append((code >> 1, _DIRECTIONS[code & 1]))
        return moves

    # s1 -> meet, then meet -> s2 by undoing s2's path in reverse; the
    # replay runs on letter tuples, apart from the search's table
    witness = moves_back(parents[0], meet)[::-1]
    witness += [invert_move(mv) for mv in moves_back(parents[1], meet)]
    state = s1
    for move in witness:
        state = apply_move(state, move, cfg)
    if state != s2:
        raise AssertionError("witness replay did not reach the target state")
    return OrbitCertificate("same-orbit", witness, explored, budget)
