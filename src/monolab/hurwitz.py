"""Exploratory orbit search over elementary transformations, mod m.

Everything here happens at the level of letter classes reduced modulo a
small integer: a decidable, bounded shadow of the real orbit problem.  The
verdict vocabulary is deliberately weak.  "same-orbit" means the two
reduced factorizations are connected by moves *at this reduced level* (a
replayable witness is attached); "distinct-in-budget" and "unknown" claim
nothing beyond the search that was actually run.

A reduced state is a tuple of ints, bools and tuples, equal exactly when
its ``canonical_form`` bytes are, so the searches key on the state itself;
the bytes are for reports and tests.  Budgets are capped at ``MAX_BUDGET``
and the pair-product cache at ``MAX_PAIR_CACHE`` entries.
"""

from collections import deque

from ._linalg import Frozen, identity_matrix
from .homology import GenusMismatchError, _right_twist, pairing

MAX_BUDGET = 200000
MAX_PAIR_CACHE = 65536


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
    for reports and tests; the searches key on the state tuple itself."""
    return repr((cfg.genus, cfg.modulus, state)).encode("ascii")


def _twist_mod(c, power, x, m):
    k = power * pairing(x, c) % m
    if k == 0:
        return x
    return tuple((xi + k * ci) % m for xi, ci in zip(x, c))


_pair_cache = {}


def _pair_product(cu, cv, g, m):
    key = (cu, cv, g, m)
    prod = _pair_cache.get(key)
    if prod is None:
        rows = [list(r) for r in identity_matrix(2 * g)]
        _right_twist(rows, cu, 1)
        _right_twist(rows, cv, 1)
        prod = tuple(tuple(x % m for x in r) for r in rows)
        if len(_pair_cache) >= MAX_PAIR_CACHE:
            _pair_cache.clear()
        _pair_cache[key] = prod
    return prod


def apply_move(state, move, cfg):
    """One elementary transformation on the reduced state; each application
    asserts the local two-letter product is preserved mod m."""
    pos, direction = move
    g, m = cfg.genus, cfg.modulus
    letters = list(state)
    if not 0 <= pos <= len(letters) - 2:
        raise IndexError("move position out of range")
    (cu, su, pu), (cv, sv, pv) = letters[pos], letters[pos + 1]
    if direction == "left":
        new = ((_twist_mod(cu, 1, cv, m), sv, pv), (cu, su, pu))
    elif direction == "right":
        new = ((cv, sv, pv), (_twist_mod(cv, -1, cu, m), su, pu))
    else:
        raise ValueError("direction must be 'left' or 'right'")
    if _pair_product(cu, cv, g, m) != _pair_product(new[0][0], new[1][0], g, m):
        raise AssertionError("move broke the local product mod m")
    letters[pos], letters[pos + 1] = new
    return tuple(letters)


def invert_move(move):
    pos, direction = move
    return (pos, "right" if direction == "left" else "left")


def _moves(state):
    for pos in range(len(state) - 1):
        yield (pos, "left")
        yield (pos, "right")


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
    __slots__ = ("states", "cfg", "complete", "explored", "budget")

    def __init__(self, states, cfg, complete, explored, budget):
        self._init(states=frozenset(states), cfg=cfg, complete=bool(complete),
                   explored=int(explored), budget=int(budget))

    @property
    def forms(self):
        """The sorted canonical forms of the states reached."""
        return tuple(sorted(canonical_form(s, self.cfg) for s in self.states))

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
    seen = {start}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        for move in _moves(state):
            nxt = apply_move(state, move, cfg)
            if nxt in seen:
                continue
            if len(seen) >= budget:
                return ExploreReport(seen, cfg, False, len(seen), budget)
            seen.add(nxt)
            frontier.append(nxt)
    return ExploreReport(seen, cfg, True, len(seen), budget)


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

    # parent maps: state -> (parent state, move from parent)
    parents = ({s1: None}, {s2: None})
    frontiers = (deque([s1]), deque([s2]))
    explored = 2
    meet = None
    while (frontiers[0] or frontiers[1]) and explored < budget and meet is None:
        # grow the smaller side while it has a frontier
        idx = 0 if frontiers[0] and (len(parents[0]) <= len(parents[1]) or not frontiers[1]) else 1
        mine, other = parents[idx], parents[1 - idx]
        state = frontiers[idx].popleft()
        for move in _moves(state):
            nxt = apply_move(state, move, cfg)
            if nxt in mine:
                continue
            mine[nxt] = (state, move)
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
            state, move = parent_map[state]
            moves.append(move)
        return moves

    # s1 -> meet, then meet -> s2 by undoing s2's path in reverse
    witness = moves_back(parents[0], meet)[::-1]
    witness += [invert_move(mv) for mv in moves_back(parents[1], meet)]
    state = s1
    for move in witness:
        state = apply_move(state, move, cfg)
    if state != s2:
        raise AssertionError("witness replay did not reach the target state")
    return OrbitCertificate("same-orbit", witness, explored, budget)
