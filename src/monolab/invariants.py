"""Topological invariants of a fibration's total space from its twist data.

The only signature algorithm here is the local hyperelliptic formula: with
fiber genus h, s0 nonseparating vanishing cycles, and s_j separating cycles
splitting off genus j (1 <= j <= h//2),

    sigma = -(h+1)/(2h+1) * s0 + sum_j (4j(h-j)/(2h+1) - 1) * s_j.

It applies verbatim to hyperelliptic data.  A spec produced by partial
conjugation is not itself marked hyperelliptic, but carries a reference to
the hyperelliptic spec it was twisted from; since the cycle counts are
conjugation- and move-invariant and the signature is additive over the
gluing, the formula evaluated on the matching counts gives its signature
too.  Reports always say which route was taken.

Every report is exact: all divisions are checked for integrality and any
failure means malformed input, not roundoff.
"""

from ._linalg import Frozen, rank
from .lattices import IntLattice, orthogonal_complement, parity


class FibrationError(ValueError):
    pass


class FibrationSpec(Frozen):
    """Fiber genus, ordered positive twist letters, section data, and flags."""

    __slots__ = ("fiber_genus", "cycles", "sections", "hyperelliptic", "signature_reference")

    def __init__(self, fiber_genus, cycles, sections, hyperelliptic, signature_reference=None):
        cycles = tuple(cycles)
        for c in cycles:
            if c.power != 1:
                raise FibrationError("vanishing cycles are right-handed twists only")
            if c.genus != fiber_genus:
                raise FibrationError("cycle genus differs from fiber genus")
            if c.separating and sum(c.split) != fiber_genus:
                raise FibrationError("separating cycle split does not sum to the fiber genus")
        if signature_reference is not None:
            if not signature_reference.hyperelliptic:
                raise FibrationError("signature reference must itself be hyperelliptic")
            if _counts(signature_reference.cycles) != _counts(cycles):
                raise FibrationError("signature reference has different cycle counts")
        self._init(
            fiber_genus=int(fiber_genus),
            cycles=cycles,
            sections=tuple(int(s) for s in sections),
            hyperelliptic=bool(hyperelliptic),
            signature_reference=signature_reference,
        )

    def __repr__(self):
        return "FibrationSpec(fiber_genus=%d, cycles=%d, sections=%r)" % (
            self.fiber_genus,
            len(self.cycles),
            list(self.sections),
        )


def _counts(cycles):
    s0 = 0
    sep = {}
    for c in cycles:
        if c.separating:
            j = min(c.split)
            sep[j] = sep.get(j, 0) + 1
        else:
            s0 += 1
    return s0, tuple(sorted(sep.items()))


def euler_characteristic(spec):
    """chi of the total space: 4 - 4h plus one per vanishing cycle."""
    return 4 - 4 * spec.fiber_genus + len(spec.cycles)


def endo_signature(spec):
    """Signature by the local hyperelliptic formula.

    Requires a hyperelliptic spec, or one carrying a hyperelliptic
    reference with identical cycle counts (see the module docstring).
    """
    if spec.hyperelliptic:
        h = spec.fiber_genus
        s0, sep = _counts(spec.cycles)
    elif spec.signature_reference is not None:
        ref = spec.signature_reference
        h = ref.fiber_genus
        s0, sep = _counts(ref.cycles)
        if (s0, sep) != _counts(spec.cycles):
            raise FibrationError("signature reference counts diverged")
    else:
        raise FibrationError(
            "signature is computed only for hyperelliptic data "
            "(or data twisted from it with matching cycle counts)"
        )
    # (2h+1) sigma, in integers; sigma itself only if the division is exact
    numerator = -(h + 1) * s0
    for j, count in sep:
        if not 1 <= j <= h // 2:
            raise FibrationError("separating split type (%d, %d) is malformed" % (j, h - j))
        numerator += (4 * j * (h - j) - (2 * h + 1)) * count
    if numerator % (2 * h + 1):
        raise FibrationError("signature formula gave a non-integer; split data is malformed")
    return numerator // (2 * h + 1)


def b1_homological(spec):
    """First Betti number of the total space, valid in the presence of a
    section: 2h minus the rank of the span of the vanishing-cycle classes."""
    if not spec.sections:
        raise FibrationError("the quotient presentation of H_1 needs a section")
    classes = [c.curve.coords for c in spec.cycles if not c.curve.is_zero()]
    return 2 * spec.fiber_genus - rank(classes)


class InvariantReport(Frozen):
    """chi, sigma and the Betti numbers, with the consistency identities
    chi = 2 - 2 b1 + b2 and b2 = b2_plus + b2_minus enforced at build time."""

    __slots__ = ("chi", "sigma", "b1", "b2", "b2_plus", "b2_minus", "parity_notes", "certification")

    def __init__(self, chi, sigma, b1, b2, b2_plus, b2_minus, parity_notes=""):
        if b2 != b2_plus + b2_minus:
            raise FibrationError("b2 must equal b2_plus + b2_minus")
        if chi != 2 - 2 * b1 + b2:
            raise FibrationError("chi, b1, b2 are inconsistent")
        if sigma != b2_plus - b2_minus:
            raise FibrationError("sigma must equal b2_plus - b2_minus")
        self._init(chi=chi, sigma=sigma, b1=b1, b2=b2, b2_plus=b2_plus, b2_minus=b2_minus,
                   parity_notes=parity_notes, certification="homology-level")

    def as_dict(self):
        return {
            "chi": self.chi,
            "sigma": self.sigma,
            "b1": self.b1,
            "b2": self.b2,
            "b2_plus": self.b2_plus,
            "b2_minus": self.b2_minus,
            "parity_notes": self.parity_notes,
            "certification_level": self.certification,
        }

    def __repr__(self):
        return (
            "InvariantReport(chi=%d, sigma=%d, b1=%d, b2+=%d, b2-=%d)"
            % (self.chi, self.sigma, self.b1, self.b2_plus, self.b2_minus)
        )


def full_report(spec):
    """Assemble chi, sigma, b1 and solve for the b2 pieces, exactly."""
    chi = euler_characteristic(spec)
    sigma = endo_signature(spec)
    b1 = b1_homological(spec)
    b2 = chi - 2 + 2 * b1
    if (b2 + sigma) % 2 != 0:
        raise FibrationError("b2 and sigma have different parity; input is inconsistent")
    b2_plus = (b2 + sigma) // 2
    b2_minus = (b2 - sigma) // 2
    notes = ""
    if not spec.hyperelliptic and spec.signature_reference is not None:
        notes = (
            "sigma computed from the hyperelliptic reference with identical "
            "cycle counts (counts are conjugation-invariant)"
        )
    return InvariantReport(chi, sigma, b1, b2, b2_plus, b2_minus, notes)


def blowdown_parity_report(spec, fiber_section_incidence):
    """Parity of the intersection form after blowing down the sections.

    ``fiber_section_incidence`` has one row per reducible-fiber component
    and one column per section, giving the geometric intersection counts.
    Component rows pair up as (0, 1), (2, 3), ...: consecutive components
    belong to one reducible fiber, meet each other once, and have square -1.
    Sections must all be (-1)-spheres; their span is then unimodular and the
    parity of its orthogonal complement is the parity of the blowdown.
    """
    sections = spec.sections
    if any(s != -1 for s in sections):
        raise FibrationError("blowdown needs sections of self-intersection -1")
    incidence = [list(map(int, row)) for row in fiber_section_incidence]
    n_comp = len(incidence)
    n_sec = len(sections)
    for row in incidence:
        if len(row) != n_sec:
            raise FibrationError("incidence row length differs from the section count")
    n = n_comp + n_sec
    gram = [[0] * n for _ in range(n)]
    for i in range(n_comp):
        gram[i][i] = -1
        if i % 2 == 1:
            gram[i][i - 1] = gram[i - 1][i] = 1
    for j in range(n_sec):
        gram[n_comp + j][n_comp + j] = -1
    for i in range(n_comp):
        for j in range(n_sec):
            gram[i][n_comp + j] = gram[n_comp + j][i] = incidence[i][j]
    ambient = IntLattice(gram)
    section_classes = []
    for j in range(n_sec):
        v = [0] * n
        v[n_comp + j] = 1
        section_classes.append(v)
    _, complement = orthogonal_complement(ambient, section_classes)
    return parity(complement)
