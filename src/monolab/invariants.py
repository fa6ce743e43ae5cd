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
            if signature_reference.fiber_genus != fiber_genus:
                raise FibrationError("signature reference has a different fiber genus")
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
    reference, which the constructor checks has the same fiber genus and
    cycle counts: the formula reads only those (see the module docstring).
    """
    if not spec.hyperelliptic and spec.signature_reference is None:
        raise FibrationError(
            "signature is computed only for hyperelliptic data "
            "(or data twisted from it with matching cycle counts)"
        )
    h = spec.fiber_genus
    s0, sep = _counts(spec.cycles)
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


def full_report(spec):
    """The ``invariant_report`` fields: chi, sigma and b1, then b2 and its
    pieces solved for exactly (so chi = 2 - 2 b1 + b2 and sigma = b2_plus -
    b2_minus hold by construction); only the parity of b2 + sigma can fail."""
    chi = euler_characteristic(spec)
    sigma = endo_signature(spec)
    b1 = b1_homological(spec)
    b2 = chi - 2 + 2 * b1
    if (b2 + sigma) % 2 != 0:
        raise FibrationError("b2 and sigma have different parity; input is inconsistent")
    notes = ""
    if not spec.hyperelliptic and spec.signature_reference is not None:
        notes = (
            "sigma computed from the hyperelliptic reference with identical "
            "cycle counts (counts are conjugation-invariant)"
        )
    return {"chi": chi, "sigma": sigma, "b1": b1, "b2": b2,
            "b2_plus": (b2 + sigma) // 2, "b2_minus": (b2 - sigma) // 2,
            "parity_notes": notes, "certification_level": "homology-level"}

