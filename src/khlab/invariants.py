"""Decategorified outputs and the positive-braid theorem verifier.

The graded Euler characteristic of the complex and the alternating state
sum over resolutions must agree exactly (both give the unnormalized Jones
polynomial of the link); this equality is the main external check on the
merge/split/sign conventions.  The verifier mechanically tests the
structural claims about closures of positive braids: vanishing below
degree zero, the rank-2 structure of H^0 for knots, the vanishing of H^1,
the kernel constraint t_(i,alpha) = t_(i,beta) on ker d^1, and the
consistency of the one-crossing-per-generator reduced diagram.

The kernel constraint is decided on d^0 and the table wherever the free
H^1 vanishes, as the source theorem says it does on positive braid knots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb

from .braid import BraidWord, braid_closure, crossing_ids, reduced_diagram
from .cube import DEFAULT_CAP, EX, ONE, ChainComplex, build_complex
from .diagram import Diagram, Resolver
from .errors import CapExceededError, NonPositiveWordError, TruncatedComplexError
from .homology import BigradedGroup, GradedMatrix, homology_table, smith_normal_form


class LaurentPolynomial:
    """Laurent polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    def mirror(self) -> "LaurentPolynomial":
        return LaurentPolynomial({-e: c for e, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mono = "1" if e == 0 else ("q" if e == 1 else f"q^{e}")
            if e != 0 and abs(c) == 1:
                term = mono if c > 0 else f"-{mono}"
            elif e == 0:
                term = str(c)
            else:
                term = f"{c}*{mono}"
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def graded_euler_characteristic(c: ChainComplex) -> LaurentPolynomial:
    """Sum of (-1)^(i - n_minus) q^j over the normalized bigraded basis.

    Raises TruncatedComplexError on a complex built with top < m, whose
    missing columns would make the sum a plausible but wrong polynomial.
    """
    if c.top is not None:
        raise TruncatedComplexError(
            f"the Euler characteristic needs all {c.m + 1} columns; "
            f"this complex stops at column {c.top}"
        )
    di, dq = c.diagram.shift
    coeffs: dict[int, int] = {}
    for i, qs in enumerate(c.q_unnorm):
        sign = -1 if (i + di) % 2 else 1
        for q, n in Counter(qs).items():
            coeffs[q + dq] = coeffs.get(q + dq, 0) + sign * n
    return LaurentPolynomial(coeffs)


def jones_state_sum(d: Diagram, cap: int = DEFAULT_CAP) -> LaurentPolynomial:
    """Alternating state sum over all 2^m resolutions; never touches chain groups.

    A vertex of weight w with c circles adds (-1)^(w + di) q^(w + dq) (q + q^-1)^c,
    expanded by binomials: C(c, k) at exponent w + dq + c - 2k.  The circles
    of each vertex are made from its parent's (Resolver.child).
    """
    m = d.crossing_count
    if m > cap:
        raise CapExceededError(m, cap)
    di, dq = d.shift
    resolver = Resolver(d)
    circle_of, n = resolver.circles(0)
    # Vertices with the same weight w and circle count c give equal terms:
    # tally[w][c] counts them.  Each vertex v is reached once, from its
    # parent v & (v - 1), by a walk that keeps only the circles of the
    # vertices whose children are pending.
    tally = [[0] * (len(circle_of) + d.free_loops + 1) for _ in range(m + 1)]
    pending = [(0, resolver.pack(circle_of), n)]
    child = resolver.child
    while pending:
        v, before, n = pending.pop()
        tally[v.bit_count()][n] += 1
        for j in range((v & -v).bit_length() - 1 if v else m):
            w = v | 1 << j
            after, k = child(before, n, w)
            pending.append((w, after, k))
    coeffs: dict[int, int] = {}
    for w, counts in enumerate(tally):
        for c, count in enumerate(counts):
            if count:
                sign = -count if (w + di) % 2 else count
                for k in range(c + 1):
                    e = w + dq + c - 2 * k
                    coeffs[e] = coeffs.get(e, 0) + sign * comb(c, k)
    return LaurentPolynomial(coeffs)


def convention_toggle(t: BigradedGroup) -> BigradedGroup:
    """Flip the sign of every q-degree (the inverted-grading convention)."""
    return BigradedGroup({(i, -j): v for (i, j), v in t.table.items()})


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "pass" | "fail" | "skip"
    details: str


@dataclass(frozen=True)
class VerificationReport:
    word: BraidWord
    is_knot: bool
    checks: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "input": self.word.text(),
            "strands": self.word.strands,
            "crossings": self.word.crossings,
            "is_knot": self.is_knot,
            "checks": [
                {"name": c.name, "status": c.status, "details": c.details}
                for c in self.checks
            ],
        }


def _require_positive(w: BraidWord, op: str):
    if not w.is_positive:
        raise NonPositiveWordError(f"{op} requires a positive braid word")


def _occurrence_states(c: ChainComplex, crossing_index: int, generator: int) -> dict:
    """C^1 states at one crossing, keyed by their labels on V^(p-1).

    Each circle of the vertex 1 << crossing_index (as c stores it, in
    Resolver's circle order) is matched to a tensor factor by the strand
    position pos of any of its arcs, or of the free loop: factor
    pos - 1 - (pos > generator), so that positions generator and
    generator + 1 share a factor and occurrences of the same generator
    become directly comparable.
    """
    d = c.diagram
    v = 1 << crossing_index
    circle_of, n = c.circles[v]
    positions = [0] * n
    for a, k in zip(d.arcs, circle_of):
        positions[k] = d.arc_positions[a]
    positions[n - d.free_loops:] = d.free_loop_positions
    factor = [pos - 1 - (pos > generator) for pos in positions]
    return {key: c.index(v, [key[f] for f in factor])
            for key in product((ONE, EX), repeat=d.strands - 1)}


_VACUOUS = (True, None, "no generator occurs twice; vacuous")


def _repeated_occurrences(w: BraidWord) -> dict[int, list[int]]:
    """Diagram crossing indices of each generator that occurs at least twice."""
    occurrences: dict[int, list[int]] = {}
    for k, cid in enumerate(sorted(crossing_ids(w))):  # diagram crossing order
        occurrences.setdefault(cid.generator, []).append(k)
    return {g: slots for g, slots in occurrences.items() if len(slots) >= 2}


def kernel_structure_check(w: BraidWord, cap: int = DEFAULT_CAP):
    """Verify t_(i,alpha) = t_(i,beta) on every integer kernel vector of d^1.

    Returns (passed, witness, details).  The witness is None on a pass;
    on a failure it is (generator, beta, key): some kernel vector has
    t_(generator,1)[key] != t_(generator,beta)[key], where key holds the
    labels of the p-1 tensor factors (cube.ONE or cube.EX).
    """
    _require_positive(w, "kernel_structure_check")
    if not _repeated_occurrences(w):
        return _VACUOUS
    d = braid_closure(w)
    c = build_complex(d, cap=cap, top=2)
    return _kernel_structure(w, c, homology_table(c))


def _kernel_structure(w: BraidWord, c: ChainComplex, table: BigradedGroup):
    """kernel_structure_check on the already built complex c of closure(w).

    Reads only columns 0..2, so c may be truncated at top = 2.  table is
    c's homology table as homology_table gives it: the ranks of d^1's
    q-blocks follow from its rows 0 and 1 and the column dimensions.

    ker_Z d^1 spans ker_Q d^1, so every integer kernel vector v has
    v[a] = v[b] iff e_a - e_b lies in the rational row space of d^1, that
    is iff stacking this relation row below d^1 keeps the rank.  States a
    and b share their labels and |epsilon| = 1, so a relation row keeps
    one q-degree q, and it is decided at q in three steps:

    1. It fails if some column of d^0 differs at rows a and b: that column
       lies in im d^0, which is inside ker d^1 because d^1 d^0 = 0 (as
       build_complex guarantees).
    2. Otherwise it holds if the free H^1 at q is 0, since then
       ker_Q d^1 = im_Q d^0, whose vectors all agree at a and b.
    3. Otherwise it is stacked as one row below d^1's raw q-block, and
       that block's rank decides.

    d^0 has the one vertex 0 as its columns, so steps 1 and 2 are cheap.
    Raw d^1 is expanded only for a table with free H^1, and only the
    q-degrees with free H^1 reach a Smith normal form.
    """
    occurrences = _repeated_occurrences(w)
    if not occurrences:
        return _VACUOUS
    relations = []  # ((generator, beta, key), C^1 index a, C^1 index b)
    for gen, slots in occurrences.items():
        first = _occurrence_states(c, slots[0], gen)
        for beta, k in enumerate(slots[1:], start=2):
            other = _occurrence_states(c, k, gen)
            relations += [((gen, beta, key), a, other[key])
                          for key, a in sorted(first.items())]

    loc1 = c.local(1)
    d0 = c.blocks(0, local=(c.local(0), loc1))  # expanded first: its grading check comes first
    at, q1 = loc1[0], c.q_unnorm[1]
    for r, (_, a, b) in enumerate(relations, start=c.dims[2]):
        if q1[a] != q1[b]:
            raise AssertionError(f"entry at ({r},{b}) connects q={q1[b]} to q={q1[a]}")
    dim0, dim1 = Counter(c.q_unnorm[0]), Counter(q1)
    di, dq = c.diagram.shift  # the table's normalization
    free1 = {q: table.entry(1 + di, q + dq)[0] for q in dim1}
    d1 = c.blocks(1, local=(loc1, c.local(2))) if any(free1.values()) else {}

    def d1_rank(q) -> int:
        """dim C^1_q - rank d^0_q - free H^1_q, with rank d^0_q = dim C^0_q - free H^0_q."""
        return dim1[q] - dim0[q] + table.entry(di, q + dq)[0] - free1[q]

    def holds(a, b) -> bool:
        """Whether every kernel vector of d^1 agrees at states a and b of C^1."""
        q = q1[a]
        if any(col.get(at[a], 0) != col.get(at[b], 0) for col in d0[q].columns.values()):
            return False
        if not free1[q]:
            return True
        block = d1[q]
        columns = dict(block.columns)  # the block is left as it is
        for k, v in ((at[a], 1), (at[b], -1)):
            columns[k] = {**columns.get(k, {}), block.rows: v}
        n = block.rows + 1
        stacked = GradedMatrix(n, block.cols, columns, (q,) * n, block.col_q)
        return smith_normal_form(stacked).rank == d1_rank(q)

    witness = next((rel for rel, a, b in relations if not holds(a, b)), None)
    if witness is None:
        nullity = c.dims[1] - sum(map(d1_rank, dim1))
        pairs = sum(len(slots) - 1 for slots in occurrences.values())
        details = f"{nullity} kernel vectors, {nullity * pairs} occurrence pairs compared"
        return True, None, details
    gen, beta, key = witness
    labels = ".".join("1" if label == ONE else "x" for label in key)
    details = f"kernel vector violates t_({gen},1) = t_({gen},{beta}) at {labels}"
    return False, witness, details


def reduction_consistency(w: BraidWord, cap: int = DEFAULT_CAP):
    """Check the reduced diagram D': H^1(D') = 0 and dim C^0(D') = 2^p.

    D' is the closure of the word with one crossing per used generator; it
    is an unknot or an unlink, so its first homology must vanish, and its
    all-zero resolution has the same p circles as the original closure.
    Both need only columns 0..2 of its cube.
    """
    _require_positive(w, "reduction_consistency")
    reduced = reduced_diagram(w)
    d_reduced = braid_closure(reduced)
    c_reduced = build_complex(d_reduced, cap=cap, top=2)
    dim_c0 = c_reduced.dims[0]
    expected = 2 ** w.strands
    table = homology_table(c_reduced)
    h1 = [(i, j) for (i, j) in table.table if i == 1]
    ok = not h1 and dim_c0 == expected
    details = (
        f"D' = closure of {reduced.text()!r}; dim C^0(D') = {dim_c0} "
        f"(expected {expected}); H^1(D') entries: {h1 or 'none'}"
    )
    return ok, details


def verify_positive_braid(w: BraidWord, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Run all structural checks for the closure of a positive braid word.

    Every check reads H^0, H^1 or d^1, so only columns 0..2 of the cube are
    built (top = 2): the cost grows polynomially in the crossing count.  A
    positive word has n_minus = 0, so no row can lie below zero.
    """
    _require_positive(w, "verify_positive_braid")
    d = braid_closure(w)
    components = d.component_count()
    is_knot = components == 1
    c = build_complex(d, cap=cap, top=2)
    table = homology_table(c)
    checks = []

    negative = sorted((i, j) for (i, j) in table.table if i < 0)
    checks.append(Check(
        "negative_degree_vanishing",
        "pass" if not negative else "fail",
        f"entries with i<0: {negative or 'none'}",
    ))

    n = d.crossing_count
    p = w.strands
    if not is_knot:
        checks.append(Check(
            "h0_structure", "skip", f"{components} components; knot-only check",
        ))
    else:
        lo, hi = 1 - p + n - 1, 1 - p + n + 1
        row0 = {(i, j): v for (i, j), v in table.table.items() if i == 0}
        expected = {(0, lo): (1, ()), (0, hi): (1, ())}
        checks.append(Check(
            "h0_structure",
            "pass" if row0 == expected else "fail",
            f"H^0 entries {sorted(row0.items())}; expected free rank 1 at "
            f"j = {lo} and j = {hi}",
        ))

    row1 = sorted((i, j) for (i, j) in table.table if i == 1)
    checks.append(Check(
        "h1_vanishing",
        "pass" if not row1 else "fail",
        f"H^1 entries: {row1 or 'none'}",
    ))

    ok, _, details = _kernel_structure(w, c, table)
    checks.append(Check("kernel_structure", "pass" if ok else "fail", details))

    ok, details = reduction_consistency(w, cap=cap)
    checks.append(Check("reduction_consistency", "pass" if ok else "fail", details))

    return VerificationReport(word=w, is_knot=is_knot, checks=tuple(checks))
