"""Cube of resolutions -> bigraded chain complex with integer differentials.

Circle labels are ONE (degree +1) and EX (degree -1).  Column i of the
complex collects all labeled states over resolutions of weight |epsilon| = i;
the differential is the signed sum of per-edge merge (m) and split (Delta)
maps, with the sign (-1)^(number of 1s before the flipped coordinate).
A cube truncated at top holds only columns 0..top, which have
sum_{i <= top} C(m, i) vertices: polynomially many in m.

States are coded by integers and by nothing else: vertex v has bit
j = epsilon[j], and a labeling of its n circles has bit n-1-k = the label of
circle k.  Both codes ascend in the basis order, so state (v, code) has index
offsets[v] + code in column |v| (`ChainComplex.index`).  Circles are those of
`diagram.Resolver`: sorted by minimal arc with free loops last, so the
circles an edge leaves alone keep their order and an edge map only deletes
and inserts the label bits of the circles it touches.

A built complex holds no matrix entries and no edge record, only each
vertex's circles (circle_of as bytes, each made from its parent's by
Resolver.child), the offsets, the q-degrees and the vertex kinds of
crossing 0's pairs (below), from which records are made.  A record is the
tuple (source, target, shape, sign): the offsets of an edge's
source and target vertices, its shape and its sign.  A shape, one per
layout for the process (_edge_shape), is (sources, targets, phi, images):
the label codes of the circles the edge leaves alone, spread into the
source and into the target; the two images that pair M with M'; and the
(source bits, target bits) of its nonzero images, in an order only
build_complex reads.  Source state source + sources[r] + s maps to
target + targets[r] + t, with coefficient sign, for each r and image (s, t).
`ChainComplex.records(i)` makes the records of d^i when they are read and
stores none of them: vertex by vertex, ascending, with the flipped crossing
j ascending from 0, so that a vertex's crossing-0 edge v -> v | 1 is first.
`ChainComplex.blocks(i)` is the one loop that turns records into entries:
it expands d^i straight into the columns of its per-q blocks,
{col: {row: sign}} with block-local indices, checking each entry's grading
as it writes it and leaving out the columns it is told are cancelled.

The cube is refused before any q-degree is listed when its generators
(2^circles summed over the enumerated vertices) exceed generator_budget(cap).
An edge that neither merges nor splits circles, which only a non-planar
hand-built Diagram has (from_pd refuses such a code), raises InputError
where Resolver.edge classifies it: at build for crossing 0's edges, which
build_complex classifies once for the kinds (records(i) classifies them
again), and at the first records(i) that makes it for the others.

Gaussian elimination of crossing 0 (D. Bar-Natan, Fast Khovanov homology
computations, JKTR 16 (2007), Lemma 4.2).  The record of each edge
v -> v | 1 pairs a set M of v's states with a set M' of v | 1's by +1
entries phi: for a merge, M = the states whose first merged circle is ONE,
M' = all, phi = m(1.1) = 1, m(x.1) = x; for a split, M = all, M' = the
states whose first new circle is EX, phi = 1 -> 1.x, x -> x.x.  K is every
other state, a third of a full cube.  phi is the only arrow from M to M'
and none goes back (bit 1 never maps to bit 0), so cancelling all of phi
leaves K with one correction term:
d'(k) = d(k)|K - sum_{m' in M'} d(k)[m'] d(phi^-1 m')|K.

Which states are K, M and M' is fixed per vertex by its crossing-0 pair,
which build_complex reads once into `ChainComplex.pairs`: pairs[i] gives
each paired vertex of column i its kind by offset, and |M^i|.  A kind
(mask, want, side) makes K the label codes k with k & mask == want, the
others M on the even side (bit 0 clear) and M' on the odd side: a merge's
source is K where its first merged circle is EX and its target all M'; a
split's source is all M and its target K where its first new circle is
ONE; an unpaired vertex is all K.  local(i, True) indexes K vertex by
vertex.  Given it for columns i and i + 1, blocks(i) makes d', making each
column of M at its phi entry, which comes first among its vertex's
records, and folding each d(k)[m'] into d(k)|K once every record is read.
records(i) skips by kind the edges whose source is all M' or whose target
is all M, about half of a full cube's, before classifying them, since d'
reads none of their entries.  blocks reads a record through the plan
(_plan) of its images, size and vertex kinds.  The raw blocks (`diffs`,
`cube-stats`, the kernel check) have every vertex all K.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .diagram import Diagram, Resolver
from .errors import CapExceededError, GeneratorBudgetError
from .homology import GradedMatrix, differential_matrices

ONE = 0
EX = 1

DEFAULT_CAP = 20

# The vertex kinds (see ChainComplex.pairs) that are not halved.
_ALL_K = (0, 0, 0)  # no pair
_ALL_M = (0, 1, 0)  # a split's source
_ALL_M_PRIME = (0, 1, 1)  # a merge's target

# What depends only on a layout, made on first use and shared by every
# complex for the rest of the process, as tuples that no reader can change.
_SHAPES: dict[tuple, tuple] = {}  # (kind, circles, n) -> shape (_edge_shape)
_PLANS: dict[tuple, tuple] = {}  # (images, source count, kinds) -> plan (_plan)
_K_CODES: dict[tuple, tuple] = {}  # (n, kind) -> K's label codes on n circles
_Q_DEGREES: dict[tuple, tuple] = {}  # (n, i) -> q-degree of each label code in column i


def generator_budget(cap: int) -> int:
    """The most generators a cube built under the crossing cap may have: 3^cap + 3.

    That is the generator count of the full cube of T(2, cap), the closure of
    cap letters on 2 strands (a vertex of weight w > 0 has w circles), so
    the budget admits the cube the cap was set for and refuses free loops,
    each of which doubles every vertex, beyond it.  build_complex forms
    this power only for a count of at least 2^cap, so a huge cap costs
    nothing.
    """
    return 3 ** cap + 3


@dataclass(frozen=True)
class ChainComplex:
    diagram: Diagram
    offsets: dict[int, int]  # vertex v -> index of its first state in column |v|
    q_unnorm: tuple[tuple[int, ...], ...]  # index = homological column
    vertices: tuple[tuple[int, ...], ...]  # vertices[i]: column i's vertices, ascending
    circles: dict[int, tuple]  # vertex v -> (circle_of as bytes, circle count)
    pairs: tuple[tuple[dict, int], ...]  # pairs[i]: column i's kinds by offset, and |M^i|
    resolver: Resolver = field(compare=False, repr=False)  # classifies the edges records makes
    top: int | None = None  # last column of a truncated cube; None when full

    @property
    def m(self) -> int:
        return self.diagram.crossing_count

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(qs) for qs in self.q_unnorm)

    def index(self, v: int, labels) -> int:
        """Column index of the state of vertex v with label labels[k] on circle k."""
        code = 0
        for label in labels:
            code = code << 1 | label
        return self.offsets[v] + code

    def local(self, i: int, eliminate: bool = False) -> tuple[list, dict[int, int], tuple]:
        """Each K state's index within its q-block of column i, each q-block's
        size, and the pairs[i] that decided K.

        Without eliminate no vertex is paired and every state is in K; with
        it, K is read from pairs[i] and every other state holds None.
        """
        qs = self.q_unnorm[i]
        pairs = self.pairs[i] if eliminate else ({}, 0)
        kinds, codes = pairs[0], _K_CODES
        at: list = [None] * len(qs)
        sizes: dict[int, int] = {}
        offsets, circles = self.offsets, self.circles
        for v in self.vertices[i]:
            offset, n = offsets[v], circles[v][1]
            kind = kinds.get(offset, _ALL_K)
            k_codes = codes.get((n, kind))
            if k_codes is None:
                mask, want, _ = kind
                k_codes = codes[n, kind] = tuple([k for k in range(1 << n) if k & mask == want])
            for k in k_codes:
                k += offset
                q = qs[k]
                at[k] = x = sizes.get(q, 0)
                sizes[q] = x + 1
        return at, sizes, pairs

    def records(self, i: int, kinds: tuple | None = None) -> list:
        """The records of d^i, made now and stored nowhere (see the module docstring).

        Vertex by vertex, each with j ascending from 0, so that its crossing-0
        record comes first.  Given kinds, those of columns i and i + 1 from
        pairs, an edge whose source is all M' or whose target is all M is
        skipped before Resolver.edge classifies it: d' reads none of it.
        """
        out: list = []
        c_kinds, r_kinds = kinds or ({}, {})
        offsets, circles, shapes = self.offsets, self.circles, _SHAPES
        edge, append = self.resolver.edge, out.append
        bits = [(j, 1 << j) for j in range(self.m)]
        for v in self.vertices[i]:
            source = offsets[v]
            if c_kinds.get(source) == _ALL_M_PRIME:
                continue
            before, n = circles[v]
            sign = 1  # (-1)^(the 1s of v below j), kept as j rises
            for j, bit in bits:
                if v & bit:
                    sign = -sign
                    continue
                w = v | bit
                target = offsets[w]
                if r_kinds.get(target) == _ALL_M:
                    continue
                kind, triple = edge(before, circles[w][0], j)
                shape = shapes.get((kind, triple, n)) or _edge_shape(kind, triple, n)
                append((source, target, shape, sign))
        return out

    def blocks(self, i: int, cancelled: dict | None = None,
               local: tuple | None = None) -> dict[int, GradedMatrix]:
        """d^i as the diagonal block of every q-degree of a row or a column.

        Expands records(i) into the blocks' columns, indexed by local, by
        default (self.local(i), self.local(i + 1)), which pair no vertex.
        Given both columns' local(., True), it makes d' on K: entries in M'
        rows are listed as folds (column, m', value), each applied after the
        record checks.  cancelled maps a q to local columns of its block
        left out (see homology.homology_table).
        Raises AssertionError, also under -O, on an entry that changes q
        (named by its row and column in the columns of the complex), on a
        phi entry other than +1, missing, or read after another entry of its
        column of M (which the phi entry makes), on a record repeated by
        (source, target), or on one without three images per source state.
        The grading is checked only on entries that are kept and on phi
        entries: with cancelled or local given, entries of cancelled or M'
        columns and of M rows are skipped before the check.
        """
        col_q, row_q = self.q_unnorm[i], self.q_unnorm[i + 1]
        (c_at, nc, (c_kinds, matched)), (r_at, nr, (r_kinds, _)) = \
            local or (self.local(i), self.local(i + 1))
        # The column each state of K writes to, None when cancelled; a column
        # of M is made at its phi entry, and M' has none.
        gone = {q: set(cols) for q, cols in (cancelled or {}).items()}
        columns = [None if k is None or k in gone.get(q, ()) else {} for k, q in zip(c_at, col_q)]
        partner: dict[int, dict] = {}  # M' row m' -> the column of phi^-1 m'
        writes = phis = need = 0
        seen: dict[int, int] = {}  # source * len(row_q) + target -> writes of one record
        folds: list = []  # (column, M' row m', d(k)[m']) per fold, flat to save a tuple each
        plans = _PLANS
        for source, target, shape, sign in self.records(i, (c_kinds, r_kinds)):
            c_kind, r_kind = c_kinds.get(source, _ALL_K), r_kinds.get(target, _ALL_K)
            key = shape[3], len(shape[0]), c_kind, r_kind  # the images and size fix the shape
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _plan(shape, c_kind, r_kind)
            count, full, phi, pairs = plan
            writes += count
            need += full
            seen.setdefault(source * len(row_q) + target, count)
            it = iter(phi)
            for dc, dr in zip(it, it):  # read first: each makes its column of M
                col, row = source + dc, target + dr
                if row_q[row] != col_q[col]:
                    raise AssertionError(
                        f"entry at ({row},{col}) connects q={col_q[col]} to q={row_q[row]}")
                if sign != 1:
                    raise AssertionError(f"d^{i}: phi entry at row {row} is not +1")
                partner[row] = columns[col] = {}
            phis += len(phi) >> 1
            it = iter(pairs)
            for dc, dr in zip(it, it):
                col = source + dc
                out = columns[col]
                if out is None:
                    if c_at[col] is None:
                        raise AssertionError(
                            f"d^{i}: column {col} of M is read before its phi entry")
                    continue  # a cancelled column
                row = target + (dr if dr >= 0 else ~dr)
                if row_q[row] != col_q[col]:
                    raise AssertionError(
                        f"entry at ({row},{col}) connects q={col_q[col]} to q={row_q[row]}")
                if dr >= 0:
                    out[r_at[row]] = sign
                else:
                    folds += out, row, sign  # a row of M', folded below
        # A record writes each of its entries once, and records of distinct
        # (source, target) write distinct entries.
        if writes != sum(seen.values()):
            raise AssertionError(f"d^{i}: {writes} writes hit {sum(seen.values())} entries")
        if phis != matched:
            raise AssertionError(f"d^{i}: {phis} phi entries for {matched} columns of M")
        if writes != need:
            raise AssertionError(f"d^{i}: {writes} writes for {need} entries, 3 per source state")
        # d'(k) = d(k)|K - sum over M' rows m' of d(k)[m'] d(phi^-1 m')|K
        it = iter(folds)
        for out, m, v in zip(it, it, it):
            for r, w in partner.get(m, {}).items():
                nv = out.get(r, 0) - v * w
                if nv:
                    out[r] = nv
                else:
                    del out[r]
        parts: dict[int, dict] = {q: {} for q in nr | nc}
        for k, q, out in zip(c_at, col_q, columns):
            if out and k is not None:
                parts[q][k] = out
        return {q: GradedMatrix(nr.get(q, 0), nc.get(q, 0), sub,
                                (q,) * nr.get(q, 0), (q,) * nc.get(q, 0))
                for q, sub in parts.items()}

    @property
    def diffs(self) -> tuple[dict, ...]:
        """Every d^i as {(row, col): sign} in column indices, read from blocks(i).

        A view made anew at each access: the reductions read blocks(i).
        """
        return tuple(mat.entries for mat in differential_matrices(self))


def _plan(shape, c_kind: tuple, r_kind: tuple) -> tuple:
    """(entry count, 3 * source count, phi, pairs) for blocks to read the
    records of this shape whose source and target vertices have these kinds.

    phi holds the (column, row) label-code offsets, flat, of the images from
    a column of M to a row of M'; pairs those of the others in record order
    but the entries of M' columns and M rows, with a row of M' written ~row.
    """
    sources, targets, _, images = shape
    c_mask, c_want, c_side = c_kind
    r_mask, r_want, r_side = r_kind
    phi, pairs = [], []
    for s, t in zip(sources, targets):
        for ds, dt in images:
            col, row = s + ds if ds else s, t + dt if dt else t  # shares the shape's ints
            col_k, row_k = col & c_mask == c_want, row & r_mask == r_want
            if not col_k and c_side or not row_k and not r_side:
                continue  # a column of M' or a row of M
            if row_k:
                pairs += col, row
            elif col_k:
                pairs += col, ~row  # K -> M', folded
            else:
                phi += col, row  # M -> M'
    return len(images) * len(sources), 3 * len(sources), tuple(phi), tuple(pairs)


def _spread(code: int, bits) -> int:
    """code with a 0 inserted at each of the ascending single-bit masks."""
    for bit in bits:
        low = code & (bit - 1)
        code = (code - low) << 1 | low
    return code


def _edge_shape(kind: str, circles: tuple[int, int, int], n: int):
    """(sources, targets, phi, images) of an edge on a vertex of n circles.

    Stores it in _SHAPES under its layout (kind, circles, n), where callers
    look first: every edge of that layout, in any complex, shares one shape.

    circles is Resolver.edge's triple; it gives each pair of circles
    ascending, so the masks b < a (merge) and c < b (split) that the edge
    deletes and inserts are ascending.  The images are m(1.1) = 1,
    m(1.x) = m(x.1) = x; D(1) = 1.x + x.1, D(x) = x.x.
    """
    ia, ib, ic = circles
    if kind == "merge":
        a, b, c = 1 << (n - 1 - ia), 1 << (n - 1 - ib), 1 << (n - 2 - ic)
        gone, new, images = (b, a), (c,), ((0, 0), (a, c), (b, c))
        phi = images[::2]
    else:
        a, b, c = 1 << (n - 1 - ia), 1 << (n - ib), 1 << (n - ic)
        gone, new, images = (a,), (c, b), ((0, c), (0, b), (a, b | c))
        phi = images[1:]
    # Tuples of ints let the collector untrack the records that share them.
    rest = range(1 << (n - len(gone)))
    _SHAPES[kind, circles, n] = shape = (tuple([_spread(r, gone) for r in rest]),
                                         tuple([_spread(r, new) for r in rest]), phi, images)
    return shape


def build_complex(d: Diagram, cap: int = DEFAULT_CAP, top: int | None = None) -> ChainComplex:
    """Enumerate the cube: the graded columns, the circles and the kinds of crossing 0's pairs.

    Vertex 0's circles are walked in full and every other vertex's are made
    from those of its parent v & (v - 1) by the one merge or split between
    them (Resolver.child).
    Basis order within a column: epsilon ascending as an m-bit integer
    (bit j = epsilon[j]), then label vectors lexicographically with
    ONE < EX.  With top < m only the vertices of weight <= top are
    enumerated, so the complex holds columns 0..top and d^0..d^(top-1),
    each equal to the full cube's, and records top; top >= m builds the
    full cube.  Raises CapExceededError when m exceeds the cap,
    GeneratorBudgetError when the enumerated vertices have more than
    generator_budget(cap) generators (a count below 2^cap is admitted
    without forming 3^cap), and InputError when one of crossing 0's edges,
    classified here for the kinds, neither merges nor splits.
    """
    m = d.crossing_count
    if m > cap:
        raise CapExceededError(m, cap)
    if top is not None and top < 0:
        raise ValueError(f"top must be >= 0, got {top}")
    if top is None or top >= m:
        top = None
    last = m if top is None else top

    bits = [1 << j for j in range(m)]
    columns = tuple(tuple(sorted(map(sum, combinations(bits, i)))) for i in range(last + 1))
    resolver = Resolver(d)
    circle_of, n = resolver.circles(0)
    circles = {0: (resolver.pack(circle_of), n)}
    for column in columns[1:]:
        for v in column:
            circles[v] = resolver.child(*circles[v & (v - 1)], v)
    generators = sum(1 << n for _, n in circles.values())
    # generators < 2^bit_length <= 2^cap < 3^cap + 3: no need for the power.
    if cap < generators.bit_length() and generators > generator_budget(cap):
        raise GeneratorBudgetError(
            f"the cube has {generators} generators, above the budget of "
            f"{generator_budget(cap)} (3^{cap} + 3) for the crossing cap of {cap}; "
            f"raise the cap explicitly to proceed")

    offsets: dict[int, int] = {}
    q_unnorm: list[tuple[int, ...]] = []
    # Label code k on n circles has k.bit_count() EX labels, so its
    # unnormalized q-degree in column i is n - 2 * k.bit_count() + i.
    for i, column in enumerate(columns):
        qs: list[int] = []
        for v in column:
            offsets[v] = len(qs)
            n = circles[v][1]
            if (n, i) not in _Q_DEGREES:
                _Q_DEGREES[n, i] = tuple([n - 2 * k.bit_count() + i for k in range(1 << n)])
            qs += _Q_DEGREES[n, i]
        q_unnorm.append(tuple(qs))

    # Each v -> v | 1 gives v and v | 1 their kinds (see the module docstring),
    # each pair of kinds made once (made) and shared by the vertices it fits.
    kinds, matched, made = [{} for _ in columns], [0] * len(columns), {}
    for i, column in enumerate(columns[:last]):
        for v in column:
            if not v & 1:
                before, n = circles[v]
                kind, triple = resolver.edge(before, circles[v | 1][0], 0)
                shape = _SHAPES.get((kind, triple, n)) or _edge_shape(kind, triple, n)
                matched[i] += len(shape[0]) * len(shape[2])  # source codes * phi images
                a, b = shape[3][1]  # merge images start (0, 0), (a, c); split images (0, c), (0, b)
                ends = ((a, a, 0), _ALL_M_PRIME) if kind == "merge" else (_ALL_M, (b, 0, 1))
                kinds[i][offsets[v]], kinds[i + 1][offsets[v | 1]] = made.setdefault(ends, ends)
    return ChainComplex(d, offsets, tuple(q_unnorm), columns, circles,
                        tuple(zip(kinds, matched)), resolver, top)
