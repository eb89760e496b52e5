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

A built complex holds no matrix entries, and of the edge records only
crossing 0's, which define M and M' (below).  The others are made from
what it keeps: each vertex's circles (circle_of as bytes, each made from
its parent's by Resolver.child), the offsets and the q-degrees.  A record
is the tuple (source, target, shape, sign): the offsets of an edge's
source and target vertices, a shape shared by every edge of the same
layout, and its sign.  _edge_shape alone knows that layout.  A shape is
the tuple (sources, targets, phi, images): the label codes of the circles
the edge leaves alone, spread into the source and into the target; the
two images that pair M with M'; and the (source bits, target bits) of its
nonzero images.  Source state source + sources[r] + s maps to target +
targets[r] + t, with coefficient sign, for each r and each image (s, t).
`ChainComplex.records(i)` makes the records of d^i when they are read and
stores none of them: crossing 0's edges v -> v | 1 first, one per vertex
v of weight i with bit 0 clear, C(m - 1, i) of them, then vertex by vertex
with the flipped crossing j ascending.  The shapes are kept on the complex.
`ChainComplex.blocks(i)` is the one loop that turns records into entries:
it expands d^i straight into the columns of its per-q blocks,
{col: {row: sign}} with block-local indices, checking each entry's grading
as it writes it and leaving out the columns it is told are cancelled.  It
reads each record through a plan (_plan): the (column, row) label-code
offsets of the entries it keeps, made once per shape and roles (below).

The cube is refused before any q-degree is listed when its generators
(2^circles summed over the enumerated vertices) exceed generator_budget(cap).
An edge that neither merges nor splits circles, which only a non-planar
hand-built Diagram has (from_pd refuses such a code), raises InputError
where Resolver.edge classifies it: at build for crossing 0's edges, and at
the first records(i) that makes it for the others.

Gaussian elimination of crossing 0 (D. Bar-Natan, Fast Khovanov homology
computations, JKTR 16 (2007), Lemma 4.2).  The record of each edge
v -> v | 1 pairs a set M of v's states with a set M' of v | 1's by +1
entries phi: for a merge, M = the states whose first merged circle is ONE,
M' = all, phi = m(1.1) = 1, m(x.1) = x; for a split, M = all, M' = the
states whose first new circle is EX, phi = 1 -> 1.x, x -> x.x.  K is every
other state, a third of a full cube.  phi is the only arrow from M to M'
and none goes back (bit 1 never maps to bit 0), so cancelling all of phi
leaves K with one correction term:
d'(k) = d(k)|K - sum_{m' in M'} d(k)[m'] d(phi^-1 m')|K.  blocks(i) makes
d' given local(i, True) and local(i + 1, True), which read the matching
from crossing 0's records of d^j for j = i - 1 and i, and folds each entry
d(k)[m'] into d(k)|K once every record is read.  Given those indexings,
records(i) skips an edge whose source is all M' or whose target is all M
before classifying it, since d' reads none of its entries: about half the
edges of a full cube.  Of the other records, the label codes a vertex
gives to M or M' depend only on the crossing-0 shape that enters or
leaves it, its role; so a plan, made from the first record of a shape
whose source and target have the given roles, leaves out the entries of
M' columns and M rows, marks those of M' rows for the fold, and serves
every later record of that shape and those roles without a test per
entry.  `diffs`, `differential_matrices` and the kernel check read the
raw blocks, for which every record is made and whose plans leave out
nothing.
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
    zero: tuple[tuple[tuple, ...], ...]  # zero[i]: crossing 0's records of d^i
    resolver: Resolver = field(compare=False, repr=False)  # classifies the other edges
    top: int | None = None  # last column of a truncated cube; None when full
    shapes: dict = field(default_factory=dict, compare=False, repr=False)  # see _edge_shape

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

    def local(self, i: int, eliminate: bool = False) -> tuple[list, dict[int, int]]:
        """Each state's index within its q-block of column i, and each q-block's size.

        With eliminate, only K is indexed and sized (see the module
        docstring): a state of M holds ~(its phi image in column i + 1), and
        one of M' holds None.  Both are read from crossing 0's records, whose
        phi has two images.
        """
        qs = self.q_unnorm[i]
        at: list = [0] * len(qs)
        zero = self.zero
        if eliminate and 0 < i <= len(zero):  # M': the phi images of d^(i-1)
            for _, target, (_, targets, ((_, d0), (_, d1)), _), _ in zero[i - 1]:
                for t in targets:
                    t += target
                    at[t + d0] = at[t + d1] = None
        if eliminate and i < len(zero):  # M: the states of d^i that phi maps
            for source, target, (sources, targets, ((s0, d0), (s1, d1)), _), _ in zero[i]:
                for s, t in zip(sources, targets):
                    s += source
                    t = ~(target + t)
                    at[s + s0] = t - d0
                    at[s + s1] = t - d1
        sizes: dict[int, int] = {}
        for k, q in enumerate(qs):
            if at[k] == 0:  # a state of K; ~t is never 0
                at[k] = n = sizes.get(q, 0)
                sizes[q] = n + 1
        return at, sizes

    def _roles(self, i: int, c_at: list, r_at: list) -> tuple[dict, dict]:
        """The roles that crossing 0's records give the vertices of d^i, by
        offset in columns i and i + 1, where c_at and r_at mark them as
        local(., True) does.

        A vertex's role is the id of the shape that enters it (its M') or,
        in column i + 1, ~id of the one that leaves it (M): vertices of one
        role mark the same label codes.
        """
        zero, roles = self.zero, ({}, {})
        for j, side, at, out in ((i - 1, 1, c_at, 0), (i, 1, r_at, 1), (i + 1, 0, r_at, 1)):
            records = zero[j] if 0 <= j < len(zero) else ()
            if records:
                offset, shape = records[0][side], records[0][2]
                k = at[offset + shape[side][0] + shape[2][0][side]]  # its first phi code
                if k is None or k < 0:
                    roles[out].update({rec[1]: id(rec[2]) for rec in records} if side else
                                      {rec[0]: ~id(rec[2]) for rec in records})
        return roles

    def records(self, i: int, at: tuple | None = None) -> list:
        """The records of d^i, made now and stored nowhere (see the module docstring).

        Crossing 0's records come first, then each vertex's edges with j
        ascending.  Given at = (local(i, True)[0], local(i + 1, True)[0]), an
        edge whose source is all M' (its first state holds None) or whose
        target is all M (its last state holds a negative index) is skipped
        before Resolver.edge classifies it: d' reads none of its entries.
        """
        out = list(self.zero[i])
        c_at, r_at = at or (None, None)
        offsets, circles, shapes = self.offsets, self.circles, self.shapes
        skip = set()  # the targets that are all M
        if r_at is not None:
            for w in self.vertices[i + 1]:
                last = r_at[offsets[w] + (1 << circles[w][1]) - 1]
                if last is not None and last < 0:
                    skip.add(w)
        edge, append = self.resolver.edge, out.append
        bits = [(j, 1 << j) for j in range(1, self.m)]
        for v in self.vertices[i]:
            source = offsets[v]
            if c_at is not None and c_at[source] is None:
                continue
            before, n = circles[v]
            sign = -1 if v & 1 else 1  # (-1)^(the 1s of v below j), kept as j rises
            for j, bit in bits:
                if v & bit:
                    sign = -sign
                    continue
                w = v | bit
                if w in skip:
                    continue
                kind, triple = edge(before, circles[w][0], j)
                shape = shapes.get((kind, triple, n)) or _edge_shape(shapes, kind, triple, n)
                append((source, offsets[w], shape, sign))
        return out

    def blocks(self, i: int, cancelled: dict | None = None,
               local: tuple | None = None) -> dict[int, GradedMatrix]:
        """d^i as the diagonal block of every q-degree of a row or a column.

        Expands records(i) into the blocks' columns, indexed by local, by
        default (self.local(i), self.local(i + 1)).  Given both columns'
        local(., True), it makes d' on K from the records that records(i)
        does not skip for those indexings: entries in M' rows are
        listed as folds (column, m', value), each applied after the phi
        count check.  Each record is read through a plan (see _plan and the
        module docstring), made once per shape and the roles (_roles) of
        its source and target, so the entries of M' columns and M rows are
        never visited.  cancelled maps a q to local columns of its block
        left out (see homology.homology_table).
        Raises AssertionError, also under -O, on an entry that changes q
        (named by its row and column in the columns of the complex), on a
        phi entry other than +1 or missing, or on a record repeated by
        (source, target).  The grading is checked only on entries that are
        kept: with cancelled or local given, entries of cancelled or M'
        columns and of M rows are skipped before the check.
        """
        col_q, row_q = self.q_unnorm[i], self.q_unnorm[i + 1]
        (c_at, nc), (r_at, nr) = local or (self.local(i), self.local(i + 1))
        # The column each state of column i writes to: None for M' and for
        # cancelled columns; the columns of M are also kept by phi partner.
        if cancelled:
            gone = {q: set(cols) for q, cols in cancelled.items()}
            columns = [None if k is None or k in gone.get(q, ()) else {}
                       for k, q in zip(c_at, col_q)]
        else:
            columns = [None if k is None else {} for k in c_at]
        by_partner = {k: out for k, out in zip(c_at, columns) if k is not None and k < 0}
        col_role, row_role = self._roles(i, c_at, r_at)
        writes = phis = 0
        seen: dict[int, int] = {}  # source * len(row_q) + target -> writes of one record
        folds: list = []  # (column, M' row m', d(k)[m']) per fold, flat to save a tuple each
        plans: dict[tuple, tuple] = {}
        stride = len(row_q)
        for source, target, shape, sign in self.records(i, (c_at, r_at)):
            key = id(shape), col_role.get(source, 0), row_role.get(target, 0)
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _plan(shape, source, target, c_at, r_at)
            count, pairs = plan
            writes += count
            seen.setdefault(source * stride + target, count)
            for dc, dr in pairs:
                col = source + dc
                out = columns[col]
                if out is None:
                    continue  # a cancelled column
                if dr >= 0:
                    row = target + dr
                    if row_q[row] != col_q[col]:
                        raise AssertionError(
                            f"entry at ({row},{col}) connects q={col_q[col]} to q={row_q[row]}")
                    out[r_at[row]] = sign
                    continue
                row = target + ~dr  # a row of M'
                if row_q[row] != col_q[col]:
                    raise AssertionError(
                        f"entry at ({row},{col}) connects q={col_q[col]} to q={row_q[row]}")
                if ~row == c_at[col]:  # the phi entry of a column of M: not written
                    if sign != 1:
                        raise AssertionError(f"d^{i}: phi entry at row {row} is not +1")
                    phis += 1
                else:
                    folds += out, ~row, sign  # folded below
        # A record writes each of its entries once, and records of distinct
        # (source, target) write distinct entries.
        if writes != sum(seen.values()):
            raise AssertionError(f"d^{i}: {writes} writes hit {sum(seen.values())} entries")
        if phis != len(by_partner):
            raise AssertionError(f"d^{i}: {phis} phi entries for {len(by_partner)} columns of M")
        # d'(k) = d(k)|K - sum over M' rows m' of d(k)[m'] d(phi^-1 m')|K
        it = iter(folds)
        for out, m, v in zip(it, it, it):
            for r, w in by_partner.get(m, {}).items():
                nv = out.get(r, 0) - v * w
                if nv:
                    out[r] = nv
                else:
                    del out[r]
        parts: dict[int, dict] = {q: {} for q in nr | nc}
        for k, q, out in zip(c_at, col_q, columns):
            if out and k >= 0:
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


def _plan(shape, source: int, target: int, c_at: list, r_at: list) -> tuple:
    """(entry count, pairs) for blocks to read the records of this shape
    whose source and target have the roles of these two offsets.

    pairs lists the (column, row) label-code offsets of a record's entries
    in record order, leaving out the columns that c_at marks M' (None) and
    the rows that r_at marks M (negative); a row of M' is written ~row, to
    be folded.  The entry count is the record's, all entries included.
    """
    sources, targets, _, images = shape
    pairs = []
    for s, t in zip(sources, targets):
        for ds, dt in images:
            col = s + ds
            if c_at[source + col] is None:
                continue  # a column of M'
            row = t + dt
            k = r_at[target + row]
            if k is None:
                pairs.append((col, ~row))
            elif k >= 0:  # not a row of M
                pairs.append((col, row))
    return len(images) * len(sources), tuple(pairs)


def _spread(code: int, bits) -> int:
    """code with a 0 inserted at each of the ascending single-bit masks."""
    for bit in bits:
        low = code & (bit - 1)
        code = (code - low) << 1 | low
    return code


def _edge_shape(shapes: dict, kind: str, circles: tuple[int, int, int], n: int):
    """(sources, targets, phi, images) of an edge on a vertex of n circles.

    Stores it in shapes under its layout (kind, circles, n).  Callers look
    the layout up first and call this on its first use only, so that every
    edge of that layout shares one shape.

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
    shapes[kind, circles, n] = shape = (tuple([_spread(r, gone) for r in rest]),
                                        tuple([_spread(r, new) for r in rest]), phi, images)
    return shape


def build_complex(d: Diagram, cap: int = DEFAULT_CAP, top: int | None = None) -> ChainComplex:
    """Enumerate the cube: the graded columns, the circles and crossing 0's edge records.

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
    without forming 3^cap), and InputError when one of crossing
    0's edges neither merges nor splits (see the module docstring).
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
    q_table: dict[tuple[int, int], list[int]] = {}
    for i, column in enumerate(columns):
        qs: list[int] = []
        for v in column:
            offsets[v] = len(qs)
            n = circles[v][1]
            if (n, i) not in q_table:
                q_table[n, i] = [n - 2 * k.bit_count() + i for k in range(1 << n)]
            qs.extend(q_table[n, i])
        q_unnorm.append(tuple(qs))

    shapes: dict[tuple, tuple] = {}
    zero = []
    for column in columns[:last]:
        records = []
        for v in column:
            if not v & 1:
                before, n = circles[v]
                kind, triple = resolver.edge(before, circles[v | 1][0], 0)
                shape = shapes.get((kind, triple, n)) or _edge_shape(shapes, kind, triple, n)
                records.append((offsets[v], offsets[v | 1], shape, 1))
        zero.append(tuple(records))
    return ChainComplex(d, offsets, tuple(q_unnorm), columns, circles, tuple(zero), resolver,
                        top, shapes)
