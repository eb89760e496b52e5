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

A built complex holds no matrix entries.  It keeps one record per cube
edge, the tuple (source, target, shape, sign): the offsets of its source
and target vertices, a shape shared by every edge of the same layout, and
its sign.  _edge_shape alone knows that layout.  A shape is the tuple
(sources, targets, phi, images, span): the label codes of the circles the
edge leaves alone, spread into the source and into the target; the two
images that pair M with M' (below); the (source bits, target bits) of its
nonzero images; and the count of label codes of the target vertex.  Source
state source + sources[r] + s maps to target + targets[r] + t, with
coefficient sign, for each r and each image (s, t).  The records of d^i
list crossing 0's edges v -> v | 1 first, one per vertex v of weight i
with bit 0 clear: C(m - 1, i) of them, in a full or a truncated cube.
`ChainComplex.blocks(i)` is the one loop that turns records into entries:
it expands d^i straight into the columns of its per-q blocks,
{col: {row: sign}} with block-local indices, checking each entry's grading
as it writes it and leaving out the columns it is told are cancelled.

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
from the first C(m - 1, j) records of d^j for j = i - 1 and i, and folds
each entry d(k)[m'] into d(k)|K once every record is read; `diffs`,
`differential_matrices` and the kernel check read the raw blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .diagram import Diagram, Resolver
from .errors import CapExceededError
from .homology import GradedMatrix, differential_matrices

ONE = 0
EX = 1

DEFAULT_CAP = 20


@dataclass(frozen=True)
class ChainComplex:
    diagram: Diagram
    offsets: dict[int, int]  # vertex v -> index of its first state in column |v|
    q_unnorm: tuple[tuple[int, ...], ...]  # index = homological column
    edges: tuple[tuple[tuple, ...], ...]  # edges[i]: the edge records of d^i, column i -> i+1
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

    def local(self, i: int, eliminate: bool = False) -> tuple[list, dict[int, int]]:
        """Each state's index within its q-block of column i, and each q-block's size.

        With eliminate, only K is indexed and sized (see the module
        docstring): a state of M holds ~(its phi image in column i + 1), and
        one of M' holds None.
        """
        qs = self.q_unnorm[i]
        at: list = [0] * len(qs)
        if eliminate:
            for j in (i - 1, i):
                records = self.edges[j][:comb(self.m - 1, j)] if 0 <= j < len(self.edges) else ()
                for source, target, (sources, targets, phi, _, _), _ in records:
                    for s, t in zip(sources, targets):
                        for ds, dt in phi:
                            if j < i:
                                at[target + t + dt] = None
                            else:
                                at[source + s + ds] = ~(target + t + dt)
        sizes: dict[int, int] = {}
        for k, q in enumerate(qs):
            if at[k] == 0:  # a state of K; ~t is never 0
                at[k] = sizes.get(q, 0)
                sizes[q] = at[k] + 1
        return at, sizes

    def blocks(self, i: int, cancelled: dict | None = None,
               local: tuple | None = None) -> dict[int, GradedMatrix]:
        """d^i as the diagonal block of every q-degree of a row or a column.

        Expands the records of d^i into the blocks' columns, indexed by
        local, by default (self.local(i), self.local(i + 1)).  Given both
        columns' local(., True), it makes d' on K: entries in M' rows are
        listed as folds (column, m', value), each applied after the phi
        count check.  cancelled maps a q to local columns of its block left
        out (see homology.homology_table).
        Raises AssertionError, also under -O, on an entry that changes q
        (named by its row and column in the columns of the complex), on a
        phi entry other than +1 or missing, or on a record repeated by
        (source, target).  The grading is checked only on entries that are
        kept: with cancelled or local given, entries of cancelled or M'
        columns and of M rows are skipped before the check.
        """
        col_q, row_q = self.q_unnorm[i], self.q_unnorm[i + 1]
        (c_at, nc), (r_at, nr) = local or (self.local(i), self.local(i + 1))
        gone = {q: set(cols) for q, cols in (cancelled or {}).items()}
        # The column each state of column i writes to: None for M' and for
        # cancelled columns; the columns of M are also kept by phi partner.
        columns: list = [None] * len(col_q)
        by_partner: dict[int, dict[int, int]] = {}
        for col, (k, q) in enumerate(zip(c_at, col_q)):
            if k is None:
                continue
            if k < 0:
                columns[col] = by_partner[k] = {}
            elif not gone or k not in gone.get(q, ()):
                columns[col] = {}
        writes = phis = 0
        seen: dict[tuple[int, int], int] = {}  # (source, target) -> writes of one record
        folds: list = []  # (column, M' row m', d(k)[m']) per fold, flat to save a tuple each
        for source, target, (sources, targets, _, images, span), sign in self.edges[i]:
            count = len(images) * len(sources)
            writes += count
            seen.setdefault((source, target), count)
            last = r_at[target + span - 1]
            if c_at[source] is None or (last is not None and last < 0):
                continue  # source all of M', or target all of M
            for s, u in zip(sources, targets):
                s += source
                u += target
                for ds, du in images:
                    col = s + ds
                    out = columns[col]
                    if out is None:
                        continue
                    row = u + du
                    k = r_at[row]
                    if k is not None and k < 0:
                        continue  # a row of M
                    if row_q[row] != col_q[col]:
                        raise AssertionError(
                            f"entry at ({row},{col}) connects q={col_q[col]} to q={row_q[row]}")
                    if k is None:
                        if ~row == c_at[col]:  # the phi entry of a column of M: not written
                            if sign != 1:
                                raise AssertionError(f"d^{i}: phi entry at row {row} is not +1")
                            phis += 1
                        else:
                            folds += out, ~row, sign  # a row of M', folded below
                        continue
                    out[k] = sign
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


def _spread(code: int, bits) -> int:
    """code with a 0 inserted at each of the ascending single-bit masks."""
    for bit in bits:
        low = code & (bit - 1)
        code = (code - low) << 1 | low
    return code


def _edge_shape(kind: str, circles: tuple[int, int, int], n: int):
    """(sources, targets, phi, images, span) of an edge on a vertex of n circles.

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
    return (tuple([_spread(r, gone) for r in rest]), tuple([_spread(r, new) for r in rest]),
            phi, images, len(rest) << len(new))


def build_complex(d: Diagram, cap: int = DEFAULT_CAP, top: int | None = None) -> ChainComplex:
    """Enumerate the cube: the graded columns and the edge records of the differentials.

    Basis order within a column: epsilon ascending as an m-bit integer
    (bit j = epsilon[j]), then label vectors lexicographically with
    ONE < EX.  With top < m only the vertices of weight <= top are
    enumerated, so the complex holds columns 0..top and d^0..d^(top-1),
    each equal to the full cube's, and records top; top >= m builds the
    full cube.  Each d^i lists crossing 0's records first (see the module
    docstring).  Raises CapExceededError when m exceeds the cap.
    """
    m = d.crossing_count
    if m > cap:
        raise CapExceededError(m, cap)
    if top is not None and top < 0:
        raise ValueError(f"top must be >= 0, got {top}")
    if top is None or top >= m:
        top = None
    last = m if top is None else top

    columns = [
        sorted(sum(1 << j for j in ones) for ones in combinations(range(m), i))
        for i in range(last + 1)
    ]
    resolver = Resolver(d)
    circles = {v: resolver.circles(v) for column in columns for v in column}

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

    shapes: dict[tuple, tuple] = {}  # one shared shape per (kind, circles, n)
    edges: list[tuple[tuple, ...]] = []
    edge = resolver.edge
    bits = [1 << j for j in range(m)]
    for i in range(last):
        zero, others = [], []  # crossing 0's records, then the rest
        for v in columns[i]:
            circle_of, n = circles[v]
            source = offsets[v]
            for j, bit in enumerate(bits):
                if v & bit:
                    continue
                w = v | bit
                kind, triple = edge(circle_of, circles[w][0], j)
                key = (kind, triple, n)
                shape = shapes.get(key)
                if shape is None:
                    shape = shapes[key] = _edge_shape(kind, triple, n)
                sign = -1 if (v & (bit - 1)).bit_count() & 1 else 1
                (zero if j == 0 else others).append((source, offsets[w], shape, sign))
        edges.append(tuple(zero + others))

    return ChainComplex(d, offsets, tuple(q_unnorm), tuple(edges), top)
