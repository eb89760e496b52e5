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
edge, the tuple (source, target, rest, gone, new, images, sign): the
offsets of its source and target vertices, the count of label codes of the
circles it leaves alone, the ascending single-bit masks of the label bits
it deletes from the source and inserts into the target, the (source bits,
target bits) of its nonzero images, and its sign.  Source state
source + _spread(r, gone) + s maps to target + _spread(r, new) + t, with
coefficient sign, for each r < rest and each image (s, t).
`ChainComplex.blocks(i)` expands d^i from these records straight into the
columns of its per-q blocks, {col: {row: sign}} with block-local indices,
checking every entry's grading as it writes it and leaving out the columns
it is told are cancelled.  Those columns are the ones the Smith normal
form eliminates on, with no other copy in between.  That is the only place
entries are made: `ChainComplex.diffs` and `homology.differential_matrices`
are views built from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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

    def local(self, i: int) -> tuple[list[int], dict[int, int]]:
        """Each state's index within its q-block of column i, and each q-block's size."""
        sizes: dict[int, int] = {}
        at = []
        for q in self.q_unnorm[i]:
            k = sizes.get(q, 0)
            at.append(k)
            sizes[q] = k + 1
        return at, sizes

    def blocks(self, i: int, cancelled: dict | None = None,
               local: tuple | None = None) -> dict[int, GradedMatrix]:
        """d^i as the diagonal block of every q-degree of a row or a column.

        Expands the edge records of d^i straight into the columns of the
        blocks, with block-local indices (see local; local may pass
        (self.local(i), self.local(i + 1)) when the caller has them).
        cancelled maps a q-degree to local columns of its block that are
        left out (see homology.homology_table).  Raises AssertionError, also
        under -O, on an entry that changes q (named by its row and column in
        the columns of the complex), cancelled or not, or on two writes to
        one entry.
        """
        col_q, row_q = self.q_unnorm[i], self.q_unnorm[i + 1]
        (c_at, nc), (r_at, nr) = local or (self.local(i), self.local(i + 1))
        columns: list[dict[int, int]] = [{} for _ in col_q]  # by column of the complex
        spread: dict[tuple[int, tuple[int, ...]], list[int]] = {}

        def codes(count: int, bits: tuple[int, ...]) -> list[int]:
            """[_spread(r, bits) for r in range(count)], made once per call."""
            out = spread.get((count, bits))
            if out is None:
                out = spread[count, bits] = [_spread(r, bits) for r in range(count)]
            return out

        writes = 0
        for source, target, rest, gone_bits, new_bits, images, sign in self.edges[i]:
            for s, u in zip(codes(rest, gone_bits), codes(rest, new_bits)):
                s += source
                u += target
                for ds, du in images:
                    col, row = s + ds, u + du
                    if row_q[row] != col_q[col]:
                        raise AssertionError(
                            f"entry at ({row},{col}) connects q={col_q[col]} to q={row_q[row]}")
                    columns[col][r_at[row]] = sign
            writes += len(images) * rest
        # Each (row, col) belongs to one edge and one image, so nothing may
        # land twice: a collision means the circle matching went wrong.
        kept = sum(map(len, columns))
        if writes != kept:
            raise AssertionError(f"d^{i}: {writes} writes hit {kept} entries")
        gone = {q: set(cols) for q, cols in (cancelled or {}).items()}
        parts: dict[int, dict] = {q: {} for q in nr | nc}
        for q, k, col in zip(col_q, c_at, columns):
            if col and k not in gone.get(q, ()):
                parts[q][k] = col
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
    """(rest, gone, new, images) of an edge record on a source vertex of n circles.

    circles is Resolver.edge's triple; it gives each pair of circles
    ascending, so the masks b < a (merge) and c < b (split) are ascending.
    The images are m(1.1) = 1, m(1.x) = m(x.1) = x; D(1) = 1.x + x.1,
    D(x) = x.x.
    """
    ia, ib, ic = circles
    if kind == "merge":
        a, b, c = 1 << (n - 1 - ia), 1 << (n - 1 - ib), 1 << (n - 2 - ic)
        return 1 << (n - 2), (b, a), (c,), ((0, 0), (a, c), (b, c))
    a, b, c = 1 << (n - 1 - ia), 1 << (n - ib), 1 << (n - ic)
    return 1 << (n - 1), (a,), (c, b), ((0, c), (0, b), (a, b | c))


def build_complex(d: Diagram, cap: int = DEFAULT_CAP, top: int | None = None) -> ChainComplex:
    """Enumerate the cube: the graded columns and the edge records of the differentials.

    Basis order within a column: epsilon ascending as an m-bit integer
    (bit j = epsilon[j]), then label vectors lexicographically with
    ONE < EX.  With top < m only the vertices of weight <= top are
    enumerated, so the complex holds columns 0..top and d^0..d^(top-1),
    each equal to the full cube's, and records top; top >= m builds the
    full cube.  Raises CapExceededError when m exceeds the cap.
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
    for i in range(last):
        column = []
        for v in columns[i]:
            circle_of, n = circles[v]
            for j in range(m):
                if (v >> j) & 1:
                    continue
                w = v | (1 << j)
                key = (*resolver.edge(circle_of, circles[w][0], j), n)
                shape = shapes.get(key)
                if shape is None:
                    shape = shapes[key] = _edge_shape(*key)
                sign = -1 if (v & ((1 << j) - 1)).bit_count() & 1 else 1
                column.append((offsets[v], offsets[w], *shape, sign))
        edges.append(tuple(column))

    return ChainComplex(d, offsets, tuple(q_unnorm), tuple(edges), top)
