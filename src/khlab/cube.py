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
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .diagram import Diagram, Resolver
from .errors import CapExceededError

ONE = 0
EX = 1

DEFAULT_CAP = 20


@dataclass(frozen=True)
class ChainComplex:
    diagram: Diagram
    offsets: dict[int, int]  # vertex v -> index of its first state in column |v|
    q_unnorm: tuple[tuple[int, ...], ...]  # index = homological column
    diffs: tuple[dict, ...]  # diffs[i]: {(row, col): coef}, column i -> i+1
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


def _spread(code: int, bits) -> int:
    """code with a 0 inserted at each of the ascending single-bit masks."""
    for bit in bits:
        low = code & (bit - 1)
        code = (code - low) << 1 | low
    return code


def build_complex(d: Diagram, cap: int = DEFAULT_CAP, top: int | None = None) -> ChainComplex:
    """Enumerate the cube and assemble the graded columns and differentials.

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
    index: list[list[int]] = []  # shared ints for the (row, col) keys
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
        index.append(list(range(len(qs))))

    spread_codes: dict[tuple[int, tuple[int, ...]], list[int]] = {}

    def spread_all(count: int, bits: tuple[int, ...]) -> list[int]:
        """[_spread(r, bits) for r in range(count)], made once per build."""
        codes = spread_codes.get((count, bits))
        if codes is None:
            codes = spread_codes[count, bits] = [_spread(r, bits) for r in range(count)]
        return codes

    diffs: list[dict] = []
    for i in range(last):
        entries: dict[tuple[int, int], int] = {}
        writes = 0
        cols, rows = index[i], index[i + 1]
        for v in columns[i]:
            circle_of, n = circles[v]
            for j in range(m):
                if (v >> j) & 1:
                    continue
                w = v | (1 << j)
                kind, (ia, ib, ic) = resolver.edge(circle_of, circles[w][0], j)
                sign = -1 if (v & ((1 << j) - 1)).bit_count() & 1 else 1
                # (source bits, target bits) of the three nonzero images:
                # m(1.1) = 1, m(1.x) = m(x.1) = x; D(1) = 1.x + x.1, D(x) = x.x
                # edge() gives each pair of circles ascending, so the masks
                # b < a (merge) and c < b (split) are already ascending.
                if kind == "merge":
                    a, b, c = 1 << (n - 1 - ia), 1 << (n - 1 - ib), 1 << (n - 2 - ic)
                    gone, new = (b, a), (c,)
                    images = ((0, 0), (a, c), (b, c))
                else:
                    a, b, c = 1 << (n - 1 - ia), 1 << (n - ib), 1 << (n - ic)
                    gone, new = (a,), (c, b)
                    images = ((0, c), (0, b), (a, b | c))
                ov, ow, rest = offsets[v], offsets[w], 1 << (n - len(gone))
                for s, u in zip(spread_all(rest, gone), spread_all(rest, new)):
                    s += ov
                    u += ow
                    for ds, du in images:
                        entries[rows[u + du], cols[s + ds]] = sign
                writes += 3 * rest
        # Each (row, col) belongs to one edge and one image, so nothing may
        # land twice: a collision means the circle matching went wrong.
        if writes != len(entries):
            raise AssertionError(f"d^{i}: {writes} writes hit {len(entries)} entries")
        diffs.append(entries)

    return ChainComplex(d, offsets, tuple(q_unnorm), tuple(diffs), top)
