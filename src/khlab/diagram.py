"""Link diagrams as signed crossing lists, and their cube resolutions.

A crossing is stored with its four arc endpoints (a, b, c, d): a is the
incoming understrand and b, c, d follow counterclockwise.  In this labeling
the 0-smoothing always joins (a, b) and (c, d) and the 1-smoothing joins
(a, d) and (b, c); over/under data alone fixes the smoothings, the sign is
only needed for the n+/n- normalization shifts, which is why PD input must
carry explicit signs.

Slot s = 4x + k is endpoint k of crossing x, and `Diagram.other[s]` is the
slot at the other end of its arc: the one table of which arc end meets
which, built where the diagram is checked to be closed.  The rest walks it:
- a strand runs through crossing x from slot s to s ^ 2, so the cycles of
  s -> other[s ^ 2] are the link's components, each once per direction
  (`component_count`, and from_pd's orientation check);
- the corner after endpoint k borders the same face as the corner at the
  far end of the arc leaving at k + 1, so the cycles of that corner map are
  the faces (from_pd's planarity check);
- a circle of a resolution alternates a smoothing and an arc (`Resolver`).
Circles are numbered by their smallest arc label; crossing-free components
("free loops") count as extra circles and are ordered last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import InputError


@dataclass(frozen=True)
class Crossing:
    endpoints: tuple[int, int, int, int]  # (a, b, c, d), a = incoming under
    sign: int


@dataclass(frozen=True)
class Diagram:
    crossings: tuple[Crossing, ...]
    free_loops: int = 0
    # Braid-closure metadata (None for PD input): strand position of each
    # arc and of each free loop, and the strand count.
    arc_positions: tuple[int, ...] | None = None
    free_loop_positions: tuple[int, ...] | None = None
    strands: int | None = None
    # Set by __post_init__: the arc labels ascending, and slot -> partner slot.
    arcs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    other: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ends: dict[int, list[int]] = {}  # arc label -> its slots
        s = 0
        for x in self.crossings:
            if x.sign not in (1, -1):
                raise InputError(f"crossing sign must be +1 or -1, got {x.sign}")
            for a in x.endpoints:
                ends.setdefault(a, []).append(s)
                s += 1
        bad = [a for a, slots in ends.items() if len(slots) != 2]
        if bad:
            raise InputError(
                f"arcs {sorted(bad)} do not appear exactly twice; diagram is not closed"
            )
        other = [0] * s
        for t, u in ends.values():
            other[t], other[u] = u, t
        object.__setattr__(self, "arcs", tuple(sorted(ends)))
        object.__setattr__(self, "other", tuple(other))

    @property
    def n_plus(self) -> int:
        return sum(1 for x in self.crossings if x.sign == 1)

    @property
    def n_minus(self) -> int:
        return sum(1 for x in self.crossings if x.sign == -1)

    @property
    def shift(self) -> tuple[int, int]:
        """(di, dq) from cube degrees to normalized ones: (-n_minus, n_plus - 2 n_minus)."""
        return -self.n_minus, self.n_plus - 2 * self.n_minus

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def to_pd(self) -> str:
        """Signed PD text, one "X[a,b,c,d] <sign>" line per crossing; InputError on free loops."""
        if self.free_loops:
            raise InputError(f"{self.free_loops} free loop(s) cannot be written as PD")
        return "".join(f"X[{a},{b},{c},{d}] {'+' if x.sign > 0 else '-'}\n"
                       for x in self.crossings for a, b, c, d in [x.endpoints])

    def component_count(self) -> int:
        """Number of link components: half the cycles of s -> other[s ^ 2], plus the free loops."""
        other = self.other
        return len(_cycles([other[s ^ 2] for s in range(len(other))])) // 2 + self.free_loops


_PD_LINE = re.compile(
    r"^\s*X\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\s*([+-])\s*$"
)


def from_pd(text: str) -> Diagram:
    """Parse signed PD text: one crossing per line, "X[a,b,c,d] <sign>"."""
    crossings = []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        m = _PD_LINE.match(line)
        if m is None:
            raise InputError(f"malformed PD record: {line.strip()!r}")
        a, b, c, d = (int(m.group(k)) for k in range(1, 5))
        sign = 1 if m.group(5) == "+" else -1
        crossings.append(Crossing(endpoints=(a, b, c, d), sign=sign))
    diagram = Diagram(crossings=tuple(crossings))
    _require_planar(diagram)
    _require_oriented(diagram)
    return diagram


def _cycles(step) -> list[list[int]]:
    """The cycles of the permutation s -> step[s] in order of their smallest
    slot, each listed from that slot along the permutation."""
    seen = [False] * len(step)
    cycles = []
    for s, t in enumerate(step):
        if not seen[s]:
            seen[s] = True
            cycle = [s]
            while t != s:
                seen[t] = True
                cycle.append(t)
                t = step[t]
            cycles.append(cycle)
    return cycles


_BYTE_CODES = bytes(range(256))


def _apply_table(before: tuple, table: tuple) -> tuple:
    """before with each circle k replaced by table[k]: bytes.translate for tuples."""
    return tuple(map(table.__getitem__, before))


def _require_planar(d: Diagram) -> None:
    """Raise InputError unless the PD code's crossings embed in the plane.

    The corner at slot s = 4x + k lies between endpoints k and k + 1 of
    crossing x.  The arc leaving x at endpoint k + 1 arrives at its other
    slot, whose corner borders the same face, so the cycles of this corner
    map are the faces.  By Euler's formula a planar diagram has n + 2 faces
    for each connected piece of its crossing graph; a walk over other finds
    the pieces.
    """
    other, n = d.other, d.crossing_count
    faces = len(_cycles([other[(s & -4) | ((s + 1) & 3)] for s in range(4 * n)]))
    pieces, reached = 0, set()
    for x in range(n):
        if x not in reached:
            pieces += 1
            stack = [x]
            while stack:
                y = stack.pop()
                if y not in reached:
                    reached.add(y)
                    stack.extend(t >> 2 for t in other[4 * y:4 * y + 4])
    if faces != n + 2 * pieces:
        raise InputError(
            f"PD code is not planar: its {n} crossings bound "
            f"{faces} faces, a planar diagram has {n + 2 * pieces}"
        )


def _require_oriented(d: Diagram) -> None:
    """Raise InputError unless each component's signs fit one orientation.

    A walk entering crossing x at slot s = 4x + k leaves it at s ^ 2, so it
    follows a cycle of s -> other[s ^ 2].  Endpoint a (k = 0) is the
    incoming understrand and a positive overstrand runs d -> b, so the visit
    agrees with the walk iff k = 0, or k = 3 with sign +, or k = 1 with
    sign -.  Reversing the walk flips every visit, so the visits of one
    cycle must all agree or all disagree; the first that differs from its
    cycle's first visit names the crossing.
    """
    other, crossings = d.other, d.crossings
    for cycle in _cycles([other[s ^ 2] for s in range(len(other))]):
        first = cycle[0] & 3 in (0, 2 + crossings[cycle[0] >> 2].sign)
        for s in cycle:
            if (s & 3 in (0, 2 + crossings[s >> 2].sign)) != first:
                raise InputError(
                    "the sign of crossing X[%d,%d,%d,%d] contradicts the "
                    "orientation of its component" % crossings[s >> 2].endpoints
                )


class Resolver:
    """Circles of the resolutions of one diagram, by arc index.

    Arc k is the k-th smallest arc label of the diagram.  The 0-smoothing
    joins slots s and s ^ 1, the 1-smoothing joins s and s ^ 3, and the
    diagram's slot table sends s along its arc to other[s], so a circle is
    a walk that alternates a smoothing and an arc.  A vertex of the cube is
    an integer v with bit j = epsilon[j].
    """

    def __init__(self, d: Diagram):
        """Read d's slot table once into the walk and per-crossing arc tables
        that circles and edge read."""
        index = {a: k for k, a in enumerate(d.arcs)}
        self.arc = arc = [index[a] for x in d.crossings for a in x.endpoints]  # slot -> arc
        other = d.other
        self.first = [0] * len(index)  # arc -> its lower slot
        for s, t in enumerate(other):
            if s < t:
                self.first[arc[s]] = s
        # A walk arriving at slot s crosses the e-smoothing to the partner
        # slot and runs along its arc, arriving next at step[e][s].
        self.step = ([other[s ^ 1] for s in range(len(other))],
                     [other[s ^ 3] for s in range(len(other))])
        # Crossing j's arcs at its endpoints a, b, c: all that edge(., ., j) reads.
        self.abc = [tuple(arc[s:s + 3]) for s in range(0, len(arc), 4)]
        self.free_loops = d.free_loops
        self.crossings = d.crossings
        # Circle indices are below the arc count, so bytes hold a circle_of
        # up to 256 arcs, and bytes.translate relabels it; tuples hold more.
        # codes[k] = k, sliced into the relabelling tables (see _relabel).
        if len(self.first) <= 256:
            self.pack, self.mutable, self.codes = bytes, bytearray, _BYTE_CODES
            self.apply = bytes.translate
        else:
            self.pack, self.mutable, self.codes = tuple, list, tuple(range(len(self.first) + 1))
            self.apply = _apply_table
        self.tables: dict[tuple[int, int, int], bytes | tuple] = {}

    def circles(self, v: int) -> tuple[list[int], int]:
        """(circle_of, count) at vertex v.

        circle_of[k] is the circle through arc k.  Circles are numbered in
        order of their smallest arc; the free loops, which have no arcs,
        are the last count - free_loops .. count - 1.
        """
        arc, (step0, step1) = self.arc, self.step
        circle_of = [-1] * len(self.first)
        n = 0
        for k, s in enumerate(self.first):
            if circle_of[k] >= 0:
                continue
            while circle_of[arc[s]] < 0:
                circle_of[arc[s]] = n
                s = step1[s] if v >> (s >> 2) & 1 else step0[s]
            n += 1
        return circle_of, n + self.free_loops

    def child(self, before, n: int, v: int) -> tuple:
        """(circle_of, count) at vertex v > 0, made from before and n, those
        of its parent v & (v - 1), which lacks only v's lowest bit j.

        circle_of comes as pack makes it, and before must be made so too.
        Flipping crossing j merges the circles of its arcs a and c when they
        differ, and splits their circle x otherwise (see edge).  A merge of
        x < y keeps x and moves the circles above y down one.  A split walks
        the circle through endpoint a at v: the half of x that lacks x's
        smallest arc is the new circle, numbered after every circle whose
        smallest arc is smaller, and the circles from that number on move up
        one.  Either way every arc is relabelled through one table, made
        once per change (see _relabel), and only the walked arcs are set.
        """
        j = (v & -v).bit_length() - 1
        a, b, c = self.abc[j]
        x, y = before[a], before[c]
        if x != y:
            return (self._relabel(before, x, y, -1) if x < y else
                    self._relabel(before, y, x, -1)), n - 1
        arc, (step0, step1) = self.arc, self.step
        arcs, s = [], 4 * j
        while True:  # the circle through endpoint a
            arcs.append(arc[s])
            s = step1[s] if v >> (s >> 2) & 1 else step0[s]
            if s == 4 * j:
                break
        if b in arcs:  # the flip leaves the circle whole: not planar (see edge)
            return before, n
        if before.index(x) in arcs:
            # The walked half keeps x; the new circle starts at the first arc
            # of x outside it, and its arcs, not walked, move from x.
            marked = self.mutable(before)
            for k in arcs:
                marked[k] = x ^ 1
            low = marked.index(x)
            new = max(before[:low]) + 1
            after, label = self.mutable(self._relabel(before, x, new, new)), x
        else:
            new = max(before[:min(arcs)]) + 1
            after, label = self.mutable(self._relabel(before, x, new, x)), new
        for k in arcs:
            after[k] = label
        return self.pack(after), n + 1

    def _relabel(self, before, x: int, at: int, moved: int):
        """before with circle x sent to moved and the circles from at on moved
        up one, or, for moved = -1, with circle at merged into x < at and the
        circles above at moved down one.  The table is cut from codes once
        per change: codes[v:v + 1] holds the one code v."""
        key = x, at, moved
        table = self.tables.get(key)
        if table is None:
            codes = self.codes
            if moved < 0:
                table = codes[:at] + codes[x:x + 1] + codes[at:-1]
            else:
                table = (codes[:x] + codes[moved:moved + 1] + codes[x + 1:at] +
                         codes[at + 1:] + codes[-1:])
            self.tables[key] = table
        return self.apply(before, table)

    def edge(self, before: list[int], after: list[int],
             j: int) -> tuple[str, tuple[int, int, int]]:
        """Classify the edge flipping crossing j from 0 to 1.

        before and after are the circle_of lists of its two vertices, and
        the arcs it reads are crossing j's entry of the table abc.  The
        0-smoothing joins (a, b) and (c, d), the 1-smoothing (a, d) and
        (b, c).  Returns ("merge", (src_a, src_b, dst)) when a and c lie on
        two circles, else ("split", (src, dst_a, dst_b)), each pair
        ascending.  A circle through all four endpoints that the flip
        leaves whole makes the diagram non-planar: InputError.
        """
        a, b, c = self.abc[j]
        x, y = before[a], before[c]
        if x != y:
            return "merge", (x, y, after[a]) if x < y else (y, x, after[a])
        x, y = after[a], after[b]
        if x == y:
            raise InputError(
                "flipping crossing X[%d,%d,%d,%d] neither merges nor splits "
                "circles: the diagram is not planar" % self.crossings[j].endpoints
            )
        return "split", (before[a], x, y) if x < y else (before[a], y, x)
