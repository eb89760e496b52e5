"""Link diagrams as signed crossing lists, and their cube resolutions.

A crossing is stored with its four arc endpoints (a, b, c, d): a is the
incoming understrand and b, c, d follow counterclockwise.  In this labeling
the 0-smoothing always joins (a, b) and (c, d) and the 1-smoothing joins
(a, d) and (b, c); over/under data alone fixes the smoothings, the sign is
only needed for the n+/n- normalization shifts, which is why PD input must
carry explicit signs.

Circles of a resolution are found by walking the arcs through the chosen
smoothings (`Resolver`).  They are numbered by their smallest arc label;
crossing-free components ("free loops") count as extra circles and are
ordered last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputError


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def classes(self):
        groups: dict[object, list] = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


@dataclass(frozen=True)
class Crossing:
    endpoints: tuple[int, int, int, int]  # (a, b, c, d), a = incoming under
    sign: int

    @property
    def through_pairs(self):
        a, b, c, d = self.endpoints
        return (a, c), (b, d)


@dataclass(frozen=True)
class Diagram:
    crossings: tuple[Crossing, ...]
    free_loops: int = 0
    # Braid-closure metadata (None for PD input): strand position of each
    # arc and of each free loop, and the strand count.
    arc_positions: tuple[int, ...] | None = None
    free_loop_positions: tuple[int, ...] | None = None
    strands: int | None = None

    def __post_init__(self):
        counts: dict[int, int] = {}
        for x in self.crossings:
            if x.sign not in (1, -1):
                raise InputError(f"crossing sign must be +1 or -1, got {x.sign}")
            for a in x.endpoints:
                counts[a] = counts.get(a, 0) + 1
        bad = [a for a, n in counts.items() if n != 2]
        if bad:
            raise InputError(
                f"arcs {sorted(bad)} do not appear exactly twice; diagram is not closed"
            )

    @property
    def arcs(self) -> tuple[int, ...]:
        return tuple(sorted({a for x in self.crossings for a in x.endpoints}))

    @property
    def n_plus(self) -> int:
        return sum(1 for x in self.crossings if x.sign == 1)

    @property
    def n_minus(self) -> int:
        return sum(1 for x in self.crossings if x.sign == -1)

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
        """Number of link components (through-strand connectivity)."""
        if not self.crossings:
            return self.free_loops
        uf = UnionFind(self.arcs)
        for x in self.crossings:
            for a, b in x.through_pairs:
                uf.union(a, b)
        return len(uf.classes()) + self.free_loops


@dataclass(frozen=True)
class Resolution:
    epsilon: tuple[int, ...]
    circles: tuple[frozenset, ...]  # real circles, sorted by minimal arc
    free_loops: int = 0

    @property
    def circle_count(self) -> int:
        return len(self.circles) + self.free_loops


@dataclass(frozen=True)
class EdgeTransition:
    from_epsilon: tuple[int, ...]
    to_epsilon: tuple[int, ...]
    kind: str  # "merge" | "split"
    # merge: circles (src_a, src_b) -> dst; split: circle src -> (dst_a, dst_b)
    merged: tuple[int, int, int] | None
    split: tuple[int, int, int] | None


def permute_crossings(d: Diagram, order) -> Diagram:
    """Same diagram with crossings listed in a different order."""
    order = list(order)
    if sorted(order) != list(range(d.crossing_count)):
        raise InputError("order must be a permutation of the crossing indices")
    return Diagram(
        crossings=tuple(d.crossings[k] for k in order),
        free_loops=d.free_loops,
        arc_positions=d.arc_positions,
        free_loop_positions=d.free_loop_positions,
        strands=d.strands,
    )


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
    _require_oriented(diagram, _require_planar(diagram))
    return diagram


def _require_planar(d: Diagram) -> dict:
    """Raise InputError unless the PD code's crossings embed in the plane.

    Corner (x, k) of crossing x lies between its endpoints k and k+1.  The
    arc leaving x at endpoint k+1 arrives at its other end (y, l), whose
    corner (y, l) borders the same face, so the cycles of this corner map
    are the faces.  By Euler's formula a planar diagram has n + 2 faces for
    each connected piece of its crossing graph.  Returns the arc-end map
    {(x, k): (y, l)}.
    """
    ends: dict[int, list[tuple[int, int]]] = {}
    for x, crossing in enumerate(d.crossings):
        for k, a in enumerate(crossing.endpoints):
            ends.setdefault(a, []).append((x, k))
    other = {}
    pieces = UnionFind(range(d.crossing_count))
    for p, q in ends.values():
        other[p], other[q] = q, p
        pieces.union(p[0], q[0])
    faces = 0
    unseen = set(other)
    while unseen:
        x, k = unseen.pop()
        faces += 1
        while (corner := other[(x, (k + 1) % 4)]) in unseen:
            unseen.remove(corner)
            x, k = corner
    expected = d.crossing_count + 2 * len(pieces.classes())
    if faces != expected:
        raise InputError(
            f"PD code is not planar: its {d.crossing_count} crossings bound "
            f"{faces} faces, a planar diagram has {expected}"
        )
    return other


def _require_oriented(d: Diagram, other: dict) -> None:
    """Raise InputError unless each component's signs fit one orientation.

    A walk entering crossing x at endpoint k leaves it at k+2.  Endpoint a
    (k = 0) is the incoming understrand and a positive overstrand runs
    d -> b, so the visit agrees with the walk iff k = 0, or k = 3 with sign
    +, or k = 1 with sign -.  Reversing the walk flips every visit, so the
    visits of one component must all agree or all disagree.
    """
    unseen = set(other)
    while unseen:
        x, k = unseen.pop()
        first = k in (0, 2 + d.crossings[x].sign)
        while (visit := other[(x, (k + 2) % 4)]) in unseen:
            unseen.remove(visit)
            x, k = visit
            if (k in (0, 2 + d.crossings[x].sign)) != first:
                raise InputError(
                    "the sign of crossing X[%d,%d,%d,%d] contradicts the "
                    "orientation of its component" % d.crossings[x].endpoints
                )


class Resolver:
    """Circles of the resolutions of one diagram, by arc index.

    Arc k is the k-th smallest arc label of the diagram.  Endpoint slot
    s = 4x + p is position p of crossing x.  The 0-smoothing joins the
    positions p and p ^ 1, the 1-smoothing joins p and p ^ 3, and an arc
    runs from one of its slots to the other, so a circle is a walk that
    alternates a smoothing and an arc.  A vertex of the cube is an integer
    v with bit j = epsilon[j].
    """

    def __init__(self, d: Diagram):
        index = {a: k for k, a in enumerate(d.arcs)}
        self.arc = [index[a] for x in d.crossings for a in x.endpoints]  # slot -> arc
        ends: dict[int, list[int]] = {}
        for s, k in enumerate(self.arc):
            ends.setdefault(k, []).append(s)
        self.first = [ends[k][0] for k in range(len(index))]  # arc -> a slot of it
        other = [0] * len(self.arc)
        for s, t in ends.values():
            other[s], other[t] = t, s
        # A walk arriving at slot s crosses the e-smoothing to the partner
        # slot and runs along its arc, arriving next at step[e][s].
        self.step = ([other[s ^ 1] for s in range(len(other))],
                     [other[s ^ 3] for s in range(len(other))])
        self.free_loops = d.free_loops
        self.crossings = d.crossings

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

    def edge(self, before: list[int], after: list[int],
             j: int) -> tuple[str, tuple[int, int, int]]:
        """Classify the edge flipping crossing j from 0 to 1.

        before and after are the circle_of lists of its two vertices.  The
        0-smoothing joins (a, b) and (c, d), the 1-smoothing (a, d) and
        (b, c).  Returns ("merge", (src_a, src_b, dst)) when a and c lie on
        two circles, else ("split", (src, dst_a, dst_b)), each pair
        ascending.  A circle through all four endpoints that the flip
        leaves whole makes the diagram non-planar: InputError.
        """
        a, b, c, _ = self.arc[4 * j:4 * j + 4]
        if before[a] != before[c]:
            return "merge", (*sorted((before[a], before[c])), after[a])
        if after[a] == after[b]:
            raise InputError(
                "flipping crossing X[%d,%d,%d,%d] neither merges nor splits "
                "circles: the diagram is not planar" % self.crossings[j].endpoints
            )
        return "split", (before[a], *sorted((after[a], after[b])))


def _vertex(d: Diagram, epsilon) -> int:
    """The cube vertex of epsilon as an integer (bit j = epsilon[j])."""
    if len(epsilon) != d.crossing_count:
        raise InputError(
            f"epsilon length {len(epsilon)} != crossing count {d.crossing_count}"
        )
    if any(e not in (0, 1) for e in epsilon):
        raise InputError("epsilon entries must be 0 or 1")
    return sum(e << j for j, e in enumerate(epsilon))


def resolve(d: Diagram, epsilon) -> Resolution:
    """Circles of the total resolution of d at the cube vertex epsilon."""
    epsilon = tuple(epsilon)
    circle_of, n = Resolver(d).circles(_vertex(d, epsilon))
    circles: list[list[int]] = [[] for _ in range(n - d.free_loops)]
    for a, k in zip(d.arcs, circle_of):
        circles[k].append(a)
    return Resolution(
        epsilon=epsilon,
        circles=tuple(frozenset(c) for c in circles),
        free_loops=d.free_loops,
    )


def edge_transition(d: Diagram, epsilon, flip_index: int) -> EdgeTransition:
    """Classify the cube edge at epsilon that flips crossing flip_index."""
    epsilon = tuple(epsilon)
    v = _vertex(d, epsilon)
    if not 0 <= flip_index < d.crossing_count:
        raise InputError(f"flip index {flip_index} out of range")
    if epsilon[flip_index] != 0:
        raise InputError(f"epsilon[{flip_index}] must be 0 to flip")
    target = epsilon[:flip_index] + (1,) + epsilon[flip_index + 1:]
    resolver = Resolver(d)
    kind, circles = resolver.edge(
        resolver.circles(v)[0], resolver.circles(v | 1 << flip_index)[0], flip_index
    )
    if kind == "merge":
        return EdgeTransition(epsilon, target, kind, circles, None)
    return EdgeTransition(epsilon, target, kind, None, circles)
