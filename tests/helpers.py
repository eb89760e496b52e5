"""Shared test utilities: independent linear-algebra oracles and word generators.

The oracles deliberately avoid the engine's Smith normal form: free ranks
come from Gaussian elimination over the rationals (fractions.Fraction) and
torsion cross-checks come from sympy's Smith normal form.
"""

import dataclasses
from fractions import Fraction
from itertools import product
from random import Random
from typing import NamedTuple

import khlab as K
from khlab import invariants
from khlab.cube import EX, ONE
from khlab.errors import InputError
from khlab.homology import GradedMatrix, differential_matrices


def from_entries(rows: int, cols: int, entries: dict, row_q, col_q) -> GradedMatrix:
    """The GradedMatrix with entries {(row, col): value}, zeros left out."""
    columns: dict[int, dict[int, int]] = {}
    for (r, c), v in entries.items():
        if v:
            columns.setdefault(c, {})[r] = v
    return GradedMatrix(rows, cols, columns, tuple(row_q), tuple(col_q))


def rational_rank(mat: GradedMatrix) -> int:
    """Rank over Q by dense fraction Gaussian elimination."""
    rows = [[Fraction(0)] * mat.cols for _ in range(mat.rows)]
    for (r, c), v in mat.entries.items():
        rows[r][c] = Fraction(v)
    rank = 0
    col = 0
    while rank < mat.rows and col < mat.cols:
        pivot = next((r for r in range(rank, mat.rows) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, mat.rows):
            if rows[r][col]:
                f = rows[r][col] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def restrict_reference(mat: GradedMatrix, q: int) -> GradedMatrix:
    """The q-block of mat, filtered on its own: the oracle for GradedMatrix.restrict
    and ChainComplex.blocks."""
    rsel = [r for r in range(mat.rows) if mat.row_q[r] == q]
    csel = [c for c in range(mat.cols) if mat.col_q[c] == q]
    rmap = {r: k for k, r in enumerate(rsel)}
    cmap = {c: k for k, c in enumerate(csel)}
    sub = {
        (rmap[r], cmap[c]): v
        for (r, c), v in mat.entries.items()
        if r in rmap and c in cmap
    }
    return from_entries(len(rsel), len(csel), sub, (q,) * len(rsel), (q,) * len(csel))


def unit_pivots_reference(mat: GradedMatrix) -> tuple[int, ...]:
    """The rows of the unit phase's +-1 pivots, by dense elimination.

    Rows in index order; in each row, the +-1 entry in the column with the
    fewest nonzeros, ties to the lower column.  Column operations clear the
    rest of the row and the pivot column is dropped: the oracle for
    SmithForm.units.
    """
    a = [[0] * mat.cols for _ in range(mat.rows)]
    for (r, c), v in mat.entries.items():
        a[r][c] = v
    alive = set(range(mat.cols))
    pivots = []
    for r0, row0 in enumerate(a):
        units = [c for c in alive if abs(row0[c]) == 1]
        if not units:
            continue
        c0 = min(units, key=lambda c: (sum(1 for row in a if row[c]), c))
        alive.remove(c0)
        for c in alive:
            f = row0[c] * row0[c0]
            if f:
                for row in a:
                    row[c] -= f * row[c0]
        pivots.append(r0)
    return tuple(pivots)


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def classes(self):
        groups: dict[object, list] = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


def braid_closure_reference(w: K.BraidWord) -> tuple:
    """The closure of w by provisional arcs, a map from each position's last
    arc to its top arc and a relabel table in first-sight order: the oracle
    for braid_closure.  Returns (crossings as (endpoints, sign) in (i, alpha)
    order, free_loops, arc_positions, free_loop_positions, strands).
    """
    p = w.strands
    init = list(range(p))
    position = {a: a + 1 for a in init}
    cur = list(init)
    seen: dict[int, int] = {}
    raw = []  # ((generator, occurrence), provisional endpoints, sign)
    for gen, sign in w.letters:
        seen[gen] = seen.get(gen, 0) + 1
        t_lo, t_hi = cur[gen - 1], cur[gen]
        b_lo, b_hi = len(position), len(position) + 1
        position[b_lo], position[b_hi] = gen, gen + 1
        ends = (t_lo, b_lo, b_hi, t_hi) if sign == 1 else (t_hi, t_lo, b_lo, b_hi)
        raw.append(((gen, seen[gen]), ends, sign))
        cur[gen - 1], cur[gen] = b_lo, b_hi
    closed = {cur[k]: init[k] for k in range(p)}
    reps: list[int] = []
    rep_index: dict[int, int] = {}
    for _, ends, _ in raw:
        for a in ends:
            r = closed.get(a, a)
            if r not in rep_index:
                rep_index[r] = len(reps)
                reps.append(r)
    raw.sort(key=lambda item: item[0])
    crossings = tuple((tuple(rep_index[closed.get(a, a)] for a in ends), sign)
                      for _, ends, sign in raw)
    used = {pos for gen, _ in w.letters for pos in (gen, gen + 1)}
    free = tuple(pos for pos in range(1, p + 1) if pos not in used)
    return crossings, len(free), tuple(position[r] for r in reps), free, p


def braid_permutation_reference(w: K.BraidWord) -> tuple:
    """(mapping, cycles) of w's strand permutation, each cycle walked from
    its smallest strand with a visited set: the oracle for braid_permutation."""
    perm = list(range(1, w.strands + 1))
    for gen, _ in w.letters:
        perm[gen - 1], perm[gen] = perm[gen], perm[gen - 1]
    cycles, visited = [], set()
    for start in range(1, w.strands + 1):
        if start in visited:
            continue
        cycle = []
        k = start
        while k not in visited:
            visited.add(k)
            cycle.append(k)
            k = perm[k - 1]
        cycles.append(tuple(cycle))
    return tuple(perm), tuple(cycles)


def require_planar_reference(d: K.Diagram) -> dict:
    """Raise InputError unless d's crossings embed in the plane, by faces
    and pieces counted over corners keyed (crossing, endpoint): the oracle
    for from_pd's planarity check.  Returns the arc-end map {(x, k): (y, l)}.

    Corner (x, k) lies between endpoints k and k+1; the arc leaving x at
    k+1 arrives at (y, l), whose corner borders the same face.  A planar
    diagram has n + 2 faces per connected piece of its crossing graph.
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


def require_oriented_reference(d: K.Diagram, other: dict) -> None:
    """Raise InputError unless each component's visits agree with one
    orientation, walking (x, k) -> other[(x, k + 2)] from set.pop() starts:
    the oracle for from_pd's orientation check, which may name another
    crossing of the same contradiction.  A visit at endpoint k agrees with
    the walk iff k = 0, or k = 3 with sign +, or k = 1 with sign -.
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


def component_count_reference(d: K.Diagram) -> int:
    """Union-find classes of arc labels joined through each crossing (a with
    c, b with d), plus the free loops: the oracle for Diagram.component_count."""
    uf = UnionFind(sorted({a for x in d.crossings for a in x.endpoints}))
    for x in d.crossings:
        a, b, c, f = x.endpoints
        uf.union(a, c)
        uf.union(b, f)
    return len(uf.classes()) + d.free_loops


def resolve_reference(d: K.Diagram, epsilon) -> tuple[list[int], int]:
    """Circles as union-find classes of arc labels, numbered by smallest arc:
    the oracle for Resolver.circles, as its (circle_of, count)."""
    arcs = sorted({a for x in d.crossings for a in x.endpoints})
    uf = UnionFind(arcs)
    for x, e in zip(d.crossings, epsilon):
        a, b, c, f = x.endpoints
        for u, v in (((a, b), (c, f)) if e == 0 else ((a, f), (b, c))):
            uf.union(u, v)
    classes = sorted(uf.classes(), key=min)
    number = {a: k for k, circle in enumerate(classes) for a in circle}
    return [number[a] for a in arcs], len(classes) + d.free_loops


def circle_sets(circle_of: list[int]) -> list[frozenset]:
    """Each circle with arcs as the set of its arc indices, in circle order."""
    sets: dict[int, set] = {}
    for k, n in enumerate(circle_of):
        sets.setdefault(n, set()).add(k)
    return [frozenset(sets[n]) for n in sorted(sets)]


def classify_edge_reference(before: list[int], after: list[int]) -> tuple[str, tuple[int, int, int]]:
    """Match the circles of an edge's two vertices as sets of arcs: the oracle
    for Resolver.edge, as its (kind, circles)."""
    src, dst = circle_sets(before), circle_sets(after)
    src_set, dst_set = set(src), set(dst)
    gone = [k for k, c in enumerate(src) if c not in dst_set]
    new = [k for k, c in enumerate(dst) if c not in src_set]
    if len(gone) == 2 and len(new) == 1 and src[gone[0]] | src[gone[1]] == dst[new[0]]:
        return "merge", (*gone, *new)
    if len(gone) == 1 and len(new) == 2 and dst[new[0]] | dst[new[1]] == src[gone[0]]:
        return "split", (*gone, *new)
    raise InputError("edge is neither a merge nor a split: the diagram is not planar")


class LabeledState(NamedTuple):
    epsilon: tuple[int, ...]
    labels: tuple[int, ...]  # labels[k] is the label of circle k (ONE or EX)


def decode_bases(c) -> tuple[tuple[LabeledState, ...], ...]:
    """Every column of c as labeled states in basis order: the oracle for ChainComplex.index.

    Vertices ascend as m-bit integers (bit j = epsilon[j]) and each one's
    labelings ascend lexicographically with ONE < EX, over the circles of
    resolve_reference.
    """
    d, m = c.diagram, c.m
    bases = []
    for i in range(len(c.q_unnorm)):
        states = []
        for v in sorted(v for v in range(1 << m) if v.bit_count() == i):
            eps = tuple((v >> j) & 1 for j in range(m))
            n = resolve_reference(d, eps)[1]
            states += [LabeledState(eps, ls) for ls in product((ONE, EX), repeat=n)]
        bases.append(tuple(states))
    return tuple(bases)


def edge_references(c, i: int) -> list:
    """The edges of d^i from decoded states and set circles, in the record
    order: the oracle for ChainComplex.records.

    Each edge v -> v | 1 << j is (source, target, sign, entries), with the
    offsets of its vertices, (-1)^(number of 1s before j) and its entries
    {(row, col): sign}: v ascending, and each v's edges with j ascending
    from 0.  Every state of v maps along the edge: classify_edge_reference
    names the circles it merges or splits; m(1.1) = 1, m(1.x) = m(x.1) = x,
    m(x.x) = 0, D(1) = 1.x + x.1 and D(x) = x.x give their labels, and every
    other circle keeps its label.
    """
    d, bases = c.diagram, decode_bases(c)
    rows = {state: k for k, state in enumerate(bases[i + 1])}
    source_of, target_of = {}, {}  # epsilon -> the index of its first state in column i, i + 1
    for at, states in ((source_of, bases[i]), (target_of, bases[i + 1])):
        for k, s in enumerate(states):
            at.setdefault(s.epsilon, k)
    resolutions: dict[tuple, tuple[list[int], list]] = {}

    def circles(eps):
        """circle_of at eps and its circles as keys shared by all vertices."""
        if eps not in resolutions:
            circle_of, n = resolve_reference(d, eps)
            keys: list = circle_sets(circle_of)
            resolutions[eps] = circle_of, keys + [("free", k) for k in range(n - len(keys))]
        return resolutions[eps]

    def edge(eps, j):
        target = eps[:j] + (1,) + eps[j + 1:]
        (src, src_keys), (dst, dst_keys) = circles(eps), circles(target)
        kind, (a, b, e) = classify_edge_reference(src, dst)
        sign = (-1) ** sum(eps[:j])
        entries = {}
        for col in range(source_of[eps], len(bases[i])):
            if bases[i][col].epsilon != eps:
                break
            labels = bases[i][col].labels
            kept = {key: label for key, label in zip(src_keys, labels)}
            if kind == "merge":
                la, lb = labels[a], labels[b]
                images = [] if la == lb == EX else [{e: ONE if la == lb == ONE else EX}]
            else:
                images = ([{b: ONE, e: EX}, {b: EX, e: ONE}] if labels[a] == ONE
                          else [{b: EX, e: EX}])
            for image in images:
                out_labels = tuple(image[k] if k in image else kept[key]
                                   for k, key in enumerate(dst_keys))
                entries[rows[LabeledState(target, out_labels)], col] = sign
        return source_of[eps], target_of[target], sign, entries

    vertices = sorted(source_of, key=lambda eps: sum(e << j for j, e in enumerate(eps)))
    return [edge(eps, j) for eps in vertices for j in range(c.m) if eps[j] == 0]


def differential_reference(c, i: int) -> dict:
    """d^i as {(row, col): sign}, the union of edge_references' entries: the
    oracle for ChainComplex.diffs and ChainComplex.blocks."""
    out = {}
    for _, _, _, entries in edge_references(c, i):
        for key, sign in entries.items():
            if key in out:
                raise AssertionError(f"two edges reach ({key[0]},{key[1]})")
            out[key] = sign
    return out


def record_entries(record) -> dict:
    """The entries {(row, col): sign} that one record of ChainComplex.records
    writes, by the layout the cube module's docstring gives."""
    source, target, (sources, targets, images), sign = record
    return {(target + t + dt, source + s + ds): sign
            for s, t in zip(sources, targets) for ds, dt in images}


def crossing0_ends(c, i: int) -> set:
    """The (source, target) offsets of crossing 0's edges v -> v | 1 in d^i,
    which pick out crossing 0's records among c.records(i)."""
    if i + 1 >= len(c.q_unnorm):
        return set()
    after = c.vertices[i + 1]
    return {(offset, after[v | 1][0]) for v, (offset, _, _) in c.vertices[i].items() if not v & 1}


def with_records(c, alter):
    """A copy of c whose records(i, kinds) are alter(i, c.records(i)): every
    record, with no edge skipped, so that a test can corrupt the records
    that blocks reads."""
    copy = dataclasses.replace(c)
    object.__setattr__(copy, "records", lambda i, kinds=None: alter(i, c.records(i)))
    return copy


def reduced_differential_reference(c, i: int) -> tuple[dict, int]:
    """d'^i = d_KK - d_KM' phi^-1 d_MK as {q: GradedMatrix}, and the number of
    entries d(k)[m'] it folds: the oracle for ChainComplex.blocks given
    local(i, True) and local(i + 1, True).

    M and M' come from decoded states and set circles at each edge
    v -> v | 1 of crossing 0, not from the kinds ChainComplex.local reads:
    for a merge, M = v's states whose first merged circle is ONE and M' =
    all of v | 1's; for a split, M = all of v's states and M' = v | 1's
    states whose first new circle is EX.  In the top column of a truncated cube v | 1 is not
    built, but v's M is still found, by resolving v | 1 here.  phi pairs
    each state of M with the one row of M' in its column of raw d^i, which
    must be +1.  K is every other state, with local index its rank by column
    index within its q.
    """
    d, bases = c.diagram, decode_bases(c)
    raw = differential_matrices(c)
    m_of = [set() for _ in bases]
    m_prime = [set() for _ in range(len(bases) + 1)]  # the last one is never built
    edge_of: dict[tuple, tuple] = {}  # epsilon of v -> its crossing-0 edge, classified
    for j in range(len(c.q_unnorm)):
        targets = {s: r for r, s in enumerate(bases[j + 1])} if j + 1 < len(bases) else {}
        for k, (eps, labels) in enumerate(bases[j]):
            if eps[0]:
                continue
            if eps not in edge_of:
                after = (1,) + eps[1:]
                edge_of[eps] = classify_edge_reference(resolve_reference(d, eps)[0],
                                                       resolve_reference(d, after)[0])
                kind, (_, b, _) = edge_of[eps]
                m_prime[j + 1] |= {r for s, r in targets.items() if s.epsilon == after
                                   and (kind == "merge" or s.labels[b] == EX)}
            kind, (a, _, _) = edge_of[eps]
            if kind == "split" or labels[a] == ONE:
                m_of[j].add(k)

    def k_local(col):
        """{state of K in column col: its index within its q-block}, and the block sizes."""
        at, sizes = {}, {}
        for k, q in enumerate(c.q_unnorm[col]):
            if k not in m_of[col] and k not in m_prime[col]:
                at[k] = sizes.get(q, 0)
                sizes[q] = at[k] + 1
        return at, sizes

    cols = raw[i].columns
    partner = {}  # m' -> phi^-1 m'
    for k in m_of[i]:
        rows = [r for r in cols.get(k, {}) if r in m_prime[i + 1]]
        if len(rows) != 1 or cols[k][rows[0]] != 1:
            raise AssertionError(f"state {k} of M^{i} has phi entries {rows}")
        partner[rows[0]] = k
    (c_at, nc), (r_at, nr) = k_local(i), k_local(i + 1)
    entries: dict[int, dict] = {}
    folds = 0
    for k, col_k in c_at.items():
        acc: dict[int, int] = {}
        for r, v in cols.get(k, {}).items():
            if r in r_at:
                acc[r] = acc.get(r, 0) + v
            elif r in m_prime[i + 1]:
                folds += 1
                for s, w in cols.get(partner[r], {}).items():
                    if s in r_at:
                        acc[s] = acc.get(s, 0) - v * w
        q = c.q_unnorm[i][k]
        for r, v in acc.items():
            if v and c.q_unnorm[i + 1][r] != q:
                raise AssertionError(f"d' entry at ({r},{k}) changes q")
            entries.setdefault(q, {})[r_at[r], col_k] = v
    blocks = {q: from_entries(nr.get(q, 0), nc.get(q, 0), entries.get(q, {}),
                              (q,) * nr.get(q, 0), (q,) * nc.get(q, 0))
              for q in nr.keys() | nc.keys()}
    return blocks, folds


def q_degree(s: LabeledState, d: K.Diagram, normalized: bool = True) -> int:
    """Internal grading of a labeled state: the oracle for ChainComplex.q_unnorm.

    Unnormalized: (#ONE - #EX) + |epsilon|.  Normalized adds the global
    shift d.shift[1] = n+ - 2n-.
    """
    deg = sum(1 if l == ONE else -1 for l in s.labels) + sum(s.epsilon)
    if normalized:
        deg += d.shift[1]
    return deg


def unnormalized_table(c) -> K.BigradedGroup:
    """homology_table(c) shifted back by c.diagram.shift, to the cube's degrees."""
    di, dq = c.diagram.shift
    return K.homology_table(c).shifted(-di, -dq)


def factor_scheme_reference(strands: int, generator: int) -> dict:
    """{strand positions of a circle: its tensor factor 0 .. p-2} at the
    1-smoothing of one crossing of the generator, case by case.

    Factor k-1 < generator-1 is the circle at position k alone, factor
    generator-1 the circle through positions generator and generator+1,
    and factor k-1 > generator-1 the circle at position k+1 alone.
    """
    scheme = {}
    for k in range(1, strands):
        if k < generator:
            scheme[frozenset({k})] = k - 1
        elif k == generator:
            scheme[frozenset({generator, generator + 1})] = k - 1
        else:
            scheme[frozenset({k + 1})] = k - 1
    return scheme


def occurrence_states_reference(c, d: K.Diagram, crossing_index: int,
                                generator: int) -> dict:
    """C^1 states at one crossing keyed by their factor labels, from decoded
    states and set circles: the oracle for invariants._occurrence_states.

    Each circle's full set of strand positions must be a key of
    factor_scheme_reference, so a circle across the wrong positions fails.
    """
    m = d.crossing_count
    eps = tuple(1 if k == crossing_index else 0 for k in range(m))
    circle_of, n = resolve_reference(d, eps)
    scheme = factor_scheme_reference(d.strands, generator)
    circle_to_factor = []
    arc_circles = circle_sets(circle_of)
    for circ in arc_circles:
        positions = frozenset(d.arc_positions[d.arcs[a]] for a in circ)
        circle_to_factor.append(scheme[positions])
    for k in range(n - len(arc_circles)):
        positions = frozenset({d.free_loop_positions[k]})
        circle_to_factor.append(scheme[positions])
    states = {}
    for idx, state in enumerate(decode_bases(c)[1]):
        if state.epsilon != eps:
            continue
        key = [0] * (d.strands - 1)
        for circle_idx, factor in enumerate(circle_to_factor):
            key[factor] = state.labels[circle_idx]
        states[tuple(key)] = idx
    return states


def kernel_structure_reference(w: K.BraidWord, c) -> tuple:
    """(passed, witness) of invariants._kernel_structure, by rank alone: its oracle.

    Relations pair the C^1 states of invariants._occurrence_states (checked
    on its own against occurrence_states_reference) over the slots of
    invariants._repeated_occurrences, in the engine's order.  Each relation
    row e_a - e_b is stacked below the raw q-block of d^1 that holds it, and
    holds iff rational_rank stays put: no Smith normal form and no reading
    of d^0.  A q-degree whose relation rows, stacked together, keep the
    rank holds for each of them; the witness is the first relation, in
    order, that raises the rank alone.  A relation whose states differ in q
    raises the engine's AssertionError, named by its row below C^2.
    """
    relations = []
    for gen, slots in invariants._repeated_occurrences(w).items():
        first = invariants._occurrence_states(c, slots[0], gen)
        for beta, k in enumerate(slots[1:], start=2):
            other = invariants._occurrence_states(c, k, gen)
            relations += [((gen, beta, key), a, other[key]) for key, a in sorted(first.items())]
    if not relations:
        return True, None
    q1 = c.q_unnorm[1]
    for r, (_, a, b) in enumerate(relations, start=c.dims[2]):
        if q1[a] != q1[b]:
            raise AssertionError(f"entry at ({r},{b}) connects q={q1[b]} to q={q1[a]}")
    d1 = differential_matrices(c)[1]
    blocks = {q: restrict_reference(d1, q) for q in {q1[a] for _, a, _ in relations}}

    def keeps_rank(q, rows) -> bool:
        """Whether stacking the relation rows below d^1's q-block keeps its rank."""
        block = blocks[q]
        local = [k for k, qk in enumerate(q1) if qk == q]
        entries = dict(block.entries)
        for r, (_, a, b) in enumerate(rows, start=block.rows):
            entries[r, local.index(a)], entries[r, local.index(b)] = 1, -1
        n = block.rows + len(rows)
        return rational_rank(from_entries(n, block.cols, entries, (q,) * n, block.col_q)) \
            == rational_rank(block)

    by_q: dict[int, list] = {}
    for rel in relations:
        by_q.setdefault(q1[rel[1]], []).append(rel)
    failing = {q for q, rows in by_q.items() if not keeps_rank(q, rows)}
    for rel in relations:
        if q1[rel[1]] in failing and not keeps_rank(q1[rel[1]], [rel]):
            return False, rel[0]
    return True, None


def compose_is_zero(outer: GradedMatrix, inner: GradedMatrix) -> bool:
    """Whether outer . inner vanishes (outer applied after inner), column by column."""
    for col in inner.columns.values():
        acc: dict[int, int] = {}
        for k, w in col.items():
            for r, v in outer.columns.get(k, {}).items():
                acc[r] = acc.get(r, 0) + v * w
        if any(acc.values()):
            return False
    return True


def sympy_snf_diagonal(mat: GradedMatrix):
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    if mat.rows == 0 or mat.cols == 0:
        return ()
    m = Matrix.zeros(mat.rows, mat.cols)
    for (r, c), v in mat.entries.items():
        m[r, c] = v
    s = smith_normal_form(m)
    diag = [abs(s[k, k]) for k in range(min(mat.rows, mat.cols))]
    return tuple(d for d in diag if d)


def oracle_free_ranks(c) -> dict:
    """Rational homology ranks per (i, unnormalized j), without the engine's SNF."""
    mats = differential_matrices(c)
    rank_cache: dict[tuple[int, int], int] = {}

    def rk(i, j):
        if not 0 <= i < c.m:
            return 0
        if (i, j) not in rank_cache:
            rank_cache[(i, j)] = rational_rank(restrict_reference(mats[i], j))
        return rank_cache[(i, j)]

    out = {}
    for i in range(c.m + 1):
        for j in sorted(set(c.q_unnorm[i])):
            dim = sum(1 for q in c.q_unnorm[i] if q == j)
            free = dim - rk(i, j) - rk(i - 1, j)
            if free:
                out[(i, j)] = free
    return out


def mod2_splits(table: dict) -> bool:
    """Whether the mod-2 table read from an integral one splits by (q + q^-1).

    Over F_2 the universal coefficient theorem gives the dimension at
    (i, j) as rank + #even torsion at (i, j) + #even torsion at (i + 1, j).
    In every degree i, the mod-2 Poincare polynomial in q of any link is
    (q + q^-1) times one with nonnegative coefficients (A. Shumakovitch,
    Torsion of the Khovanov homology, arXiv math/0405474).
    """
    rows: dict[int, dict[int, int]] = {}
    for (i, j), (rank, torsion) in table.items():
        even = sum(t % 2 == 0 for t in torsion)
        for k, n in ((i, rank + even), (i - 1, even)):
            row = rows.setdefault(k, {})
            row[j] = row.get(j, 0) + n
    for row in rows.values():
        rest = {j: n for j, n in row.items() if n}
        while rest:  # divide from the lowest degree up
            j = min(rest)
            n = rest.pop(j)
            if n < 0:
                return False
            rest[j + 2] = rest.get(j + 2, 0) - n  # n q^(j+1) (q + q^-1) taken off
            if not rest[j + 2]:
                del rest[j + 2]
    return True


def torus_2n_table(n: int) -> dict:
    """Khovanov's closed form for the closure T(2, n) of sigma_1^n, n >= 1 odd.

    H^{0,n-2} = H^{0,n} = Z and, for k = 1 .. (n-1)/2, Z at (2k, 4k+n-2),
    Z at (2k+1, 4k+n+2) and Z/2 at (2k+1, 4k+n) (M. Khovanov, A
    categorification of the Jones polynomial, arXiv math/9908171, in the
    grading where the right-handed trefoil has H^{0,1} = Z).
    """
    table = {(0, n - 2): (1, ()), (0, n): (1, ())}
    for k in range(1, (n - 1) // 2 + 1):
        table[(2 * k, 4 * k + n - 2)] = (1, ())
        table[(2 * k + 1, 4 * k + n + 2)] = (1, ())
        table[(2 * k + 1, 4 * k + n)] = (0, (2,))
    return table


def table_of(text: str, cap: int = 20) -> K.BigradedGroup:
    word = K.parse_braid(text)
    return K.homology_table(K.build_complex(K.braid_closure(word), cap=cap))


def random_word(rng: Random, max_len: int = 10, max_strands: int = 4,
                positive: bool = False) -> K.BraidWord:
    p = rng.randint(2, max_strands)
    n = rng.randint(1, max_len)
    letters = []
    for _ in range(n):
        g = rng.randint(1, p - 1)
        s = 1 if positive or rng.random() < 0.5 else -1
        letters.append(g * s)
    return K.parse_braid(f"p={p}; " + " ".join(map(str, letters)))


def conjugate(w: K.BraidWord, k: int) -> K.BraidWord:
    body = " ".join(str(g * s) for g, s in w.letters)
    return K.parse_braid(f"p={w.strands}; {k} {body} {-k}")


CORPUS = [
    "1 1 1",
    "1 1 1 1 1",
    "1 2 1 2",
    "1 2 1 2 1 2",
    "1 1 2 2",
    "1 2 2 1",
    "p=4; 1 3 1 3",
    "p=4; 1 2 3 1 2 3",
]
