"""Exact integer linear algebra: Smith normal form and the homology table.

A GradedMatrix stores its entries by column, {col: {row: value}}, and
Smith normal form works on those columns, each copied when it first
changes, in two phases: a sparse pass that eliminates +-1 pivots (the bulk
of a cube differential) by column operations, then a dense reduction of
the small remainder that pivots on an entry of least absolute value,
reduces its row and column by it, and deletes a pivot once it stands
alone.  The sparse pass finds the entries of a row through a lazy row
index, built from the columns once: fill-in appends to it, and an entry
that has since cancelled is skipped when its row is reached.  All
arithmetic is on Python ints, so there is no overflow.

The per-(i, j) blocking is structural: differentials preserve the q-degree,
so cube.ChainComplex.blocks expands each differential straight into
independent q-blocks, checking the grading of every entry as it writes it,
and neither homology_table nor the kernel check reduces a full matrix as
one piece.  homology_table expands one differential at a time, so at most
one differential's entries are alive.

homology_table reduces the complex K left by Gaussian elimination of
crossing 0's edge maps (see the cube module docstring).  Unit pivots are
then also cancelled across degrees (D. Bar-Natan, Fast Khovanov homology
computations, JKTR 16 (2007), Lemma 4.2): a +-1 pivot (r, c) that the unit
phase takes in d^i is an invertible arrow c -> r, and cancelling it
deletes column r of d^(i+1) without changing the image of d^(i+1)
(d^(i+1) d^i = 0 puts column r in the span of the others).  So
homology_table expands d^(i+1) without the unit-pivot rows of d^i's block
at each q as columns.  A dense-phase pivot of absolute value > 1 is no
isomorphism over Z and is never dropped; the rows of d^i are never carried
to d^(i+2), which cancelling leaves as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class GradedMatrix:
    """Sparse integer matrix with q-degree tags on rows and columns."""

    rows: int
    cols: int
    columns: dict  # {col: {row: nonzero int}}, nonempty columns only
    row_q: tuple[int, ...]
    col_q: tuple[int, ...]

    @property
    def entries(self) -> dict:
        """{(row, col): value}, made from columns at each access."""
        return {(r, c): v for c, col in self.columns.items() for r, v in col.items()}

    def restrict(self, q: int) -> "GradedMatrix":
        """Submatrix of rows and columns tagged with q-degree q."""
        rows = {r: k for k, r in enumerate(r for r, t in enumerate(self.row_q) if t == q)}
        cols = [c for c, t in enumerate(self.col_q) if t == q]
        columns = {}
        for k, c in enumerate(cols):
            col = {rows[r]: v for r, v in self.columns.get(c, {}).items() if r in rows}
            if col:
                columns[k] = col
        return GradedMatrix(len(rows), len(cols), columns, (q,) * len(rows), (q,) * len(cols))


@dataclass(frozen=True)
class SmithForm:
    diagonal: tuple[int, ...]  # d1 | d2 | ..., all positive
    rank: int
    units: tuple[int, ...] = ()  # rows of the unit phase's +-1 pivots

    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def _divisibility_chain(diag: list[int]) -> tuple[int, ...]:
    diag = [abs(d) for d in diag if d]
    changed = True
    while changed:
        changed = False
        for k in range(len(diag) - 1):
            a, b = diag[k], diag[k + 1]
            if b % a:
                g = gcd(a, b)
                diag[k], diag[k + 1] = g, a * b // g
                changed = True
    return tuple(diag)


def _dense_snf(mat: list[list[int]]) -> list[int]:
    """Diagonal of a dense integer matrix, before the divisibility fixup.

    Reduces mat in place.  Each step pivots on an entry of least absolute
    value and reduces its whole column and row by it.  A nonzero remainder
    is smaller than the pivot and becomes the next pivot; a pivot alone in
    its row and column is recorded, and its row and column are deleted.
    """
    diag = []
    while True:
        nonzero = [(abs(v), r, c) for r, row in enumerate(mat)
                   for c, v in enumerate(row) if v]
        if not nonzero:
            return diag
        _, r, c = min(nonzero)
        while True:
            p, prow = mat[r][c], mat[r]
            for k, row in enumerate(mat):
                f = row[c] // p
                if f and k != r:
                    mat[k] = [x - f * y for x, y in zip(row, prow)]
            for j, x in enumerate(prow):
                f = x // p
                if f and j != c:
                    for row in mat:
                        row[j] -= f * row[c]
            rest = [(abs(row[c]), k, c) for k, row in enumerate(mat) if k != r and row[c]]
            rest += [(abs(x), r, j) for j, x in enumerate(prow) if j != c and x]
            if not rest:
                break
            _, r, c = min(rest)
        diag.append(abs(p))
        del mat[r]
        for row in mat:
            del row[c]


def _sparse_unit_phase(cols: dict[int, dict[int, int]], rows: int) -> list[int]:
    """Eliminate +-1 pivots sparsely in cols, rows rows tall; return the pivot rows.

    One pass over the rows in index order.  In each row the pivot is the
    +-1 entry in the shortest remaining column (ties to the lower column
    index), which keeps fill-in low on cube differentials, whose rows are
    short; a row with no +-1 entry is left for the dense phase.  Column
    operations clear the rest of the pivot row, then the pivot column is
    dropped, which stands for the row operations that would clear it.
    cols keeps the remainder, without empty columns.  A column of cols is
    copied when it first changes, so the dicts it was given stay as they
    were.

    The row index lists, for each row, the columns that had an entry there
    at some point: an entry that fill-in creates is appended, one that
    cancels is left in place, and a column that is gone or no longer holds
    the row is skipped when its row is reached.  Fill-in only copies rows of
    a pivot column, so no row gains its first entry after the index is built.
    """
    index: list[list[int]] = [[] for _ in range(rows)]
    for c, col in cols.items():
        for r in col:
            index[r].append(c)
    copied = set()
    pivots = []
    for r0, candidates in enumerate(index):
        live = {}  # the columns that hold row r0, each once
        c0 = None
        for c in candidates:
            col = cols.get(c)
            if col is None:
                continue
            v = col.get(r0)
            if v is None:
                continue
            live[c] = col
            if v == 1 or v == -1:
                n = len(col)
                if c0 is None or n < best or n == best and c < c0:
                    c0, best = c, n
        if c0 is None:
            continue
        pivots.append(r0)
        pivot_col = cols.pop(c0)
        del live[c0]
        v = pivot_col[r0]
        for c, col in live.items():
            if c not in copied:
                copied.add(c)
                col = cols[c] = col.copy()
            f = col.pop(r0) * v  # exact quotient, v is +-1
            for r, pv in pivot_col.items():
                if r == r0:
                    continue
                nv = col.get(r)
                if nv is None:
                    col[r] = -f * pv
                    index[r].append(c)
                elif nv := nv - f * pv:
                    col[r] = nv
                else:
                    del col[r]
            if not col:
                del cols[c]
    return pivots


def smith_normal_form(matrix: GradedMatrix) -> SmithForm:
    """SNF of a GradedMatrix, which is left as it is.

    The unit phase works on a new dict of the matrix's own column dicts and
    copies a column only when it first changes it (11-19% of the columns of
    the benchmark's blocks ever change), then the dense phase reduces what
    is left.  A block without columns is the zero form at once.
    """
    if not matrix.columns:
        return SmithForm(diagonal=(), rank=0)
    cols = dict(matrix.columns)
    pivots = _sparse_unit_phase(cols, matrix.rows)
    diag = [1] * len(pivots)
    if cols:
        rmap = {r: k for k, r in enumerate(sorted({r for col in cols.values() for r in col}))}
        dense = [[0] * len(cols) for _ in rmap]
        for k, c in enumerate(sorted(cols)):
            for r, v in cols[c].items():
                dense[rmap[r]][k] = v
        diag.extend(_dense_snf(dense))
    chained = _divisibility_chain(diag)
    return SmithForm(diagonal=chained, rank=len(chained), units=tuple(pivots))


@dataclass(frozen=True)
class BigradedGroup:
    """Homology table: (i, j) -> (free rank, torsion orders)."""

    table: dict

    def __post_init__(self):
        object.__setattr__(
            self,
            "table",
            {
                key: (rank, tuple(sorted(tors)))
                for key, (rank, tors) in self.table.items()
                if rank or tors
            },
        )

    def entries(self):
        return sorted(self.table.items())

    def entry(self, i: int, j: int):
        return self.table.get((i, j), (0, ()))

    def shifted(self, di: int, dj: int) -> "BigradedGroup":
        return BigradedGroup(
            {(i + di, j + dj): v for (i, j), v in self.table.items()}
        )


def differential_matrices(c) -> list[GradedMatrix]:
    """The complex's differentials with their unnormalized q-tags.

    A view of the blocks c.blocks(i), put back in column indices; the
    grading is checked there.
    """
    def by_q(qs) -> dict[int, list[int]]:
        """q -> the column indices of its q-block, in local order."""
        out: dict[int, list[int]] = {}
        for k, q in enumerate(qs):
            out.setdefault(q, []).append(k)
        return out

    mats = []
    for i in range(len(c.q_unnorm) - 1):
        col_q, row_q = c.q_unnorm[i], c.q_unnorm[i + 1]
        cols, rows = by_q(col_q), by_q(row_q)
        columns = {cols[q][k]: {rows[q][r]: v for r, v in col.items()}
                   for q, b in c.blocks(i).items() for k, col in b.columns.items()}
        mats.append(GradedMatrix(len(row_q), len(col_q), columns, row_q, col_q))
    return mats


def homology_table(c) -> BigradedGroup:
    """Bigraded homology of a built chain complex.

    A complex truncated at top (see cube.build_complex) lacks d^top, so
    only its rows i < top are computed; the others are never reported.

    Reduces the complex K left by eliminating crossing 0 (c.local(i, True))
    per (homological degree, q-degree) block, each SNF serving as outgoing
    and incoming differential.  Degrees go in order, so two columns'
    indexings of K and one differential's blocks are alive at a time, and
    each q-block of d'^(i+1) is expanded without the columns that were +-1
    unit pivot rows of d'^i's (see the module docstring).  The table is
    shifted to normalized degrees by c.diagram.shift.
    """
    zero = SmithForm(diagonal=(), rank=0)
    # snfs[i][q] is the SNF of the q-block of d'^(i-1); the empty ends stand
    # for the zero maps into C^0 and out of C^m.  sizes[i][q] is dim K^i_q.
    snfs: list[dict[int, SmithForm]] = [{}]
    row_local, sizes = c.local(0, True), []
    for i in range(len(c.q_unnorm) - 1):
        # Rows of d'^(i-1)'s q-block and columns of d'^i share local indices.
        gone = {q: s.units for q, s in snfs[-1].items()}
        col_local, row_local = row_local, c.local(i + 1, True)
        sizes.append(col_local[1])
        snfs.append({q: smith_normal_form(b)
                     for q, b in c.blocks(i, gone, (col_local, row_local)).items()})
    snfs.append({})
    sizes.append(row_local[1])
    table: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for i, dims in enumerate(sizes if c.top is None else sizes[:c.top]):
        for j, dim in sorted(dims.items()):
            incoming = snfs[i].get(j, zero)
            free = dim - incoming.rank - snfs[i + 1].get(j, zero).rank
            tors = incoming.torsion()
            if free or tors:
                table[(i, j)] = (free, tors)
    return BigradedGroup(table).shifted(*c.diagram.shift)
