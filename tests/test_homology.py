import ast
import copy
import dataclasses
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

import khlab as K
from khlab import invariants
from khlab.homology import SmithForm, differential_matrices

from helpers import (
    CORPUS,
    conjugate,
    from_entries,
    mod2_splits,
    oracle_free_ranks,
    random_word,
    rational_rank,
    restrict_reference,
    sympy_snf_diagonal,
    table_of,
    torus_2n_table,
    unit_pivots_reference,
    unnormalized_table,
)


def test_snf_identity():
    s = K.smith_normal_form(from_entries(3, 3, {(k, k): 1 for k in range(3)}, (0,) * 3, (0,) * 3))
    assert s.diagonal == (1, 1, 1)
    assert s.rank == 3


def test_snf_zero_matrix():
    s = K.smith_normal_form(from_entries(2, 5, {}, (0,) * 2, (0,) * 5))
    assert s.diagonal == () and s.rank == 0
    # A tall block with no columns, as d' often has: the zero form, no units.
    tall = K.smith_normal_form(from_entries(10**5, 0, {}, (0,) * 10**5, ()))
    assert (tall.diagonal, tall.rank, tall.units) == ((), 0, ())


def test_snf_derived_example():
    # det = -8, gcd of entries = 2
    entries = {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8}
    s = K.smith_normal_form(from_entries(2, 2, entries, (0, 0), (0, 0)))
    assert s.diagonal == (2, 4)


def test_snf_empty_matrix():
    s = K.smith_normal_form(from_entries(0, 0, {}, (), ()))
    assert s.diagonal == () and s.rank == 0


def test_snf_divisibility_chain_random():
    rng = Random(3)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        gm = from_entries(rows, cols,
                          {(r, c): v for r, row in enumerate(mat)
                           for c, v in enumerate(row) if v},
                          (0,) * rows, (0,) * cols)
        s = K.smith_normal_form(gm)
        for a, b in zip(s.diagonal, s.diagonal[1:]):
            assert b % a == 0
        assert s.rank == rational_rank(gm)
        assert s.diagonal == sympy_snf_diagonal(gm)


def test_snf_dense_phase_unit_free_random():
    # No entry is +-1, so the unit phase takes no pivot and the dense
    # phase does the whole reduction.
    rng = Random(7)
    values = (0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9)
    torsion = 0
    for _ in range(60):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        gm = from_entries(rows, cols,
                          {(r, c): v for r in range(rows) for c in range(cols)
                           if (v := rng.choice(values))},
                          (0,) * rows, (0,) * cols)
        s = K.smith_normal_form(gm)
        assert s.units == ()
        assert s.rank == rational_rank(gm)
        assert s.diagonal == sympy_snf_diagonal(gm)
        torsion += len(s.torsion())
    assert torsion > 20


def test_snf_leaves_its_argument_unchanged():
    # Callers such as the kernel check reuse a block after reducing it.
    rng = Random(5)
    blocks = [b for text in CORPUS
              for b in K.build_complex(K.braid_closure(K.parse_braid(text))).blocks(1).values()]
    for _ in range(30):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        blocks.append(from_entries(rows, cols,
                                   {(r, c): rng.choice((0, 1, -1, 2, -3)) for r in range(rows)
                                    for c in range(cols)}, (0,) * rows, (0,) * cols))
    for block in blocks:
        before = copy.deepcopy(block)
        K.smith_normal_form(block)
        assert block == before


def test_unit_pivots_follow_the_reference_rule(monkeypatch):
    # Every block homology_table reduces takes its +-1 pivots by the rule of
    # the dense reference, so the columns it cancels in d^(i+1) are fixed.
    seen = []
    snf = K.homology.smith_normal_form

    def record(block):
        form = snf(block)
        seen.append((block, form))
        return form

    monkeypatch.setattr(K.homology, "smith_normal_form", record)
    for text in CORPUS + ["1 -2 1 -2 1 -2", "p=4; 1", "1 1 1 1 1 1 1"]:
        K.homology_table(K.build_complex(K.braid_closure(K.parse_braid(text))))
    assert len(seen) > 100
    for block, form in seen:
        assert form.units == unit_pivots_reference(block)
    assert sum(len(form.units) for _, form in seen) > 500
    # Cube blocks rarely let the choice of pivot column change the pivot
    # rows; small random blocks whose fill-in can make or lose a +-1 do.
    rng = Random(13)
    for _ in range(200):
        rows, cols = rng.randint(2, 8), rng.randint(2, 8)
        block = from_entries(rows, cols,
                             {(r, c): rng.choice((0, 0, 1, -1, 1, 2, -2))
                              for r in range(rows) for c in range(cols)},
                             (0,) * rows, (0,) * cols)
        assert snf(block).units == unit_pivots_reference(block)


def test_blocks_match_independent_split():
    # c.blocks(i, cancelled) is the independent split of d^i with the columns
    # cancelled[q] of each q-block emptied; blocks(i) and blocks(i, {})
    # empty none.
    rng = Random(29)
    words = CORPUS + ["p=4; 1"] + [random_word(rng, max_len=6).text() for _ in range(20)]
    row_only = dropped = 0
    for text in words:
        c = K.build_complex(K.braid_closure(K.parse_braid(text)))
        for i, mat in enumerate(differential_matrices(c)):
            blocks = c.blocks(i)
            qs = set(mat.row_q) | set(mat.col_q)
            assert set(blocks) == qs
            row_only += len(qs - set(mat.col_q))
            for q in qs:
                assert blocks[q] == mat.restrict(q) == restrict_reference(mat, q)
            absent = max(qs, default=0) + 1
            assert mat.restrict(absent) == restrict_reference(mat, absent)
            assert c.blocks(i, {}) == blocks
            cancelled = {q: rng.sample(range(b.cols), b.cols // 2)
                         for q, b in blocks.items()}
            cancelled[absent] = (0, 1)
            for q, cut in c.blocks(i, cancelled).items():
                ref = restrict_reference(mat, q)
                kept = {k: v for k, v in ref.entries.items() if k[1] not in cancelled[q]}
                assert cut == from_entries(ref.rows, ref.cols, kept, ref.row_q, ref.col_q)
                dropped += len(ref.entries) - len(kept)
    assert row_only  # q-degrees that occur only in rows were split too
    assert dropped > 1000


def test_unit_pivot_rows_cancel_across_degrees():
    # Emptying the columns of d^(i+1) that were +-1 pivot rows of d^i keeps
    # every block's SNF, and homology_table, which does so, gives the table
    # of the uncut blocks.
    rng = Random(31)
    words = CORPUS + ["1 -2 1 -2 1 -2", "p=4; 1"]
    words += [random_word(rng, max_len=6).text() for _ in range(20)]
    zero = SmithForm(diagonal=(), rank=0)
    by_sympy = cut_columns = 0
    for text in words:
        c = K.build_complex(K.braid_closure(K.parse_braid(text)))
        full: list[dict] = []
        units: dict[int, tuple[int, ...]] = {}
        for i in range(len(c.q_unnorm) - 1):
            full.append({})
            cut_units = {}
            for q, block in c.blocks(i).items():
                whole = K.smith_normal_form(block)
                full[-1][q] = whole
                gone = set(units.get(q, ()))
                cut = K.smith_normal_form(from_entries(
                    block.rows, block.cols,
                    {(r, k): v for (r, k), v in block.entries.items() if k not in gone},
                    block.row_q, block.col_q,
                ))
                assert cut.diagonal == whole.diagonal
                cut_columns += len(gone)
                if block.rows * block.cols <= 400:
                    assert whole.diagonal == sympy_snf_diagonal(block)
                    by_sympy += 1
                for s in (whole, cut):
                    assert len(set(s.units)) == len(s.units) <= s.diagonal.count(1)
                    assert all(0 <= r < block.rows for r in s.units)
                cut_units[q] = cut.units
            units = cut_units
        maps = [{}] + full + [{}]
        expected = {}
        for i, qs in enumerate(c.q_unnorm):
            for j, dim in Counter(qs).items():
                into, out = maps[i].get(j, zero), maps[i + 1].get(j, zero)
                free = dim - into.rank - out.rank
                if free or into.torsion():
                    expected[(i, j)] = (free, into.torsion())
        assert unnormalized_table(c).table == expected
    assert by_sympy > 300 and cut_columns > 1000


def test_homology_block_trefoil_torsion():
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    # normalized (3, 7) lives at unnormalized q = 4
    assert unnormalized_table(c).entry(3, 4) == (0, (2,))


def test_homology_block_trefoil_h1_trivial():
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    unnormalized = unnormalized_table(c)
    for j in sorted(set(c.q_unnorm[1])):
        assert unnormalized.entry(1, j) == (0, ())


TREFOIL_TABLE = {
    (0, 1): (1, ()),
    (0, 3): (1, ()),
    (2, 5): (1, ()),
    (3, 7): (0, (2,)),
    (3, 9): (1, ()),
}


def test_trefoil_table():
    assert table_of("1 1 1").table == TREFOIL_TABLE


def test_unknot_table():
    assert table_of("p=1;").table == {(0, -1): (1, ()), (0, 1): (1, ())}


def test_two_component_unlink_table():
    assert table_of("p=2;").table == {
        (0, -2): (1, ()),
        (0, 0): (2, ()),
        (0, 2): (1, ()),
    }


def test_free_ranks_match_rational_oracle():
    rng = Random(17)
    words = ["1 1 1", "1 2 1 2", "1 -2 1 -2", "1 1 2 2"]
    words += [random_word(rng, max_len=6).text() for _ in range(6)]
    for text in words:
        d = K.braid_closure(K.parse_braid(text))
        c = K.build_complex(d)
        unnormalized = unnormalized_table(c)
        ranks = {key: rank for key, (rank, _) in unnormalized.table.items() if rank}
        assert ranks == oracle_free_ranks(c)


def test_torsion_matches_sympy_oracle():
    for text in ["1 1 1", "1 2 1 2", "1 1 1 1 1", "1 -2 1 -2 1 -2"]:
        c = K.build_complex(K.braid_closure(K.parse_braid(text)))
        for i, mat in enumerate(differential_matrices(c)):
            blocks = c.blocks(i)
            for j in sorted({q for q in mat.col_q}):
                block = blocks[j]
                assert K.smith_normal_form(block).diagonal == \
                    sympy_snf_diagonal(block)


def test_euler_characteristic_identity_per_q():
    # Alternating sums of chain dims and homology ranks agree in every q.
    d = K.braid_closure(K.parse_braid("1 2 1 2"))
    c = K.build_complex(d)
    table = unnormalized_table(c)
    qs = {q for col in c.q_unnorm for q in col}
    for j in qs:
        chain = sum(
            (-1) ** i * sum(1 for q in c.q_unnorm[i] if q == j)
            for i in range(c.m + 1)
        )
        hom = sum(
            (-1) ** i * rank
            for (i, jj), (rank, _) in table.table.items()
            if jj == j
        )
        assert chain == hom


def test_bigraded_groups_compare_by_table():
    # Zero entries are dropped and torsion sorted before comparing.
    a = K.BigradedGroup({(0, 1): (1, ()), (1, 3): (0, (4, 2)), (2, 5): (0, ())})
    assert a == K.BigradedGroup({(1, 3): (0, (2, 4)), (0, 1): (1, ())})
    assert a != K.BigradedGroup({(0, 1): (1, ())})
    assert a != a.table
    with pytest.raises(TypeError):
        hash(a)


def test_markov_moves_leave_table_unchanged():
    assert table_of("1 1 1") == table_of("1 2 1 2")
    assert table_of("1 1 1") == table_of("p=3; 1 1 1 2")  # stabilization
    assert table_of("1 2 1 2") == table_of(conjugate(K.parse_braid("1 2 1 2"), 2).text())
    assert table_of("1 2 1") == table_of("2 1 2")  # braid relation


def test_no_negative_degrees_for_positive_diagrams():
    for text in ["1 1 1", "1 1 2 2", "p=4; 1 3 1 3"]:
        table = table_of(text)
        assert all(i >= 0 for i, _ in table.table)


def test_negative_crossings_shift_homological_degrees():
    # A positive knot presented with negative crossings: unnormalized
    # homology vanishes below n_minus.
    w = K.parse_braid("1 1 1 1 -1")  # trefoil with a Reidemeister-II pair
    d = K.braid_closure(w)
    assert d.n_minus == 1
    c = K.build_complex(d)
    unnormalized = unnormalized_table(c)
    assert all(i >= d.n_minus for (i, _) in unnormalized.table)
    assert K.homology_table(c).table == TREFOIL_TABLE


# ROADMAP item 6's 5_2, positive but not braid positive, and KnotAtlas's
# trefoil: diagrams that are not braid closures.
PD_DIAGRAMS = ["X[8,2,9,1] +\nX[4,10,5,9] +\nX[10,6,1,5] +\nX[6,4,7,3] +\nX[2,8,3,7] +\n",
               "X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n"]


def test_truncated_complex_gives_the_rows_below_top():
    rng = Random(41)
    words = CORPUS + ["p=4; 1"] + [random_word(rng, max_len=6).text() for _ in range(20)]
    diagrams = [K.braid_closure(K.parse_braid(text)) for text in words]
    for d in diagrams + [K.from_pd(text) for text in PD_DIAGRAMS]:
        full = unnormalized_table(K.build_complex(d)).table
        for top in range(d.crossing_count):
            rows = unnormalized_table(K.build_complex(d, top=top)).table
            assert rows == {(i, j): v for (i, j), v in full.items() if i < top}
            assert all(i < top for i, _ in rows)
        # Normalizing shifts i by -n_minus, so no row at or above top - n_minus.
        if d.crossing_count:
            top = d.crossing_count - 1
            shown = K.homology_table(K.build_complex(d, top=top)).table
            assert all(i < top - d.n_minus for i, _ in shown)


@pytest.mark.parametrize("n", [*range(1, 26, 2), 41])
def test_torus_2n_low_rows_match_closed_form(n):
    # Rows 0..2 need only columns 0..3 of the 2^n cube.  At n <= 3 that is
    # the whole cube, whose table also holds row 3.
    c = K.build_complex(K.braid_closure(K.parse_braid("1 " * n)), cap=n, top=3)
    rows = {(i, j): v for (i, j), v in K.homology_table(c).table.items() if i < 3}
    assert rows == {(i, j): v for (i, j), v in torus_2n_table(n).items() if i < 3}


@pytest.mark.parametrize("n", range(1, 12, 2))
def test_torus_2n_full_table_matches_closed_form(n):
    # Every row of the full cube, torsion included.
    c = K.build_complex(K.braid_closure(K.parse_braid("1 " * n)))
    assert K.homology_table(c).table == torus_2n_table(n)


def test_mod2_tables_split_by_q_plus_inverse_q():
    # Shumakovitch's splitting reads torsion, which chi = Jones cannot see.
    # One Z/2 summand added or dropped changes two rows of the mod-2 table
    # by one monomial each; q + q^-1 vanishes at q = sqrt(-1) and a
    # monomial does not, so neither row can still divide by it.
    rng = Random(71)
    words = CORPUS + [random_word(rng, max_len=7).text() for _ in range(300)]
    mutants = 0
    for text in words:
        table = table_of(text).table
        assert mod2_splits(table), text
        (i, j), (rank, torsion) = rng.choice(sorted(table.items()))
        assert not mod2_splits({**table, (i, j): (rank, torsion + (2,))}), text
        for (i, j), (rank, torsion) in table.items():
            if 2 in torsion:
                dropped = list(torsion)
                dropped.remove(2)
                assert not mod2_splits({**table, (i, j): (rank, tuple(dropped))}), text
                mutants += 1
    assert mutants > 50


def _misgraded_trefoil():
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    q1 = (99,) + c.q_unnorm[1][1:]  # state 0 of C^1 is hit by d^0 and maps by d^1
    return dataclasses.replace(c, q_unnorm=(c.q_unnorm[0], q1) + c.q_unnorm[2:])


def _misgraded_kernel_check():
    w = K.parse_braid("1 1 1")
    # The table is the well-graded trefoil's: the check must fail on d^0,
    # which it expands before anything else.
    return invariants._kernel_structure(w, _misgraded_trefoil(), table_of("1 1 1"))


def test_misgraded_entry_raises():
    with pytest.raises(AssertionError, match=r"entry at \(0,0\) connects q=2 to q=99"):
        K.homology_table(_misgraded_trefoil())
    # Every entry is made in blocks(i), so its views raise as well.
    with pytest.raises(AssertionError, match=r"entry at \(0,0\) connects q=2 to q=99"):
        _misgraded_trefoil().blocks(0)
    with pytest.raises(AssertionError, match=r"entry at \(0,0\) connects q=2 to q=99"):
        differential_matrices(_misgraded_trefoil())
    # The kernel check expands d^0 into its q-blocks too.
    with pytest.raises(AssertionError, match=r"entry at \(0,0\) connects q=2 to q=99"):
        _misgraded_kernel_check()


def test_kernel_check_grading_checks_d1_where_it_reads_it():
    # The negative T(2,4) has free H^1, so the kernel check expands d^1, and
    # a state of C^2 moved to q=99 must raise from it.  records(1) starts
    # with vertex 0b0001's edge to 0b0011, whose first entry is at (0,0).
    w = K.parse_braid("p=2; -1 -1 -1 -1")
    c = K.build_complex(K.braid_closure(w))
    q2 = (99,) + c.q_unnorm[2][1:]
    misgraded = dataclasses.replace(c, q_unnorm=c.q_unnorm[:2] + (q2,) + c.q_unnorm[3:])
    with pytest.raises(AssertionError, match=r"^entry at \(0,0\) connects q=4 to q=99$"):
        invariants._kernel_structure(w, misgraded, K.homology_table(c))


def test_misgraded_entry_raises_under_optimize():
    # The check must not rely on assert, which -O strips.
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import khlab as K\n"
        "from test_homology import _misgraded_kernel_check, _misgraded_trefoil\n"
        "calls = [lambda: K.homology_table(_misgraded_trefoil()), _misgraded_kernel_check]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(K.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, os.path.dirname(__file__)],
        capture_output=True, encoding="utf-8", env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "entry at (0,0) connects q=2 to q=99\n"
        "entry at (0,0) connects q=2 to q=99\n"
    )


def test_readme_library_snippet_runs_and_its_comments_hold():
    # README's Library block runs as written, and the results its comments
    # give are what the library returns.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    c, d, low = namespace["c"], namespace["d"], namespace["low"]
    lines = block.splitlines()

    def comment(start):
        """The comment on the line that starts with start."""
        (line,) = [line for line in lines if line.startswith(start)]
        return line.split("#", 1)[1].strip()

    at = lines.index("K.homology_table(c).entries()")
    full = " ".join(line.lstrip("# ") for line in lines[at + 1:at + 3])
    assert K.homology_table(c).entries() == ast.literal_eval(full)
    truncated = comment("K.homology_table(low).entries()").split("rows i < top: ", 1)[1]
    assert K.homology_table(low).entries() == ast.literal_eval(truncated)
    assert repr(K.jones_state_sum(d)) == comment("K.jones_state_sum(d)")
    assert comment("K.verify_positive_braid(w)") == "structural checks, all pass"
    assert K.verify_positive_braid(namespace["w"]).all_passed
    assert "(q = 0, 2, 4)" in comment("c.blocks(1) ")
    assert sorted(c.blocks(1)) == [0, 2, 4]
    vertices = comment("c.vertices[1]").split("here ", 1)[1].replace("_", "None")
    assert list(c.vertices[1]) == sorted(c.vertices[1])
    assert {v: (offset, None, n) for v, (offset, _, n) in c.vertices[1].items()} == \
        ast.literal_eval(vertices)
