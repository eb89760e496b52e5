import ast
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from random import Random

import pytest

import khlab as K
from khlab import cli, cube, homology, invariants
from khlab.cube import EX, ONE
from khlab.diagram import Crossing, Resolver
from khlab.errors import CapExceededError, InputError
from khlab.homology import differential_matrices

from helpers import (
    CORPUS,
    LabeledState,
    compose_is_zero,
    classify_edge_reference,
    crossing0_ends,
    decode_bases,
    differential_reference,
    edge_references,
    from_entries,
    oracle_free_ranks,
    q_degree,
    random_word,
    record_entries,
    reduced_differential_reference,
    resolve_reference,
    restrict_reference,
    with_records,
)
from test_homology import PD_DIAGRAMS

HOPF_PD = "X[0,1,2,3] +\nX[1,0,3,2] +\n"


def test_q_degree_examples():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    assert q_degree(LabeledState((0, 0, 0), (EX, EX)), d) == 1
    assert q_degree(LabeledState((0, 0, 0), (ONE, EX)), d) == 3
    unknot = K.braid_closure(K.parse_braid("p=1;"))
    assert q_degree(LabeledState((), (ONE,)), unknot) == 1


def test_q_degree_unnormalized():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    assert q_degree(LabeledState((0, 0, 0), (EX, EX)), d, normalized=False) == -2


def test_edge_map_sign_examples():
    # Every entry of the trefoil's differential is the edge map's unsigned
    # coefficient 1 times (-1)^(number of 1s before the flipped coordinate).
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    bases = decode_bases(c)
    signs = set()
    for i, entries in enumerate(c.diffs):
        for (row, col), v in entries.items():
            src, dst = bases[i][col].epsilon, bases[i + 1][row].epsilon
            (j,) = [k for k in range(c.m) if src[k] != dst[k]]
            assert v == (-1) ** sum(src[:j])
            signs.add(v)
    assert signs == {1, -1}


def _images(c, i, state):
    """States hit by d^i from the basis state, with their coefficients."""
    bases = decode_bases(c)
    col = bases[i].index(state)
    return {bases[i + 1][r]: v for (r, k), v in c.diffs[i].items() if k == col}


def test_merge_of_one_and_x_is_x():
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    assert _images(c, 0, LabeledState((0, 0, 0), (ONE, EX))) == {
        LabeledState((1, 0, 0), (EX,)): 1,
        LabeledState((0, 1, 0), (EX,)): 1,
        LabeledState((0, 0, 1), (EX,)): 1,
    }


def test_merge_of_x_and_x_is_zero():
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    assert _images(c, 0, LabeledState((0, 0, 0), (EX, EX))) == {}


def test_split_of_one():
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    out = _images(c, 1, LabeledState((1, 0, 0), (ONE,)))
    # The flipped coordinate has one 1 before it, so the edge's sign is -1.
    on_edge = {s.labels: v for s, v in out.items() if s.epsilon == (1, 1, 0)}
    assert on_edge == {(ONE, EX): -1, (EX, ONE): -1}


def _vertex_then_labels(s):
    return sum(e << j for j, e in enumerate(s.epsilon)), s.labels


def test_states_indexed_by_vertex_then_labels():
    diagrams = [K.braid_closure(K.parse_braid(text))
                for text in CORPUS + ["p=4; 1", "p=5; 1 -2 -1 2 -1"]]
    for d in diagrams + [K.from_pd(HOPF_PD)]:
        c = K.build_complex(d)
        bases = decode_bases(c)
        assert c.dims == tuple(map(len, bases))
        # vertices[i] lists the vertices of weight i, ascending.
        assert [list(column) for column in c.vertices] == \
            [sorted(v for v in range(1 << c.m) if v.bit_count() == i) for i in range(len(bases))]
        for i, states in enumerate(bases):
            assert list(states) == sorted(states, key=_vertex_then_labels)
            assert c.q_unnorm[i] == tuple(
                q_degree(s, d, normalized=False) for s in states
            )
            for k, s in enumerate(states):
                assert c.index(_vertex_then_labels(s)[0], s.labels) == k


# X[1,2,1,2] bounds one face, and flipping it neither merges nor splits; in
# the second diagram crossing 0's edges split and crossing 1's do neither.
NONPLANAR = [K.Diagram((Crossing((1, 2, 1, 2), 1),)),
             K.Diagram((Crossing((1, 2, 2, 1), 1), Crossing((3, 4, 3, 4), 1)))]


def _first_read_of_nonplanar():
    """The calls that raise on each diagram: both build, since build
    classifies no edge, and each first read of d^0 raises."""
    calls = []
    for c in map(K.build_complex, NONPLANAR):
        calls += [lambda c=c: c.records(0), lambda c=c: c.blocks(0),
                  lambda c=c: K.homology_table(c)]
    return calls


def test_non_merge_split_edge_is_input_error():
    # The edge raises where Resolver.edge classifies it: at the first
    # records(i) that makes it, which blocks(i) and homology_table read.
    for call in _first_read_of_nonplanar():
        with pytest.raises(InputError, match="planar"):
            call()
    r = Resolver(NONPLANAR[0])
    with pytest.raises(InputError, match="planar"):
        r.edge(r.circles(0)[0], r.circles(1)[0], 0)


def test_non_merge_split_edge_is_input_error_under_optimize():
    # The check must not rely on assert, which -O strips.
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_cube import NONPLANAR, K, Resolver, _first_read_of_nonplanar\n"
        "r = Resolver(NONPLANAR[0])\n"
        "calls = [*_first_read_of_nonplanar(), lambda: r.edge(r.circles(0)[0], r.circles(1)[0], 0)]\n"
        "for f in calls:\n"
        "    try:\n"
        "        f()\n"
        "    except K.InputError as exc:\n"
        "        print('InputError', 'planar' in str(exc))\n"
    )
    src = os.path.dirname(os.path.dirname(K.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, os.path.dirname(__file__)],
        capture_output=True, encoding="utf-8", env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout == "InputError True\n" * 7, proc.stderr


def _colliding_trefoil():
    """The trefoil with its first edge of d^0 recorded twice."""
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    return with_records(c, lambda i, records: records + records[:1] if i == 0 else records)


def test_colliding_edge_records_raise():
    # Two writes to one entry mean the circle matching went wrong; the
    # expansion counts its writes, also under -O, which strips assert.
    with pytest.raises(AssertionError, match=r"d\^0: 12 writes hit 9 entries"):
        _colliding_trefoil().blocks(0)
    with pytest.raises(AssertionError, match=r"d\^0: 12 writes hit 9 entries"):
        K.homology_table(_colliding_trefoil())
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_cube import _colliding_trefoil\n"
        "try:\n"
        "    _colliding_trefoil().blocks(0)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(K.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, os.path.dirname(__file__)],
        capture_output=True, encoding="utf-8", env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "d^0: 12 writes hit 9 entries\n"


def _phi_altered_trefoil(alter):
    """The trefoil with alter applied to d^0's record of crossing 0's edge."""
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    first = (c.vertices[0][0][0], c.vertices[1][1][0])
    return with_records(c, lambda i, records: [
        alter(rec) if i == 0 and rec[:2] == first else rec for rec in records])


def _phi_flipped_trefoil():
    """The trefoil with the sign of d^0's crossing-0 record flipped."""
    return _phi_altered_trefoil(lambda rec: rec[:3] + (-rec[3],))


def _phi_unit_dropped_trefoil():
    """The trefoil with the (0, 0) image dropped from d^0's crossing-0 record."""
    return _phi_altered_trefoil(
        lambda rec: rec[:2] + (rec[2][:2] + (rec[2][2][1:],),) + rec[3:])


def test_phi_entry_other_than_plus_one_raises():
    # Cancelling phi needs each of its entries to be +1, and every column of
    # M to have one; the check holds under -O, which strips assert.
    with pytest.raises(AssertionError, match=r"^d\^0: phi entry at row 0 is not \+1$"):
        K.homology_table(_phi_flipped_trefoil())
    # Without its (0, 0) image, the merge's phi misses the state 1.1.
    with pytest.raises(AssertionError, match=r"^d\^0: 1 phi entries for 2 columns of M$"):
        K.homology_table(_phi_unit_dropped_trefoil())
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import khlab as K\n"
        "from test_cube import _phi_flipped_trefoil\n"
        "try:\n"
        "    K.homology_table(_phi_flipped_trefoil())\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(K.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, os.path.dirname(__file__)],
        capture_output=True, encoding="utf-8", env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "d^0: phi entry at row 0 is not +1\n"


def _split_image_dropped(text):
    """The closure of text with the (0, c) image dropped from each split
    among crossing 0's records of d^2."""
    c = K.build_complex(K.braid_closure(K.parse_braid(text)))
    zero = crossing0_ends(c, 2)
    return with_records(c, lambda i, records: [
        rec[:2] + ((*rec[2][:2], rec[2][2][1:]),) + rec[3:]
        if i == 2 and rec[:2] in zero and rec[2][2][0] != (0, 0) else rec
        for rec in records])


def test_record_missing_an_image_raises():
    # A record that writes fewer than its three images per source state
    # would leave d' short a fold and give a wrong table; the count holds
    # under -O, which strips assert.
    expected = {"1 1 1": "d^2: 16 writes for 18 entries, 3 per source state",
                "p=3; 1 2 1 2": "d^2: 46 writes for 48 entries, 3 per source state"}
    for text, message in expected.items():
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            K.homology_table(_split_image_dropped(text))
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import khlab as K\n"
        "from test_cube import _split_image_dropped\n"
        "for text in ('1 1 1', 'p=3; 1 2 1 2'):\n"
        "    try:\n"
        "        K.homology_table(_split_image_dropped(text))\n"
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
    assert proc.stdout == "".join(f"{message}\n" for message in expected.values())


def _crossing0_last(text):
    """The closure of text with crossing 0's records of each d^i moved after
    the others, which keep their order."""
    c = K.build_complex(K.braid_closure(K.parse_braid(text)))

    def late(i, records):
        zero = crossing0_ends(c, i)
        return sorted(records, key=lambda rec: rec[:2] in zero)
    return with_records(c, late)


def test_column_of_m_read_before_its_phi_entry_raises():
    # blocks makes a column of M at its phi entry.  An entry of the column
    # read before it must raise, also under -O, which strips assert: were it
    # skipped as if cancelled, d' would change with no error.  Each other
    # differential keeps its blocks.
    expected = {"p=4; 1 2 3 1 2 3 1 2": ({2, 3, 4, 5, 6}, "d^2: column 52"),
                "p=3; 1 2 1 2": ({2}, "d^2: column 10")}
    for text, (raising, first) in expected.items():
        with pytest.raises(AssertionError, match=f"^{re.escape(first)} of M is read before"
                                                 " its phi entry$"):
            K.homology_table(_crossing0_last(text))
        moved = _crossing0_last(text)
        c = K.build_complex(K.braid_closure(K.parse_braid(text)))
        for i in range(c.m):
            local = (c.local(i, True), c.local(i + 1, True))
            if i in raising:
                with pytest.raises(AssertionError, match=rf"^d\^{i}: column \d+ of M is read"):
                    moved.blocks(i, None, local)
            else:
                assert moved.blocks(i, None, local) == c.blocks(i, None, local), (text, i)
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import khlab as K\n"
        "from test_cube import _crossing0_last\n"
        "for text in ('p=4; 1 2 3 1 2 3 1 2', 'p=3; 1 2 1 2'):\n"
        "    try:\n"
        "        K.homology_table(_crossing0_last(text))\n"
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
    assert proc.stdout == "".join(f"{first} of M is read before its phi entry\n"
                                  for _, first in expected.values())


def test_any_record_order_gives_the_same_blocks_or_raises():
    # blocks may read records(i) in any order that brings the phi entry of
    # each column of M before the column's other entries; any other order
    # must raise, never give other blocks.  The orders: a full shuffle, a
    # shuffle of whole vertices, and one swap of neighbours.
    rng = Random(97)
    outcomes = {"same": 0, "raises": 0}
    for text in CORPUS:
        c = K.build_complex(K.braid_closure(K.parse_braid(text)))
        for i in range(c.m):
            local = (c.local(i, True), c.local(i + 1, True))
            expected, records = c.blocks(i, None, local), c.records(i)
            vertices: dict[int, list] = {}
            for rec in records:
                vertices.setdefault(rec[0], []).append(rec)
            for _ in range(5):
                groups = rng.sample(list(vertices.values()), len(vertices))
                k = rng.randrange(len(records) - 1) if len(records) > 1 else 0
                swapped = records[:k] + records[k:k + 2][::-1] + records[k + 2:]
                for order in (rng.sample(records, len(records)), sum(groups, []), swapped):
                    moved = with_records(c, lambda j, _: order)
                    try:
                        got = moved.blocks(i, None, local)
                    except AssertionError as exc:
                        assert re.fullmatch(rf"d\^{i}: column \d+ of M is read before its phi"
                                            " entry", str(exc)), exc
                        outcomes["raises"] += 1
                    else:
                        assert got == expected, (text, i, order)
                        outcomes["same"] += 1
    assert outcomes["raises"] > 20 and outcomes["same"] > 100, outcomes


def test_no_assert_statements_in_src():
    # Invariants must hold under python -O, which strips assert statements.
    paths = sorted(Path(K.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(paths) >= 8 and found == []


def test_trefoil_dimensions():
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    assert c.dims == (4, 6, 12, 8)


def test_unknot_complex():
    c = K.build_complex(K.braid_closure(K.parse_braid("p=1;")))
    assert c.dims == (2,)
    assert c.diffs == ()


def test_dimension_formula_matches_circle_counts():
    d = K.braid_closure(K.parse_braid("1 -2 1 -2"))
    c = K.build_complex(d)
    m, circles = d.crossing_count, Resolver(d).circles
    for i in range(m + 1):
        expected = sum(2 ** circles(v)[1] for v in range(2 ** m) if v.bit_count() == i)
        assert c.dims[i] == expected


def test_cap_enforced():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    with pytest.raises(CapExceededError):
        K.build_complex(d, cap=2)


def test_huge_cap_admits_the_cube_without_forming_the_budget():
    # 18 generators < 2^cap, so the budget 3^cap + 3 is never computed.
    d = K.braid_closure(K.parse_braid("1 1 1"))
    started = time.monotonic()
    c = K.build_complex(d, cap=10**20)
    assert time.monotonic() - started < 0.5
    assert K.homology_table(c) == K.homology_table(K.build_complex(d, cap=20))


def test_circles_above_256_arcs_are_stored_as_tuples():
    # 129 letters on 2 strands give 258 arcs, past what bytes can index; the
    # positive-braid H^0 sits at n - p + 1 +- 1 = 128 +- 1.  Column 1's
    # circles are made from vertex 0's by merges and column 2's by splits,
    # and H^1 = 0, the source theorem for this positive braid knot.
    d = K.braid_closure(K.parse_braid("p=2; " + " ".join(["1"] * 129)))
    assert len(d.arcs) == 258
    for top in (1, 2):
        c = K.build_complex(d, cap=200, top=top)
        assert all(type(circle_of) is tuple
                   for column in c.vertices for _, circle_of, _ in column.values())
        assert [c.vertices[1][1 << j][2] for j in (0, 128)] == [1, 1]
        if top == 2:
            assert c.vertices[2][0b11][2] == c.vertices[2][1 << 128 | 1][2] == 2
        table = K.homology_table(c)
        assert {key: v for key, v in table.table.items() if key[0] == 0} == \
            {(0, 127): (1, ()), (0, 129): (1, ())}
        if top == 2:
            assert not [key for key in table.table if key[0] == 1]


def test_truncated_cube_is_a_prefix_of_the_full_cube():
    rng = Random(37)
    words = CORPUS + ["p=4; 1"] + [random_word(rng, max_len=6).text() for _ in range(20)]
    for text in words:
        d = K.braid_closure(K.parse_braid(text))
        full = K.build_complex(d)
        assert full.top is None
        for top in range(d.crossing_count + 1):
            c = K.build_complex(d, top=top)
            assert c.vertices == full.vertices[:top + 1]
            assert c.q_unnorm == full.q_unnorm[:top + 1]
            assert [c.local(i, True)[2] for i in range(top + 1)] == \
                [full.local(i, True)[2] for i in range(top + 1)]
            assert c.diffs == full.diffs[:top]
            assert [c.records(i) for i in range(top)] == [full.records(i) for i in range(top)]
            # At top = m nothing is missing: the complex is the full one.
            assert c.top == (top if top < d.crossing_count else None)
        assert K.build_complex(d, top=d.crossing_count + 1) == full
    with pytest.raises(ValueError, match="top"):
        K.build_complex(K.braid_closure(K.parse_braid("1 1 1")), top=-1)


def test_differentials_match_independent_oracle():
    # Each d^i equals the oracle built from decoded states and set circles,
    # and blocks(i, cancelled) is that oracle's q-block with the cancelled
    # columns emptied, on the full cube and on the cube truncated at top = 2.
    rng = Random(59)
    words = CORPUS + ["p=4; 1"] + [random_word(rng, max_len=7).text() for _ in range(30)]
    differentials = dropped = 0
    for text in words:
        d = K.braid_closure(K.parse_braid(text))
        for top in (None, 2):
            c = K.build_complex(d, top=top)
            for i, entries in enumerate(c.diffs):
                ref = differential_reference(c, i)
                assert entries == ref, (text, top, i)
                mat = from_entries(c.dims[i + 1], c.dims[i], ref, c.q_unnorm[i + 1], c.q_unnorm[i])
                blocks = c.blocks(i)
                assert set(blocks) == set(mat.row_q) | set(mat.col_q)
                assert blocks == {q: restrict_reference(mat, q) for q in blocks}
                cancelled = {q: rng.sample(range(b.cols), b.cols // 2)
                             for q, b in blocks.items()}
                for q, cut in c.blocks(i, cancelled).items():
                    block = blocks[q]
                    kept = {k: v for k, v in block.entries.items() if k[1] not in cancelled[q]}
                    assert cut == from_entries(block.rows, block.cols, kept,
                                               block.row_q, block.col_q)
                    dropped += len(block.entries) - len(kept)
                differentials += 1
    assert differentials > 150 and dropped > 1000


def test_differential_squares_to_zero():
    # d.d = 0 entrywise is exactly per-square anticommutation.
    rng = Random(11)
    words = [random_word(rng, max_len=7) for _ in range(10)]
    for w in words + [K.parse_braid("1 2 1 2")]:
        mats = differential_matrices(K.build_complex(K.braid_closure(w)))
        for i in range(len(mats) - 1):
            assert compose_is_zero(mats[i + 1], mats[i])


def test_each_square_anticommutes():
    # For every generator and every pair a, b of its 0-coordinates, the path
    # flipping a then b and the path flipping b then a cancel.
    c = K.build_complex(K.braid_closure(K.parse_braid("1 2 1 2")))
    bases = decode_bases(c)

    def edges(i):
        out = {}
        for (row, col), v in c.diffs[i].items():
            src, dst = bases[i][col].epsilon, bases[i + 1][row].epsilon
            (j,) = [k for k in range(c.m) if src[k] != dst[k]]
            out.setdefault((col, j), []).append((row, v))
        return out

    squares = 0
    for i in range(len(c.diffs) - 1):
        first, second = edges(i), edges(i + 1)
        for col, state in enumerate(bases[i]):
            zeros = [k for k, e in enumerate(state.epsilon) if e == 0]
            for a in zeros:
                for b in zeros:
                    if a >= b:
                        continue
                    acc = {}
                    for p, q in ((a, b), (b, a)):
                        for mid, v1 in first.get((col, p), ()):
                            for out, v2 in second.get((mid, q), ()):
                                acc[out] = acc.get(out, 0) + v1 * v2
                    assert all(v == 0 for v in acc.values())
                    squares += 1
    assert squares > 0


def test_entries_preserve_q_degree():
    c = K.build_complex(K.braid_closure(K.parse_braid("1 -2 1 -2")))
    for i, entries in enumerate(c.diffs):
        for (r, col), v in entries.items():
            assert v != 0
            assert c.q_unnorm[i][col] == c.q_unnorm[i + 1][r]


def test_entries_are_units():
    c = K.build_complex(K.braid_closure(K.parse_braid("1 2 1 2")))
    for entries in c.diffs:
        assert all(abs(v) == 1 for v in entries.values())


ATLAS_TREFOIL_PD = "X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n"


def _elimination_inputs():
    """Diagrams for the elimination tests: CORPUS, two small words, a PD
    trefoil, 30 random mixed-sign words and a positive 5_2 diagram, which is
    not a braid closure."""
    rng = Random(71)
    words = CORPUS + ["p=4; 1", "p=3; 1 -1"]
    words += [random_word(rng, max_len=6).text() for _ in range(30)]
    return [K.braid_closure(K.parse_braid(text)) for text in words] + \
        [K.from_pd(ATLAS_TREFOIL_PD), K.from_pd(PD_DIAGRAMS[0])]


def _sides(c, i):
    """(M, M') of column i: the states outside K of the vertices that
    c.local(i, True) puts on the even and the odd side."""
    kinds, m_states, m_prime = c.local(i, True)[2][0], set(), set()
    for offset, _, n in c.vertices[i].values():
        if offset in kinds:
            mask, want, side = kinds[offset]
            other = {offset + k for k in range(1 << n) if k & mask != want}
            (m_prime if side else m_states).update(other)
    return m_states, m_prime


def _partition(c, i):
    """Column i after eliminating crossing 0: (K, M as {state: phi partner}, M').

    K is the states that local(i, True) indexes.  M and M' are the other
    states of the vertices that c.local(i, True) puts on the even and the
    odd side, and each state of M is paired with the one state of M' in column
    i + 1 that crossing 0's record, picked out of records(i) by its ends,
    maps it to.  In the last column, whose column i + 1 is not built, each
    state of M has the partner None.
    """
    at, sizes, (_, matched) = c.local(i, True)
    k_states = {k for k, x in enumerate(at) if x is not None}
    assert sum(sizes.values()) == len(k_states)
    m_states, m_prime = _sides(c, i)
    assert k_states.isdisjoint(m_states | m_prime) and len(m_states) == matched
    zero = crossing0_ends(c, i)
    if not zero:
        return k_states, dict.fromkeys(m_states), m_prime
    next_prime = _sides(c, i + 1)[1]
    images = {}
    for rec in c.records(i):
        for row, col in record_entries(rec) if rec[:2] in zero else ():
            if col in m_states and row in next_prime:
                images.setdefault(col, []).append(row)
    assert all(len(rows) == 1 for rows in images.values())
    partner = {col: row for col, (row,) in images.items()}
    assert set(partner) == m_states
    return k_states, partner, m_prime


def test_records_go_vertex_by_vertex_from_crossing_0():
    # records(i) lists the vertices of weight i ascending, each vertex's
    # edges together with the flipped crossing j ascending from 0, so that
    # crossing 0's record of a vertex with bit 0 clear is its first.  Given
    # the kinds, it lists part of that order and skips no crossing-0 record.
    for d in _elimination_inputs():
        for top in (None, 2):
            c = K.build_complex(d, top=top)
            for i in range(len(c.q_unnorm) - 1):
                order = [(c.vertices[i][v][0], c.vertices[i + 1][v | 1 << j][0])
                         for v in c.vertices[i] for j in range(c.m) if not v >> j & 1]
                assert [rec[:2] for rec in c.records(i)] == order
                kinds = c.local(i, True)[2][0], c.local(i + 1, True)[2][0]
                kept = [rec[:2] for rec in c.records(i, kinds)]
                rest = iter(order)
                assert all(ends in rest for ends in kept)
                zero = crossing0_ends(c, i)
                first = {}
                for source, target in kept:
                    first.setdefault(source, target)
                assert zero <= set(kept) and zero <= set(first.items())
                assert len(zero) == comb(c.m - 1, i)


def test_edge_records_share_their_shapes():
    # Each record is (source, target, shape, sign); shapes equal by value are
    # one object; and the code lists pair up.
    for d in _elimination_inputs():
        for top in (None, 2):
            c = K.build_complex(d, top=top)
            shared: dict = {}
            for i in range(len(c.q_unnorm) - 1):
                for rec in c.records(i):
                    assert isinstance(rec, tuple) and len(rec) == 4
                    sources, targets, images = shape = rec[2]
                    assert shared.setdefault(shape, shape) is shape
                    assert len(sources) == len(targets)


def test_records_match_independent_enumeration():
    # records(i) lists d^i's edges in the documented order, each with the
    # offsets, sign and entries of the oracle's edge from decoded states.
    for text in CORPUS:
        d = K.braid_closure(K.parse_braid(text))
        for top in (None, 2):
            c = K.build_complex(d, top=top)
            for i in range(len(c.q_unnorm) - 1):
                got = [(rec[0], rec[1], rec[3], record_entries(rec)) for rec in c.records(i)]
                assert got == edge_references(c, i), (text, top, i)


def test_homology_table_classifies_each_unskipped_edge_once(monkeypatch):
    # Building a full cube classifies no edge: local(i, True) reads each
    # vertex's kind from its own circles.  Taking its table classifies every
    # edge once, except the edges d' reads nothing of: those whose source is
    # all M' (bit 0 set, entered by a merge at crossing 0) or whose target is
    # all M (bit 0 clear, left by a split at crossing 0), found here from set
    # circles.
    calls = []
    edge = Resolver.edge
    monkeypatch.setattr(Resolver, "edge", lambda self, *args: calls.append(args[2]) or
                        edge(self, *args))
    skipped = 0
    for d in _elimination_inputs():
        m = d.crossing_count
        calls.clear()
        c = K.build_complex(d)
        assert calls == [], d
        calls.clear()
        K.homology_table(c)

        def zero_edge(v):
            """Kind of the crossing-0 edge v -> v | 1."""
            return classify_edge_reference(
                *(resolve_reference(d, [u >> j & 1 for j in range(m)])[0] for u in (v, v | 1)))[0]

        expected = 0
        for v in range(1 << m):
            for j in range(m):
                w = v | 1 << j
                if w == v:
                    continue
                if v & 1 and zero_edge(v ^ 1) == "merge":
                    continue  # source all M'
                if not w & 1 and zero_edge(w) == "split":
                    continue  # target all M
                expected += 1
        assert len(calls) == expected, d
        skipped += (m << m >> 1) - expected
    assert skipped > 1000


def test_crossing0_matching_partitions_each_column():
    # K, M and M' partition every column, phi is a bijection from M^i onto
    # M'^(i+1) that keeps q, and on a full cube each part is a third.  Each
    # vertex's kind in c.local(i, True) gives its states the parts that its
    # crossing-0 edge, classified from set circles, gives them: for a merge
    # v -> v | 1, K at v is the states whose first merged circle is EX and
    # v | 1 is all M'; for a split, v is all M and K at v | 1 is the states
    # whose first new circle is ONE.  Every vertex is paired, those of the
    # top column of a truncated cube through the unbuilt column top + 1.
    for d in _elimination_inputs():
        for top in (None, 2):
            c = K.build_complex(d, top=top)
            parts = [_partition(c, i) for i in range(len(c.q_unnorm))]
            bases = decode_bases(c)
            for i, (k_states, m_states, m_prime) in enumerate(parts):
                qs = c.q_unnorm[i]
                assert len(k_states) + len(m_states) + len(m_prime) == len(qs)
                assert not k_states & set(m_states) and not (k_states | set(m_states)) & m_prime
                if i + 1 < len(parts):
                    assert sorted(m_states.values()) == sorted(parts[i + 1][2])
                    assert all(c.q_unnorm[i + 1][p] == qs[k] for k, p in m_states.items())
                elif top is None or top >= d.crossing_count:
                    assert m_states == {}  # the full cube's last vertex has bit 0 set
                else:
                    assert m_states and set(m_states.values()) == {None}  # phi leaves the cube
                if i == 0:
                    assert m_prime == set()
                kinds = c.local(i, True)[2][0]
                for v, (offset, _, n) in c.vertices[i].items():
                    eps = tuple(v >> j & 1 for j in range(c.m))
                    assert kinds[offset][2] == eps[0]
                    kind, (a, b, _) = classify_edge_reference(
                        *(resolve_reference(d, (e,) + eps[1:])[0] for e in (0, 1)))
                    for k in range(offset, offset + (1 << n)):
                        labels = bases[i][k].labels
                        if eps[0]:
                            want = m_prime if kind == "merge" or labels[b] == EX else k_states
                        else:
                            want = m_states if kind == "split" or labels[a] == ONE else k_states
                        assert k in want, (d, top, i, v, k)
            if top is None and d.crossing_count:
                k_total = sum(len(k_states) for k_states, _, _ in parts)
                assert 3 * k_total == sum(c.dims)
            if top is not None and top < d.crossing_count:
                # Bit-0 vertices of the top column have no record, yet they
                # are split into K and M as in the full cube.
                bit0 = {k for k, s in enumerate(bases[top]) if s.epsilon[0] == 0}
                full = _partition(K.build_complex(d), top)
                assert bit0 and bit0 - parts[top][0] and bit0 & set(parts[top][1])
                assert (parts[top][0], set(parts[top][1]), parts[top][2]) == \
                    (full[0], set(full[1]), full[2])


def test_phi_pairs_are_the_only_arrows_between_m_and_m_prime():
    # Each phi pair is a +1 entry of the raw d^i; no other raw entry goes
    # M -> M' or M' -> M.
    pairs = 0
    for d in _elimination_inputs():
        for top in (None, 2):
            c = K.build_complex(d, top=top)
            for i, entries in enumerate(c.diffs):
                _, m_states, m_prime = _partition(c, i)
                _, m_next, m_prime_next = _partition(c, i + 1)
                for k, p in m_states.items():
                    assert entries[p, k] == 1
                    pairs += 1
                for row, col in entries:
                    if col in m_states and row in m_prime_next:
                        assert row == m_states[col]
                    assert not (col in m_prime and row in m_next)
    assert pairs > 3000


def test_reduced_blocks_form_a_complex_with_the_oracle_ranks():
    # The blocks of d' square to zero, and the free ranks their SNFs give,
    # without cross-degree cancellation, are the rational oracle's.
    for d in _elimination_inputs():
        oracle = oracle_free_ranks(K.build_complex(d))
        for top in (None, 2):
            c = K.build_complex(d, top=top)
            local = [c.local(i, True) for i in range(len(c.q_unnorm))]
            reduced = [c.blocks(i, None, (local[i], local[i + 1]))
                       for i in range(len(c.q_unnorm) - 1)]
            for inner, outer in zip(reduced, reduced[1:]):
                for q, block in inner.items():
                    if q in outer:
                        assert compose_is_zero(outer[q], block)
            ranks = [{}] + [{q: K.smith_normal_form(b).rank for q, b in blocks.items()}
                            for blocks in reduced] + [{}]
            free = {}
            for i, (_, sizes, _) in enumerate(local[:c.top]):
                for q, dim in sizes.items():
                    rank = dim - ranks[i].get(q, 0) - ranks[i + 1].get(q, 0)
                    if rank:
                        free[i, q] = rank
            rows = len(c.q_unnorm) if c.top is None else c.top
            assert free == {(i, q): r for (i, q), r in oracle.items() if i < rows}


def test_reduced_blocks_with_cancelled_columns_equal_the_schur_complement():
    # blocks(i, cancelled, local(., True)), the call homology_table makes, is
    # the Schur complement's q-block with the cancelled K columns removed,
    # on the full cube and on the cube truncated at top = 2.
    rng = Random(89)
    words = CORPUS + [random_word(rng, max_len=7).text() for _ in range(20)]
    differentials = dropped = 0
    for text in words:
        d = K.braid_closure(K.parse_braid(text))
        for top in (None, 2):
            c = K.build_complex(d, top=top)
            for i in range(len(c.q_unnorm) - 1):
                expected, _ = reduced_differential_reference(c, i)
                cancelled = {q: rng.sample(range(b.cols), b.cols // 2)
                             for q, b in expected.items()}
                got = c.blocks(i, cancelled, (c.local(i, True), c.local(i + 1, True)))
                assert set(got) == set(expected), (text, top, i)
                for q, block in expected.items():
                    kept = {k: v for k, v in block.entries.items() if k[1] not in cancelled[q]}
                    assert got[q] == from_entries(block.rows, block.cols, kept,
                                                  block.row_q, block.col_q), (text, top, i, q)
                    dropped += len(block.entries) - len(kept)
                differentials += 1
    assert differentials > 100 and dropped > 1000


def test_reduced_blocks_equal_the_schur_complement():
    # blocks(i) given local(., True) is d_KK - d_KM' phi^-1 d_MK entry by
    # entry, with M, M' and phi found from decoded states and raw d^i, not
    # from local, on the full cube and on the cube truncated at top = 2.
    rng = Random(83)
    words = CORPUS + [random_word(rng, max_len=7).text() for _ in range(20)]
    differentials = folds = 0
    for text in words:
        d = K.braid_closure(K.parse_braid(text))
        for top in (None, 2):
            c = K.build_complex(d, top=top)
            for i in range(len(c.q_unnorm) - 1):
                expected, n = reduced_differential_reference(c, i)
                assert c.blocks(i, None, (c.local(i, True), c.local(i + 1, True))) == expected, \
                    (text, top, i)
                differentials += 1
                folds += n
    assert differentials > 100 and folds > 1000


REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


def _layout_tables():
    """The cube module's tables that depend only on a layout."""
    return {"shapes": cube._SHAPES, "plans": cube._PLANS, "kinds": cube._KINDS,
            "q_degrees": cube._Q_DEGREES}


def _outputs(words, snfs):
    """Per word, the normalized tables of its full cube and of top=2 and the
    verify --format json run; then every SNF call of those, in call order.
    The reduced-diagram cache is cleared, so that every call reduces D'."""
    invariants._reduced_verdict.cache_clear()
    snfs.clear()
    out = []
    for text in words:
        d = K.braid_closure(K.parse_braid(text))
        tables = [K.homology_table(K.build_complex(d, top=top)).entries() for top in (None, 2)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.run(["verify", "--braid", text, "--format", "json"])
        out.append((text, tables, code, stdout.getvalue(), stderr.getvalue()))
    return out, list(snfs)


def _run_tampered():
    """Each tampered complex of this module through homology_table."""
    for c in (_colliding_trefoil(), _phi_flipped_trefoil(), _phi_unit_dropped_trefoil(),
              _split_image_dropped("1 1 1"), _split_image_dropped("p=3; 1 2 1 2")):
        with pytest.raises(AssertionError):
            K.homology_table(c)


def _frozen(value) -> bool:
    """Whether value is an int, a str or a tuple of such values, at any depth."""
    return isinstance(value, (int, str)) or (isinstance(value, tuple)
                                            and all(map(_frozen, value)))


def test_layout_tables_give_the_same_outputs_cold_and_warm(monkeypatch):
    # The layout tables live for the process: a complex reads entries made
    # for earlier complexes, tampered ones included, and must compute the
    # same tables, SNFs and verifier output as from empty tables.
    snfs = []
    snf = homology.smith_normal_form

    def logged(mat):
        form = snf(mat)
        snfs.append((form.diagonal, form.rank, form.units))
        return form
    monkeypatch.setattr(homology, "smith_normal_form", logged)
    monkeypatch.setattr(invariants, "smith_normal_form", logged)
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    pools = [[ref["word"] for ref in refs[name]]
             for name in ("corpus-small", "torus-large", "verify-positive")]
    words = sum(pools, [])
    for table in _layout_tables().values():
        table.clear()
    cold = _outputs(words, snfs)
    assert len(cold[1]) > 1000
    for text in pools[0]:
        d = K.from_pd(K.braid_closure(K.parse_braid(text)).to_pd())
        for top in (None, 2):
            K.homology_table(K.build_complex(d, top=top))
    _run_tampered()
    assert _outputs(words, snfs) == cold
    for name, table in _layout_tables().items():
        assert table and all(map(_frozen, table.values())), name
    # Entries made first for tampered records serve no record of a real one.
    for table in _layout_tables().values():
        table.clear()
    _run_tampered()
    assert _outputs(words, snfs) == cold


def test_complexes_of_one_layout_share_their_plans():
    # A second complex of the same layout makes no shape, plan or list: it
    # reads the objects the first one made.
    d = K.braid_closure(K.parse_braid("p=3; 1 2 1 2 1 2"))
    first, second = K.build_complex(d), K.build_complex(d)
    K.homology_table(first)
    made = {name: dict(table) for name, table in _layout_tables().items()}
    K.homology_table(second)
    for name, table in _layout_tables().items():
        assert table.keys() == made[name].keys(), name
        assert all(table[key] is value for key, value in made[name].items()), name
    assert all(a[2] is b[2] for a, b in zip(first.records(1), second.records(1)))
