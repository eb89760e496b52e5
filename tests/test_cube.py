import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import khlab as K
from khlab.cube import EX, ONE
from khlab.diagram import Crossing
from khlab.errors import CapExceededError, InputError
from khlab.homology import differential_matrices

from helpers import (
    CORPUS,
    LabeledState,
    compose_is_zero,
    decode_bases,
    differential_reference,
    from_entries,
    oracle_free_ranks,
    q_degree,
    random_word,
    restrict_reference,
)

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
        for i, states in enumerate(bases):
            assert list(states) == sorted(states, key=_vertex_then_labels)
            assert c.q_unnorm[i] == tuple(
                q_degree(s, d, normalized=False) for s in states
            )
            for k, s in enumerate(states):
                assert c.index(_vertex_then_labels(s)[0], s.labels) == k


def test_non_merge_split_edge_is_input_error():
    d = K.Diagram((Crossing((1, 2, 1, 2), 1),))
    with pytest.raises(InputError, match="planar"):
        K.build_complex(d)
    with pytest.raises(InputError, match="planar"):
        K.edge_transition(d, (0,), 0)


def test_non_merge_split_edge_is_input_error_under_optimize():
    # The check must not rely on assert, which -O strips.
    script = (
        "import khlab as K\n"
        "from khlab.diagram import Crossing\n"
        "d = K.Diagram((Crossing((1, 2, 1, 2), 1),))\n"
        "for f in (lambda: K.build_complex(d), lambda: K.edge_transition(d, (0,), 0)):\n"
        "    try:\n"
        "        f()\n"
        "    except K.InputError as exc:\n"
        "        print('InputError', 'planar' in str(exc))\n"
    )
    src = os.path.dirname(os.path.dirname(K.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout == "InputError True\n" * 2, proc.stderr


def _colliding_trefoil():
    """The trefoil with its first edge of d^0 recorded twice."""
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    return dataclasses.replace(c, edges=(c.edges[0] + c.edges[0][:1],) + c.edges[1:])


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
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "d^0: 12 writes hit 9 entries\n"


def test_no_assert_statements_in_src():
    # Invariants must hold under python -O, which strips assert statements.
    paths = sorted(Path(K.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
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
    m = d.crossing_count
    for i in range(m + 1):
        expected = 0
        for code in range(2 ** m):
            eps = tuple((code >> j) & 1 for j in range(m))
            if sum(eps) == i:
                expected += 2 ** K.resolve(d, eps).circle_count
        assert c.dims[i] == expected


def test_cap_enforced():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    with pytest.raises(CapExceededError):
        K.build_complex(d, cap=2)


def test_truncated_cube_is_a_prefix_of_the_full_cube():
    rng = Random(37)
    words = CORPUS + ["p=4; 1"] + [random_word(rng, max_len=6).text() for _ in range(20)]
    for text in words:
        d = K.braid_closure(K.parse_braid(text))
        full = K.build_complex(d)
        assert full.top is None
        for top in range(d.crossing_count + 1):
            c = K.build_complex(d, top=top)
            assert c.offsets == {v: k for v, k in full.offsets.items() if v.bit_count() <= top}
            assert c.q_unnorm == full.q_unnorm[:top + 1]
            assert c.diffs == full.diffs[:top]
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
    trefoil and 30 random mixed-sign words."""
    rng = Random(71)
    words = CORPUS + ["p=4; 1", "p=3; 1 -1"]
    words += [random_word(rng, max_len=6).text() for _ in range(30)]
    return [K.braid_closure(K.parse_braid(text)) for text in words] + [K.from_pd(ATLAS_TREFOIL_PD)]


def _roles(c, i):
    """Column i after eliminating crossing 0: (K, M as {state: phi partner}, M')."""
    at, sizes = c.local(i, True)
    k_states = {k for k, x in enumerate(at) if x is not None and x >= 0}
    m_states = {k: ~x for k, x in enumerate(at) if x is not None and x < 0}
    m_prime = {k for k, x in enumerate(at) if x is None}
    assert sum(sizes.values()) == len(k_states)
    return k_states, m_states, m_prime


def test_crossing0_matching_partitions_each_column():
    # K, M and M' partition every column, phi is a bijection from M^i onto
    # M'^(i+1) that keeps q, and on a full cube each part is a third.
    for d in _elimination_inputs():
        for top in (None, 2):
            c = K.build_complex(d, top=top)
            roles = [_roles(c, i) for i in range(len(c.q_unnorm))]
            for i, (k_states, m_states, m_prime) in enumerate(roles):
                qs = c.q_unnorm[i]
                assert len(k_states) + len(m_states) + len(m_prime) == len(qs)
                assert not k_states & set(m_states) and not (k_states | set(m_states)) & m_prime
                if i + 1 < len(roles):
                    assert sorted(m_states.values()) == sorted(roles[i + 1][2])
                    assert all(c.q_unnorm[i + 1][p] == qs[k] for k, p in m_states.items())
                else:
                    assert m_states == {}  # the last column has no d^i to match by
                if i == 0:
                    assert m_prime == set()
            if top is None and d.crossing_count:
                k_total = sum(len(k_states) for k_states, _, _ in roles)
                assert 3 * k_total == sum(c.dims)
            if top is not None and top < d.crossing_count:
                # Bit-0 vertices of the top column have no record: their states stay in K.
                bit0 = {k for k, s in enumerate(decode_bases(c)[top]) if s.epsilon[0] == 0}
                assert bit0 and bit0 <= roles[top][0]


def test_phi_pairs_are_the_only_arrows_between_m_and_m_prime():
    # Each phi pair is a +1 entry of the raw d^i; no other raw entry goes
    # M -> M' or M' -> M.
    pairs = 0
    for d in _elimination_inputs():
        for top in (None, 2):
            c = K.build_complex(d, top=top)
            for i, entries in enumerate(c.diffs):
                _, m_states, m_prime = _roles(c, i)
                _, m_next, m_prime_next = _roles(c, i + 1)
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
            reduced = [c.blocks(i, None, (local[i], local[i + 1])) for i in range(len(c.edges))]
            for inner, outer in zip(reduced, reduced[1:]):
                for q, block in inner.items():
                    if q in outer:
                        assert compose_is_zero(outer[q], block)
            ranks = [{}] + [{q: K.smith_normal_form(b).rank for q, b in blocks.items()}
                            for blocks in reduced] + [{}]
            free = {}
            for i, (_, sizes) in enumerate(local[:c.top]):
                for q, dim in sizes.items():
                    rank = dim - ranks[i].get(q, 0) - ranks[i + 1].get(q, 0)
                    if rank:
                        free[i, q] = rank
            rows = len(c.q_unnorm) if c.top is None else c.top
            assert free == {(i, q): r for (i, q), r in oracle.items() if i < rows}
