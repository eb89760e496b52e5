from random import Random

import pytest

import khlab as K
from khlab.cube import EX, ONE, LabeledState, apply_edge_map
from khlab.diagram import classify_edge
from khlab.errors import CapExceededError, InputError
from khlab.homology import differential_matrices

from helpers import random_word


def test_q_degree_examples():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    assert K.q_degree(LabeledState((0, 0, 0), (EX, EX)), d) == 1
    assert K.q_degree(LabeledState((0, 0, 0), (ONE, EX)), d) == 3
    unknot = K.braid_closure(K.parse_braid("p=1;"))
    assert K.q_degree(LabeledState((), (ONE,)), unknot) == 1


def test_q_degree_unnormalized():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    assert K.q_degree(LabeledState((0, 0, 0), (EX, EX)), d, normalized=False) == -2


def test_edge_map_sign_examples():
    # Every entry of the trefoil's differential is the edge map's unsigned
    # coefficient 1 times (-1)^(number of 1s before the flipped coordinate).
    c = K.build_complex(K.braid_closure(K.parse_braid("1 1 1")))
    signs = set()
    for i, entries in enumerate(c.diffs):
        for (row, col), v in entries.items():
            src, dst = c.bases[i][col].epsilon, c.bases[i + 1][row].epsilon
            (j,) = [k for k in range(c.m) if src[k] != dst[k]]
            assert v == (-1) ** sum(src[:j])
            signs.add(v)
    assert signs == {1, -1}


def _trefoil_edge(eps, j):
    d = K.braid_closure(K.parse_braid("1 1 1"))
    target = eps[:j] + (1,) + eps[j + 1:]
    return d, classify_edge(K.resolve(d, eps), K.resolve(d, target))


def test_apply_edge_map_merge():
    _, t = _trefoil_edge((0, 0, 0), 0)
    assert t.kind == "merge"
    out = apply_edge_map(t, LabeledState((0, 0, 0), (ONE, EX)))
    assert out == [(LabeledState((1, 0, 0), (EX,)), 1)]


def test_apply_edge_map_merge_xx_is_zero():
    _, t = _trefoil_edge((0, 0, 0), 0)
    assert apply_edge_map(t, LabeledState((0, 0, 0), (EX, EX))) == []


def test_apply_edge_map_split_of_one():
    _, t = _trefoil_edge((1, 0, 0), 1)
    assert t.kind == "split"
    out = apply_edge_map(t, LabeledState((1, 0, 0), (ONE,)))
    labels = sorted(s.labels for s, coef in out)
    assert labels == [(ONE, EX), (EX, ONE)]
    assert all(coef == 1 for _, coef in out)


def test_apply_edge_map_rejects_wrong_source():
    _, t = _trefoil_edge((0, 0, 0), 0)
    with pytest.raises(InputError):
        apply_edge_map(t, LabeledState((0, 1, 0), (ONE,)))


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
        assert len(c.bases[i]) == expected


def test_cap_enforced():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    with pytest.raises(CapExceededError):
        K.build_complex(d, cap=2)


def test_differential_squares_to_zero():
    rng = Random(11)
    for _ in range(10):
        c = K.build_complex(K.braid_closure(random_word(rng, max_len=7)))
        mats = differential_matrices(c)
        for i in range(len(mats) - 1):
            assert mats[i + 1].compose_is_zero(mats[i])


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


def _signed_edge_map(c, d, eps, j, state):
    target = eps[:j] + (1,) + eps[j + 1:]
    t = classify_edge(K.resolve(d, eps), K.resolve(d, target))
    sign = -1 if sum(eps[:j]) % 2 else 1
    return [(s, sign * coef) for s, coef in apply_edge_map(t, state)]


def test_each_square_anticommutes():
    from itertools import combinations

    from khlab.cube import _states_of

    d = K.braid_closure(K.parse_braid("1 2 1 2"))
    c = K.build_complex(d)
    m = d.crossing_count
    for code in range(2 ** m):
        eps = tuple((code >> j) & 1 for j in range(m))
        zeros = [k for k, e in enumerate(eps) if e == 0]
        for a, b in combinations(zeros, 2):
            for state in _states_of(K.resolve(d, eps)):
                acc = {}
                for first, second in ((a, b), (b, a)):
                    for mid, coef1 in _signed_edge_map(c, d, eps, first, state):
                        for out, coef2 in _signed_edge_map(
                            c, d, mid.epsilon, second, mid
                        ):
                            acc[out] = acc.get(out, 0) + coef1 * coef2
                assert all(v == 0 for v in acc.values())
