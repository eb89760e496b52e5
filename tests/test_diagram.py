from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

import khlab as K
from khlab.diagram import permute_crossings
from khlab.errors import InputError

from helpers import CORPUS, classify_edge_reference, random_word, resolve_reference, table_of

HOPF_PD = """\
X[0,1,2,3] +
X[1,0,3,2] +
"""


def test_from_pd_hopf():
    d = K.from_pd(HOPF_PD)
    assert d.n_plus == 2 and d.n_minus == 0
    assert d.component_count() == 2


def test_from_pd_arc_used_once():
    with pytest.raises(InputError):
        K.from_pd("X[1,2,3,4] +\nX[2,1,4,5] +")


def test_from_pd_missing_sign():
    with pytest.raises(InputError):
        K.from_pd("X[1,2,3,4]")


def test_from_pd_empty():
    d = K.from_pd("")
    assert d.crossing_count == 0 and d.component_count() == 0


def test_from_pd_rejects_nonplanar():
    with pytest.raises(InputError, match="planar"):
        K.from_pd("X[1,2,1,2] +")


def test_from_pd_kink():
    d = K.from_pd("X[1,1,2,2] +")
    assert d.crossing_count == 1 and d.component_count() == 1


def test_from_pd_rejects_signs_against_orientation():
    with pytest.raises(InputError, match=r"X\[5,2,6,3\].*orientation"):
        K.from_pd("X[1,4,2,5] +\nX[3,6,4,1] +\nX[5,2,6,3] +\n")
    with pytest.raises(InputError, match="orientation"):
        K.from_pd("X[1,1,2,2] -")


def test_from_pd_knotatlas_trefoil():
    d = K.from_pd("X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n")
    assert K.homology_table(K.build_complex(d)) == table_of("-1 -1 -1")


@st.composite
def braid_words(draw):
    p = draw(st.integers(2, 6))
    gens = st.integers(1, p - 1).flatmap(lambda g: st.sampled_from([(g, 1), (g, -1)]))
    return K.BraidWord(p, tuple(draw(st.lists(gens, max_size=12))))


@given(braid_words())
def test_braid_closure_pd_is_accepted(w):
    d = K.braid_closure(w)
    text = "".join(
        f"X[{a},{b},{c},{e}] {'+' if x.sign > 0 else '-'}\n"
        for x in d.crossings
        for a, b, c, e in [x.endpoints]
    )
    assert K.from_pd(text).crossings == d.crossings


def test_to_pd_renders_signed_records():
    d = K.from_pd("X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n")
    assert d.to_pd() == "X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n"
    with pytest.raises(InputError, match="free loop"):
        K.braid_closure(K.parse_braid("p=3; 1")).to_pd()


@st.composite
def small_closures(draw):
    p = draw(st.integers(2, 4))
    gens = st.integers(1, p - 1).flatmap(lambda g: st.sampled_from([(g, 1), (g, -1)]))
    return K.braid_closure(K.BraidWord(p, tuple(draw(st.lists(gens, min_size=1, max_size=8)))))


@settings(max_examples=40, deadline=None)
@given(small_closures())
def test_closure_pd_round_trip_keeps_table_and_euler_characteristic(d):
    # The diagram read back has no braid metadata; its homology eliminates
    # crossing 0's edge maps as the closure's does.
    assume(d.free_loops == 0)
    back = K.from_pd(d.to_pd())
    assert back.crossings == d.crossings
    c, c_back = K.build_complex(d), K.build_complex(back)
    assert K.homology_table(c_back) == K.homology_table(c)
    assert K.graded_euler_characteristic(c_back) == K.graded_euler_characteristic(c)


def test_resolve_trefoil_circle_counts():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    assert K.resolve(d, (0, 0, 0)).circle_count == 2
    assert K.resolve(d, (1, 0, 0)).circle_count == 1
    assert K.resolve(d, (1, 1, 0)).circle_count == 2
    assert K.resolve(d, (1, 1, 1)).circle_count == 3


def test_resolve_length_mismatch():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    with pytest.raises(InputError):
        K.resolve(d, (0, 0))


def test_resolve_deterministic_circle_order():
    d = K.braid_closure(K.parse_braid("1 2 1 2"))
    a = K.resolve(d, (0, 1, 0, 1))
    b = K.resolve(d, (0, 1, 0, 1))
    assert a.circles == b.circles


def test_edge_transition_merge():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    t = K.edge_transition(d, (0, 0, 0), 0)
    assert t.kind == "merge"
    assert t.to_epsilon == (1, 0, 0)


def test_edge_transition_split():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    t = K.edge_transition(d, (1, 0, 0), 1)
    assert t.kind == "split"


def test_edge_transition_rejects_set_bit():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    with pytest.raises(InputError):
        K.edge_transition(d, (1, 0, 0), 0)
    with pytest.raises(InputError):
        K.edge_transition(d, (1, 0, 0), 5)


def test_every_edge_changes_circle_count_by_one():
    rng = Random(7)
    for _ in range(25):
        d = K.braid_closure(random_word(rng, max_len=8))
        m = d.crossing_count
        for _ in range(10):
            eps = tuple(rng.randint(0, 1) for _ in range(m))
            zeros = [k for k, e in enumerate(eps) if e == 0]
            if not zeros:
                continue
            j = rng.choice(zeros)
            before = K.resolve(d, eps).circle_count
            t = K.edge_transition(d, eps, j)
            after = K.resolve(d, t.to_epsilon).circle_count
            assert abs(after - before) == 1
            assert (after - before == 1) == (t.kind == "split")


def test_resolve_and_edges_match_set_oracle():
    # Every vertex's circles and every edge's merge/split indices equal the
    # frozenset union-find and set matching they replaced.
    rng = Random(11)
    texts = CORPUS + ["p=4; 1", "p=5; 1 -2 -1 2 -1"]
    diagrams = [K.braid_closure(K.parse_braid(t)) for t in texts]
    diagrams += [K.braid_closure(random_word(rng, max_len=8)) for _ in range(20)]
    diagrams += [K.from_pd(t) for t in (
        HOPF_PD, "X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n", "X[1,1,2,2] +"
    )]
    for d in diagrams:
        m = d.crossing_count
        for v in range(1 << m):
            eps = tuple((v >> j) & 1 for j in range(m))
            res = K.resolve(d, eps)
            assert res == resolve_reference(d, eps)
            for j in range(m):
                if not eps[j]:
                    after = resolve_reference(d, eps[:j] + (1,) + eps[j + 1:])
                    assert K.edge_transition(d, eps, j) == classify_edge_reference(res, after)


def test_single_one_resolution_of_positive_braid():
    # One 1-resolution at a type-sigma_i crossing leaves p-1 circles.
    w = K.parse_braid("1 2 1 2")
    d = K.braid_closure(w)
    for k in range(d.crossing_count):
        eps = tuple(1 if i == k else 0 for i in range(4))
        assert K.resolve(d, eps).circle_count == w.strands - 1


def test_free_loops_count_as_circles():
    d = K.braid_closure(K.parse_braid("p=4; 1"))
    res = K.resolve(d, (0,))
    assert res.free_loops == 2
    assert res.circle_count == 4


def test_permute_crossings_preserves_counts():
    d = K.braid_closure(K.parse_braid("1 -2 1 -2"))
    d2 = permute_crossings(d, [3, 1, 0, 2])
    assert d2.n_plus == d.n_plus and d2.n_minus == d.n_minus
    with pytest.raises(InputError):
        permute_crossings(d, [0, 0, 1, 2])
