"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report lines.
"""

import dataclasses
import time
from random import Random

import pytest

import khlab as K
from khlab.diagram import Resolver
from khlab.errors import CapExceededError
from khlab.homology import differential_matrices

from helpers import (
    CORPUS,
    compose_is_zero,
    conjugate,
    oracle_free_ranks,
    random_word,
    sympy_snf_diagonal,
    table_of,
    unnormalized_table,
)


def _report(num, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


def _complex_of(text, cap=20):
    return K.build_complex(K.braid_closure(K.parse_braid(text)), cap=cap)


def test_criterion_01_trefoil_golden_table():
    started = time.perf_counter()
    c = _complex_of("1 1 1")
    table = K.homology_table(c)
    elapsed = time.perf_counter() - started
    expected = {
        (0, 1): (1, ()),
        (0, 3): (1, ()),
        (2, 5): (1, ()),
        (3, 9): (1, ()),
        (3, 7): (0, (2,)),
    }
    # independent oracle: rational ranks by fraction elimination, torsion by
    # sympy's Smith normal form on the incoming block
    unnormalized = unnormalized_table(c)
    oracle_ranks = oracle_free_ranks(c)
    engine_ranks = {k: r for k, (r, _) in unnormalized.table.items() if r}
    mats = differential_matrices(c)
    oracle_torsion = tuple(
        d for d in sympy_snf_diagonal(mats[2].restrict(4)) if d > 1
    )
    ok = (
        table.table == expected
        and engine_ranks == oracle_ranks
        and oracle_torsion == (2,)
        and elapsed < 1.0
    )
    _report(1, "trefoil golden table", ok)


def test_criterion_02_h1_vanishes_on_corpus():
    started = time.perf_counter()
    ok = True
    for text in CORPUS:
        table = table_of(text)
        h1 = [(i, j) for (i, j) in table.table if i == 1]
        ok = ok and not h1
    ok = ok and (time.perf_counter() - started) < 120.0
    _report(2, "first homology vanishes for positive braid corpus", ok)


def test_criterion_03_h0_structure():
    ok = True
    for text in CORPUS:
        w = K.parse_braid(text)
        d = K.braid_closure(w)
        if d.component_count() != 1:
            continue
        n, p = d.crossing_count, w.strands
        expected = {
            (0, 1 - p + n - 1): (1, ()),
            (0, 1 - p + n + 1): (1, ()),
        }
        row0 = {k: v for k, v in table_of(text).table.items() if k[0] == 0}
        ok = ok and row0 == expected
    _report(3, "H^0 is free of rank 2 at q = 1-p+n(D)+-1", ok)


def test_criterion_04_no_negative_degrees():
    ok = all(
        all(i >= 0 for i, _ in table_of(text).table) for text in CORPUS
    )
    _report(4, "no homology below degree zero for positive diagrams", ok)


def test_criterion_05_euler_characteristic_oracle():
    started = time.perf_counter()
    rng = Random(2026)
    words = list(CORPUS) + [random_word(rng).text() for _ in range(50)]
    ok = True
    for text in words:
        d = K.braid_closure(K.parse_braid(text))
        chi = K.graded_euler_characteristic(K.build_complex(d))
        ok = ok and chi == K.jones_state_sum(d)
    ok = ok and (time.perf_counter() - started) < 120.0
    _report(5, "graded Euler characteristic equals the Jones state sum", ok)


def test_criterion_06_invariance_spot_checks():
    rng = Random(99)
    ok = table_of("1 1 1") == table_of("1 2 1 2")
    for text in CORPUS:
        w = K.parse_braid(text)
        k = rng.randint(1, w.strands - 1)
        ok = ok and table_of(text) == table_of(conjugate(w, k).text())
        stabilized = f"p={w.strands + 1}; " + " ".join(
            str(g * s) for g, s in w.letters
        ) + f" {w.strands}"
        ok = ok and table_of(text) == table_of(stabilized)
    ok = ok and table_of("1 2 1") == table_of("2 1 2")
    _report(6, "Markov-move and braid-relation invariance", ok)


def test_criterion_07_complex_well_formedness():
    rng = Random(4096)
    ok = True
    for _ in range(100):
        w = random_word(rng)
        d = K.braid_closure(w)
        c = K.build_complex(d)
        mats = differential_matrices(c)
        for i in range(len(mats) - 1):
            ok = ok and compose_is_zero(mats[i + 1], mats[i])
        for mat in mats:
            ok = ok and all(mat.col_q[col] == mat.row_q[row] for (row, col) in mat.entries)
        m, r = d.crossing_count, Resolver(d)
        for _ in range(10):
            eps = [rng.randint(0, 1) for _ in range(m)]
            zeros = [k for k, e in enumerate(eps) if e == 0]
            if not zeros:
                continue
            v, j = sum(e << k for k, e in enumerate(eps)), rng.choice(zeros)
            ok = ok and abs(r.circles(v | 1 << j)[1] - r.circles(v)[1]) == 1
        if not ok:
            break
    # d.d = 0 entrywise is exactly per-square anticommutation: every entry of
    # the composite collects the two signed paths around one square.
    _report(7, "d.d = 0, grading preserved, edges change circles by one", ok)


def test_criterion_08_proof_structure_checks():
    ok = True
    for text in CORPUS:
        w = K.parse_braid(text)
        passed, witness, _ = K.kernel_structure_check(w)
        ok = ok and passed and witness is None
        reduced_ok, _ = K.reduction_consistency(w)
        ok = ok and reduced_ok
    _report(8, "kernel characterization and reduced-diagram consistency", ok)


def test_criterion_09_crossing_order_independence():
    rng = Random(314)
    ok = True
    for _ in range(20):
        w = random_word(rng, max_len=7)
        d = K.braid_closure(w)
        base = K.homology_table(K.build_complex(d))
        order = list(range(d.crossing_count))
        rng.shuffle(order)
        permuted = dataclasses.replace(d, crossings=tuple(d.crossings[k] for k in order))
        permuted = K.homology_table(K.build_complex(permuted))
        ok = ok and base == permuted
    _report(9, "homology independent of the crossing order", ok)


def test_criterion_10_performance_envelope():
    started = time.perf_counter()
    table = table_of("1 2 1 2 1 2 1 2 1 2 1 2")
    elapsed = time.perf_counter() - started
    ok = bool(table.table) and elapsed < 300.0
    with pytest.raises(CapExceededError):
        _complex_of("1 1 1", cap=2)
    _report(10, "12-crossing table within budget; cap errors are explicit", ok)
