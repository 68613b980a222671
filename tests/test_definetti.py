import copy
import importlib
import itertools
import json
import random
import time
from math import perm

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from freedf import categories as categories_module, certify as certify_module

from freedf.categories import B_PLUS, H_PLUS, O_PLUS, S_PLUS, enumerate_category, incidence
from freedf.cumulants import (
    KERNEL,
    CumulantTable,
    MomentTable,
    Table,
    cumulants_from_moments,
    kernel_classes,
    moments_from_cumulants,
    representative_tuple,
)
from freedf.definetti import (
    InvarianceReport,
    C_from_c,
    asymptotic_freeness_probe,
    averaged_coefficients,
    c_from_C,
    check_invariance,
    generate_invariant_model,
    normalized_block_sum,
    reconstruct_infinite,
    seed_coefficients,
    semicircular_model,
    solve_cumulant_coefficients,
    solve_moment_coefficients,
)
from freedf.errors import (
    FreedfError,
    IncompleteRestriction,
    MissingLowerOrder,
    NotInvariant,
    OrderExceedsN,
    SchemaError,
    SingularGram,
    TableTooLarge,
)
from freedf.partitions import (
    enumerate_partitions,
    is_noncrossing,
    kernel,
    leq,
    num_blocks,
    one_block,
    parse_partition,
    restrict,
    singletons,
)
from freedf.weingarten import weingarten

wg_module = importlib.import_module("freedf.weingarten")

ALL_CATS = (O_PLUS, S_PLUS, H_PLUS, B_PLUS)


def zero_kernel_moments(n, M):
    return MomentTable(
        n, M, {m: {tau: Fraction(0) for tau in kernel_classes(m, n)} for m in range(1, M + 1)},
        repr=KERNEL,
    )


def test_averaged_coefficients_semicircular():
    sc = semicircular_model(4, 4)
    cavg = averaged_coefficients(sc, O_PLUS, 2)
    assert cavg == {one_block(2): Fraction(1)}
    cavg4 = averaged_coefficients(sc, O_PLUS, 4)
    assert set(cavg4) == set(enumerate_category(O_PLUS, 4))
    assert all(v == 1 for v in cavg4.values())


def test_averaged_coefficients_zero_table():
    z = zero_kernel_moments(4, 3)
    for cat in ALL_CATS:
        for m in (1, 2, 3):
            assert all(v == 0 for v in averaged_coefficients(z, cat, m).values())
    assert averaged_coefficients(z, O_PLUS, 3) == {}


def test_averaged_coefficients_dense_equals_kernel():
    mt = generate_invariant_model(S_PLUS, 4, 3, seed=5)
    dense = mt.to_dense()
    for m in (1, 2, 3):
        assert averaged_coefficients(mt, S_PLUS, m) == averaged_coefficients(dense, S_PLUS, m)


def test_check_semicircular_passes():
    sc = semicircular_model(4, 4)
    report = check_invariance(sc, O_PLUS)
    assert report.passed and report.verdict == "PASS"
    assert report.coefficients[2] == {one_block(2): Fraction(1)}
    assert all(v == 1 for v in report.coefficients[4].values())
    assert all(r == 0 for layer in report.residuals.values() for r in layer.values())
    assert report.witnesses == []


def test_check_perturbed_semicircular_fails():
    sc = semicircular_model(4, 4).to_dense()
    sc.values[2][(1, 1)] = Fraction(2)
    report = check_invariance(sc, O_PLUS)
    assert report.verdict == "FAIL"
    assert any(w[0] == 2 for w in report.witnesses)
    assert report.to_json()["witnesses"][0]["m"] == 2


def test_check_rejects_odd_moments_for_pairings():
    t = zero_kernel_moments(4, 3)
    t.values[3][one_block(3)] = Fraction(1)
    report = check_invariance(t, O_PLUS)
    assert report.verdict == "FAIL"
    assert any(w[0] == 3 for w in report.witnesses)


def test_check_report_json_schema():
    report = check_invariance(semicircular_model(4, 2), O_PLUS)
    doc = report.to_json()
    assert sorted(doc) == ["category", "coefficients", "max_order", "n", "verdict", "witnesses"]
    assert doc["category"] == "o+" and doc["n"] == 4


def test_generate_then_check_all_categories():
    for cat in ALL_CATS:
        for n in (4, 5):
            mt = generate_invariant_model(cat, n, 4, seed=11)
            report = check_invariance(mt, cat)
            assert report.passed, (cat, n)


def test_generate_floor():
    with pytest.raises(ValueError):
        generate_invariant_model(S_PLUS, 3, 3, seed=0)
    generate_invariant_model(O_PLUS, 2, 3, seed=0)


def test_seed_coefficients_deterministic():
    a = seed_coefficients(S_PLUS, 4, 3, seed=9)
    b = seed_coefficients(S_PLUS, 4, 3, seed=9)
    assert a == b
    assert a != seed_coefficients(S_PLUS, 4, 3, seed=10)
    for m, sl in a.items():
        assert set(sl) == set(enumerate_category(S_PLUS, m))
        for v in sl.values():
            assert abs(v) <= 9 and 1 <= v.denominator <= 4


def test_solve_discrete_category_is_direct_read():
    # for pairings the order on C(m) is discrete, so c_pi = phi~(pi)
    mt = generate_invariant_model(O_PLUS, 4, 4, seed=3)
    sl = solve_moment_coefficients(mt, O_PLUS, 4)
    view = mt.kernel_view(4)
    for p in enumerate_category(O_PLUS, 4):
        assert sl.values[p] == view[p]
    assert sl.unique


def test_solve_two_element_poset():
    # phi~(1_2)=a, phi~(0_2)=b gives c_top = a-b, c_bottom = b
    a, b = Fraction(7, 2), Fraction(1, 3)
    values = {
        1: {one_block(1): Fraction(0)},
        2: {one_block(2): a, singletons(2): b},
    }
    mt = MomentTable(4, 2, values, repr=KERNEL)
    sl = solve_moment_coefficients(mt, S_PLUS, 2)
    assert sl.values[singletons(2)] == b
    assert sl.values[one_block(2)] == a - b


def test_solve_constant_one_moments():
    values = {
        1: {one_block(1): Fraction(1)},
        2: {one_block(2): Fraction(1), singletons(2): Fraction(1)},
    }
    mt = MomentTable(4, 2, values, repr=KERNEL)
    sl = solve_moment_coefficients(mt, S_PLUS, 2)
    assert sl.values[singletons(2)] == 1
    assert sl.values[one_block(2)] == 0


def test_solve_reproduces_table():
    for cat in ALL_CATS:
        mt = generate_invariant_model(cat, 5, 4, seed=21)
        for m in range(1, 5):
            sl = solve_moment_coefficients(mt, cat, m)
            view = mt.kernel_view(m)
            for tau in kernel_classes(m, 5):
                total = sum(
                    (sl.values[s] for s in sl.values if leq(s, tau)), Fraction(0)
                )
                assert total == view[tau], (cat, m, tau)


def test_solve_empty_category_slice():
    mt = generate_invariant_model(O_PLUS, 4, 3, seed=2)
    sl = solve_moment_coefficients(mt, O_PLUS, 3)
    assert sl.values == {} and sl.unique


def test_solve_rejects_noninvariant():
    t = zero_kernel_moments(4, 3)
    t.values[3][one_block(3)] = Fraction(1)
    with pytest.raises(NotInvariant):
        solve_moment_coefficients(t, O_PLUS, 3)
    dense = semicircular_model(4, 2).to_dense()
    dense.values[2][(1, 1)] = Fraction(3)
    with pytest.raises(NotInvariant):
        solve_moment_coefficients(dense, O_PLUS, 2)


def test_solve_beyond_n_fallback():
    mt = generate_invariant_model(O_PLUS, 2, 4, seed=13)
    sl = solve_moment_coefficients(mt, O_PLUS, 4)
    view = mt.kernel_view(4)
    for tau in kernel_classes(4, 2):
        total = sum((sl.values[s] for s in sl.values if leq(s, tau)), Fraction(0))
        assert total == view[tau]
    with pytest.raises(OrderExceedsN):
        solve_moment_coefficients(mt, O_PLUS, 4, fallback=False)


def _pivot_columns(columns):
    """The positions of the columns that are not in the span of the columns
    before them: exact elimination over Q on sparse {row: value} vectors,
    each stored vector led by its smallest row, with entry 1 there."""
    reduced, pivots = {}, []
    for j, column in enumerate(columns):
        v = dict(column)
        while v:
            r = min(v)
            if r not in reduced:
                reduced[r] = {k: x / v[r] for k, x in v.items()}
                pivots.append(j)
                break
            f = v[r]
            for k, x in reduced[r].items():
                y = v.get(k, 0) - f * x
                if y:
                    v[k] = y
                else:
                    del v[k]
    return pivots


def test_solve_beyond_n_is_unique_exactly_when_the_gram_matrix_is_invertible(monkeypatch):
    """G = Z Delta Z^T with Delta = diag((n)_#tau) > 0 and Z the incidence
    of C(m) on the kernel classes, so W exists exactly when Z has rank
    |C(m)|, which is when phi~(tau) = sum_{sigma <= tau} c_sigma has one
    solution. Every family returned re-sums to the table, and each
    coefficient of a free column (one in the span of the columns before
    it) is pinned to 0."""
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    verdicts = set()
    for n in (1, 2, 3):
        mt = semicircular_model(n, 6)
        ct = cumulants_from_moments(mt)
        for cat, m in itertools.product(ALL_CATS, range(n + 1, 7)):
            basis, classes = enumerate_category(cat, m), kernel_classes(m, n)
            try:
                weingarten(cat, m, n)
            except SingularGram:
                singular = True
            else:
                singular = False
            columns = [{r: Fraction(1) for r, tau in enumerate(classes) if leq(s, tau)} for s in basis]
            pivots = _pivot_columns(columns)
            assert (len(pivots) < len(basis)) is singular, (cat, n, m)
            free = [basis[a] for a in range(len(basis)) if a not in pivots]
            for t in (mt, ct):
                sl = solve_moment_coefficients(t, cat, m)
                assert sl.unique is not singular, (cat, n, m)
                view = t.kernel_view(m)
                for tau in classes:
                    assert sum((v for s, v in sl.values.items() if leq(s, tau)), Fraction(0)) == view[tau]
                assert all(sl.values[s] == 0 for s in free), (cat, n, m)
            verdicts.add((singular, bool(basis)))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_solve_beyond_n_refuses_an_inconsistent_system():
    mt = generate_invariant_model(O_PLUS, 2, 4, seed=7)
    assert solve_moment_coefficients(mt, O_PLUS, 4).unique
    for tau in kernel_classes(4, 2):
        bad = copy.deepcopy(mt)
        bad.values[4][tau] += 1
        with pytest.raises(NotInvariant, match="the kernel-class system is inconsistent"):
            solve_moment_coefficients(bad, O_PLUS, 4)
        assert check_invariance(bad, O_PLUS).verdict == "FAIL"


def test_solve_beyond_n_is_refused_by_its_elimination_steps():
    # 855 kernel classes x 127 b+ partitions is under DENSE_GUARD entries,
    # but 855 x 127 x 127 = 13.8 M elimination steps is over it
    mt = generate_invariant_model(B_PLUS, 5, 7, seed=1)
    start = time.perf_counter()
    with pytest.raises(TableTooLarge, match="the m > n solve needs a 855 x 127 matrix"):
        solve_moment_coefficients(mt, B_PLUS, 7)
    assert time.perf_counter() - start < 1


def test_solve_cumulant_side():
    mt = generate_invariant_model(S_PLUS, 5, 3, seed=17)
    ct = cumulants_from_moments(mt)
    for m in (1, 2, 3):
        sl = solve_cumulant_coefficients(ct, S_PLUS, m)
        view = ct.kernel_view(m)
        for tau in kernel_classes(m, 5):
            total = sum((sl.values[s] for s in sl.values if leq(s, tau)), Fraction(0))
            assert total == view[tau]


def test_generated_coefficients_recovered():
    # the C_pi drawn by the generator are exactly recovered from the table
    for cat in ALL_CATS:
        C = seed_coefficients(cat, 5, 4, seed=23)
        mt = generate_invariant_model(cat, 5, 4, seed=23)
        ct = cumulants_from_moments(mt)
        for m in range(1, 5):
            sl = solve_cumulant_coefficients(ct, cat, m)
            assert sl.values == C[m], (cat, m)


def test_conversion_examples():
    # semicircular: C_pair = 1 at m=2, both C vanish at m=4
    sc = semicircular_model(4, 4)
    ct = cumulants_from_moments(sc)
    C = {m: solve_cumulant_coefficients(ct, O_PLUS, m).values for m in range(1, 5)}
    assert C[2] == {one_block(2): Fraction(1)}
    assert all(v == 0 for v in C[4].values())
    c = {m: solve_moment_coefficients(sc, O_PLUS, m).values for m in range(1, 5)}
    for m in range(1, 5):
        assert c_from_C(C, O_PLUS, m) == c[m]
        assert C_from_c(c, O_PLUS, m) == C[m]


def test_conversion_m2_relations():
    C = {
        1: {one_block(1): Fraction(2, 3)},
        2: {one_block(2): Fraction(5), singletons(2): Fraction(-1, 2)},
    }
    c = {m: c_from_C(C, S_PLUS, m) for m in (1, 2)}
    assert c[1] == C[1]
    assert c[2][one_block(2)] == C[2][one_block(2)]
    assert c[2][singletons(2)] == C[1][one_block(1)] ** 2 + C[2][singletons(2)]
    back = {m: C_from_c(c, S_PLUS, m) for m in (1, 2)}
    assert back == C


def test_conversion_zero_and_round_trip():
    zero = {m: {p: Fraction(0) for p in enumerate_category(S_PLUS, m)} for m in (1, 2, 3)}
    for m in (1, 2, 3):
        assert all(v == 0 for v in c_from_C(zero, S_PLUS, m).values())
        assert all(v == 0 for v in C_from_c(zero, S_PLUS, m).values())
    for cat in ALL_CATS:
        for seed in range(50):
            C = seed_coefficients(cat, 5, 5, seed=seed)
            c = {m: c_from_C(C, cat, m) for m in range(1, 6)}
            assert {m: C_from_c(c, cat, m) for m in range(1, 6)} == C
            assert {m: c_from_C({k: C_from_c(c, cat, k) for k in range(1, m + 1)}, cat, m) for m in range(1, 6)} == c


def test_conversion_missing_order():
    C = {2: {p: Fraction(1) for p in enumerate_category(S_PLUS, 2)}}
    with pytest.raises(MissingLowerOrder):
        c_from_C(C, S_PLUS, 2)


# ---- conversion against the NC sum over P(m) ------------------------------------

DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def coprime_family(cat, M, seed):
    """A family whose denominators run through 1 and the primes, about 30% of
    it zero, so the common denominator of the orders is large."""
    rng = random.Random(seed)
    out = {}
    for m in range(1, M + 1):
        out[m] = {}
        for a, p in enumerate(enumerate_category(cat, m)):
            zero = rng.random() < 0.3
            out[m][p] = Fraction(0 if zero else rng.randint(-30, 30), DENOMINATORS[(a + m) % len(DENOMINATORS)])
    return out


def nc_sum_c_from_C(C, cat, m):
    """c_sigma = sum over pi in NC(m), pi >= sigma, of prod over V in pi of
    C_{sigma|V}: every partition of [m], no first-block recursion."""
    nc = [p for p in enumerate_partitions(m) if is_noncrossing(p)]
    out = {}
    for sigma in enumerate_category(cat, m):
        total = Fraction(0)
        for pi in nc:
            if leq(sigma, pi):
                term = Fraction(1)
                for block in pi.blocks():
                    term *= C[len(block)][restrict(sigma, block)]
                total += term
        out[sigma] = total
    return out


@pytest.mark.parametrize("cat", ALL_CATS)
def test_conversion_matches_the_nc_sum_oracle(cat):
    for seed in range(3):
        C = coprime_family(cat, 6, seed)
        c = {m: nc_sum_c_from_C(C, cat, m) for m in range(1, 7)}
        for m in range(1, 7):
            got = c_from_C(C, cat, m)
            assert list(got) == enumerate_category(cat, m)
            assert got == c[m], (cat, seed, m)
            assert C_from_c(c, cat, m) == C[m], (cat, seed, m)


def test_generate_zero_coefficients_gives_zero_table():
    # seeds do not produce all-zero draws, so assemble directly
    zero = {m: {tau: Fraction(0) for tau in kernel_classes(m, 4)} for m in (1, 2, 3)}
    ct = CumulantTable(4, 3, zero, repr=KERNEL)
    mt = moments_from_cumulants(ct)
    assert all(v == 0 for layer in mt.values.values() for v in layer.values())


def test_generate_semicircular_from_unit_pair_coefficient():
    # C(2)_pair = 1 and nothing else is exactly the semicircular family
    n, M = 4, 4
    layers = {}
    for m in range(1, M + 1):
        basis = {p: Fraction(1 if m == 2 else 0) for p in enumerate_category(O_PLUS, m)}
        layers[m] = {
            tau: sum((v for p, v in basis.items() if leq(p, tau)), Fraction(0))
            for tau in kernel_classes(m, n)
        }
    ct = CumulantTable(n, M, layers, repr=KERNEL)
    assert moments_from_cumulants(ct).values == semicircular_model(n, M).values


def test_normalized_block_sum_examples():
    sc = semicircular_model(5, 4)
    assert normalized_block_sum(sc, one_block(2)) == 1
    z = zero_kernel_moments(5, 4)
    assert normalized_block_sum(z, parse_partition("0,0,1,1")) == 0
    with pytest.raises(ValueError):
        normalized_block_sum(sc, parse_partition("0,1,0,1"))
    with pytest.raises(ValueError):
        normalized_block_sum(sc, one_block(3))


def test_normalized_block_sum_brute_force():
    for n in (2, 4, 6):
        sc = semicircular_model(n, 4)
        dense = sc.to_dense()
        for p_text in ("0,0,1,1", "0,1,1,0"):
            p = parse_partition(p_text)
            want = sum(
                (
                    dense.values[4][i]
                    for i in itertools.product(range(1, n + 1), repeat=4)
                    if leq(p, kernel(i))
                ),
                Fraction(0),
            ) / Fraction(n) ** 2
            assert normalized_block_sum(sc, p) == want, (n, p_text)


def test_reconstruct_matches_generated_models():
    for cat in ALL_CATS:
        mt = generate_invariant_model(cat, 5, 4, seed=29)
        phi = {
            m: {p: mt.kernel_view(m)[p] for p in enumerate_category(cat, m)}
            for m in range(1, 5)
        }
        for m in range(1, 5):
            for tau in kernel_classes(m, 5):
                i = tuple(lab + 1 for lab in tau)
                assert reconstruct_infinite(phi, cat, i) == mt.value(i), (cat, i)


def test_reconstruct_empty_c_leq_is_zero():
    sc = semicircular_model(4, 4)
    phi = {m: {p: sc.kernel_view(m)[p] for p in enumerate_category(O_PLUS, m)} for m in range(1, 5)}
    assert reconstruct_infinite(phi, O_PLUS, (1, 2, 3)) == 0
    assert reconstruct_infinite(phi, O_PLUS, (1, 2, 1, 2)) == 0
    assert reconstruct_infinite(phi, O_PLUS, ()) == 1


def test_reconstruct_extends_beyond_n():
    # indices larger than n reuse the kernel structure
    mt = generate_invariant_model(S_PLUS, 5, 3, seed=31)
    phi = {m: {p: mt.kernel_view(m)[p] for p in enumerate_category(S_PLUS, m)} for m in range(1, 4)}
    assert reconstruct_infinite(phi, S_PLUS, (9, 9, 9)) == mt.value((1, 1, 1))
    assert reconstruct_infinite(phi, S_PLUS, (9, 8, 9)) == mt.value((1, 2, 1))


def test_reconstruct_missing_order():
    with pytest.raises(IncompleteRestriction):
        reconstruct_infinite({}, S_PLUS, (1, 1))
    phi = {2: {one_block(2): Fraction(1)}}
    with pytest.raises(IncompleteRestriction):
        reconstruct_infinite(phi, S_PLUS, (1, 1))


def reconstruct_by_incidence(phi, cat, tau):
    """The sum of c over C(m) below tau, by forward substitution on the full
    incidence index of P(m)."""
    m = len(tau)
    basis = enumerate_category(cat, m)
    below = incidence(cat, m, m)
    c = {}
    for a in sorted(below.get(tau, ()), key=lambda a: -num_blocks(basis[a])):
        c[a] = phi[m][basis[a]] - sum((c[b] for b in below[basis[a]] if b != a), Fraction(0))
    return sum(c.values(), Fraction(0))


@pytest.mark.parametrize("cat", ALL_CATS)
def test_reconstruct_matches_the_incidence_route(cat):
    rng = random.Random(41)
    for m in range(1, 8):
        phi = {
            m: {
                p: Fraction(0) if rng.random() < 0.2 else Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for p in enumerate_category(cat, m)
            }
        }
        for tau in enumerate_partitions(m):
            got = reconstruct_infinite(phi, cat, representative_tuple(tau))
            assert type(got) is Fraction and got == reconstruct_by_incidence(phi, cat, tau), (cat, tau)


def test_reconstruct_reads_only_the_down_set(monkeypatch):
    # the full index of P(10) took 15 s and peaked at 126 MB for one value
    def refuse(*args):
        raise AssertionError("incidence index requested for %s" % (args,))

    monkeypatch.setattr(categories_module, "incidence", refuse)
    basis = enumerate_category(S_PLUS, 10)
    phi = {10: {p: Fraction(a % 11 - 5, a % 7 + 1) for a, p in enumerate(basis)}}
    assert reconstruct_infinite(phi, S_PLUS, range(1, 11)) == phi[10][singletons(10)]
    # ker i crosses: below it lie 0_10 and the two partitions that pair 1,3 or 2,4
    left, right = parse_partition("0,1,0,2,3,4,5,6,7,8"), parse_partition("0,1,2,1,3,4,5,6,7,8")
    want = phi[10][left] + phi[10][right] - phi[10][singletons(10)]
    assert reconstruct_infinite(phi, S_PLUS, (1, 2, 1, 2, 3, 4, 5, 6, 7, 8)) == want


def test_check_runs_the_kernel_test_once_per_order(monkeypatch):
    dense = generate_invariant_model(S_PLUS, 6, 6, seed=5).to_dense()
    dense.values[5][(1, 2, 3, 1, 2)] += 1
    dense.values[6][(1, 2, 1, 3, 3, 2)] += Fraction(1, 3)
    calls = []
    kernel_layer = Table.kernel_layer
    monkeypatch.setattr(Table, "kernel_layer", lambda self, m: calls.append(m) or kernel_layer(self, m))
    report = check_invariance(dense, S_PLUS)
    assert not report.passed and any(report.residuals[6].values())
    assert sorted(calls) == [1, 2, 3, 4, 5, 6]


def test_probe_runs_the_kernel_test_once_per_table_and_order(monkeypatch):
    models = [semicircular_model(n, 6).to_dense() for n in (3, 4)]
    calls = []
    kernel_layer = Table.kernel_layer
    monkeypatch.setattr(Table, "kernel_layer", lambda self, m: calls.append((self.n, m)) or kernel_layer(self, m))
    report = asymptotic_freeness_probe(models, O_PLUS, 6)
    assert report.verdict == "DECAY"
    assert sorted(calls) == [(n, m) for n in (3, 4) for m in range(1, 7)]


def test_negative_tolerance_is_refused():
    mt = semicircular_model(3, 3).to_dense()
    for tolerance in (Fraction(-1), -1e-9):
        with pytest.raises(SchemaError, match="a tolerance must not be negative"):
            check_invariance(mt, O_PLUS, tolerance=tolerance)
        with pytest.raises(SchemaError, match="a tolerance must not be negative"):
            asymptotic_freeness_probe([semicircular_model(n, 4) for n in (4, 6)], O_PLUS, 4, tolerance=tolerance)
    assert check_invariance(mt, O_PLUS, tolerance=Fraction(0)).passed


def test_probe_semicircular_decays():
    models = [semicircular_model(n, 4) for n in (4, 6, 8)]
    report = asymptotic_freeness_probe(models, O_PLUS, 4)
    assert report.verdict == "DECAY"
    for entry in report.entries:
        if entry.kind == "cumulant":
            assert all(v == 0 for _, v in entry.values)
        else:
            assert entry.values[-1][1] == 1
    report2 = asymptotic_freeness_probe([semicircular_model(n, 3) for n in (4, 6)], S_PLUS, 3)
    assert report2.verdict == "DECAY"


def test_probe_injected_decay():
    # kappa~ built from C(4) coefficients equal to 1/n decays like 1/n
    models = []
    for n in (4, 6, 8, 10):
        layers = {}
        for m in range(1, 5):
            basis = {
                p: (Fraction(1, n) if m == 4 else (Fraction(1) if m == 2 and p == one_block(2) else Fraction(0)))
                for p in enumerate_category(O_PLUS, m)
            }
            layers[m] = {
                tau: sum((v for p, v in basis.items() if leq(p, tau)), Fraction(0))
                for tau in kernel_classes(m, n)
            }
        models.append(moments_from_cumulants(CumulantTable(n, 4, layers, repr=KERNEL)))
    report = asymptotic_freeness_probe(models, O_PLUS, 4)
    assert report.verdict == "DECAY"
    cum_entries = [e for e in report.entries if e.kind == "cumulant"]
    assert cum_entries
    for entry in cum_entries:
        devs = [abs(v) for _, v in entry.values]
        assert devs == sorted(devs, reverse=True) and devs[-1] < devs[0]


def test_decay_is_a_trend_over_the_given_tables():
    # what the README says DECAY tests: every deviation within tolerance, or
    # deviations that never increase in n and end below the first, at any rate
    from freedf.probes import _decay_verdict

    tol, half, near = Fraction(1, 10 ** 9), Fraction(1, 2), Fraction(49, 100)
    assert _decay_verdict([(4, half), (8, near)], 0, tol) == "DECAY"
    assert _decay_verdict([(4, half), (8, half), (16, near)], 0, tol) == "DECAY"
    assert _decay_verdict([(4, half), (8, half)], 0, tol) == "NO-DECAY"
    assert _decay_verdict([(4, near), (8, half)], 0, tol) == "NO-DECAY"
    assert _decay_verdict([(4, 1 + tol), (8, 1 - tol)], 1, tol) == "DECAY"


def test_probe_constant_cumulant_no_decay():
    models = [generate_invariant_model(S_PLUS, n, 4, seed=37) for n in (4, 6, 8)]
    report = asymptotic_freeness_probe(models, S_PLUS, 4)
    assert report.verdict == "NO-DECAY"


def test_probe_rejects_unsupported_category():
    models = [generate_invariant_model(H_PLUS, n, 4, seed=1) for n in (4, 6)]
    with pytest.raises(FreedfError):
        asymptotic_freeness_probe(models, H_PLUS, 4)


def test_probe_rejects_noninvariant():
    bad = semicircular_model(4, 4).to_dense()
    bad.values[2][(1, 1)] = Fraction(2)
    with pytest.raises(NotInvariant):
        asymptotic_freeness_probe([bad, semicircular_model(6, 4)], O_PLUS, 4)


def test_probe_refuses_no_tables_and_tables_below_the_order():
    with pytest.raises(FreedfError, match="needs at least one table"):
        asymptotic_freeness_probe([], O_PLUS, 2)
    with pytest.raises(FreedfError, match="table at n=6 stops at order 2, below the probed order 4"):
        asymptotic_freeness_probe([semicircular_model(4, 4), semicircular_model(6, 2)], O_PLUS, 4)


@pytest.mark.parametrize("cat,m", [(O_PLUS, 0), (S_PLUS, 0), (O_PLUS, -1)])
def test_probe_refuses_orders_below_one(cat, m):
    # o+ at m = 0 raised KeyError; s+ at 0 and o+ at -1 reported an empty DECAY
    with pytest.raises(FreedfError, match="order m >= 1"):
        asymptotic_freeness_probe([semicircular_model(n, 2) for n in (4, 6)], cat, m)


@pytest.mark.parametrize("cat,m", [(O_PLUS, 3), (S_PLUS, 1), (O_PLUS, 1)])
def test_probe_refuses_orders_without_a_probed_class(cat, m):
    # these reported {"verdict": "DECAY", "entries": []}, a verdict on nothing
    with pytest.raises(FreedfError, match="no class to probe"):
        asymptotic_freeness_probe([semicircular_model(n, 3) for n in (4, 6)], cat, m)


def test_probe_reads_only_the_probed_orders():
    # a non-invariant order above m made the probe raise NotKernelRepresentable
    tables = [semicircular_model(n, 4).to_dense() for n in (3, 4)]
    clean = asymptotic_freeness_probe(tables, O_PLUS, 2).to_json()
    tables[1].values[4][(1, 2, 1, 2)] += 1
    assert asymptotic_freeness_probe(tables, O_PLUS, 2).to_json() == clean


def test_probe_report_json():
    report = asymptotic_freeness_probe([semicircular_model(n, 2) for n in (4, 6)], O_PLUS, 2)
    doc = report.to_json()
    assert doc["verdict"] == "DECAY" and doc["category"] == "o+"
    for entry in doc["entries"]:
        assert set(entry) == {"kind", "m", "class", "target", "values", "verdict"}


# ---- the triangular certificate against all-orders Weingarten averaging ----
#
# reference_check is check_invariance as it was before orders m <= n were
# certified by the triangular solve: every order is averaged with the
# Fraction Weingarten matrix, and every entry is compared with
# Fraction.__eq__.


def reference_averaged(mt, cat, m):
    basis = enumerate_category(cat, m)
    if not basis:
        return {}
    n = mt.n
    if mt.repr == KERNEL:
        class_sums = {tau: perm(n, num_blocks(tau)) * v for tau, v in mt.values[m].items()}
    else:
        class_sums = {}
        for i, v in mt.values[m].items():
            class_sums[kernel(i)] = class_sums.get(kernel(i), Fraction(0)) + v
    S = [Fraction(0)] * len(basis)
    for tau, v in class_sums.items():
        for a, sigma in enumerate(basis):
            if leq(sigma, tau):
                S[a] += v
    wg = weingarten(cat, m, n)
    return {
        sigma: sum((wg.entries[a][b] * S[b] for b in range(len(basis)) if S[b]), Fraction(0))
        for a, sigma in enumerate(basis)
    }


def reference_check(mt, cat, up_to=None, tolerance=None):
    M = mt.max_order if up_to is None else min(up_to, mt.max_order)
    coefficients, residuals, witnesses, failed = {}, {}, [], False
    for m in range(1, M + 1):
        cavg = reference_averaged(mt, cat, m)
        coefficients[m] = cavg
        predicted = {
            tau: sum((v for s, v in cavg.items() if leq(s, tau)), Fraction(0)) for tau in kernel_classes(m, mt.n)
        }
        layer = mt.values[m]
        layer_resid = {}
        if mt.repr == KERNEL:
            rows = ((tau, representative_tuple(tau), layer[tau]) for tau in sorted(layer))
        else:
            rows = ((kernel(i), i, layer[i]) for i in sorted(layer))
        for tau, i, a in rows:
            r = a - predicted[tau] if a != predicted[tau] else Fraction(0)
            if not layer_resid.get(tau):
                layer_resid[tau] = r
            if r and (tolerance is None or abs(r) > tolerance * max(1, abs(predicted[tau]))):
                failed = True
                if len(witnesses) < 100:
                    witnesses.append((m, i, predicted[tau], a))
        residuals[m] = layer_resid
    return InvarianceReport("FAIL" if failed else "PASS", cat, mt.n, mt.max_order, coefficients, residuals, witnesses)


def decomposable_table(cat, n, M, rng):
    """phi~(tau) = sum of c_sigma over sigma <= tau, for random c on every C(m)."""
    layers = {}
    for m in range(1, M + 1):
        c = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for s in enumerate_category(cat, m)}
        layers[m] = {
            tau: sum((v for s, v in c.items() if leq(s, tau)), Fraction(0)) for tau in kernel_classes(m, n)
        }
    return MomentTable(n, M, layers, repr=KERNEL)


def outcome(fn, mt, cat, tolerance):
    try:
        return fn(mt, cat, tolerance=tolerance)
    except SingularGram as e:
        return ("singular", e.payload())


def assert_same_report(got, want):
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got == want
    for m in want.coefficients:
        assert list(got.coefficients[m].items()) == list(want.coefficients[m].items()), m
        assert list(got.residuals[m].items()) == list(want.residuals[m].items()), m
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


@settings(deadline=None, max_examples=150)
@given(
    cat=st.sampled_from(ALL_CATS),
    n=st.integers(min_value=1, max_value=5),
    M=st.integers(min_value=1, max_value=6),
    dense=st.booleans(),
    kind=st.sampled_from(["invariant", "perturbed", "nonuniform"]),
    step=st.sampled_from([Fraction(1), Fraction(-5, 3), Fraction(1, 10 ** 12)]),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_check_matches_averaging_reference(cat, n, M, dense, kind, step, seed):
    rng = random.Random(seed)
    mt = decomposable_table(cat, n, M, rng)
    dense = dense and n ** M <= 4096
    if dense:
        mt = mt.to_dense()
    if kind != "invariant":
        m = rng.randint(1, M)
        layer = mt.values[m]
        if not dense:
            tau = rng.choice(sorted(layer))
            layer[tau] += step
        elif kind == "perturbed":
            # every tuple of one class: still kernel-uniform
            tau = rng.choice(kernel_classes(m, n))
            for i in layer:
                if kernel(i) == tau:
                    layer[i] += step
        else:
            i = rng.choice(sorted(layer))
            layer[i] += step
    for tolerance in (None, Fraction(1, 10 ** 9)):
        want = outcome(reference_check, mt, cat, tolerance)
        got = outcome(check_invariance, mt, cat, tolerance)
        assert_same_report(got, want)
        if kind == "invariant" and not isinstance(want, tuple):
            assert want.passed
    for m in range(1, M + 1):
        try:
            want = reference_averaged(mt, cat, m)
        except SingularGram:
            with pytest.raises(SingularGram):
                averaged_coefficients(mt, cat, m)
            continue
        got = averaged_coefficients(mt, cat, m)
        assert list(got.items()) == list(want.items())


def test_passing_orders_need_no_weingarten(monkeypatch):
    mt = generate_invariant_model(S_PLUS, 6, 6, seed=3)
    dense = generate_invariant_model(O_PLUS, 4, 4, seed=3).to_dense()

    def refuse(cat, m, n):
        raise AssertionError("Weingarten matrix requested at %s m=%d n=%d" % (cat, m, n))

    monkeypatch.setattr(wg_module, "weingarten", refuse)
    assert check_invariance(mt, S_PLUS).passed
    assert check_invariance(dense, O_PLUS).passed
    # a failing order m <= n is averaged (for its witnesses); lower orders are not
    requested = []
    monkeypatch.setattr(wg_module, "weingarten", lambda cat, m, n: requested.append(m) or weingarten(cat, m, n))
    dense.values[4][(1, 1, 2, 2)] += 1
    report = check_invariance(dense, O_PLUS)
    assert not report.passed and requested == [4]
    assert {w[0] for w in report.witnesses} == {4}
    assert (1, 1, 2, 2) in [w[1] for w in report.witnesses]


# ---- dense check on kernel classes ---------------------------------------------


def word_by_word(table):
    """A copy of a dense table that reports no kernel classes, so that
    check_invariance averages and compares it word by word."""
    forced = copy.copy(table)
    forced.kernel_layer = lambda m: None
    forced.kernel_view = table.kernel_view
    return forced


# (category, n, M, order to perturb or None, what to perturb)
DENSE_CHECK_CASES = {
    "pass": (S_PLUS, 5, 5, None, None),
    "pass-beyond-n": (S_PLUS, 4, 5, None, None),
    "pass-beyond-n-pairings": (O_PLUS, 2, 6, None, None),
    "word-at-m<=n": (S_PLUS, 4, 5, 3, "word"),
    "word-beyond-n": (B_PLUS, 4, 5, 5, "word"),
    "classes-at-m<=n": (S_PLUS, 5, 5, 4, "classes"),
    "classes-beyond-n": (S_PLUS, 4, 5, 5, "classes"),
}


@pytest.mark.parametrize("case", sorted(DENSE_CHECK_CASES))
@pytest.mark.parametrize("step", [Fraction(-5, 3), Fraction(1, 10 ** 12)])
def test_dense_check_on_classes_matches_kernel_form_and_word_by_word(case, step):
    cat, n, M, m, what = DENSE_CHECK_CASES[case]
    kernel_table = generate_invariant_model(cat, n, M, seed=len(case))
    if what == "classes":
        # every class of three or more blocks: a kernel-representable order that fails
        for tau in kernel_classes(m, n):
            if num_blocks(tau) >= 3:
                kernel_table.values[m][tau] += step
    dense = kernel_table.to_dense()
    if what == "word":
        word = sorted(dense.values[m])[len(dense.values[m]) // 3]
        dense.values[m][word] += step
    for tolerance in (None, Fraction(1, 10 ** 9)):
        got = check_invariance(dense, cat, tolerance=tolerance)
        assert_same_report(got, check_invariance(word_by_word(dense), cat, tolerance=tolerance))
        if what != "word":
            want = check_invariance(kernel_table, cat, tolerance=tolerance)
            assert (got.verdict, got.coefficients, got.residuals) == (want.verdict, want.coefficients, want.residuals)
            for k in want.residuals:
                assert list(got.residuals[k].items()) == list(want.residuals[k].items())
        tolerable = tolerance is not None and step == Fraction(1, 10 ** 12)
        assert got.passed == (what is None or tolerable)
        if what == "classes" and not tolerable:
            # the words of every class with a residual, in product order, capped at 100
            failing = {tau for tau, r in got.residuals[m].items() if r}
            words = [i for i in itertools.product(range(1, n + 1), repeat=m) if kernel(i) in failing]
            assert len(words) > 100
            assert [w[1] for w in got.witnesses] == words[:100]
