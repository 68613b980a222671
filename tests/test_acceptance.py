"""Acceptance suite: eight criteria, one printed PASS line each.

Everything runs in exact rational arithmetic; residuals are required to
be identically zero, and stated runtime budgets are asserted. Run with
pytest -s to see the per-criterion lines.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

from fractions import Fraction

from freedf.categories import B_PLUS, H_PLUS, O_PLUS, S_PLUS, enumerate_category
from freedf.cumulants import (
    MomentTable,
    cumulants_from_moments,
    kernel_classes,
    moments_from_cumulants,
    representative_tuple,
)
from freedf.definetti import (
    C_from_c,
    c_from_C,
    check_invariance,
    generate_invariant_model,
    normalized_block_sum,
    reconstruct_infinite,
    semicircular_model,
    solve_cumulant_coefficients,
    solve_moment_coefficients,
)
from freedf.partitions import (
    enumerate_partitions,
    is_noncrossing,
    kernel,
    leq,
    num_blocks,
    one_block,
)
from freedf.posets import FinitePoset, mobius_to_top_full_lattice
from freedf.weingarten import verify_inverse, weingarten, wg_scaled

ALL_CATS = (O_PLUS, S_PLUS, H_PLUS, B_PLUS)


def test_criterion_1_exact_weingarten():
    start = time.perf_counter()
    weingarten.cache_clear()
    for cat in ALL_CATS:
        for m in range(1, 7):
            for n in range(4, 9):
                assert verify_inverse(cat, m, n), (cat, m, n)
    for n in (2, 3):
        for m in range(1, 7):
            assert verify_inverse(O_PLUS, m, n), (m, n)
    wg = weingarten(O_PLUS, 4, 5)
    assert wg.entries == (
        (Fraction(1, 24), Fraction(-1, 120)),
        (Fraction(-1, 120), Fraction(1, 24)),
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 10, elapsed
    print("criterion 1 (exact Weingarten, zero residual, %.1fs): PASS" % elapsed)


def test_criterion_2_mobius_oracle_equivalence():
    start = time.perf_counter()
    for m in range(1, 8):
        elements = enumerate_partitions(m)
        poset = FinitePoset(elements)
        top = one_block(m)
        for p in elements:
            k = num_blocks(p)
            closed = (-1) ** (k - 1) * math.factorial(k - 1)
            assert mobius_to_top_full_lattice(p) == closed
            assert poset.mobius(p, top) == closed, (m, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, elapsed
    print("criterion 2 (Moebius closed form = generic recursion, %.1fs): PASS" % elapsed)


def test_criterion_3_transform_round_trip():
    start = time.perf_counter()
    for seed in range(100):
        n = seed % 3 + 1
        M = (seed // 3) % 6 + 1
        rng = random.Random(seed)
        values = {
            m: {
                i: Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                for i in itertools.product(range(1, n + 1), repeat=m)
            }
            for m in range(1, M + 1)
        }
        mt = MomentTable(n, M, values)
        assert moments_from_cumulants(cumulants_from_moments(mt)).values == mt.values, seed
    elapsed = time.perf_counter() - start
    assert elapsed < 60, elapsed
    print("criterion 3 (moment-cumulant round trip, 100 tables, %.1fs): PASS" % elapsed)


def test_criterion_4_invariance_equivalence_suite():
    start = time.perf_counter()
    M = 5
    for seed in range(20):
        for cat in ALL_CATS:
            for n in (4, 5):
                mt = generate_invariant_model(cat, n, M, seed=seed)
                report = check_invariance(mt, cat)
                assert report.passed, (seed, cat, n)
                assert all(r == 0 for layer in report.residuals.values() for r in layer.values())

                ct = cumulants_from_moments(mt)
                c = {}
                C = {}
                for m in range(1, M + 1):
                    c[m] = solve_moment_coefficients(mt, cat, m).values
                    C[m] = solve_cumulant_coefficients(ct, cat, m).values
                for m in range(1, M + 1):
                    view = mt.kernel_view(m)
                    kview = ct.kernel_view(m)
                    for tau in kernel_classes(m, n):
                        assert view[tau] == sum(
                            (v for s, v in c[m].items() if leq(s, tau)), Fraction(0)
                        )
                        assert kview[tau] == sum(
                            (v for s, v in C[m].items() if leq(s, tau)), Fraction(0)
                        )
                if n >= M:
                    # beyond n the pinned solutions need not be mutually inverse
                    for m in range(1, M + 1):
                        assert c_from_C(C, cat, m) == c[m], (seed, cat, n, m)
                        assert C_from_c(c, cat, m) == C[m], (seed, cat, n, m)

                dense = mt.to_dense()
                for m in range(1, M + 1):
                    layer = dense.values[m]
                    if m <= 2:
                        targets = sorted(layer)
                    else:
                        targets = [representative_tuple(tau) for tau in kernel_classes(m, n)]
                    for i in targets:
                        old = layer[i]
                        layer[i] = old + 1
                        assert not check_invariance(dense, cat, up_to=m).passed, (seed, cat, n, m, i)
                        layer[i] = old
    elapsed = time.perf_counter() - start
    assert elapsed < 300, elapsed
    print("criterion 4 (invariance equivalence suite, 20x4x2 models, %.1fs): PASS" % elapsed)


def brute_noncrossing_pairings(m):
    if m % 2:
        return []
    out = []

    def rec(free, pairs):
        if not free:
            out.append(pairs[:])
            return
        a = free[0]
        for idx in range(1, len(free)):
            pairs.append((a, free[idx]))
            rec(free[1:idx] + free[idx + 1:], pairs)
            pairs.pop()

    rec(list(range(m)), [])
    keep = []
    for pairs in out:
        labels = [0] * m
        for lab, (a, b) in enumerate(pairs):
            labels[a] = labels[b] = lab
        p = kernel(labels)
        if is_noncrossing(p):
            keep.append(p)
    return keep


def test_criterion_5_semicircular_model():
    for n in (1, 2, 3):
        sc = semicircular_model(n, 6)
        for m in range(1, 7):
            pairings = brute_noncrossing_pairings(m)
            for i in itertools.product(range(1, n + 1), repeat=m):
                tau = kernel(i)
                want = sum(1 for p in pairings if leq(p, tau))
                assert sc.value(i) == want, (n, i)
        ct = cumulants_from_moments(sc)
        for m in range(1, 7):
            for tau, v in ct.kernel_view(m).items():
                want = Fraction(1) if m == 2 and tau == one_block(2) else Fraction(0)
                assert v == want, (n, m, tau)
    print("criterion 5 (semicircular moments and cumulants): PASS")


def test_criterion_6_weingarten_scaling_and_block_sums():
    for n in (10, 20, 50, 100):
        bound = Fraction(4, n)
        for k in (1, 2, 3):
            basis = enumerate_category(O_PLUS, 2 * k)
            for p in basis:
                for q in basis:
                    v = wg_scaled(O_PLUS, k, n, p, q)
                    delta = Fraction(1) if p == q else Fraction(0)
                    assert abs(v - delta) <= bound, (k, n, p, q)
    for n in (2, 3, 4, 5, 6):
        sc = semicircular_model(n, 4)
        dense = sc.to_dense()
        for two_k in (2, 4):
            for p in enumerate_category(O_PLUS, two_k):
                brute = sum(
                    (
                        dense.values[two_k][i]
                        for i in itertools.product(range(1, n + 1), repeat=two_k)
                        if leq(p, kernel(i))
                    ),
                    Fraction(0),
                ) / Fraction(n) ** (two_k // 2)
                assert normalized_block_sum(sc, p) == brute, (n, p)
    for n in (10, 20, 50, 100):
        sc = semicircular_model(n, 4)
        for two_k in (2, 4):
            for p in enumerate_category(O_PLUS, two_k):
                assert abs(normalized_block_sum(sc, p) - 1) <= Fraction(4, n), (n, p)
    print("criterion 6 (Weingarten scaling and block sums): PASS")


def test_criterion_7_reconstruction():
    n, M = 5, 4
    for cat in ALL_CATS:
        for seed in (0, 1, 2):
            mt = generate_invariant_model(cat, n, M, seed=seed)
            phi = {
                m: {p: mt.kernel_view(m)[p] for p in enumerate_category(cat, m)}
                for m in range(1, M + 1)
            }
            for m in range(1, M + 1):
                basis = enumerate_category(cat, m)
                for tau in kernel_classes(m, n):
                    i = representative_tuple(tau)
                    got = reconstruct_infinite(phi, cat, i)
                    assert got == mt.value(i), (cat, seed, i)
                    if not any(leq(p, tau) for p in basis):
                        assert got == 0, (cat, seed, i)
    sc = semicircular_model(5, 4)
    phi = {m: {p: sc.kernel_view(m)[p] for p in enumerate_category(O_PLUS, m)} for m in range(1, 5)}
    assert reconstruct_infinite(phi, O_PLUS, (1, 2, 3)) == 0
    assert reconstruct_infinite(phi, O_PLUS, (1, 2, 1, 2)) == 0
    print("criterion 7 (reconstruction from restricted data): PASS")


def cli_fixture_run(tmp_path):
    from clirunner import invoke

    tmp_path.mkdir(parents=True, exist_ok=True)
    sc = tmp_path / "sc.json"
    gen = tmp_path / "gen.json"
    cum = tmp_path / "cum.json"
    transcript = []

    def go(args, expect=0):
        result = invoke([str(a) for a in args])
        assert result.exit_code == expect, (args, result.output, result.exception)
        transcript.append(result.output)

    go(["partitions", "--m", 4, "--category", "s+"])
    go(["partitions", "--m", 3, "--format", "text"])
    go(["gram", "--category", "h+", "--m", 4, "--n", 5])
    go(["weingarten", "--category", "o+", "--m", 4, "--n", 5])
    go(["weingarten", "--category", "o+", "--m", 3, "--n", 5])
    go(["haar", "--category", "o+", "--n", 5, "--i", "1,1", "--j", "1,1"])
    go(["semicircular", "--n", 4, "--max-order", 4, "--output", sc])
    go(["check", "--category", "o+", "--input", sc])
    go(["generate", "--category", "b+", "--n", 4, "--max-order", 3, "--seed", 11, "--output", gen])
    go(["check", "--category", "b+", "--input", gen])
    go(["transform", "--to", "cumulants", "--input", gen, "--output", cum])
    go(["transform", "--to", "moments", "--input", cum])
    go(["solve", "--category", "b+", "--which", "c", "--m", 3, "--input", gen])
    go(["block-sum", "--input", sc, "--p", "0,0,1,1"])
    go(["asymptotics", "--category", "o+", "--m", 4, "--inputs", sc])
    doc = json.loads(sc.read_text())
    doc["values"]["3"]["0,0,0"] = "1/1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    go(["check", "--category", "o+", "--input", bad], expect=1)
    files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    return transcript, files


def test_criterion_8_cli_determinism(tmp_path):
    first = cli_fixture_run(tmp_path / "a")
    second = cli_fixture_run(tmp_path / "b")
    assert first == second
    cmd = [
        sys.executable, "-m", "freedf.cli",
        "generate", "--category", "s+", "--n", "5", "--max-order", "4", "--seed", "2",
    ]
    runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == 0 and runs[0].stdout == runs[1].stdout
    print("criterion 8 (byte-identical CLI runs): PASS")
