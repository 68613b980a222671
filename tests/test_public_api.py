"""The public names resolve, and every alias agrees with its twin."""

import os
import subprocess
import sys

import freedf
from freedf.categories import O_PLUS, S_PLUS
from freedf.cumulants import cumulants_from_moments, kappa_pi, phi_pi
from freedf.definetti import (
    c_from_C,
    generate_invariant_model,
    seed_coefficients,
    semicircular_model,
    solve_cumulant_coefficients,
    solve_moment_coefficients,
)
from freedf.errors import IncompleteRestriction, IncompleteTable
from freedf.partitions import enumerate_partitions, parse_partition, render_index_tuple, render_partition
from freedf.posets import FinitePoset, category_poset, mobius
from freedf.weingarten import GramTable, WeingartenTable, gram, weingarten


def test_all_names_resolve():
    # dir() lists the lazily imported names too, read or not
    assert set(freedf.__all__) <= set(dir(freedf)) and dir(freedf) == sorted(dir(freedf))
    for name in freedf.__all__:
        assert getattr(freedf, name) is not None, name


def test_the_de_finetti_facade_lends_only_its_names():
    # a fresh interpreter, so that no family module is loaded beforehand
    code = """
import sys
import freedf.definetti as definetti
families = ("freedf.certify", "freedf.families", "freedf.probes")
refused = []
for name in ("__path__", "__wrapped__", "__conform__", "no_such_name", "certify", "ProbeEntries"):
    try:
        getattr(definetti, name)
    except AttributeError:
        refused.append(name)
listed = set(definetti.__all__) <= set(dir(definetti)) and dir(definetti) == sorted(dir(definetti))
before = [name for name in families if name in sys.modules]
f = definetti.check_invariance
print(len(refused), listed, before, f is sys.modules["freedf.certify"].check_invariance, "freedf.probes" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(freedf.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert got.returncode == 0 and got.stdout.split() == ["6", "True", "[]", "True", "False"], got.stderr


def test_phi_pi_and_kappa_pi_agree():
    mt = semicircular_model(3, 4)
    ct = cumulants_from_moments(mt)
    p, i = parse_partition("0,0,1,1"), (1, 1, 2, 2)
    assert phi_pi(mt, p, i) == kappa_pi(mt, p, i) == 1
    assert phi_pi(ct, p, i) == kappa_pi(ct, p, i) == 1
    assert phi_pi(mt, p, (1, 2, 1, 2)) == kappa_pi(mt, p, (1, 2, 1, 2)) == 0
    crossing = parse_partition("0,1,0,1")
    assert phi_pi(mt, crossing, (1, 2, 1, 2)) == kappa_pi(mt, crossing, (1, 2, 1, 2)) == 1


def test_solve_aliases_agree():
    # a generated model's C_pi family is its seed draw, and c_pi = c_from_C
    mt = generate_invariant_model(S_PLUS, 4, 4, 5)
    ct = cumulants_from_moments(mt)
    C = seed_coefficients(S_PLUS, 4, 4, 5)
    for m in range(1, 5):
        c = c_from_C(C, S_PLUS, m)
        for solve in (solve_moment_coefficients, solve_cumulant_coefficients):
            assert solve(mt, S_PLUS, m).values == c
            assert solve(ct, S_PLUS, m).values == C[m]


def test_render_partition_is_str():
    for m in range(1, 6):
        for p in enumerate_partitions(m):
            assert render_partition(p) == str(p) == render_index_tuple(p)
    assert render_partition(parse_partition("0,1,0")) == "0,1,0"


def test_mobius_function_matches_method():
    poset = category_poset(S_PLUS, 4)
    top = parse_partition("0,0,0,0")
    for s in poset.elements:
        assert mobius(poset, s, top) == poset.mobius(s, top)
    assert mobius(poset, parse_partition("0,1,2,3"), top) == -5
    assert mobius(FinitePoset(enumerate_partitions(3)), parse_partition("0,1,2"), parse_partition("0,0,0")) == 2


def test_weingarten_table_is_gram_table():
    wg, g = weingarten(O_PLUS, 4, 5), gram(O_PLUS, 4, 5)
    assert isinstance(wg, WeingartenTable) and isinstance(g, GramTable)
    assert wg.basis == g.basis and wg.index(parse_partition("0,1,1,0")) == 1


def test_incomplete_errors_keep_their_codes():
    a = IncompleteTable("t", missing=["1"])
    b = IncompleteRestriction("r", missing=("2", "3"))
    assert a.payload() == {"error": "incomplete-table", "message": "t", "missing": ["1"]}
    assert b.payload() == {"error": "incomplete-restriction", "message": "r", "missing": ["2", "3"]}
    assert not isinstance(a, IncompleteRestriction) and not isinstance(b, IncompleteTable)
