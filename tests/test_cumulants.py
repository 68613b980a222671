import copy
import importlib
import itertools
import json
import random
import re
from math import lcm, prod
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from freedf.cumulants import (
    DENSE,
    KERNEL,
    CumulantTable,
    MomentTable,
    Table,
    cumulants_from_moments,
    kappa_pi,
    kernel_classes,
    moments_from_cumulants,
    parse_layers,
    parse_rgs_key,
    phi_pi,
    representative_tuple,
    table_from_json,
    table_from_text,
    tuple_kernels,
)
from freedf.categories import O_PLUS, S_PLUS, enumerate_category
from freedf.cli import family_json, parse_family
from freedf.definetti import (
    check_invariance,
    generate_invariant_model,
    reconstruct_infinite,
    seed_coefficients,
    semicircular_model,
)
from freedf.errors import (
    BadRational,
    IncompleteTable,
    NotKernelRepresentable,
    OrderExceeded,
    SchemaError,
    SizeMismatch,
    TableTooLarge,
)
from freedf.partitions import (
    enumerate_partitions,
    kernel,
    num_blocks,
    one_block,
    parse_index_tuple,
    parse_partition,
    render_index_tuple,
    singletons,
)
from freedf import cumulants as cumulants_module
from freedf import transforms as transforms_module
from freedf.rationals import parse_rational, scale_into
from freedf.transforms import _cut, _transform, _Words, first_block_shapes
from freedf.weingarten import haar_moment

rationals = importlib.import_module("freedf.rationals")


def random_dense_moments(n, M, seed):
    rng = random.Random(seed)
    values = {}
    for m in range(1, M + 1):
        values[m] = {
            i: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for i in itertools.product(range(1, n + 1), repeat=m)
        }
    return MomentTable(n, M, values)


def stirling_second(m, k):
    if k == 0:
        return 1 if m == 0 else 0
    total = 0
    for p in enumerate_partitions(m):
        if num_blocks(p) == k:
            total += 1
    return total


def test_kernel_classes_counts():
    for m in range(1, 6):
        for n in (1, 2, 3, 6):
            want = sum(stirling_second(m, k) for k in range(1, min(m, n) + 1))
            assert len(kernel_classes(m, n)) == want
    assert kernel_classes(2, 1) == [one_block(2)]


def test_table_construction_and_value():
    t = random_dense_moments(2, 3, seed=0)
    assert t.kind == "moments"
    assert t.value(()) == 1
    assert t.value((1, 2)) == t.values[2][(1, 2)]
    with pytest.raises(OrderExceeded):
        t.value((1, 1, 1, 1))


def test_table_refuses_n_below_one():
    # semicircular_model(0, 2) was a table of empty layers, which
    # table_from_json then refused
    for n in (0, -1):
        for rep in (DENSE, KERNEL):
            with pytest.raises(SchemaError, match="field 'n' must be a positive integer, got %d" % n):
                MomentTable(n, 2, {}, repr=rep)
        with pytest.raises(SchemaError, match="field 'n' must be a positive integer"):
            semicircular_model(n, 2)


@pytest.mark.parametrize("max_order", [-1, True, False, 1.5, "2", None])
def test_table_refuses_a_max_order_the_reader_refuses(max_order):
    # Table() took max_order -1 and True, which table_from_json then refused,
    # and 1.5 raised a bare TypeError
    message = "field 'max_order' must be a non-negative integer, got %r" % (max_order,)
    for rep in (DENSE, KERNEL):
        with pytest.raises(SchemaError, match=re.escape(message)):
            MomentTable(2, max_order, {}, repr=rep)
    doc = {"n": 2, "max_order": max_order, "kind": "moments", "repr": KERNEL, "values": {}}
    with pytest.raises(SchemaError, match=re.escape(message)):
        table_from_json(doc)
    if max_order == -1:
        with pytest.raises(SchemaError, match=re.escape(message)):
            semicircular_model(2, max_order)
    assert MomentTable(2, 0, {}).to_json()["max_order"] == 0


@pytest.mark.parametrize("rep", [DENSE, KERNEL])
def test_table_refuses_an_order_outside_its_orders(rep):
    # Table() dropped orders 2 and 0 of a max_order 1 table, which
    # table_from_json refuses
    one, two = ([1, 1], [5, 7, 7, 5]) if rep == DENSE else ([1], [5, 7])
    with pytest.raises(SchemaError, match="values carries an unexpected order 2"):
        MomentTable(2, 1, {1: one, 2: two, 0: [3]}, repr=rep)
    with pytest.raises(SchemaError, match="values carries an unexpected order 0"):
        MomentTable(2, 0, {0: [3]}, repr=rep)
    doc = MomentTable(2, 2, {1: one, 2: two}, repr=rep).to_json()
    doc["max_order"] = 1
    with pytest.raises(SchemaError, match="values carries an unexpected order '2'"):
        table_from_json(doc)
    assert MomentTable(2, 1, {1: one}, repr=rep).values.keys() == {1}


def test_table_takes_either_layer_as_a_list_in_write_order():
    # a list is a layer's values in the order to_json writes them: product
    # order for a dense layer, kernel_classes order for a kernel layer
    mt = generate_invariant_model(S_PLUS, 4, 4, seed=5)
    for t in (mt, mt.to_dense()):
        lists = {m: list(layer.values()) for m, layer in t.values.items()}
        got = MomentTable(t.n, t.max_order, lists, repr=t.repr)
        assert {m: list(layer.items()) for m, layer in got.values.items()} == {
            m: list(layer.items()) for m, layer in t.values.items()
        }
        assert json.dumps(got.to_json()) == json.dumps(t.to_json())
        lists[3].pop()
        with pytest.raises(IncompleteTable, match="order 3 has %d entries" % (len(t.values[3]) - 1)):
            MomentTable(t.n, t.max_order, lists, repr=t.repr)


def test_table_completeness_enforced():
    with pytest.raises(IncompleteTable):
        MomentTable(2, 2, {1: {(1,): Fraction(1)}, 2: {}})
    with pytest.raises(SchemaError):
        MomentTable(2, 1, {1: {(1,): Fraction(1), (2,): Fraction(0)}}, repr="weird")


def test_tuple_kernels_is_kernel_of_each_tuple():
    for m, n in [(m, n) for m in range(1, 6) for n in range(1, 5)] + [(6, 3), (4, 6), (1, 1), (1, 5), (6, 6)]:
        # a list, position k holding the class of the k-th word in product order
        got = tuple_kernels(m, n)
        words = list(itertools.product(range(1, n + 1), repeat=m))
        assert isinstance(got, list) and len(got) == len(words)
        classes = {tau: tau for tau in kernel_classes(m, n)}
        assert all(tau == kernel(i) and tau is classes[tau] for i, tau in zip(words, got)), (m, n)


def test_table_keys_are_checked():
    # right count, wrong keys: value((1,)) used to raise a bare KeyError
    with pytest.raises(SchemaError):
        MomentTable(2, 1, {1: {(5,): 1, (6,): 2}}, repr="dense")
    with pytest.raises(SchemaError):
        MomentTable(2, 2, {1: {(0,): 1}, 2: {(0, 0): 1, (0, 2): 1}}, repr="kernel")
    t = MomentTable(2, 2, {1: {(0,): 1}, 2: {(0, 0): 1, (0, 1): 2}}, repr="kernel")
    assert t.value((1, 2)) == 2


def test_dense_guard():
    with pytest.raises(TableTooLarge):
        MomentTable(100, 5, {})


def perturbed_two_letter_table(M):
    """A dense n=2 moment table of orders 1..M whose order 1 is not S_2-invariant."""
    layers = {m: [Fraction(0)] * 2 ** m for m in range(1, M + 1)}
    layers[1] = [Fraction(1), Fraction(0)]
    return MomentTable(2, M, layers)


def test_dense_transform_by_position_is_bounded(monkeypatch):
    # 2^(M-1) * n^M steps: 2^25 at n=2, M=13, which once took about 18 s
    table = perturbed_two_letter_table(13)
    for convert in (cumulants_from_moments, moments_from_cumulants):
        with pytest.raises(TableTooLarge, match=r"2\^12\*2\^13 steps"):
            convert(table)
    # the bound is exact: 2^3 * 2^4 = 128 steps at n=2, M=4
    small = perturbed_two_letter_table(4)
    monkeypatch.setattr(transforms_module, "DENSE_GUARD", 128)
    assert moments_from_cumulants(cumulants_from_moments(small)).values == small.values
    monkeypatch.setattr(transforms_module, "DENSE_GUARD", 127)
    with pytest.raises(TableTooLarge):
        cumulants_from_moments(small)


def test_invariant_dense_table_above_the_kernel_cap_is_transformed_by_position():
    # the moments of the constant 1: only kappa_1 is nonzero. At M=11 the
    # table is S_2-invariant, but kernel_classes stops at order 10
    M = 11
    ones = MomentTable(2, M, {m: [Fraction(1)] * 2 ** m for m in range(1, M + 1)})
    kappa = cumulants_from_moments(ones)
    assert list(kappa.values[1].values()) == [1, 1]
    assert all(set(kappa.values[m].values()) == {0} for m in range(2, M + 1))
    assert moments_from_cumulants(kappa).values == ones.values


def test_kernel_table_and_views():
    sc = semicircular_model(3, 4)
    assert sc.repr == KERNEL
    assert sc.value(representative_tuple(one_block(2))) == 1
    assert sc.value((1, 1)) == 1
    dense = sc.to_dense()
    assert dense.repr == DENSE
    for i in itertools.product((1, 2, 3), repeat=3):
        assert dense.value(i) == sc.value(i)
    assert dense.kernel_view(4) == sc.kernel_view(4)
    assert dense.to_kernel().values == sc.values
    assert sc.to_kernel() is sc and dense.to_dense() is dense


def test_kernel_view_witnesses_nonuniform():
    t = semicircular_model(2, 2).to_dense()
    t.values[2][(2, 2)] = Fraction(7)
    with pytest.raises(NotKernelRepresentable) as exc:
        t.kernel_view(2)
    msg = str(exc.value)
    assert "(1, 1)" in msg and "(2, 2)" in msg and "0,0" in msg


@pytest.mark.parametrize("m", [0, -1, 4])
@pytest.mark.parametrize("dense", [False, True], ids=["kernel", "dense"])
def test_kernel_view_refuses_orders_outside_the_table(m, dense):
    # a KeyError before; Table.value already raised OrderExceeded
    t = semicircular_model(2, 3)
    with pytest.raises(OrderExceeded):
        (t.to_dense() if dense else t).kernel_view(m)


def test_representative_tuple():
    tau = parse_partition("0,1,0,2")
    assert representative_tuple(tau) == (1, 2, 1, 3)
    assert kernel(representative_tuple(tau)) == tau


def test_phi_pi_blockwise():
    sc = semicircular_model(3, 4)
    i = (1, 2, 1, 2)
    # singletons: product of first moments
    assert phi_pi(sc, singletons(4), i) == 0
    # one block: the plain moment
    assert phi_pi(sc, one_block(4), i) == sc.value(i)
    # a crossing partition is evaluated blockwise all the same
    crossing = parse_partition("0,1,0,1")
    assert phi_pi(sc, crossing, i) == sc.value((1, 1)) * sc.value((2, 2)) == 1
    with pytest.raises(SizeMismatch):
        phi_pi(sc, one_block(3), i)


def test_kappa_pi_blockwise():
    sc = semicircular_model(3, 4)
    ct = cumulants_from_moments(sc)
    i = (1, 1, 2, 2)
    assert kappa_pi(ct, parse_partition("0,0,1,1"), i) == 1
    assert kappa_pi(ct, one_block(4), i) == ct.value(i)
    with pytest.raises(OrderExceeded, match="order 5 beyond table max_order 4"):
        kappa_pi(ct, one_block(5), i + (1,))


def test_restricted_words_find_their_class():
    # a word over a stored class is found by relabelling; a canonical word
    # that is not stored is a KeyError, not a recursion
    words = _Words({(0,): 1, (0, 1): 2})
    assert words[(3,)] == 1 and words[(5, 2)] == 2 and (5, 2) in words
    for word in ((0, 0), (1, 1)):
        with pytest.raises(KeyError):
            words[word]


def test_first_order_cumulant_is_moment():
    t = random_dense_moments(3, 1, seed=2)
    ct = cumulants_from_moments(t)
    for i in ((1,), (2,), (3,)):
        assert ct.value(i) == t.value(i)


def test_second_order_cumulant_formula():
    t = random_dense_moments(3, 2, seed=3)
    ct = cumulants_from_moments(t)
    for i in itertools.product((1, 2, 3), repeat=2):
        want = t.value(i) - t.value((i[0],)) * t.value((i[1],))
        assert ct.value(i) == want


def test_moments_from_cumulants_brute_force():
    # phi(i) = sum over non-crossing pi of prod_V kappa(i|V)
    from freedf.categories import S_PLUS, enumerate_category

    rng = random.Random(4)
    values = {
        m: {
            i: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for i in itertools.product((1, 2), repeat=m)
        }
        for m in range(1, 5)
    }
    ct = CumulantTable(2, 4, values)
    mt = moments_from_cumulants(ct)
    for m in range(1, 5):
        for i in itertools.product((1, 2), repeat=m):
            want = Fraction(0)
            for p in enumerate_category(S_PLUS, m):
                term = Fraction(1)
                for block in p.blocks():
                    term *= ct.value(tuple(i[v] for v in block))
                want += term
            assert mt.value(i) == want, i


def test_round_trip_dense():
    for seed in range(5):
        t = random_dense_moments(2, 5, seed=seed)
        assert moments_from_cumulants(cumulants_from_moments(t)).values == t.values
        c = CumulantTable(2, 5, t.values)
        assert cumulants_from_moments(moments_from_cumulants(c)).values == c.values


def test_round_trip_kernel():
    rng = random.Random(6)
    n, M = 4, 5
    values = {
        m: {tau: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for tau in kernel_classes(m, n)}
        for m in range(1, M + 1)
    }
    mt = MomentTable(n, M, values, repr=KERNEL)
    ct = cumulants_from_moments(mt)
    assert ct.repr == KERNEL
    back = moments_from_cumulants(ct)
    assert back.values == mt.values
    # kernel and dense transforms agree
    dense_ct = cumulants_from_moments(mt.to_dense())
    for m in range(1, M + 1):
        assert dense_ct.kernel_view(m) == ct.kernel_view(m)


def test_zero_cumulants_zero_moments():
    values = {m: {i: Fraction(0) for i in itertools.product((1, 2), repeat=m)} for m in (1, 2, 3)}
    ct = CumulantTable(2, 3, values)
    mt = moments_from_cumulants(ct)
    assert all(v == 0 for layer in mt.values.values() for v in layer.values())


def test_semicircular_transform_examples():
    sc_kappa = {
        m: {tau: Fraction(0) for tau in kernel_classes(m, 2)} for m in range(1, 5)
    }
    for tau in kernel_classes(2, 2):
        if tau == one_block(2):
            sc_kappa[2][tau] = Fraction(1)
    ct = CumulantTable(2, 4, sc_kappa, repr=KERNEL)
    mt = moments_from_cumulants(ct)
    assert mt.value((1, 1, 1, 1)) == 2
    assert mt.value((1, 2, 1, 2)) == 0
    assert mt.values == semicircular_model(2, 4).values


def test_json_round_trip():
    t = random_dense_moments(2, 2, seed=7)
    doc = t.to_json()
    back = table_from_json(doc)
    assert isinstance(back, MomentTable)
    assert back.values == t.values and back.n == t.n and back.repr == DENSE
    sck = semicircular_model(3, 3)
    doc2 = sck.to_json()
    assert doc2["repr"] == "kernel"
    back2 = table_from_json(doc2)
    assert back2.values == sck.values and back2.repr == KERNEL
    ct = cumulants_from_moments(sck)
    assert isinstance(table_from_json(ct.to_json()), CumulantTable)


def test_json_bytes_are_deterministic():
    t = random_dense_moments(2, 2, seed=8)
    assert json.dumps(t.to_json()) == json.dumps(table_from_json(t.to_json()).to_json())


def test_table_from_json_valid_dense_counts():
    t = random_dense_moments(2, 2, seed=9)
    back = table_from_json(t.to_json())
    assert len(back.values[1]) == 2 and len(back.values[2]) == 4


def test_table_from_json_missing_entry():
    doc = random_dense_moments(2, 2, seed=10).to_json()
    del doc["values"]["2"]["2,1"]
    with pytest.raises(IncompleteTable) as exc:
        table_from_json(doc)
    assert "2,1" in str(exc.value)
    del doc["values"]["2"]
    with pytest.raises(IncompleteTable, match="values for order 2 are missing") as exc:
        table_from_json(doc)
    assert exc.value.missing == ["2"]


def test_table_from_json_bad_rational():
    doc = random_dense_moments(2, 2, seed=11).to_json()
    doc["values"]["1"]["1"] = "1/0"
    with pytest.raises(BadRational):
        table_from_json(doc)


def test_table_from_json_schema_errors():
    base = random_dense_moments(2, 1, seed=12).to_json()
    for mangle in (
        lambda d: d.pop("n"),
        lambda d: d.update(kind="weird"),
        lambda d: d.update(repr="sparse"),
        lambda d: d.update(n="2"),
        lambda d: d.update(values=[]),
    ):
        doc = json.loads(json.dumps(base))
        mangle(doc)
        with pytest.raises(SchemaError):
            table_from_json(doc)
    for doc in ([base], "table", None):
        with pytest.raises(SchemaError, match="table document must be a JSON object"):
            table_from_json(doc)
    doc = json.loads(json.dumps(base))
    doc["values"]["1"]["3"] = "1/1"
    with pytest.raises(SchemaError):
        table_from_json(doc)


def test_table_from_json_accepts_plain_numbers():
    doc = {
        "n": 1,
        "max_order": 2,
        "kind": "moments",
        "repr": "dense",
        "values": {"1": {"1": 1}, "2": {"1,1": 0.5}},
    }
    t = table_from_json(doc)
    assert t.value((1, 1)) == Fraction(1, 2)


def test_stray_order_refused():
    doc = semicircular_model(2, 3).to_json()
    doc["max_order"] = 2  # order 3 is now a stray order
    with pytest.raises(SchemaError, match="values carries an unexpected order '3'"):
        table_from_json(doc)
    for junk in ("0", "x"):
        doc = semicircular_model(2, 2).to_json()
        doc["values"][junk] = {}
        with pytest.raises(SchemaError, match="unexpected order %r" % junk):
            table_from_json(doc)
    doc = family_json(S_PLUS, "c", seed_coefficients(S_PLUS, 3, 3, seed=20))
    doc["max_order"] = 2
    with pytest.raises(SchemaError, match="values carries an unexpected order '3'"):
        parse_family(doc, {"c"})
    doc["max_order"] = 3
    assert parse_family(doc, {"c"})[1] == 3


def test_kernel_layers_held_in_class_order():
    """A kernel document read with its keys shuffled at every order gives
    the same layers, JSON bytes and check report as the canonical one."""
    n, M = 4, 5
    canon = table_from_json(generate_invariant_model(S_PLUS, n, M, seed=20).to_json())
    doc = canon.to_json()
    rng = random.Random(20)
    for m in range(1, M + 1):
        items = list(doc["values"][str(m)].items())
        rng.shuffle(items)
        doc["values"][str(m)] = dict(items)
    t = table_from_json(doc)
    for m in range(1, M + 1):
        assert list(t.values[m]) == kernel_classes(m, n)
    assert json.dumps(t.to_json()) == json.dumps(canon.to_json())
    for tolerance in (None, Fraction(1, 10 ** 9)):
        got, want = (check_invariance(x, O_PLUS, tolerance=tolerance) for x in (t, canon))
        assert want.verdict == "FAIL" and want.witnesses
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert got.residuals == want.residuals
        assert [list(r) for r in got.residuals.values()] == [list(r) for r in want.residuals.values()]


def test_every_layer_reaches_the_table_as_a_value_list(monkeypatch):
    """parse_layers gives each order as its values in the order to_json
    writes the keys, read by text match or key by key, for a kernel table,
    a dense table and a coefficient family alike."""
    handed = []

    def spy(*args):
        out = parse_layers(*args)
        handed.append(out)
        return out

    monkeypatch.setattr(cumulants_module, "parse_layers", spy)
    kernel_doc = generate_invariant_model(S_PLUS, 4, 4, seed=21).to_json()
    docs = [kernel_doc, semicircular_model(3, 3).to_dense().to_json()]
    rng = random.Random(21)
    for doc in list(docs):
        doc = json.loads(json.dumps(doc))
        for layer in doc["values"].values():
            items = list(layer.items())
            rng.shuffle(items)
            layer.clear()
            layer.update(items)
        docs.append(doc)
    for doc in docs:
        t = table_from_json(doc)
        assert all(type(vals) is list for vals in handed.pop().values())
        for m, layer in t.values.items():
            keys = kernel_classes(m, t.n) if t.repr == KERNEL else itertools.product(range(1, t.n + 1), repeat=m)
            texts = map(render_index_tuple, keys)
            assert list(layer.values()) == list(map(parse_rational, map(doc["values"][str(m)].__getitem__, texts)))
    family = family_json(S_PLUS, "c", seed_coefficients(S_PLUS, 3, 3, seed=21))
    raw = parse_layers(family["values"], 3, parse_rgs_key, lambda m: enumerate_category(S_PLUS, m))
    assert raw == {int(m): list(map(parse_rational, layer.values())) for m, layer in family["values"].items()}
    assert parse_family(family, {"c"})[2] == seed_coefficients(S_PLUS, 3, 3, seed=21)


def test_reading_a_kernel_table_lists_its_classes_twice_per_order(monkeypatch):
    # once for the texts the reader matches, once for the classes Table()
    # keys the values by; three times before layers reached Table() as lists
    doc = generate_invariant_model(S_PLUS, 6, 6, seed=1).to_json()
    calls = []

    def counted(m, n):
        calls.append(m)
        return kernel_classes(m, n)

    monkeypatch.setattr(cumulants_module, "kernel_classes", counted)
    t = table_from_json(doc)
    assert sorted(calls) == sorted(list(range(1, 7)) * 2)
    assert json.dumps(t.to_json()) == json.dumps(doc)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_round_trip_property(seed):
    t = random_dense_moments(2, 4, seed=seed)
    assert moments_from_cumulants(cumulants_from_moments(t)).values == t.values


# ---- reading by text match ----------------------------------------------------


def reference_table_from_json(doc):
    """The per-key reader that preceded text matching, kept as the oracle:
    every key through its parser, every value through parse_rational, the
    missing-key test against a list of the expected keys."""
    n, max_order = doc["n"], doc["max_order"]
    values = {}
    for m in range(1, max_order + 1):
        layer_doc = doc["values"].get(str(m))
        if layer_doc is None:
            raise IncompleteTable("values for order %d are missing" % m, missing=[str(m)])
        if not isinstance(layer_doc, dict):
            raise SchemaError("values for order %d must be an object keyed by entry" % m)
        layer = {}
        for text, val in layer_doc.items():
            if doc["repr"] == KERNEL:
                key = parse_rgs_key(text, m)
            else:
                key = parse_index_tuple(text, n)
                if len(key) != m:
                    raise SchemaError("tuple %r under order %d has length %d" % (text, m, len(key)))
            if key in layer:
                raise SchemaError("order %d repeats the key %s as %r" % (m, render_index_tuple(key), text))
            layer[key] = parse_rational(val)
        if doc["repr"] == KERNEL:
            want = kernel_classes(m, n)
        else:
            want = list(itertools.product(range(1, n + 1), repeat=m))
        missing = [k for k in want if k not in layer]
        if missing:
            shown = [render_index_tuple(k) for k in missing[:8]]
            raise IncompleteTable(
                "order %d is missing %d entries, e.g. %s" % (m, len(missing), ", ".join(shown)), missing=shown
            )
        if len(layer) != len(want):
            unexpected = sorted(set(layer) - set(want))[0]
            raise SchemaError("order %d carries an unexpected key %r" % (m, render_index_tuple(unexpected)))
        values[m] = layer
    cls = MomentTable if doc["kind"] == "moments" else CumulantTable
    return cls(n, max_order, values, repr=doc["repr"])


def read_outcome(reader, doc):
    """A table as comparable data, or its error class, message and payload."""
    try:
        t = reader(json.loads(json.dumps(doc)))
    except Exception as e:
        return type(e), str(e), getattr(e, "payload", lambda: None)()
    return type(t), t.n, t.max_order, t.repr, {m: list(layer.items()) for m, layer in t.values.items()}


GOOD_VALUES = ("1", "1", "0", "1/2", "-3/6", "1/1", 1, 1.0, 2, "7")
ANY_VALUES = GOOD_VALUES + (True, False, "x", "1/0", "", " 1 ", "1/2/3", 0.5)


def respell(text, rng):
    """Another spelling of a key text: a zero-padded or spaced label."""
    labels = text.split(",")
    k = rng.randrange(len(labels))
    labels[k] = rng.choice(("0" + labels[k], " " + labels[k], labels[k] + " ", "00" + labels[k]))
    return ",".join(labels)


def stray_key(rep, n, m, rng):
    """A key that is not an expected key of order m."""
    if rep == KERNEL:
        # m singletons when they have more than n blocks, else a key of the wrong size
        return rng.choice((",".join(map(str, range(m if m > n else m + 1))), "0,2", "x"))
    return rng.choice(("%d" % (n + 1), "0", ",".join(["1"] * (m + 1)), "a", ""))


@settings(deadline=None, max_examples=400)
@given(
    st.sampled_from([(1, 3), (2, 1), (2, 3), (3, 2), (10, 2), (2, 4), (3, 4)]),
    st.sampled_from([DENSE, DENSE, KERNEL]),
    st.lists(
        st.sampled_from(("shuffle", "text-order", "respell", "dup-before", "dup-after", "drop", "stray", "bad")),
        max_size=3,
    ),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_reader_matches_per_key_reader(shape, rep, ops, bad_values, rng):
    n, M = shape
    if rep == DENSE and n ** M > 200:
        M = 2
    values, target = {}, rng.randint(1, M)  # the order the ops mangle
    for m in range(1, M + 1):
        pool = ANY_VALUES if bad_values else GOOD_VALUES
        if rep == KERNEL:
            keys = [str(tau) for tau in kernel_classes(m, n)]
        else:
            keys = [render_index_tuple(i) for i in itertools.product(range(1, n + 1), repeat=m)]
        items = [(text, rng.choice(pool)) for text in keys]
        for op in ops if m == target else ():
            if not items:
                break
            j = rng.randrange(len(items))
            if op == "shuffle":
                rng.shuffle(items)
            elif op == "text-order":
                items.sort(key=lambda item: item[0])
            elif op == "respell":
                items[j] = (respell(items[j][0], rng), items[j][1])
            elif op in ("dup-before", "dup-after"):
                # the same key twice, the other spelling first or second
                items.insert(j if op == "dup-before" else j + 1, (respell(items[j][0], rng), rng.choice(pool)))
            elif op == "drop":
                del items[j]
            elif op == "stray":
                items.insert(j, (stray_key(rep, n, m, rng), "1"))
            else:
                items[j] = (items[j][0], rng.choice(("x", True, "1/0")))
        values[str(m)] = dict(items)
    doc = {"n": n, "max_order": M, "kind": "moments", "repr": rep, "values": values}
    want = read_outcome(reference_table_from_json, doc)
    assert read_outcome(table_from_json, doc) == want
    for size in (1, 24):  # and from the text, in slices of that many characters
        with mock.patch.object(cumulants_module, "READ_SLICE", size):
            assert read_outcome(lambda doc: table_from_text(json.dumps(doc)), doc) == want


def test_reader_matches_per_key_reader_on_fixed_documents():
    kernel = semicircular_model(2, 3).to_json()
    kernel["values"]["3"]["0,1,2"] = "1"  # three blocks over n = 2
    dense = random_dense_moments(10, 2, seed=13).to_json()
    dense["values"]["2"] = dict(sorted(dense["values"]["2"].items()))  # "1,10" before "1,2"
    got = [read_outcome(table_from_json, doc) for doc in (kernel, dense)]
    assert got == [read_outcome(reference_table_from_json, doc) for doc in (kernel, dense)]
    assert got[0][:2] == (SchemaError, "order 3 carries an unexpected key '0,1,2'")
    assert got[1][0] is MomentTable


def test_dense_reader_keeps_booleans_bad_after_memoising_one():
    doc = {"n": 2, "max_order": 1, "kind": "moments", "repr": "dense", "values": {"1": {"1": "1", "2": True}}}
    with pytest.raises(BadRational) as exc:
        table_from_json(doc)
    assert str(exc.value) == "a boolean is not a rational: True"
    doc["values"]["1"] = {"1": "1", "2": 1}
    assert table_from_json(doc).values[1] == {(1,): 1, (2,): 1}


def test_dense_reader_parses_each_value_string_once_per_layer(monkeypatch):
    doc = generate_invariant_model(S_PLUS, 4, 4, seed=3).to_dense().to_json()
    calls = []
    real_parse = rationals.parse_rational
    monkeypatch.setattr(rationals, "parse_rational", lambda v: calls.append(v) or real_parse(v))
    t = table_from_json(doc)
    layers = doc["values"]
    assert len(calls) == sum(len(set(layers[str(m)].values())) for m in range(1, 5))
    assert len(calls) < sum(len(layers[str(m)]) for m in range(1, 5)) // 10
    for m in range(1, 5):
        shared = {}
        for text, v in layers[str(m)].items():
            assert shared.setdefault(v, t.value(parse_index_tuple(text))) is t.value(parse_index_tuple(text))
    assert t.to_json() == doc


def test_dense_writer_formats_each_value_once(monkeypatch):
    t = generate_invariant_model(S_PLUS, 4, 4, seed=3).to_dense()
    layers = {m: t.values[m] for m in range(1, 5)}
    want = {str(m): {render_index_tuple(i): rationals.format_rational(v) for i, v in sorted(layer.items())}
            for m, layer in layers.items()}
    calls = []
    real_format = rationals.format_rational
    monkeypatch.setattr(rationals, "format_rational", lambda v: calls.append(v) or real_format(v))
    doc = t.to_json()
    assert json.dumps(doc["values"]) == json.dumps(want)
    assert len(calls) == len(set().union(*(layer.values() for layer in layers.values())))


# ---- dense layers in product order --------------------------------------------


def words(n, m):
    return list(itertools.product(range(1, n + 1), repeat=m))


def reference_transform(table, to_moments):
    """The key-by-key first-block transform that preceded the positional
    one, kept as its oracle: every cut word is a dict lookup, keyed by
    words for a dense table and by kernel classes for a kernel table."""
    src, dst = ({}, {}) if table.repr == DENSE else (_Words(), _Words())
    den_src, den_dst = {}, {}
    if to_moments:
        kappa, phi, den_kappa, den_phi, sign = src, dst, den_src, den_dst, 1
    else:
        kappa, phi, den_kappa, den_phi, sign = dst, src, den_dst, den_src, -1
    out = {}
    for m in range(1, table.max_order + 1):
        layer = table.values[m]
        den_src[m] = scale_into(src, layer)
        terms = [
            (_cut(V), tuple(map(_cut, gaps)), den_kappa[len(V)] * prod(den_phi[len(g)] for g in gaps))
            for V, gaps in first_block_shapes(m)
        ]
        dstar = lcm(den_src[m], *(d for _, _, d in terms))
        terms = [(cut_v, cut_gaps, sign * (dstar // d)) for cut_v, cut_gaps, d in terms]
        lead = dstar // den_src[m]
        res = {}
        for key in layer:
            acc = src[key] * lead
            for cut_v, cut_gaps, mult in terms:
                k = kappa[cut_v(key)]
                if k:
                    term = mult * k
                    for cut in cut_gaps:
                        term *= phi[cut(key)]
                    acc += term
            res[key] = Fraction(acc, dstar)
        den_dst[m] = scale_into(dst, res)
        out[m] = res
    return out


def any_value(rng):
    """Zero, a small integer of either sign, or a fraction with a large denominator."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 30))
    return Fraction(rng.randint(-5, 5), rng.choice((3, 7, 2 ** 61 - 1, 10 ** 18 + 9)))


def random_layers(n, M, rng, shuffled):
    """{m: {word: value}} over [n]^m, keys in product order or shuffled."""
    layers = {}
    for m in range(1, M + 1):
        items = [(i, any_value(rng)) for i in words(n, m)]
        if shuffled:
            rng.shuffle(items)
        layers[m] = dict(items)
    return layers


@settings(deadline=None, max_examples=120)
@given(
    st.sampled_from([(n, M) for n in range(1, 5) for M in range(0, 6) if n ** M <= 256]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_positional_transform_matches_tuple_keyed_reference(shape, shuffled, rng):
    n, M = shape
    layers = random_layers(n, M, rng, shuffled)
    for cls, convert, to_moments in (
        (MomentTable, cumulants_from_moments, False),
        (CumulantTable, moments_from_cumulants, True),
    ):
        table = cls(n, M, layers)
        got = convert(table)
        want = reference_transform(table, to_moments)
        for m in range(1, M + 1):
            assert list(got.values[m].items()) == list(want[m].items()), (m, to_moments)
            assert list(got.values[m]) == words(n, m)


@settings(deadline=None, max_examples=120)
@given(
    st.sampled_from([(n, M) for n in range(1, 8) for M in range(0, 7)]),
    st.randoms(use_true_random=False),
)
def test_kernel_transform_matches_class_keyed_reference(shape, rng):
    n, M = shape
    layers = {m: [any_value(rng) for _ in kernel_classes(m, n)] for m in range(1, M + 1)}
    for cls, convert, to_moments in (
        (MomentTable, cumulants_from_moments, False),
        (CumulantTable, moments_from_cumulants, True),
    ):
        table = cls(n, M, layers, repr=KERNEL)
        got = convert(table)
        want = reference_transform(table, to_moments)
        for m in range(1, M + 1):
            assert list(got.values[m].items()) == list(want[m].items()), (m, to_moments)


def test_shuffled_dense_layers_are_stored_in_product_order():
    rng = random.Random(21)
    for n, M in ((1, 3), (2, 4), (3, 3), (10, 2)):
        ordered = random_layers(n, M, random.Random(n), shuffled=False)
        shuffled = {m: dict(rng.sample(list(layer.items()), len(layer))) for m, layer in ordered.items()}
        t = MomentTable(n, M, shuffled)
        for m in range(1, M + 1):
            assert list(t.values[m]) == words(n, m)
            assert t.values[m] == ordered[m]
        assert json.dumps(t.to_json()) == json.dumps(MomentTable(n, M, ordered).to_json())
        assert t.to_json() == table_from_json(t.to_json()).to_json()


def reference_key_check(n, max_order, values):
    """The per-key check of dense layers that preceded the order check,
    kept as its oracle: the count, then every key an m-tuple over [n]."""
    labels = set(range(1, n + 1))
    for m in range(1, max_order + 1):
        layer = values.get(m, {})
        if len(layer) != n ** m:
            raise IncompleteTable("order %d has %d entries, expected %d" % (m, len(layer), n ** m))
        for key in layer:
            if not (isinstance(key, tuple) and len(key) == m and set(key) <= labels):
                raise SchemaError("order %d carries an unexpected key %r" % (m, key))


def check_outcome(check, n, M, values):
    try:
        check(n, M, values)
    except Exception as e:
        return type(e), str(e)
    return None


def bad_word(op, n, m):
    """A dense key that is not a word of [n]^m."""
    return {
        "stray": (n + 1,) * m,
        "zero": (0,) * m,
        "text": ",".join(["1"] * m),
        "int": 1,
        "long": (1,) * (m + 1),
        "short": (1,) * (m - 1),
    }[op]


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from([(1, 2), (2, 1), (2, 3), (3, 2)]),
    st.lists(st.sampled_from(("shuffle", "drop", "stray", "zero", "text", "int", "long", "short")), max_size=3),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_dense_key_errors_match_the_per_key_check(shape, ops, replace, rng):
    n, M = shape
    layers = {m: list(layer.items()) for m, layer in random_layers(n, M, rng, shuffled=False).items()}
    m = rng.randint(1, M)  # the order the ops mangle
    target = layers[m]
    for op in ops:
        if not target:
            break
        j = rng.randrange(len(target))
        if op == "shuffle":
            rng.shuffle(target)
        elif op == "drop":
            del target[j]
        elif replace:
            target[j] = (bad_word(op, n, m), Fraction(1))
        else:
            target.insert(j, (bad_word(op, n, m), Fraction(1)))
    values = {k: dict(items) for k, items in layers.items()}
    want = check_outcome(reference_key_check, n, M, values)
    got = check_outcome(lambda *a: MomentTable(*a, repr=DENSE), n, M, values)
    assert got == want
    if want is None:
        assert MomentTable(n, M, values).values == values


def test_dense_key_errors_keep_their_messages():
    ones = {(1,): 1, (2,): 1}
    full = {i: 1 for i in words(2, 2)}
    cases = [
        ({1: ones, 2: dict(list(full.items())[:-1])}, IncompleteTable, "order 2 has 3 entries, expected 4"),
        ({1: ones, 2: {**dict(list(full.items())[:-1]), (1, 3): 1}}, SchemaError,
         "order 2 carries an unexpected key (1, 3)"),
        ({1: {(1,): 1, (0,): 2}}, SchemaError, "order 1 carries an unexpected key (0,)"),
        ({1: ones, 2: {**dict(list(full.items())[1:]), "1,1": 1}}, SchemaError,
         "order 2 carries an unexpected key '1,1'"),
        ({1: ones, 2: {**dict(list(full.items())[:-1]), (2, 2, 2): 1}}, SchemaError,
         "order 2 carries an unexpected key (2, 2, 2)"),
        ({1: ones, 2: {**dict(list(full.items())[:-1]), (2,): 1}}, SchemaError,
         "order 2 carries an unexpected key (2,)"),
        ({1: {1: 1, (2,): 2}}, SchemaError, "order 1 carries an unexpected key 1"),
    ]
    for values, error, message in cases:
        with pytest.raises(error) as exc:
            MomentTable(2, max(values), values)
        assert str(exc.value) == message


def test_positional_kernel_view_matches_kernel_of_each_tuple():
    rng = random.Random(22)
    for m, n in ((1, 1), (1, 5), (3, 2), (6, 6)):
        values = {k: {tau: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for tau in kernel_classes(k, n)}
                  for k in range(1, m + 1)}
        dense = MomentTable(n, m, values, repr=KERNEL).to_dense()
        view = dense.kernel_view(m)
        assert view == values[m] and list(view) == list(dict.fromkeys(map(kernel, words(n, m))))
        for i, v in dense.values[m].items():
            assert view[kernel(i)] == v, i


def test_positional_kernel_view_keeps_its_witness_pair():
    t = semicircular_model(2, 3).to_dense()
    t.values[3][(2, 1, 2)] = Fraction(7)
    with pytest.raises(NotKernelRepresentable) as exc:
        t.kernel_view(3)
    assert str(exc.value) == "tuples (1, 2, 1) and (2, 1, 2) share kernel 0,1,0 but differ: 0 vs 7"


def test_value_refuses_indices_outside_the_range():
    # a kernel table read (7, 7) as the class 0,0 and answered 1; its dense
    # copy raised a bare KeyError
    sc = semicircular_model(3, 4)
    for t in (sc, sc.to_dense()):
        for i in ((7, 7), (0, 0), (1, 4), (-1,), (3, 3, 3, 9)):
            with pytest.raises(SchemaError, match="out of range"):
                t.value(i)
        with pytest.raises(SchemaError):
            kappa_pi(t, one_block(2), (7, 7))
        with pytest.raises(SchemaError):
            phi_pi(t, singletons(2), (1, 0))
        with pytest.raises(SchemaError):
            t.value(representative_tuple(singletons(4)))  # four blocks over n = 3
        with pytest.raises(OrderExceeded):
            t.value((9,) * 5)
        assert t.value((3, 3)) == 1 and t.value((1, 2, 2, 1)) == 1


def test_index_entries_must_be_integers():
    # a kernel table read (1.5, 1) as the class 0,1 and haar_moment and
    # reconstruct_infinite answered; the dense copy raised a bare KeyError,
    # and ("1", 1) a bare TypeError
    sc = semicircular_model(2, 2)
    phi = {m: {p: sc.kernel_view(m)[p] for p in enumerate_category(O_PLUS, m)} for m in (1, 2)}
    bad = ((1.5, 1), ("1", 1), (True, 1), (1, None))
    for i in bad:
        for t in (sc, sc.to_dense()):
            with pytest.raises(SchemaError, match="not an integer"):
                t.value(i)
            with pytest.raises(SchemaError, match="not an integer"):
                kappa_pi(t, singletons(2), i)
        with pytest.raises(SchemaError, match="not an integer"):
            haar_moment(S_PLUS, 3, i, (1, 2))
        with pytest.raises(SchemaError, match="not an integer"):
            haar_moment(S_PLUS, 3, (1, 2), i)
        with pytest.raises(SchemaError, match="not an integer"):
            reconstruct_infinite(phi, O_PLUS, i)
    for i in ((0, 1), (-2, 5)):
        with pytest.raises(SchemaError, match="out of range"):
            reconstruct_infinite(phi, O_PLUS, i)
    assert reconstruct_infinite(phi, O_PLUS, (7, 7)) == 1


# ---- kernel classes of dense tables ---------------------------------------------


def reference_kernel_view(table, m):
    """The per-word kernel test that preceded the S_n-generator test, kept
    as its oracle: each word's class by kernel(i), a class's value read at
    its first word, and the first word that differs from it named."""
    out, first = {}, {}
    for i, v in table.values[m].items():
        tau = kernel(i)
        if tau not in out:
            out[tau], first[tau] = v, i
        elif out[tau] is not v and out[tau] != v:
            raise NotKernelRepresentable(
                "tuples %s and %s share kernel %s but differ: %s vs %s" % (first[tau], i, tau, out[tau], v)
            )
    return out


def view_outcome(view, table, m):
    """The witness message, or the keys in order with the identity of each value."""
    try:
        got = view(table, m)
    except NotKernelRepresentable as e:
        return str(e)
    return [(tau, id(v)) for tau, v in got.items()]


SPELLINGS = {Fraction(1, 2): ("1/2", "2/4", "-3/-6"), Fraction(-1): ("-1", "-1/1", "-2/2"), Fraction(0): ("0", "0/7")}


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([(n, M) for n in range(1, 5) for M in range(1, 6)]),
    st.sampled_from(("fractions", "ints", "texts")),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_kernel_test_matches_kernel_of_each_word(shape, kind, perturb, rng):
    n, M = shape
    if kind == "texts":
        # equal values from different texts are different Fraction objects
        cls = {m: {tau: rng.choice(sorted(SPELLINGS)) for tau in kernel_classes(m, n)} for m in range(1, M + 1)}
        values = {
            str(m): {render_index_tuple(i): rng.choice(SPELLINGS[cls[m][kernel(i)]]) for i in words(n, m)}
            for m in range(1, M + 1)
        }
        table = table_from_json({"n": n, "max_order": M, "kind": "moments", "repr": DENSE, "values": values})
    else:
        pick = (lambda: rng.randint(-3, 3)) if kind == "ints" else (lambda: any_value(rng))
        layers = {m: {tau: pick() for tau in kernel_classes(m, n)} for m in range(1, M + 1)}
        table = MomentTable(n, M, layers, repr=KERNEL).to_dense()
    k, shared = None, False
    if perturb:
        k = rng.randint(1, M)
        i = rng.choice(words(n, k))
        table.values[k][i] += rng.choice((1, Fraction(1, 3)))
        shared = any(kernel(j) == kernel(i) for j in words(n, k) if j != i)
    for m in range(1, M + 1):
        want = view_outcome(reference_kernel_view, table, m)
        assert view_outcome(Table.kernel_view, table, m) == want, (m, want)
        assert (table.kernel_layer(m) is None) == isinstance(want, str) == (m == k and shared)


def positional_transform(table, to_moments):
    """The transform by position, forced by a copy of the table that
    reports no kernel classes."""
    forced = copy.copy(table)
    forced.kernel_layer = lambda m: None
    return _transform(forced, to_moments)


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from([(n, M) for n in range(1, 5) for M in range(0, 6) if n ** M <= 256]),
    st.randoms(use_true_random=False),
)
def test_kernel_transform_of_dense_tables_matches_positional_and_reference(shape, rng):
    n, M = shape
    layers = {m: {tau: any_value(rng) for tau in kernel_classes(m, n)} for m in range(1, M + 1)}
    for cls, convert, out, to_moments in (
        (MomentTable, cumulants_from_moments, CumulantTable, False),
        (CumulantTable, moments_from_cumulants, MomentTable, True),
    ):
        table = cls(n, M, layers, repr=KERNEL).to_dense()
        assert all(table.kernel_layer(m) is not None for m in range(1, M + 1))
        got = json.dumps(convert(table).to_json())
        assert got == json.dumps(out(n, M, positional_transform(table, to_moments)).to_json())
        assert got == json.dumps(out(n, M, reference_transform(table, to_moments)).to_json())
        assert got == json.dumps(convert(cls(n, M, layers, repr=KERNEL)).to_dense().to_json())


def test_reader_edge_cases_match_per_key_reader():
    base = random_dense_moments(2, 2, seed=4).to_json()
    items = list(base["values"]["2"].items())
    cases = {
        # the whole layer in order, then one more key: map(eq, ...) alone stops before it
        "extra-trailing-key": (items + [("2,3", "1/1")], SchemaError),
        "extra-trailing-word": (items + [("1,1,1", "1/1")], SchemaError),
        "extra-trailing-duplicate": (items + [("02,2", "1/1")], SchemaError),
        "one-short": (items[:-1], IncompleteTable),
        "respelled-duplicate": (items[:1] + [("1, 1", "5/1")] + items[1:], SchemaError),
        "nan-fast-path": (items[:1] + [(items[1][0], float("nan"))] + items[2:], BadRational),
        "infinity-fast-path": (items[:3] + [(items[3][0], float("inf"))], BadRational),
        "list-fast-path": (items[:1] + [(items[1][0], [1])] + items[2:], BadRational),
        "true-fast-path": (items[:2] + [(items[2][0], True)] + items[3:], BadRational),
        "nan-per-key-path": ([(items[2][0], float("-inf"))] + items[:2] + items[3:], BadRational),
    }
    for name, (layer, error) in cases.items():
        doc = json.loads(json.dumps(base))
        doc["values"]["2"] = dict(layer)
        got = read_outcome(table_from_json, doc)
        assert got == read_outcome(reference_table_from_json, doc), name
        assert got[0] is error, (name, got)


def scale_per_entry(nums, layer):
    """scale_into as it was, one multiply per entry: its oracle."""
    D = lcm(*(v.denominator for v in layer.values()))
    for key, v in layer.items():
        nums[key] = v.numerator * (D // v.denominator)
    return D


def test_scale_into_matches_the_per_entry_scaling():
    dense = table_from_json(generate_invariant_model(S_PLUS, 4, 5, seed=8).to_dense().to_json())
    kernel = generate_invariant_model(S_PLUS, 5, 6, seed=8)
    rng = random.Random(5)
    layers = []
    for table in (dense, kernel):
        for m in (1, 3, table.max_order):
            shared = table.values[m]
            # the same values, one fresh object per entry
            unshared = {key: Fraction(v.numerator, v.denominator) for key, v in shared.items()}
            # a few shared objects among fresh ones, ints included
            mixed = {key: rng.choice((Fraction(1, 3), -7, v, Fraction(v))) for key, v in shared.items()}
            layers += [shared, unshared, mixed]
    top_dense, top_kernel = layers[6], layers[16]  # order max_order, shared and unshared
    assert len({id(v) for v in top_dense.values()}) < len(top_dense) // 10
    assert len({id(v) for v in top_kernel.values()}) == len(top_kernel)
    layers += [{}, {(1,): Fraction(5, 6)}, dict.fromkeys(kernel.values[4], Fraction(-2, 9))]
    for layer in layers:
        for start in ({}, {(9, 9): 4}):
            got, want = dict(start), dict(start)
            assert scale_into(got, layer) == scale_per_entry(want, layer)
            assert list(got.items()) == list(want.items())
