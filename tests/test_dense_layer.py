"""Dense layers as product-order value lists behind a word-keyed mapping.

Each way of building a dense table must give layers that behave as the
plain product-order dict of the same values: equality both ways, items in
product order, value() and [] agreeing, and a write through the mapping
seen by the positional code (kernel_layer, check_invariance).
"""

import copy
import gc
import itertools
import json
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from freedf.categories import O_PLUS, S_PLUS
from freedf.cumulants import (
    KERNEL,
    CumulantTable,
    DenseLayer,
    MomentTable,
    cumulants_from_moments,
    kernel_classes,
    table_from_json,
)
from freedf.definetti import check_invariance, generate_invariant_model
from freedf.errors import FreedfError, IncompleteTable, SchemaError
from freedf.partitions import kernel
from freedf.transforms import _transform


def words(n, m):
    return list(itertools.product(range(1, n + 1), repeat=m))


def spread(kernel_table):
    """The product-order dict oracle {m: {word: value}} of a kernel table."""
    n = kernel_table.n
    return {
        m: {i: layer[kernel(i)] for i in words(n, m)} for m, layer in kernel_table.values.items()
    }


def by_position(table, to_moments):
    """The transform by position, forced by a copy reporting no kernel classes."""
    forced = copy.copy(table)
    forced.kernel_layer = lambda m: None
    cls = MomentTable if to_moments else CumulantTable
    return cls(table.n, table.max_order, _transform(forced, to_moments))


def outcome(f, *args, **kw):
    try:
        return f(*args, **kw).to_json()
    except FreedfError as e:
        return type(e), str(e)


def reference_kernel_layer(layer):
    """{tau: value} of a word-keyed dict, or None if a class holds two values."""
    got = {}
    for i, v in layer.items():
        if got.setdefault(kernel(i), v) != v:
            return None
    return got


SHAPES = [(n, M) for n in (1, 2, 3) for M in range(1, 5)]


@pytest.mark.parametrize("n,M", SHAPES)
def test_every_route_gives_the_product_order_dict(n, M):
    rng = random.Random(100 * n + M)
    pick = lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 10 ** 20 + 7)))
    kt = MomentTable(n, M, {m: {t: pick() for t in kernel_classes(m, n)} for m in range(1, M + 1)}, repr=KERNEL)
    moments, cumulants = spread(kt), spread(cumulants_from_moments(kt))
    shuffled = {m: dict(rng.sample(list(layer.items()), len(layer))) for m, layer in moments.items()}
    dense = MomentTable(n, M, shuffled)
    routes = [
        ("dict", dense, moments),
        ("json", table_from_json(json.loads(json.dumps(dense.to_json()))), moments),
        ("to_dense", kt.to_dense(), moments),
        ("kernel transform", cumulants_from_moments(dense), cumulants),
        ("positional transform", by_position(dense, False), cumulants),
    ]
    for route, table, oracle in routes:
        assert table.values == oracle and oracle == table.values, route
        for m in range(1, M + 1):
            layer, want = table.values[m], oracle[m]
            assert isinstance(layer, DenseLayer), route
            assert layer == want and want == layer and not layer != want, (route, m)
            assert list(layer.items()) == list(want.items()), (route, m)
            assert list(layer) == list(want) and list(layer.values()) == list(want.values()), (route, m)
            assert len(layer) == len(layer.values()) == len(layer.items()) == n ** m, (route, m)
            for i, v in want.items():
                assert table.value(i) == layer[i] == v and i in layer and layer.get(i) == v, (route, i)


@pytest.mark.parametrize("n,M", SHAPES)
def test_a_write_through_the_mapping_is_seen_by_position(n, M):
    rng = random.Random(7 * n + M)
    kt = generate_invariant_model(O_PLUS, max(n, 2), M, seed=n + M)
    kt = MomentTable(n, M, {m: {t: kt.values[m][t] for t in kernel_classes(m, n)} for m in range(1, M + 1)}, repr=KERNEL)
    oracle = spread(kt)
    tables = [MomentTable(n, M, oracle), table_from_json(kt.to_dense().to_json()), kt.to_dense()]
    for table in tables:
        before = outcome(check_invariance, table, O_PLUS)
        k = rng.randint(1, M)
        i = rng.choice(words(n, k))
        x = Fraction(rng.choice((-5, 1, 7)), rng.choice((1, 3)))
        table.values[k][i] += x
        want = {m: dict(layer) for m, layer in oracle.items()}
        want[k][i] += x
        assert table.values[k][i] == oracle[k][i] + x and table.values == want
        for m in range(1, M + 1):
            assert table.kernel_layer(m) == reference_kernel_layer(want[m]), (m, k, i)
        after = outcome(check_invariance, table, O_PLUS)
        assert after == outcome(check_invariance, MomentTable(n, M, want), O_PLUS)
        if n > 1:  # a single word of a class of several words moved: order k is no longer invariant
            assert after != before and after["verdict"] == "FAIL"
            assert {"m": k, "tuple": ",".join(map(str, i))} in [
                {"m": w["m"], "tuple": w["tuple"]} for w in after["witnesses"]
            ]


def test_constructor_errors_keep_their_type_and_message():
    ones = {(1,): 1, (2,): 1}
    full = dict.fromkeys(words(2, 2), 1)
    cases = [
        ({1: ones, 2: dict(list(full.items())[:-1])}, IncompleteTable, "order 2 has 3 entries, expected 4"),
        ({1: ones}, IncompleteTable, "order 2 has 0 entries, expected 4"),
        ({1: ones, 2: {**dict(list(full.items())[:-1]), (1, 3): 1}}, SchemaError,
         "order 2 carries an unexpected key (1, 3)"),
        ({1: ones, 2: {**dict(list(full.items())[:-1]), (1,): 1}}, SchemaError,
         "order 2 carries an unexpected key (1,)"),
        # a layer of another shape is read as a mapping by its words
        ({1: ones, 2: MomentTable(4, 1, {1: dict.fromkeys(words(4, 1), 1)}).values[1]}, SchemaError,
         "order 2 carries an unexpected key (1,)"),
    ]
    # a list is a layer's values in product order
    cases.append(({1: ones, 2: [1, 2, 3]}, IncompleteTable, "order 2 has 3 entries, expected 4"))
    for values, err, msg in cases:
        with pytest.raises(err) as exc:
            MomentTable(2, 2, values)
        assert str(exc.value) == msg


def test_dense_layer_keeps_exactly_the_words_of_its_order():
    t = generate_invariant_model(S_PLUS, 4, 3, seed=1).to_dense()
    layer = t.values[2]
    for key in [(9, 9), (0, 1), (1, 5), (1, 2, 3), (1,), (), "1,2", 1, (1.0, 2), ("1", "2"), None, [1, 2]]:
        with pytest.raises(KeyError):
            layer[key] = Fraction(1)
        with pytest.raises(KeyError):
            layer[key]
        assert key not in layer and layer.get(key) is None
    # as in a dict, where (True, 2) == (1, 2)
    assert (True, 2) in layer and layer[True, 2] is layer[1, 2] and layer.rank((True, 2)) == 1
    for refuse in (lambda: layer.__delitem__((1, 2)), lambda: layer.pop((1, 2)), layer.clear, layer.popitem):
        with pytest.raises(TypeError):
            refuse()
    assert len(layer) == 16 and list(layer) == words(4, 2)
    assert len(t.to_json()["values"]["2"]) == 16
    # equal value lists over different words are different layers
    assert DenseLayer(4, 1, [1, 2, 3, 4]) != DenseLayer(2, 2, [1, 2, 3, 4])
    assert DenseLayer(1, 1, [5]) != DenseLayer(1, 2, [5])
    assert DenseLayer(2, 2, [1, 2, 3, 4]) == dict(zip(words(2, 2), [1, 2, 3, 4])) != DenseLayer(4, 1, [1, 2, 3, 4])
    assert repr(DenseLayer(2, 1, [5, 6])) == "DenseLayer({(1,): 5, (2,): 6})"
    assert check_invariance(t, S_PLUS).passed


def test_a_table_owns_its_layers():
    t = generate_invariant_model(S_PLUS, 4, 3, seed=2).to_dense()
    u = MomentTable(4, 3, t.values)
    u.values[3][(1, 2, 3)] += 1
    assert u.values[3] != t.values[3] and t.values[3][(1, 2, 3)] == u.values[3][(1, 2, 3)] - 1


def test_parsed_dense_table_holds_a_list_slot_per_entry():
    n, M = 5, 6
    entries = sum(n ** m for m in range(1, M + 1))  # 19,530
    doc = json.loads(json.dumps(generate_invariant_model(S_PLUS, n, M, seed=4).to_dense().to_json()))
    start = time.perf_counter()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = table_from_json(doc)
        del doc
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2
    assert table.values[M][(1,) * M] is not None
    assert held <= 32 * entries, "%d bytes held for %d entries" % (held, entries)
