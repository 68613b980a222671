import importlib
import itertools
import json
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from freedf.cumulants import (
    DENSE,
    KERNEL,
    CumulantTable,
    MomentTable,
    cumulants_from_moments,
    kappa_pi,
    kernel_classes,
    moments_from_cumulants,
    parse_rgs_key,
    phi_pi,
    representative_tuple,
    table_from_json,
    tuple_kernels,
)
from freedf.categories import S_PLUS
from freedf.definetti import generate_invariant_model, semicircular_model
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
from freedf.rationals import parse_rational

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


def test_table_completeness_enforced():
    with pytest.raises(IncompleteTable):
        MomentTable(2, 2, {1: {(1,): Fraction(1)}, 2: {}})
    with pytest.raises(SchemaError):
        MomentTable(2, 1, {1: {(1,): Fraction(1), (2,): Fraction(0)}}, repr="weird")


def test_tuple_kernels_is_kernel_of_each_tuple():
    for m, n in [(m, n) for m in range(1, 6) for n in range(1, 5)] + [(6, 3), (4, 6), (1, 1), (1, 5), (6, 6)]:
        got = tuple_kernels(m, n)
        assert list(got) == list(itertools.product(range(1, n + 1), repeat=m))
        classes = {tau: tau for tau in kernel_classes(m, n)}
        assert all(tau == kernel(i) and tau is classes[tau] for i, tau in got.items()), (m, n)


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


def test_kernel_table_and_views():
    sc = semicircular_model(3, 4)
    assert sc.repr == KERNEL
    assert sc.kernel_value(2, one_block(2)) == 1
    assert sc.value((1, 1)) == 1
    dense = sc.to_dense()
    assert dense.repr == DENSE
    for i in itertools.product((1, 2, 3), repeat=3):
        assert dense.value(i) == sc.value(i)
    assert dense.kernel_view(4) == sc.kernel_view(4)
    assert dense.to_kernel().values == sc.values


def test_kernel_view_witnesses_nonuniform():
    t = semicircular_model(2, 2).to_dense()
    t.values[2][(2, 2)] = Fraction(7)
    with pytest.raises(NotKernelRepresentable) as exc:
        t.kernel_view(2)
    msg = str(exc.value)
    assert "(1, 1)" in msg and "(2, 2)" in msg and "0,0" in msg


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
    assert read_outcome(table_from_json, doc) == read_outcome(reference_table_from_json, doc)


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
