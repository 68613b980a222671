"""The in-process memoisation contract.

Enumerations hand out a fresh list on every call, so a caller may change
its copy. The objects built once per argument (incidence index, tuple
kernels, first-block shapes, category posets, Moebius columns, Weingarten
tables) are shared: a repeat call returns the identical object. Errors
are never memoised: a repeat call raises again.
"""

import pytest

from freedf.categories import O_PLUS, PAIRING_CAP, S_PLUS, enumerate_category, incidence
from freedf.cumulants import tuple_kernels
from freedf.errors import OrderTooLarge, SingularGram
from freedf.partitions import DEFAULT_CAP, enumerate_partitions, kernel_classes
from freedf.posets import category_poset, mobius_to_top_nc
from freedf.transforms import first_block_shapes
from freedf.weingarten import weingarten


@pytest.mark.parametrize(
    "enum",
    [
        lambda: enumerate_partitions(4),
        lambda: kernel_classes(4, 2),
        lambda: enumerate_category(S_PLUS, 4),
        lambda: enumerate_category(O_PLUS, 4),
        lambda: enumerate_category(S_PLUS, 0),
    ],
    ids=["P(4)", "kernel classes (4, 2)", "s+ C(4)", "o+ C(4)", "C(0)"],
)
def test_enumerations_return_a_fresh_list(enum):
    first = enum()
    want = list(first)
    first.clear()
    assert enum() == want and enum() is not enum()


@pytest.mark.parametrize(
    "build",
    [
        lambda: incidence(S_PLUS, 4, 3),
        lambda: tuple_kernels(3, 2),
        lambda: first_block_shapes(4),
        lambda: category_poset(S_PLUS, 4),
        lambda: mobius_to_top_nc(4),
        lambda: weingarten(S_PLUS, 4, 3),
    ],
    ids=["incidence", "tuple_kernels", "first_block_shapes", "category_poset", "mobius_to_top_nc", "weingarten"],
)
def test_built_objects_are_shared(build):
    assert build() is build()


def test_order_too_large_is_raised_again():
    for enum in (
        lambda: enumerate_partitions(DEFAULT_CAP + 1),
        lambda: kernel_classes(0, 3),
        lambda: kernel_classes(DEFAULT_CAP + 1, 3),
        lambda: enumerate_category(O_PLUS, PAIRING_CAP + 2),
    ):
        for _ in range(2):
            with pytest.raises(OrderTooLarge):
                enum()


def test_singular_gram_is_raised_again(monkeypatch):
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    weingarten.cache_clear()
    for calls in (1, 2):
        with pytest.raises(SingularGram):
            weingarten(O_PLUS, 4, 1)
        info = weingarten.cache_info()
        assert (info.misses, info.currsize) == (calls, 0)
