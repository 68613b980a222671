import importlib
import json

import pytest
from clirunner import invoke as run
from fractions import Fraction

from freedf.cumulants import MomentTable, table_from_json
from freedf.definetti import semicircular_model


def run_checked(args):
    result = run(args)
    assert result.exit_code == 0, result.output + str(result.exception)
    return result.output


def test_partitions_json():
    out = json.loads(run_checked(["partitions", "--m", "4", "--category", "o+"]))
    assert out["count"] == 2
    assert out["partitions"][0] == {"rgs": "0,0,1,1", "blocks": "{{1,2},{3,4}}"}


def test_partitions_text_has_blocks():
    out = run_checked(["partitions", "--m", "3", "--format", "text"])
    assert "0,0,1  {{1,2},{3}}" in out
    assert out.count("\n") == 5


def test_partitions_noncrossing_flag():
    out = json.loads(run_checked(["partitions", "--m", "4", "--noncrossing"]))
    assert out["count"] == 14


def test_gram_and_weingarten_json():
    g = json.loads(run_checked(["gram", "--category", "o+", "--m", "4", "--n", "5"]))
    assert g["entries"] == [["25/1", "5/1"], ["5/1", "25/1"]]
    w = json.loads(run_checked(["weingarten", "--category", "o+", "--m", "4", "--n", "5"]))
    assert w["entries"] == [["1/24", "-1/120"], ["-1/120", "1/24"]]
    assert w["basis"] == ["0,0,1,1", "0,1,1,0"]


def test_weingarten_empty_matrix():
    w = json.loads(run_checked(["weingarten", "--category", "o+", "--m", "3", "--n", "5"]))
    assert w["basis"] == [] and w["entries"] == []


def test_haar_text():
    out = run_checked(["haar", "--category", "o+", "--n", "5", "--i", "1,1", "--j", "1,1", "--format", "text"])
    assert out == "1/5\n"


def test_unknown_category_exits_2():
    result = run(["gram", "--category", "x+", "--m", "2", "--n", "3"])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "unknown-category"


def test_generate_check_pass(tmp_path):
    model = tmp_path / "model.json"
    run_checked(
        ["generate", "--category", "s+", "--n", "5", "--max-order", "3", "--seed", "7", "--output", str(model)]
    )
    out = run_checked(["check", "--category", "s+", "--input", str(model)])
    doc = json.loads(out)
    assert doc["verdict"] == "PASS" and doc["witnesses"] == []


def test_check_fail_exits_1(tmp_path):
    sc = semicircular_model(4, 3).to_dense()
    sc.values[2][(1, 1)] = Fraction(2)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(sc.to_json()))
    result = run(["check", "--category", "o+", "--input", str(bad)])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["verdict"] == "FAIL" and doc["witnesses"]
    assert doc["witnesses"][0]["m"] == 2


def test_check_float_tolerance(tmp_path):
    sc = semicircular_model(4, 2).to_dense()
    sc.values[2][(1, 1)] = Fraction(1) + Fraction(1, 10 ** 15)
    near = tmp_path / "near.json"
    near.write_text(json.dumps(sc.to_json()))
    assert run(["check", "--category", "o+", "--input", str(near)]).exit_code == 1
    result = run(["check", "--category", "o+", "--input", str(near), "--mode", "float"])
    assert result.exit_code == 0
    assert json.loads(result.output)["verdict"] == "PASS"
    strict = run(
        ["check", "--category", "o+", "--input", str(near), "--mode", "float", "--tolerance", "1e-18"]
    )
    assert strict.exit_code == 1


def test_check_float_tests_every_residual(tmp_path):
    # 200 tolerable residuals come first and fill the witness cap; the
    # one intolerable residual after them must still fail the check
    sc = semicircular_model(3, 5).to_dense()
    layer = sc.values[5]
    keys = sorted(layer)
    for i in keys[:200]:
        layer[i] += Fraction(1, 10 ** 12)
    layer[keys[-1]] += 1000
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(sc.to_json()))
    result = run(["check", "--category", "o+", "--input", str(bad), "--mode", "float"])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["verdict"] == "FAIL"
    assert [w["tuple"] for w in doc["witnesses"]] == ["3,3,3,3,3"]


def test_check_rational_rejects_tolerance(tmp_path):
    model = tmp_path / "m.json"
    run_checked(["semicircular", "--n", "4", "--max-order", "2", "--output", str(model)])
    result = run(["check", "--category", "o+", "--input", str(model), "--tolerance", "0.5"])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "schema-error"


def test_negative_tolerance_exits_2(tmp_path):
    # it ran: a passing table gave PASS, a failing one was checked at tolerance 0
    sc = semicircular_model(4, 2).to_dense()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(sc.to_json()))
    sc.values[2][(1, 1)] = Fraction(2)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(sc.to_json()))
    for path in (good, bad):
        result = run(["check", "--category", "o+", "--input", str(path), "--mode", "float", "--tolerance", "-1"])
        assert (result.exit_code, result.stdout) == (2, "")
        want = {"error": "schema-error", "message": "a tolerance must not be negative, got -1"}
        assert json.loads(result.stderr) == want
    result = run(["asymptotics", "--category", "o+", "--m", "2", "--tolerance", "-1/2", "--inputs", str(good)])
    assert (result.exit_code, result.stdout) == (2, "")
    want = {"error": "schema-error", "message": "a tolerance must not be negative, got -1/2"}
    assert json.loads(result.stderr) == want


@pytest.mark.parametrize("n", ["0", "-1"])
def test_semicircular_refuses_n_below_one(n):
    # it wrote a table with no classes, which transform and check then refused
    result = run(["semicircular", "--n", n, "--max-order", "2"])
    assert result.exit_code == 2 and result.stdout == ""
    err = json.loads(result.stderr)
    assert err["error"] == "schema-error"
    assert err["message"] == "field 'n' must be a positive integer, got %s" % n


@pytest.mark.parametrize(
    "args", [["semicircular", "--n", "2"], ["generate", "--category", "o+", "--n", "2", "--seed", "1"]]
)
def test_models_refuse_a_negative_max_order(args):
    # semicircular wrote {"max_order": -1, "values": {}}, which check then refused
    result = run(args + ["--max-order", "-1"])
    assert result.exit_code == 2 and result.stdout == ""
    err = json.loads(result.stderr)
    assert err["error"] == "schema-error"
    assert err["message"] == "field 'max_order' must be a non-negative integer, got -1"


@pytest.mark.parametrize("category,floor", [("o+", 2), ("s+", 4)])
def test_generate_below_the_floor_is_a_typed_error(category, floor):
    # it was an untyped ValueError, reported as {"error": "error", ...}
    result = run(["generate", "--category", category, "--n", str(floor - 1), "--max-order", "2", "--seed", "1"])
    assert (result.exit_code, result.stdout) == (2, "")
    want = "invariance machinery for %s needs n >= %d, got n=%d" % (category, floor, floor - 1)
    assert json.loads(result.stderr) == {"error": "n-below-floor", "message": want}


@pytest.mark.parametrize("p", ["0,1", "0,0,0", "0,1,0,1"])
def test_block_sum_of_a_non_pairing_is_a_typed_error(tmp_path, p):
    # it was an untyped ValueError, reported as {"error": "error", ...}
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(semicircular_model(3, 4).to_json()))
    result = run(["block-sum", "--input", str(path), "--p", p])
    assert (result.exit_code, result.stdout) == (2, "")
    want = "p must be a non-crossing pairing, got %s" % p
    assert json.loads(result.stderr) == {"error": "not-nc-pairing", "message": want}


def test_missing_file_exits_2():
    result = run(["check", "--category", "o+", "--input", "nosuch.json"])
    assert result.exit_code == 2
    assert "message" in json.loads(result.stderr)


def test_transform_round_trip(tmp_path):
    model = tmp_path / "model.json"
    cum = tmp_path / "cum.json"
    back = tmp_path / "back.json"
    run_checked(
        ["generate", "--category", "h+", "--n", "4", "--max-order", "3", "--seed", "5", "--output", str(model)]
    )
    run_checked(["transform", "--to", "cumulants", "--input", str(model), "--output", str(cum)])
    run_checked(["transform", "--to", "moments", "--input", str(cum), "--output", str(back)])
    assert json.loads(model.read_text()) == json.loads(back.read_text())
    assert json.loads(cum.read_text())["kind"] == "cumulants"


def test_transform_kind_mismatch(tmp_path):
    model = tmp_path / "model.json"
    run_checked(["semicircular", "--n", "4", "--max-order", "2", "--output", str(model)])
    result = run(["transform", "--to", "moments", "--input", str(model)])
    assert result.exit_code == 2


def test_solve_output(tmp_path):
    model = tmp_path / "model.json"
    run_checked(
        ["generate", "--category", "o+", "--n", "4", "--max-order", "4", "--seed", "3", "--output", str(model)]
    )
    doc = json.loads(run_checked(["solve", "--category", "o+", "--which", "c", "--m", "4", "--input", str(model)]))
    assert doc["unique"] is True
    assert sorted(doc["coefficients"]) == ["0,0,1,1", "0,1,1,0"]
    table = table_from_json(json.loads(model.read_text()))
    view = table.kernel_view(4)
    from freedf.partitions import parse_partition

    for text, val in doc["coefficients"].items():
        p = parse_partition(text)
        num, den = val.split("/")
        assert view[p] == Fraction(int(num), int(den))


def test_solve_no_fallback(tmp_path):
    model = tmp_path / "model.json"
    run_checked(
        ["generate", "--category", "o+", "--n", "2", "--max-order", "4", "--seed", "3", "--output", str(model)]
    )
    result = run(["solve", "--category", "o+", "--which", "c", "--m", "4", "--input", str(model), "--no-fallback"])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "order-exceeds-n"


def test_convert_round_trip(tmp_path):
    model = tmp_path / "model.json"
    cum = tmp_path / "cum.json"
    run_checked(
        ["generate", "--category", "b+", "--n", "4", "--max-order", "3", "--seed", "9", "--output", str(model)]
    )
    run_checked(["transform", "--to", "cumulants", "--input", str(model), "--output", str(cum)])
    family = {"category": "b+", "kind": "C", "max_order": 3, "values": {}}
    for m in (1, 2, 3):
        doc = json.loads(
            run_checked(["solve", "--category", "b+", "--which", "C", "--m", str(m), "--input", str(cum)])
        )
        family["values"][str(m)] = doc["coefficients"]
    fam_path = tmp_path / "Cfam.json"
    fam_path.write_text(json.dumps(family))
    c_path = tmp_path / "cfam.json"
    back_path = tmp_path / "Cback.json"
    run_checked(["convert", "--direction", "C-to-c", "--input", str(fam_path), "--output", str(c_path)])
    run_checked(["convert", "--direction", "c-to-C", "--input", str(c_path), "--output", str(back_path)])
    assert json.loads(back_path.read_text())["values"] == family["values"]
    assert json.loads(c_path.read_text())["kind"] == "c"


def test_convert_rejects_wrong_kind(tmp_path):
    fam = {"category": "s+", "kind": "phi", "max_order": 1, "values": {"1": {"0": "1/1"}}}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    result = run(["convert", "--direction", "c-to-C", "--input", str(path)])
    assert result.exit_code == 2


def test_convert_incomplete_family(tmp_path):
    fam = {"category": "s+", "kind": "c", "max_order": 2, "values": {"1": {"0": "1/1"}, "2": {"0,0": "1/1"}}}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    result = run(["convert", "--direction", "c-to-C", "--input", str(path)])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "incomplete-table"


def test_semicircular_cli_matches_library(tmp_path):
    path = tmp_path / "sc.json"
    run_checked(["semicircular", "--n", "3", "--max-order", "4", "--output", str(path)])
    assert json.loads(path.read_text()) == semicircular_model(3, 4).to_json()


def test_reconstruct_cli(tmp_path):
    sc = semicircular_model(4, 4)
    from freedf.categories import O_PLUS, enumerate_category
    from freedf.rationals import format_rational

    fam = {"category": "o+", "kind": "phi", "max_order": 4, "values": {}}
    for m in range(1, 5):
        view = sc.kernel_view(m)
        fam["values"][str(m)] = {
            str(p): format_rational(view[p]) for p in enumerate_category(O_PLUS, m)
        }
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(fam))
    out = run_checked(["reconstruct", "--category", "o+", "--input", str(path), "--i", "1,1,2,2", "--format", "text"])
    assert out == "1/1\n"
    out2 = run_checked(["reconstruct", "--category", "o+", "--input", str(path), "--i", "1,2,1,2", "--format", "text"])
    assert out2 == "0/1\n"


def test_block_sum_cli(tmp_path):
    path = tmp_path / "sc.json"
    run_checked(["semicircular", "--n", "5", "--max-order", "4", "--output", str(path)])
    out = run_checked(["block-sum", "--input", str(path), "--p", "0,0,1,1", "--format", "text"])
    assert out == "6/5\n"


def test_asymptotics_cli(tmp_path):
    paths = []
    for n in (4, 6, 8):
        p = tmp_path / ("sc%d.json" % n)
        run_checked(["semicircular", "--n", str(n), "--max-order", "4", "--output", str(p)])
        paths.append(str(p))
    args = ["asymptotics", "--category", "o+", "--m", "4"]
    for p in paths:
        args += ["--inputs", p]
    doc = json.loads(run_checked(args))
    assert doc["verdict"] == "DECAY"


def test_asymptotics_no_decay_exits_1(tmp_path):
    paths = []
    for n in (4, 6):
        p = tmp_path / ("g%d.json" % n)
        run_checked(
            ["generate", "--category", "s+", "--n", str(n), "--max-order", "4", "--seed", "37", "--output", str(p)]
        )
        paths.append(str(p))
    args = ["asymptotics", "--category", "s+", "--m", "4"]
    for p in paths:
        args += ["--inputs", p]
    result = run(args)
    assert result.exit_code == 1
    assert json.loads(result.output)["verdict"] == "NO-DECAY"


@pytest.mark.parametrize(
    "args",
    [["block-sum", "--p", "0,0,1,1", "--input"], ["asymptotics", "--category", "o+", "--m", "4", "--inputs"]],
    ids=lambda args: args[0],
)
def test_moment_commands_refuse_a_cumulants_table(tmp_path, args):
    # read as moments, the semicircular cumulants gave block-sum 0/1 with exit 0
    moments, cumulants = tmp_path / "sc.json", tmp_path / "sc.cum.json"
    run_checked(["semicircular", "--n", "4", "--max-order", "4", "--output", str(moments)])
    run_checked(["transform", "--to", "cumulants", "--input", str(moments), "--output", str(cumulants)])
    result = run(args + [str(cumulants)])
    assert result.exit_code == 2 and result.stdout == ""
    assert json.loads(result.stderr) == {"error": "schema-error", "message": "%s expects a moments table" % args[0]}


@pytest.mark.parametrize(
    "args",
    [["solve", "--category", "s+", "--which", "c", "--m", m] for m in ("5", "0", "-1")]
    + [["block-sum", "--p", "0,0,1,1"]],
    ids=["solve-m5", "solve-m0", "solve-m-1", "block-sum"],
)
def test_orders_outside_the_table_exit_2(tmp_path, args):
    # these raised KeyError: exit 1, the FAIL code, with a traceback
    path = tmp_path / "g.json"
    run_checked(["generate", "--category", "s+", "--n", "4", "--max-order", "3", "--seed", "1", "--output", str(path)])
    result = run(args + ["--input", str(path)])
    assert result.exit_code == 2 and result.stdout == ""
    assert json.loads(result.stderr)["error"] == "order-exceeded"


@pytest.mark.parametrize("category,m", [("o+", "0"), ("s+", "0"), ("o+", "-1")])
def test_asymptotics_refuses_orders_below_one(tmp_path, category, m):
    # o+ at m = 0 raised KeyError; s+ at 0 and o+ at -1 printed an empty DECAY, exit 0
    path = tmp_path / "sc.json"
    run_checked(["semicircular", "--n", "4", "--max-order", "2", "--output", str(path)])
    result = run(["asymptotics", "--category", category, "--m", m, "--inputs", str(path)])
    assert result.exit_code == 2 and result.stdout == ""
    message = "asymptotics probe needs an order m >= 1, got " + m
    assert json.loads(result.stderr) == {"error": "error", "message": message}


@pytest.mark.parametrize("category,m", [("o+", "3"), ("s+", "1"), ("o+", "1")])
def test_asymptotics_refuses_orders_without_a_probed_class(tmp_path, category, m):
    # these printed {"verdict": "DECAY", "entries": []} and exited 0
    path = tmp_path / "sc.json"
    run_checked(["semicircular", "--n", "4", "--max-order", "3", "--output", str(path)])
    result = run(["asymptotics", "--category", category, "--m", m, "--inputs", str(path)])
    assert result.exit_code == 2 and result.stdout == ""
    message = "asymptotics probe has no class to probe for %s at order %s (smallest n = 4)" % (category, m)
    assert json.loads(result.stderr) == {"error": "error", "message": message}


def test_outputs_are_deterministic(tmp_path):
    cases = [
        ["partitions", "--m", "4", "--category", "s+"],
        ["weingarten", "--category", "s+", "--m", "3", "--n", "4"],
        ["generate", "--category", "s+", "--n", "4", "--max-order", "3", "--seed", "1"],
        ["semicircular", "--n", "4", "--max-order", "4"],
    ]
    for args in cases:
        assert run_checked(args) == run_checked(args), args


def _fresh_process_cache():
    from freedf.weingarten import weingarten

    weingarten.cache_clear()


def test_disk_cache_entries_are_validated(tmp_path, monkeypatch):
    monkeypatch.setenv("FREEDF_CACHE_DIR", str(tmp_path))
    haar = ["haar", "--category", "o+", "--n", "5", "--i", "1,1,1,1", "--j", "1,1,1,1"]
    _fresh_process_cache()
    assert json.loads(run_checked(haar))["value"] == "1/15"
    path = tmp_path / "o+_4_5.json"
    good = json.loads(path.read_text())
    for bad in (
        dict(good, entries=[["1/2", "-1/120"], ["-1/120", "1/24"]]),
        dict(good, basis=["0,1,1,0", "0,0,1,1"]),
        dict(good, n=6),
        dict(good, category="h+"),
        dict(good, entries=[["1/24", "-1/120"]]),
        dict(good, entries="1/24"),
    ):
        path.write_text(json.dumps(bad))
        _fresh_process_cache()
        assert json.loads(run_checked(haar))["value"] == "1/15", bad
        assert json.loads(path.read_text()) == good
    _fresh_process_cache()


def test_unusable_cache_dir_is_not_fatal(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ["weingarten", "--category", "o+", "--m", "4", "--n", "5"]
    _fresh_process_cache()
    want = run_checked(args)
    monkeypatch.setenv("FREEDF_CACHE_DIR", str(blocker / "cache"))
    _fresh_process_cache()
    result = run(args)
    assert result.exit_code == 0, result.output
    assert result.output == want
    _fresh_process_cache()


# Malformed inputs that must be refused with a schema-error (exit 2): each
# of these was once accepted with a silently wrong result, or crashed.
_PHI = {
    "category": "s+",
    "kind": "phi",
    "max_order": 2,
    "values": {"1": {"0": "1/1"}, "2": {"0,0": "1/1", "0,1": "1/1"}},
}
_DENSE = {"n": 2, "max_order": 1, "kind": "moments", "repr": "dense", "values": {"1": {"1": "1/1", "2": "1/1"}}}
_KERNEL = {"n": 2, "max_order": 1, "kind": "moments", "repr": "kernel", "values": {"1": {"0": "1/1"}}}
_RECONSTRUCT = ["reconstruct", "--category", "s+", "--i", "1,2", "--input"]
_CONVERT = ["convert", "--direction", "c-to-C", "--input"]
_TRANSFORM = ["transform", "--to", "cumulants", "--input"]
_CHECK = ["check", "--category", "s+", "--input"]


def _edited(doc, order=None, **fields):
    doc = json.loads(json.dumps(doc))
    doc.update(fields)
    if order is not None:
        doc["values"][str(order[0])] = order[1]
    return doc


@pytest.mark.parametrize(
    "args,doc",
    [
        # "0,7" canonicalizes onto "0,1" and used to overwrite it (9/1 for 1/1)
        (_RECONSTRUCT, _edited(_PHI, (2, {"0,0": "1/1", "0,1": "1/1", "0,7": "9/1"}))),
        (_RECONSTRUCT, _edited(_PHI, (2, {"0,0": "1/1", "0,1": "1/1", "0, 1": "9/1"}))),
        (_CONVERT, _edited(_PHI, (2, {"0,0": "1/1", "0,1": "1/1", "5,9": "8/1"}), kind="c")),
        (_TRANSFORM, _edited(_DENSE, (1, {"1": "1/1", "2": "1/1", "02": "7/1"}))),
        (_TRANSFORM, _edited(_DENSE, (1, {"1": "1/1", "2": "1/1", " 2": "7/1"}))),
        (_TRANSFORM, _edited(_DENSE, (1, ["1/1", "1/1"]))),
        (_TRANSFORM, _edited(_KERNEL, (1, ["1/1"]))),
        (_RECONSTRUCT, _edited(_PHI, (2, ["1/1", "1/1", "1/1"]))),
        (_RECONSTRUCT, _edited(_PHI, values=[{"0": "1/1"}])),
        (_CONVERT, [_edited(_PHI, kind="c")]),
        (_CONVERT, {k: v for k, v in _edited(_PHI, kind="c").items() if k != "values"}),
        (_CHECK, _edited(_KERNEL, n=True)),
        (_CHECK, _edited(_KERNEL, max_order=True)),
        (_RECONSTRUCT[:4] + ["1", "--input"], _edited(_PHI, max_order=True)),
    ],
    ids=[
        "family-noncanonical-key",
        "family-duplicate-key",
        "convert-noncanonical-key",
        "dense-zero-padded-duplicate",
        "dense-spaced-duplicate",
        "dense-layer-list",
        "kernel-layer-list",
        "family-layer-list",
        "family-values-list",
        "family-not-an-object",
        "family-missing-values",
        "table-bool-n",
        "table-bool-max-order",
        "family-bool-max-order",
    ],
)
def test_malformed_layers_are_schema_errors(tmp_path, args, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    result = run(args + [str(path)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr)["error"] == "schema-error"


def test_boolean_entry_is_a_bad_rational(tmp_path):
    # `true` was read as 1/1, and this table PASSed
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(_edited(_KERNEL, (1, {"0": True}))))
    result = run(_CHECK + [str(path)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr)["error"] == "bad-rational"


@pytest.mark.parametrize(
    "args,doc",
    [
        (_CHECK, _edited(_DENSE, (1, {"1": "1/1", "2": float("nan")}))),
        (_CHECK, _edited(_DENSE, (1, {"2": float("inf"), "1": "1/1"}))),
        (_CHECK, _edited(_KERNEL, (1, {"0": float("-inf")}))),
        (_TRANSFORM, _edited(_DENSE, (1, {"1": float("nan"), "2": "1/1"}))),
        (_CONVERT, _edited(_PHI, (2, {"0,0": "1/1", "0,1": float("nan")}), kind="c")),
        (_RECONSTRUCT, _edited(_PHI, (1, {"0": float("inf")}))),
    ],
    ids=["dense-fast-path", "dense-per-key-path", "kernel", "transform", "family-convert", "family-reconstruct"],
)
def test_non_finite_entry_is_a_bad_rational(tmp_path, args, doc):
    # json.load reads NaN and Infinity; these exited with {"error": "error"}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    result = run(args + [str(path)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr)["error"] == "bad-rational"


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_non_finite_tolerance_is_a_bad_rational(tmp_path, tolerance):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_DENSE))
    result = run(_CHECK + [str(path), "--mode", "float", "--tolerance", tolerance])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr)["error"] == "bad-rational"


def test_matrix_size_guard_reaches_every_command(tmp_path, monkeypatch):
    wg_module = importlib.import_module("freedf.weingarten")
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    wg_module.weingarten.cache_clear()
    # |C(6)| = 132 for s+; orders up to 5 stay below the lowered guard
    monkeypatch.setattr(wg_module, "DENSE_GUARD", 132 * 132 - 1)
    table = tmp_path / "s4.json"
    run_checked(["generate", "--category", "s+", "--n", "4", "--max-order", "6", "--seed", "1", "--output", str(table)])
    for args in (
        ["gram", "--category", "s+", "--m", "6", "--n", "4"],
        ["weingarten", "--category", "s+", "--m", "6", "--n", "4"],
        ["haar", "--category", "s+", "--n", "4", "--i", "1,1,1,1,1,1", "--j", "1,1,1,1,1,1"],
        ["check", "--category", "s+", "--input", str(table)],
    ):
        result = run(args)
        assert result.exit_code == 2, (args, result.output)
        assert json.loads(result.stderr)["error"] == "table-too-large"


def test_dense_transform_past_the_step_bound_exits_2(tmp_path):
    # order 1 is not S_2-invariant, so the n=2 M=13 table would be
    # transformed by position, in 2^12 * 2^13 steps
    layers = {m: [Fraction(0)] * 2 ** m for m in range(1, 14)}
    layers[1] = [Fraction(1), Fraction(0)]
    path = tmp_path / "d2.json"
    path.write_text(json.dumps(MomentTable(2, 13, layers).to_json()))
    result = run(["transform", "--to", "cumulants", "--input", str(path)])
    assert result.exit_code == 2 and result.stdout == ""
    assert json.loads(result.stderr)["error"] == "table-too-large"


def test_invariant_dense_table_above_the_kernel_cap_round_trips(tmp_path):
    # S_2-invariant at every order, but order 11 has no kernel classes to
    # transform on, so the table goes by position, in 2^10 * 2^11 steps
    source = tmp_path / "ones.json"
    source.write_text(json.dumps(MomentTable(2, 11, {m: [Fraction(1)] * 2 ** m for m in range(1, 12)}).to_json(), indent=2) + "\n")
    kappa, back = tmp_path / "kappa.json", tmp_path / "back.json"
    run_checked(["transform", "--to", "cumulants", "--input", str(source), "--output", str(kappa)])
    run_checked(["transform", "--to", "moments", "--input", str(kappa), "--output", str(back)])
    assert back.read_bytes() == source.read_bytes()


def test_negative_n_exits_2_with_a_schema_error():
    for cmd in ("gram", "weingarten"):
        result = run([cmd, "--category", "o+", "--m", "2", "--n", "-1"])
        assert result.exit_code == 2 and result.stdout == ""
        assert json.loads(result.stderr) == {
            "error": "schema-error",
            "message": "n must be a nonnegative integer, got -1",
        }
