"""Command-line front end.

Subcommands mirror the library: partitions, gram, weingarten, haar,
transform, check, solve, convert, generate, semicircular, reconstruct,
asymptotics, block-sum. Everything prints deterministic JSON (or an
equally deterministic text rendering); rationals are "p/q" strings.

Exit codes: 0 success or PASS, 1 a FAIL verdict, 2 usage or computation
errors (the latter with a machine-readable JSON object on stderr).
"""

import functools
import json
import sys

import click

from . import definetti
from .categories import enumerate_category, parse_category
from .cumulants import (
    cumulants_from_moments,
    moments_from_cumulants,
    parse_count,
    parse_layers,
    parse_rgs_key,
    table_from_json,
)
from .errors import FreedfError, SchemaError
from .partitions import (
    enumerate_partitions,
    format_blocks,
    is_noncrossing,
    parse_index_tuple,
    parse_partition,
)
from .rationals import format_rational, parse_rational
from .weingarten import gram, haar_moment, matrix_json, weingarten


def _render(doc, fmt, text_fn):
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    return text_fn(doc)


def _output(payload, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        click.echo(payload, nl=False)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FreedfError as e:
            sys.stderr.write(json.dumps(e.payload()) + "\n")
            sys.exit(2)
        except (ValueError, OSError, json.JSONDecodeError) as e:
            sys.stderr.write(json.dumps({"error": "error", "message": str(e)}) + "\n")
            sys.exit(2)

    return wrapper


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_table(path, kind, usage):
    table = table_from_json(_load_json(path))
    if table.kind != kind:
        raise SchemaError("%s expects a %s table" % (usage, kind))
    return table


def parse_family(doc, kinds):
    """Parse the coefficient/phi~ family JSON used by convert and reconstruct.

    Schema: {"category", "kind", "max_order", "values": {"m": {rgs: "p/q"}}}
    with keys at order m exactly C(m) for the named category.
    """
    if not isinstance(doc, dict):
        raise SchemaError("family document must be a JSON object")
    for fieldname in ("category", "kind", "max_order", "values"):
        if fieldname not in doc:
            raise SchemaError("missing field %r" % fieldname)
    if doc["kind"] not in kinds:
        raise SchemaError("field 'kind' must be one of %s, got %r" % (sorted(kinds), doc["kind"]))
    cat = parse_category(doc["category"])
    M = parse_count(doc, "max_order", 1)
    values = parse_layers(doc["values"], M, parse_rgs_key, lambda m: enumerate_category(cat, m))
    return cat, M, values


def family_json(cat, kind, slices):
    return {
        "category": cat.value,
        "kind": kind,
        "max_order": max(slices) if slices else 0,
        "values": {
            str(m): {str(p): format_rational(v) for p, v in sorted(slices[m].items())}
            for m in sorted(slices)
        },
    }


@click.group()
def main():
    """Exact combinatorics of free easy quantum groups."""


@main.command("partitions")
@click.option("--m", type=int, required=True)
@click.option("--category", "category_text", default=None, help="restrict to C(m) of o+/s+/h+/b+")
@click.option("--noncrossing", is_flag=True, help="restrict to NC(m)")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.option("--output", default=None)
@_guarded
def partitions_cmd(m, category_text, noncrossing, fmt, output):
    """Enumerate P(m), NC(m), or C(m) in RGS-lex order."""
    if category_text:
        items = enumerate_category(parse_category(category_text), m)
    else:
        items = enumerate_partitions(m)
        if noncrossing:
            items = [p for p in items if is_noncrossing(p)]
    doc = {
        "m": m,
        "count": len(items),
        "partitions": [{"rgs": str(p), "blocks": format_blocks(p)} for p in items],
    }
    text = "".join("%s  %s\n" % (str(p), format_blocks(p)) for p in items)
    _output(_render(doc, fmt, lambda d: text), output)


def _matrix_cmd(kind):
    @click.option("--category", "category_text", required=True)
    @click.option("--m", type=int, required=True)
    @click.option("--n", type=int, required=True)
    @click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
    @click.option("--output", default=None)
    @_guarded
    def cmd(category_text, m, n, fmt, output):
        cat = parse_category(category_text)
        table = gram(cat, m, n) if kind == "gram" else weingarten(cat, m, n)
        doc = matrix_json(table)

        def text(d):
            lines = ["basis: %s" % " ".join(d["basis"])]
            for row in d["entries"]:
                lines.append(" ".join(row))
            return "\n".join(lines) + "\n"

        _output(_render(doc, fmt, text), output)

    cmd.__name__ = kind + "_cmd"
    cmd.__doc__ = "Exact %s matrix over C(m)." % kind
    return cmd


main.command("gram")(_matrix_cmd("gram"))
main.command("weingarten")(_matrix_cmd("weingarten"))


@main.command("haar")
@click.option("--category", "category_text", required=True)
@click.option("--n", type=int, required=True)
@click.option("--i", "i_text", required=True)
@click.option("--j", "j_text", required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.option("--output", default=None)
@_guarded
def haar_cmd(category_text, n, i_text, j_text, fmt, output):
    """Haar-state moment of generators via the Weingarten formula."""
    cat = parse_category(category_text)
    i = parse_index_tuple(i_text, n)
    j = parse_index_tuple(j_text, n)
    v = haar_moment(cat, n, i, j)
    doc = {"category": cat.value, "n": n, "i": i_text, "j": j_text, "value": format_rational(v)}
    _output(_render(doc, fmt, lambda d: d["value"] + "\n"), output)


@main.command("transform")
@click.option("--to", "target", type=click.Choice(["moments", "cumulants"]), required=True)
@click.option("--input", "input_path", required=True)
@click.option("--output", default=None)
@_guarded
def transform_cmd(target, input_path, output):
    """Free moment-cumulant transform, either direction."""
    want = "cumulants" if target == "moments" else "moments"
    table = _load_table(input_path, want, "transform --to " + target)
    result = (moments_from_cumulants if target == "moments" else cumulants_from_moments)(table)
    _output(json.dumps(result.to_json(), indent=2) + "\n", output)


@main.command("check")
@click.option("--category", "category_text", required=True)
@click.option("--input", "input_path", required=True)
@click.option("--mode", type=click.Choice(["rational", "float"]), default="rational")
@click.option("--tolerance", type=float, default=None, help="relative tolerance, float mode only")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.option("--output", default=None)
@_guarded
def check_cmd(category_text, input_path, mode, tolerance, fmt, output):
    """Certify G_n-invariance. Exit 0 on PASS, 1 on FAIL."""
    if mode == "rational" and tolerance is not None:
        raise SchemaError("rational mode never consults a tolerance; drop --tolerance")
    cat = parse_category(category_text)
    table = _load_table(input_path, "moments", "check")
    tol = parse_rational(tolerance if tolerance is not None else 1e-9) if mode == "float" else None
    report = definetti.check_invariance(table, cat, tolerance=tol)

    def text(d):
        lines = ["%s category=%s n=%d max_order=%d" % (d["verdict"], d["category"], d["n"], d["max_order"])]
        for w in d["witnesses"]:
            lines.append(
                "witness m=%d tuple=%s expected=%s actual=%s"
                % (w["m"], w["tuple"], w["expected"], w["actual"])
            )
        return "\n".join(lines) + "\n"

    _output(_render(report.to_json(), fmt, text), output)
    if not report.passed:
        sys.exit(1)


@main.command("solve")
@click.option("--category", "category_text", required=True)
@click.option("--which", type=click.Choice(["c", "C"]), required=True)
@click.option("--m", type=int, required=True)
@click.option("--input", "input_path", required=True)
@click.option("--no-fallback", is_flag=True, help="refuse the m > n fallback solve")
@click.option("--output", default=None)
@_guarded
def solve_cmd(category_text, which, m, input_path, no_fallback, output):
    """Extract c_pi (from moments) or C_pi (from cumulants) at order m."""
    cat = parse_category(category_text)
    want = "moments" if which == "c" else "cumulants"
    table = _load_table(input_path, want, "solve --which " + which)
    sl = definetti.solve_moment_coefficients(table, cat, m, fallback=not no_fallback)
    doc = {
        "category": cat.value,
        "m": m,
        "which": which,
        "unique": sl.unique,
        "coefficients": {str(p): format_rational(v) for p, v in sorted(sl.values.items())},
    }
    _output(json.dumps(doc, indent=2) + "\n", output)


@main.command("convert")
@click.option("--direction", type=click.Choice(["c-to-C", "C-to-c"]), required=True)
@click.option("--input", "input_path", required=True)
@click.option("--output", default=None)
@_guarded
def convert_cmd(direction, input_path, output):
    """Convert between the c_pi and C_pi coefficient families."""
    source, target = direction.split("-to-")
    cat, M, family = parse_family(_load_json(input_path), kinds=(source,))
    convert = definetti.C_from_c if source == "c" else definetti.c_from_C
    out = {m: convert(family, cat, m) for m in range(1, M + 1)}
    _output(json.dumps(family_json(cat, target, out), indent=2) + "\n", output)


@main.command("generate")
@click.option("--category", "category_text", required=True)
@click.option("--n", type=int, required=True)
@click.option("--max-order", "max_order", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--output", default=None)
@_guarded
def generate_cmd(category_text, n, max_order, seed, output):
    """A seeded G_n-invariant moment table (kernel representation)."""
    cat = parse_category(category_text)
    mt = definetti.generate_invariant_model(cat, n, max_order, seed)
    _output(json.dumps(mt.to_json(), indent=2) + "\n", output)


@main.command("semicircular")
@click.option("--n", type=int, required=True)
@click.option("--max-order", "max_order", type=int, required=True)
@click.option("--output", default=None)
@_guarded
def semicircular_cmd(n, max_order, output):
    """The standard semicircular family as a kernel moment table."""
    mt = definetti.semicircular_model(n, max_order)
    _output(json.dumps(mt.to_json(), indent=2) + "\n", output)


@main.command("reconstruct")
@click.option("--category", "category_text", required=True)
@click.option("--input", "input_path", required=True, help="phi~ family JSON (kind 'phi')")
@click.option("--i", "i_text", required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.option("--output", default=None)
@_guarded
def reconstruct_cmd(category_text, input_path, i_text, fmt, output):
    """Moment of the infinite invariant sequence at an index tuple."""
    cat = parse_category(category_text)
    _, _, family = parse_family(_load_json(input_path), kinds=("phi",))
    i = parse_index_tuple(i_text)
    v = definetti.reconstruct_infinite(family, cat, i)
    doc = {"category": cat.value, "i": i_text, "value": format_rational(v)}
    _output(_render(doc, fmt, lambda d: d["value"] + "\n"), output)


@main.command("asymptotics")
@click.option("--category", "category_text", required=True)
@click.option("--m", type=int, required=True)
@click.option("--tolerance", default="1/1000000000", help="rational tolerance 'p/q'")
@click.option("--inputs", "input_paths", multiple=True, required=True)
@click.option("--output", default=None)
@_guarded
def asymptotics_cmd(category_text, m, tolerance, input_paths, output):
    """Probe decay of the asymptotic-freeness classes across tables."""
    cat = parse_category(category_text)
    models = [_load_table(p, "moments", "asymptotics") for p in input_paths]
    report = definetti.asymptotic_freeness_probe(models, cat, m, tolerance=parse_rational(tolerance))
    _output(json.dumps(report.to_json(), indent=2) + "\n", output)
    if report.verdict != "DECAY":
        sys.exit(1)


@main.command("block-sum")
@click.option("--input", "input_path", required=True)
@click.option("--p", "p_text", required=True, help="non-crossing pairing, RGS form")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.option("--output", default=None)
@_guarded
def block_sum_cmd(input_path, p_text, fmt, output):
    """Normalized block sum (1/n^k) sum_{ker >= p} of the moments."""
    table = _load_table(input_path, "moments", "block-sum")
    p = parse_partition(p_text)
    v = definetti.normalized_block_sum(table, p)
    doc = {"p": str(p), "n": table.n, "value": format_rational(v)}
    _output(_render(doc, fmt, lambda d: d["value"] + "\n"), output)


if __name__ == "__main__":
    main()
