"""Command-line front end.

Subcommands mirror the library: partitions, gram, weingarten, haar,
transform, check, solve, convert, generate, semicircular, reconstruct,
asymptotics, block-sum. Each command returns one JSON document, and one
wrapper, _emits, writes it: as deterministic JSON (indent 2), or with
`--format text` as a terse rendering on the seven commands that have
one (partitions, gram, weingarten, haar, check, reconstruct, block-sum).
The JSON is the bytes of json.dumps(doc, indent=2) + "\n", written by
json_pieces a bounded piece at a time (a matrix row, up to WRITE_BATCH
entries of a table order), so no job holds its whole output text.
`--output FILE` writes the same bytes to FILE instead of stdout.
Tables are read by table_from_text, one slice of an order at a time.
Rationals are "p/q" strings.

Exit codes: 0 success or PASS; 1 a FAIL verdict (check not PASS,
asymptotics not DECAY), after the output is written; 2 usage or
computation errors, an unwritable --output included (the latter with a
machine-readable JSON object on stderr).

Each job compiles only the layers its command calls. `import freedf`
compiles the matrix layer (weingarten, categories, partitions,
rationals, errors) before click is loaded here: a module compiled after
click adds its compile peak to click's heap, so to the job's peak
memory. A command imports the table layer (cumulants) and its de Finetti
family (definetti.py maps them) as the first statement of its body,
before any input is read, and reads each function there, at call time.
"""

import functools
import itertools
import json
import operator
import sys

import click

from .categories import enumerate_category, parse_category
from .errors import FreedfError, SchemaError
from .partitions import (
    enumerate_partitions,
    format_blocks,
    is_noncrossing,
    parse_index_tuple,
    parse_partition,
)
from .rationals import format_rational, parse_count, parse_layers, parse_rational, parse_rgs_key
from .weingarten import gram, haar_moment, matrix_json, weingarten


def _emits(text=None, failed=None):
    """Give a command its output path.

    The command body returns its JSON document. The wrapper adds
    `--output` (and `--format` when the command has a text rendering),
    writes the document to stdout or to the file, exits 2 with a JSON
    error on stderr when the body or the write fails, and exits 1 after
    writing when failed(doc) holds. Apply it just above the def, so
    these options come last.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def cmd(fmt="json", output=None, **kwargs):
            try:
                doc = fn(**kwargs)
                pieces = [text(doc)] if fmt == "text" else itertools.chain(json_pieces(doc), "\n")
                if output:
                    with open(output, "w", encoding="utf-8") as fh:
                        fh.writelines(pieces)
                elif fmt == "text":
                    click.echo(pieces[0], nl=False)
                else:
                    sys.stdout.writelines(pieces)
                    sys.stdout.flush()
            except (FreedfError, ValueError, OSError) as e:  # json.JSONDecodeError is a ValueError
                error = e.payload() if isinstance(e, FreedfError) else {"error": "error", "message": str(e)}
                sys.stderr.write(json.dumps(error) + "\n")
                sys.exit(2)
            if failed and failed(doc):
                sys.exit(1)

        cmd = click.option("--output", default=None)(cmd)
        if text:
            cmd = click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")(cmd)
        return cmd

    return wrap


_encode = json.encoder.encode_basestring_ascii
WRITE_BATCH = 4096  # entries of a container that json_pieces joins into one piece


def json_pieces(x, nl="\n"):
    """The text of json.dumps(x, indent=2), in pieces, for x on a line
    that nl (a newline and the indent) ends.

    A non-empty list, or dict with string keys, is written one entry at a
    time, or, when its entries are all strings, WRITE_BATCH entries to a
    join; anything else is json.dumps(x, indent=2), re-indented.
    """
    inner = nl + "  "
    if type(x) is dict and x and set(map(type, x)) == {str}:
        brackets, heads, values = "{}", map("%s: ".__mod__, map(_encode, x)), x.values()
    elif type(x) is list and x:
        brackets, heads, values = "[]", itertools.repeat(""), x
    else:
        yield json.dumps(x, indent=2).replace("\n", nl)
        return
    if set(map(type, values)) == {str}:
        yield from _joined(brackets[0] + inner, "," + inner, map(operator.add, heads, map(_encode, values)))
    else:
        sep = brackets[0] + inner
        for head, value in zip(heads, values):
            yield sep + head
            yield from json_pieces(value, inner)
            sep = "," + inner
    yield nl + brackets[1]


def _joined(head, sep, entries):
    """head + sep.join(entries), in pieces of at most WRITE_BATCH entries;
    no entry is empty."""
    while piece := sep.join(itertools.islice(entries, WRITE_BATCH)):
        yield head
        yield piece
        head = sep


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_table(path, kind, usage):
    from .cumulants import table_from_text
    with open(path, "r", encoding="utf-8") as fh:
        table = table_from_text(fh.read())
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
    return cat, M, {m: dict(zip(enumerate_category(cat, m), vals)) for m, vals in values.items()}


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


def _partitions_text(doc):
    return "".join("%s  %s\n" % (p["rgs"], p["blocks"]) for p in doc["partitions"])


def _matrix_text(doc):
    rows = [" ".join(row) for row in doc["entries"]]
    return "\n".join(["basis: " + " ".join(doc["basis"])] + rows) + "\n"


def _check_text(doc):
    head = "%(verdict)s category=%(category)s n=%(n)d max_order=%(max_order)d" % doc
    witness = "witness m=%(m)d tuple=%(tuple)s expected=%(expected)s actual=%(actual)s"
    return "\n".join([head] + [witness % w for w in doc["witnesses"]]) + "\n"


def _value_text(doc):
    return doc["value"] + "\n"


@click.group()
def main():
    """Exact combinatorics of free easy quantum groups."""


@main.command("partitions")
@click.option("--m", type=int, required=True)
@click.option("--category", "category_text", default=None, help="restrict to C(m) of o+/s+/h+/b+")
@click.option("--noncrossing", is_flag=True, help="restrict to NC(m)")
@_emits(text=_partitions_text)
def partitions_cmd(m, category_text, noncrossing):
    """Enumerate P(m), NC(m), or C(m) in RGS-lex order."""
    if category_text:
        items = enumerate_category(parse_category(category_text), m)
    else:
        items = enumerate_partitions(m)
        if noncrossing:
            items = [p for p in items if is_noncrossing(p)]
    return {
        "m": m,
        "count": len(items),
        "partitions": [{"rgs": str(p), "blocks": format_blocks(p)} for p in items],
    }


def _matrix_cmd(kind):
    @click.option("--category", "category_text", required=True)
    @click.option("--m", type=int, required=True)
    @click.option("--n", type=int, required=True)
    @_emits(text=_matrix_text)
    def cmd(category_text, m, n):
        cat = parse_category(category_text)
        return matrix_json(gram(cat, m, n) if kind == "gram" else weingarten(cat, m, n))

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
@_emits(text=_value_text)
def haar_cmd(category_text, n, i_text, j_text):
    """Haar-state moment of generators via the Weingarten formula."""
    cat = parse_category(category_text)
    v = haar_moment(cat, n, parse_index_tuple(i_text, n), parse_index_tuple(j_text, n))
    return {"category": cat.value, "n": n, "i": i_text, "j": j_text, "value": format_rational(v)}


@main.command("transform")
@click.option("--to", "target", type=click.Choice(["moments", "cumulants"]), required=True)
@click.option("--input", "input_path", required=True)
@_emits()
def transform_cmd(target, input_path):
    """Free moment-cumulant transform, either direction."""
    from .cumulants import cumulants_from_moments, moments_from_cumulants
    want = "cumulants" if target == "moments" else "moments"
    table = _load_table(input_path, want, "transform --to " + target)
    return (moments_from_cumulants if target == "moments" else cumulants_from_moments)(table).to_json()


@main.command("check")
@click.option("--category", "category_text", required=True)
@click.option("--input", "input_path", required=True)
@click.option("--mode", type=click.Choice(["rational", "float"]), default="rational")
@click.option("--tolerance", type=float, default=None, help="relative tolerance, float mode only")
@_emits(text=_check_text, failed=lambda doc: doc["verdict"] != "PASS")
def check_cmd(category_text, input_path, mode, tolerance):
    """Certify G_n-invariance. Exit 0 on PASS, 1 on FAIL."""
    from .definetti import check_invariance
    if mode == "rational" and tolerance is not None:
        raise SchemaError("rational mode never consults a tolerance; drop --tolerance")
    cat = parse_category(category_text)
    table = _load_table(input_path, "moments", "check")
    tol = parse_rational(tolerance if tolerance is not None else 1e-9) if mode == "float" else None
    return check_invariance(table, cat, tolerance=tol).to_json()


@main.command("solve")
@click.option("--category", "category_text", required=True)
@click.option("--which", type=click.Choice(["c", "C"]), required=True)
@click.option("--m", type=int, required=True)
@click.option("--input", "input_path", required=True)
@click.option("--no-fallback", is_flag=True, help="refuse the m > n fallback solve")
@_emits()
def solve_cmd(category_text, which, m, input_path, no_fallback):
    """Extract c_pi (from moments) or C_pi (from cumulants) at order m."""
    from .definetti import solve_moment_coefficients
    cat = parse_category(category_text)
    want = "moments" if which == "c" else "cumulants"
    table = _load_table(input_path, want, "solve --which " + which)
    sl = solve_moment_coefficients(table, cat, m, fallback=not no_fallback)
    return {
        "category": cat.value,
        "m": m,
        "which": which,
        "unique": sl.unique,
        "coefficients": {str(p): format_rational(v) for p, v in sorted(sl.values.items())},
    }


@main.command("convert")
@click.option("--direction", type=click.Choice(["c-to-C", "C-to-c"]), required=True)
@click.option("--input", "input_path", required=True)
@_emits()
def convert_cmd(direction, input_path):
    """Convert between the c_pi and C_pi coefficient families."""
    from .definetti import C_from_c, c_from_C
    source, target = direction.split("-to-")
    cat, M, family = parse_family(_load_json(input_path), kinds=(source,))
    convert = C_from_c if source == "c" else c_from_C
    return family_json(cat, target, {m: convert(family, cat, m) for m in range(1, M + 1)})


@main.command("generate")
@click.option("--category", "category_text", required=True)
@click.option("--n", type=int, required=True)
@click.option("--max-order", "max_order", type=int, required=True)
@click.option("--seed", type=int, required=True)
@_emits()
def generate_cmd(category_text, n, max_order, seed):
    """A seeded G_n-invariant moment table (kernel representation)."""
    from .definetti import generate_invariant_model
    return generate_invariant_model(parse_category(category_text), n, max_order, seed).to_json()


@main.command("semicircular")
@click.option("--n", type=int, required=True)
@click.option("--max-order", "max_order", type=int, required=True)
@_emits()
def semicircular_cmd(n, max_order):
    """The standard semicircular family as a kernel moment table."""
    from .definetti import semicircular_model
    return semicircular_model(n, max_order).to_json()


@main.command("reconstruct")
@click.option("--category", "category_text", required=True)
@click.option("--input", "input_path", required=True, help="phi~ family JSON (kind 'phi')")
@click.option("--i", "i_text", required=True)
@_emits(text=_value_text)
def reconstruct_cmd(category_text, input_path, i_text):
    """Moment of the infinite invariant sequence at an index tuple."""
    from .definetti import reconstruct_infinite
    cat = parse_category(category_text)
    _, _, family = parse_family(_load_json(input_path), kinds=("phi",))
    v = reconstruct_infinite(family, cat, parse_index_tuple(i_text))
    return {"category": cat.value, "i": i_text, "value": format_rational(v)}


@main.command("asymptotics")
@click.option("--category", "category_text", required=True)
@click.option("--m", type=int, required=True)
@click.option("--tolerance", default="1/1000000000", help="rational tolerance 'p/q'")
@click.option("--inputs", "input_paths", multiple=True, required=True)
@_emits(failed=lambda doc: doc["verdict"] != "DECAY")
def asymptotics_cmd(category_text, m, tolerance, input_paths):
    """Probe decay of the asymptotic-freeness classes across tables."""
    from .definetti import asymptotic_freeness_probe
    cat = parse_category(category_text)
    models = [_load_table(p, "moments", "asymptotics") for p in input_paths]
    return asymptotic_freeness_probe(models, cat, m, tolerance=parse_rational(tolerance)).to_json()


@main.command("block-sum")
@click.option("--input", "input_path", required=True)
@click.option("--p", "p_text", required=True, help="non-crossing pairing, RGS form")
@_emits(text=_value_text)
def block_sum_cmd(input_path, p_text):
    """Normalized block sum (1/n^k) sum_{ker >= p} of the moments."""
    from .definetti import normalized_block_sum
    table = _load_table(input_path, "moments", "block-sum")
    p = parse_partition(p_text)
    return {"p": str(p), "n": table.n, "value": format_rational(normalized_block_sum(table, p))}


if __name__ == "__main__":
    main()
