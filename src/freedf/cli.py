"""Command-line front end.

Subcommands mirror the library: partitions, gram, weingarten, haar,
transform, check, solve, convert, generate, semicircular, reconstruct,
asymptotics, block-sum. Each command returns one JSON document, and one
wrapper, _emits, writes it: as deterministic JSON (indent 2), or with
`--format text` as a terse rendering on the seven commands that have
one (partitions, gram, weingarten, haar, check, reconstruct, block-sum).
The JSON is the bytes of json.dumps(doc, indent=2) + "\n": json_pieces
joins the standard encoder's tokens WRITE_BATCH at a time, and each
piece is written as it is made, so no job holds its whole output text.
`--output FILE` writes the same bytes to FILE instead of stdout.
Tables are read by table_from_text, one slice of an order at a time.
Rationals are "p/q" strings.

Exit codes: 0 success or PASS; 1 a FAIL verdict (check not PASS,
asymptotics not DECAY), after the output is written; 2 usage or
computation errors, an unwritable --output included (the latter with a
machine-readable JSON object on stderr).

Each job compiles only the layers its command calls. `import freedf`
compiles categories, partitions and errors, and this module adds
rationals. A command imports the matrix layer (weingarten), or the table
layer (cumulants) and its de Finetti family (definetti.py maps them), as
the first statement of its body, before any input is read, and reads
each function there, at call time. The transforms (transforms.py) load
only when transform or asymptotics reads them from cumulants.

The command line is parsed here with the standard library alone: `main`
is a Group, each command a Command whose options the `option` decorator
declares. They follow click 8's rules and print click's bytes for this
CLI: the help pages, and usage errors on stderr with exit 2, "Did you
mean" hints included (frozen in tests/test_cli_golden.py), rendered by
clihelp.py, which only a job that prints them imports.

Both process entries, the console script and `python -m freedf.cli`,
call `run`: `main`, then gc.freeze(), so the collections the
interpreter runs at exit skip every object still alive. `main` itself
freezes nothing: a caller that lives on after it, such as the tests,
keeps its garbage collectable.
"""

import functools
import gc
import itertools
import json
import sys

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


class UsageError(Exception):
    """A mistake on the command line: exit 2 with "Error: message" on
    stderr, after the command's usage line when usage is true. close is
    (name, known) when the message names an unknown name: the names of
    known close to it are suggested."""

    def __init__(self, message, usage=True, close=None):
        super().__init__(message)
        self.usage, self.close = usage, close


class Choice:
    """An option type: one of choices, matched exactly."""

    def __init__(self, choices):
        self.choices = list(choices)

    def __call__(self, text):
        if text not in self.choices:
            raise ValueError("%r is not one of %s." % (text, ", ".join(map(repr, self.choices))))
        return text


class Option:
    """One `--flag value` (or `--flag`) option, declared as click.option
    declares it: the flag, then the name of its argument if not the flag's."""

    TYPE_NAMES = {str: "text", int: "integer", float: "float"}

    def __init__(self, flag, dest=None, type=str, default=None, required=False, is_flag=False, multiple=False,
                 help=""):
        self.flag, self.type, self.required, self.is_flag, self.multiple, self.help = (
            flag, type, required, is_flag, multiple, help)
        self.dest = dest or flag[2:].replace("-", "_")
        self.default = False if is_flag else () if multiple else default

    def value(self, given):
        """The argument from the text given (None: not given), or a UsageError."""
        if given is None:
            if self.required:
                choose = " Choose from:\n\t" + ",\n\t".join(self.type.choices) if isinstance(self.type, Choice) else ""
                raise UsageError("Missing option %r.%s" % (self.flag, choose))
            return self.default
        if self.is_flag:
            return True
        return tuple(map(self.convert, given)) if self.multiple else self.convert(given)

    def convert(self, text):
        try:
            return self.type(text)
        except ValueError as e:
            why = str(e) if isinstance(self.type, Choice) else "%r is not a valid %s." % (
                text, self.TYPE_NAMES[self.type])
            raise UsageError("Invalid value for %r: %s" % (self.flag, why)) from None


HELP = Option("--help", is_flag=True, help="Show this message and exit.")


def option(*decls, **attrs):
    """Declare an option of the command defined below; the options of a
    command are listed in the order of their decorators."""

    def add(fn):
        fn.__dict__.setdefault("options", []).append(Option(*decls, **attrs))
        return fn

    return add


class Command:
    """A command: its options, its help text, and the callback it runs."""

    usage = "[OPTIONS]"

    def __init__(self, callback, help, options):
        self.callback, self.help, self.options = callback, help, options + [HELP]

    def parse(self, args, interspersed=True):
        """Scan args as click does: the text given to each option, by
        option in order of first use, and the positional arguments left.
        With interspersed false the scan stops at the first positional."""
        known = {o.flag: o for o in self.options}
        given, rest, args = {}, [], list(args)
        while args:
            arg = args.pop(0)
            if arg == "--":
                break
            if arg[:1] != "-" or arg == "-":
                if not interspersed:
                    args.insert(0, arg)
                    break
                rest.append(arg)
                continue
            flag, eq, text = arg.partition("=")
            option = known.get(flag)
            if option is None:  # one dash starts short options; there are none
                if arg[:2] == "--":
                    raise UsageError("No such option %r." % flag, close=(flag, known))
                raise UsageError("No such option %r." % arg[:2])
            if option.is_flag and eq:
                raise UsageError("Option %r does not take a value." % flag, usage=False)
            if not (eq or option.is_flag or args):
                raise UsageError("Option %r requires an argument." % flag, usage=False)
            text = True if option.is_flag else text if eq else args.pop(0)
            if option.multiple:
                given.setdefault(option, []).append(text)
            else:
                given[option] = text
        return given, rest + args

    def arguments(self, given):
        """The callback's keyword arguments: the options given are
        converted in the order first given, the rest in the order declared."""
        options = [*given, *(o for o in self.options if o not in given)]
        return {o.dest: o.value(given.get(o)) for o in options if o is not HELP}


class Group(Command):
    """The top-level command: its own options, then a command's name and
    that command's arguments."""

    usage = "[OPTIONS] COMMAND [ARGS]..."

    def __init__(self, help):
        super().__init__(None, help, [])
        self.commands = {}

    def command(self, name):
        """Register the function below as the command name; the options
        its decorators declared are in the order they are listed."""

        def register(fn):
            self.commands[name] = Command(fn, fn.__doc__, fn.__dict__.get("options", [])[::-1])
            return self.commands[name]

        return register

    def _scan(self, args, words, width):
        """The group's own options: --help prints the page and exits 0."""
        given, rest = self.parse(args, interspersed=False)
        if HELP in given:
            _print_help(sys.stdout, self, words, width)
            sys.exit(0)
        return rest

    def __call__(self, args=None, prog_name=None, terminal_width=None):
        """Run one command line, sys.argv[1:] by default; always ends in
        SystemExit. The dispatcher reads a command's callback at call time."""
        args = sys.argv[1:] if args is None else list(args)
        cmd, words, width = self, [prog_name], terminal_width
        try:
            if not args:
                _print_help(sys.stderr, self, words, width)
                sys.exit(2)
            rest = self._scan(args, words, width)
            if not rest:
                raise UsageError("Missing command.")
            name, args = rest[0], rest[1:]
            if name not in self.commands:
                if name[:1] and not name[:1].isalnum():
                    self._scan(rest, words, width)  # click reads such a name as group options too
                raise UsageError("No such command %r." % name, close=(name, self.commands))
            cmd, words = self.commands[name], words + [name]
            given, extra = cmd.parse(args)
            if HELP in given:
                _print_help(sys.stdout, cmd, words, width)
                sys.exit(0)
            kwargs = cmd.arguments(given)
            if extra:
                raise UsageError("Got unexpected extra argument%s (%s)" % ("s" * (len(extra) > 1), " ".join(extra)))
            cmd.callback(**kwargs)
        except UsageError as e:
            if e.usage:
                from .clihelp import usage_error
                sys.stderr.write(usage_error(cmd, words, width, e))
            else:
                sys.stderr.write("Error: %s\n" % e)
            sys.exit(2)
        except KeyboardInterrupt:
            sys.stderr.write("\nAborted!\n")
            sys.exit(1)
        sys.exit(0)


def _print_help(stream, cmd, words, width):
    """Write cmd's help page: words are its path, the program's name (or
    None) first; a width of None is the terminal's."""
    from .clihelp import help_page
    stream.write(help_page(cmd, words, width) + "\n")


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
                else:
                    sys.stdout.writelines(pieces)
                    sys.stdout.flush()
            except (FreedfError, ValueError, OSError) as e:  # json.JSONDecodeError is a ValueError
                error = e.payload() if isinstance(e, FreedfError) else {"error": "error", "message": str(e)}
                sys.stderr.write(json.dumps(error) + "\n")
                sys.exit(2)
            if failed and failed(doc):
                sys.exit(1)

        cmd = option("--output", default=None)(cmd)
        if text:
            cmd = option("--format", "fmt", type=Choice(["json", "text"]), default="json")(cmd)
        return cmd

    return wrap


_ENCODER = json.JSONEncoder(indent=2)  # json.dumps(doc, indent=2) is "".join of its iterencode(doc)
WRITE_BATCH = 1024  # encoder tokens that json_pieces joins into one piece


def json_pieces(doc):
    """The text of json.dumps(doc, indent=2), in pieces of WRITE_BATCH of
    the encoder's tokens."""
    tokens = _ENCODER.iterencode(doc)
    for first in tokens:
        yield first + "".join(itertools.islice(tokens, WRITE_BATCH - 1))


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


main = Group("Exact combinatorics of free easy quantum groups.")


@main.command("partitions")
@option("--m", type=int, required=True)
@option("--category", "category_text", default=None, help="restrict to C(m) of o+/s+/h+/b+")
@option("--noncrossing", is_flag=True, help="restrict to NC(m)")
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
    @option("--category", "category_text", required=True)
    @option("--m", type=int, required=True)
    @option("--n", type=int, required=True)
    @_emits(text=_matrix_text)
    def cmd(category_text, m, n):
        from .weingarten import gram, matrix_json, weingarten
        cat = parse_category(category_text)
        return matrix_json(gram(cat, m, n) if kind == "gram" else weingarten(cat, m, n))

    cmd.__name__ = kind + "_cmd"
    cmd.__doc__ = "Exact %s matrix over C(m)." % kind
    return cmd


main.command("gram")(_matrix_cmd("gram"))
main.command("weingarten")(_matrix_cmd("weingarten"))


@main.command("haar")
@option("--category", "category_text", required=True)
@option("--n", type=int, required=True)
@option("--i", "i_text", required=True)
@option("--j", "j_text", required=True)
@_emits(text=_value_text)
def haar_cmd(category_text, n, i_text, j_text):
    """Haar-state moment of generators via the Weingarten formula."""
    from .weingarten import haar_moment
    cat = parse_category(category_text)
    v = haar_moment(cat, n, parse_index_tuple(i_text, n), parse_index_tuple(j_text, n))
    return {"category": cat.value, "n": n, "i": i_text, "j": j_text, "value": format_rational(v)}


@main.command("transform")
@option("--to", "target", type=Choice(["moments", "cumulants"]), required=True)
@option("--input", "input_path", required=True)
@_emits()
def transform_cmd(target, input_path):
    """Free moment-cumulant transform, either direction."""
    from .cumulants import cumulants_from_moments, moments_from_cumulants
    want = "cumulants" if target == "moments" else "moments"
    table = _load_table(input_path, want, "transform --to " + target)
    return (moments_from_cumulants if target == "moments" else cumulants_from_moments)(table).to_json()


@main.command("check")
@option("--category", "category_text", required=True)
@option("--input", "input_path", required=True)
@option("--mode", type=Choice(["rational", "float"]), default="rational")
@option("--tolerance", type=float, default=None, help="relative tolerance, float mode only")
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
@option("--category", "category_text", required=True)
@option("--which", type=Choice(["c", "C"]), required=True)
@option("--m", type=int, required=True)
@option("--input", "input_path", required=True)
@option("--no-fallback", is_flag=True, help="refuse the m > n fallback solve")
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
@option("--direction", type=Choice(["c-to-C", "C-to-c"]), required=True)
@option("--input", "input_path", required=True)
@_emits()
def convert_cmd(direction, input_path):
    """Convert between the c_pi and C_pi coefficient families."""
    from .definetti import C_from_c, c_from_C
    source, target = direction.split("-to-")
    cat, M, family = parse_family(_load_json(input_path), kinds=(source,))
    convert = C_from_c if source == "c" else c_from_C
    return family_json(cat, target, {m: convert(family, cat, m) for m in range(1, M + 1)})


@main.command("generate")
@option("--category", "category_text", required=True)
@option("--n", type=int, required=True)
@option("--max-order", "max_order", type=int, required=True)
@option("--seed", type=int, required=True)
@_emits()
def generate_cmd(category_text, n, max_order, seed):
    """A seeded G_n-invariant moment table (kernel representation)."""
    from .definetti import generate_invariant_model
    return generate_invariant_model(parse_category(category_text), n, max_order, seed).to_json()


@main.command("semicircular")
@option("--n", type=int, required=True)
@option("--max-order", "max_order", type=int, required=True)
@_emits()
def semicircular_cmd(n, max_order):
    """The standard semicircular family as a kernel moment table."""
    from .definetti import semicircular_model
    return semicircular_model(n, max_order).to_json()


@main.command("reconstruct")
@option("--category", "category_text", required=True)
@option("--input", "input_path", required=True, help="phi~ family JSON (kind 'phi')")
@option("--i", "i_text", required=True)
@_emits(text=_value_text)
def reconstruct_cmd(category_text, input_path, i_text):
    """Moment of the infinite invariant sequence at an index tuple."""
    from .definetti import reconstruct_infinite
    cat = parse_category(category_text)
    family_cat, _, family = parse_family(_load_json(input_path), kinds=("phi",))
    if family_cat is not cat:
        raise SchemaError("reconstruct --category %s got a phi family of category %s" % (cat, family_cat))
    v = reconstruct_infinite(family, cat, parse_index_tuple(i_text))
    return {"category": cat.value, "i": i_text, "value": format_rational(v)}


@main.command("asymptotics")
@option("--category", "category_text", required=True)
@option("--m", type=int, required=True)
@option("--tolerance", default="1/1000000000", help="rational tolerance 'p/q'")
@option("--inputs", "input_paths", multiple=True, required=True)
@_emits(failed=lambda doc: doc["verdict"] != "DECAY")
def asymptotics_cmd(category_text, m, tolerance, input_paths):
    """Probe decay of the asymptotic-freeness classes across tables."""
    from .definetti import asymptotic_freeness_probe
    cat = parse_category(category_text)
    models = [_load_table(p, "moments", "asymptotics") for p in input_paths]
    return asymptotic_freeness_probe(models, cat, m, tolerance=parse_rational(tolerance)).to_json()


@main.command("block-sum")
@option("--input", "input_path", required=True)
@option("--p", "p_text", required=True, help="non-crossing pairing, RGS form")
@_emits(text=_value_text)
def block_sum_cmd(input_path, p_text):
    """Normalized block sum (1/n^k) sum_{ker >= p} of the moments."""
    from .definetti import normalized_block_sum
    table = _load_table(input_path, "moments", "block-sum")
    p = parse_partition(p_text)
    return {"p": str(p), "n": table.n, "value": format_rational(normalized_block_sum(table, p))}


def run():
    """The process entry: main, then the heap frozen for the exit."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
