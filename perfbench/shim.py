"""Traced entry point: runs one freedf CLI command with spans and counters.

Usage: python shim.py TRACE_OUT JOB_ID CLI_ARG...

The shim imports freedf, replaces the functions named in SPANNED and
COUNTED by timing or counting wrappers in every loaded freedf.* module
namespace (so aliases made by `from .x import f` are caught too), runs
the click command, and writes one JSON record to TRACE_OUT at exit.
Nothing under src/ is edited. A target the shim cannot find is listed
as missing, so the benchmark reports it as missing rather than zero.

The environment variable PERFBENCH_LAUNCH carries the parent's
time.perf_counter() at process launch. On Linux perf_counter reads
CLOCK_MONOTONIC, which every process shares, so the difference to the
command entry is the start-up time of the job.
"""

import functools
import importlib
import json
import os
import sys
import time

MODULES = (
    "categories", "cli", "cumulants", "definetti", "partitions",
    "posets", "rationals", "weingarten",
)

# Layer boundaries timed as spans: (module, qualified name).
SPANNED = (
    ("weingarten", "weingarten"),
    ("weingarten", "gram"),
    ("weingarten", "haar_moment"),
    ("weingarten", "matrix_json"),
    ("weingarten", "verify_inverse"),
    ("weingarten", "wg_scaled"),
    ("cumulants", "moments_from_cumulants"),
    ("cumulants", "cumulants_from_moments"),
    ("cumulants", "table_from_json"),
    ("cumulants", "Table.to_json"),
    ("cumulants", "kernel_classes"),
    ("definetti", "check_invariance"),
    ("definetti", "averaged_coefficients"),
    ("definetti", "solve_moment_coefficients"),
    ("definetti", "solve_cumulant_coefficients"),
    ("definetti", "reconstruct_infinite"),
    ("definetti", "generate_invariant_model"),
    ("definetti", "seed_coefficients"),
    ("definetti", "c_from_C"),
    ("definetti", "C_from_c"),
    ("posets", "FinitePoset.mobius"),
    ("posets", "category_poset"),
    ("posets", "mobius_to_top_nc"),
    ("categories", "enumerate_category"),
    ("partitions", "enumerate_partitions"),
)

# Hot primitives, counted only: (module, qualified name).
COUNTED = (
    ("partitions", "Partition.__new__"),
    ("partitions", "canonicalize"),
    ("partitions", "leq"),
    ("partitions", "join_num_blocks"),
    ("categories", "c_leq"),
    ("posets", "FinitePoset.mobius"),
    ("rationals", "parse_rational"),
    ("rationals", "format_rational"),
    ("weingarten", "_ff_inverse"),
)

# Largest value seen of a function's result: target -> (name, measure).
MAXIMA = {
    "weingarten.gram": ("weingarten.dim_max", lambda r: len(r.basis)),
    "weingarten._ff_inverse": ("weingarten.det_bits_max", lambda r: abs(r[0]).bit_length() if r else 0),
}


class Tracer:
    def __init__(self, job):
        self.job = job
        self.spans = []  # [name, start, end, parent index, job]
        self.stack = []
        self.counts = {}
        self.maxima = {}
        self.entry = None

    def span(self, name, fn):
        spans, stack = self.spans, self.stack
        measure = MAXIMA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if measure:
                self.note_max(measure, result)
            return result

        return wrapper

    def count(self, name, fn):
        counts = self.counts
        counts[name] = 0
        measure = MAXIMA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if measure:
                self.note_max(measure, result)
            return result

        return wrapper

    def note_max(self, measure, result):
        key, fn = measure
        self.maxima[key] = max(self.maxima.get(key, 0), fn(result))

    def command(self, fn):
        """Wrap a click callback: marks command entry and spans the cli layer."""
        inner = self.span("cli." + fn.__name__, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.entry is None:
                self.entry = time.perf_counter()
            return inner(*args, **kwargs)

        return wrapper

    def record(self, launch, missing):
        return {
            "job": self.job,
            "launch": launch,
            "entry": self.entry,
            "exit": time.perf_counter(),
            "spans": self.spans,
            "counts": self.counts,
            "maxima": self.maxima,
            "missing": missing,
        }


def _replace(modules, owner, attr, orig, new):
    """Point every reference to orig at new: the owner attribute and all aliases."""
    setattr(owner, attr, staticmethod(new) if attr == "__new__" else new)
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def install(tracer):
    """Wrap every target; return the names that could not be found."""
    modules = [importlib.import_module("freedf")]
    missing = []
    for name in MODULES:
        try:
            modules.append(importlib.import_module("freedf." + name))
        except ImportError:
            missing.append(name)
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    # Counted wrappers go on first, so a function both spanned and counted
    # ends up spanned on the outside.
    targets = [(mod, qual, tracer.count) for mod, qual in COUNTED]
    targets += [(mod, qual, tracer.span) for mod, qual in SPANNED]
    for mod_name, qual, wrap in targets:
        name = "%s.%s" % (mod_name, qual)
        owner = by_name.get(mod_name)
        *path, attr = qual.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
        except AttributeError:
            missing.append(name)
            continue
        _replace(modules, owner, attr, orig, wrap(name, orig))
    cli = by_name.get("cli")
    if cli is None or not hasattr(cli, "main"):
        missing.append("cli.main")
    else:
        for cmd in cli.main.commands.values():
            cmd.callback = tracer.command(cmd.callback)
    return missing


def main(argv):
    launch = float(os.environ["PERFBENCH_LAUNCH"])
    out_path, job, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(job)
    missing = install(tracer)
    import freedf.cli

    try:
        freedf.cli.main(args=cli_args, prog_name="freedf")
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.record(launch, missing), fh)


if __name__ == "__main__":
    main(sys.argv[1:])
