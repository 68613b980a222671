"""The three workloads: their set-up and the job list of one pass.

A workload's setup(ctx, seed) writes inputs into ctx.dir and returns the
state its passes use; run_pass(ctx, state) runs the jobs through ctx.run,
one freedf CLI process at a time, each with its oracle. Categories,
orders and n are fixed so the cost of a pass does not depend on the
seed; the seed picks model seeds, perturbed entries and index labels.
"""

import json
import os

import oracles as O

def write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(O.dump(doc))
    return path


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def table_oracle(kind, repr_):
    def check(out, ctx):
        doc = json.loads(out)
        if (doc.get("kind"), doc.get("repr")) != (kind, repr_):
            return "expected a %s %s table" % (repr_, kind)
        return None

    return check


# ---- wg-cold ------------------------------------------------------------

WG_JOBS = (("s+", 6, 4), ("s+", 6, 6), ("s+", 6, 8), ("o+", 12, 3))
# (category, n, kernel of i, kernel of j); the seed picks the labels
HAAR_JOBS = (
    ("s+", 6, (0, 1, 1, 0, 2, 2), (0, 0, 1, 1, 2, 2)),
    ("b+", 9, (0, 0, 1, 2, 2, 1), (0, 1, 1, 0, 2, 3)),
    ("o+", 7, (0, 1, 1, 0, 2, 2, 3, 3, 4, 4), (0, 0, 1, 2, 2, 1, 3, 4, 4, 3)),
)


def wg_cold_setup(ctx, seed):
    rng = O.rng_for(seed, "haar")
    return {
        "haar": [
            (cat, n, O.labelled(ki, rng, n), O.labelled(kj, rng, n)) for cat, n, ki, kj in HAAR_JOBS
        ]
    }


def wg_oracle(cat, m, n):
    def check(out, ctx):
        doc = json.loads(out)
        bad = O.check_weingarten(doc, cat, m, n)
        if bad is None:
            ctx.weingarten[(cat, m, n)] = (
                [O.parse_rgs(s) for s in doc["basis"]],
                [[O.parse_q(v) for v in row] for row in doc["entries"]],
            )
        return bad

    return check


def haar_oracle(cat, n, i, j):
    def check(out, ctx):
        basis, W = ctx.weingarten_matrix(cat, len(i), n)
        want = O.haar_value(basis, W, i, j)
        got = O.parse_q(json.loads(out)["value"])
        return None if got == want else "haar value %s, oracle %s" % (got, want)

    return check


def wg_cold_pass(ctx, state):
    for cat, m, n in WG_JOBS:
        ctx.run("weingarten", ["--category", cat, "--m", m, "--n", n], check=wg_oracle(cat, m, n))
    for cat, n, i, j in state["haar"]:
        ctx.run(
            "haar",
            ["--category", cat, "--n", n, "--i", O.rgs_text(i), "--j", O.rgs_text(j)],
            check=haar_oracle(cat, n, i, j),
        )


# ---- pipeline -----------------------------------------------------------

RECONSTRUCT_KERNELS = ((0,) * 7, (0, 0, 0, 0, 1, 1, 1), (0, 1, 1, 0, 2, 2, 0))


def pipeline_setup(ctx, seed):
    rng = O.rng_for(seed, "pipeline")
    return {
        "seeds": [rng.randint(1, 10 ** 6) for _ in range(4)],
        "reconstruct": [O.labelled(k, rng) for k in RECONSTRUCT_KERNELS],
        "family": write(os.path.join(ctx.dir, "c.json"), O.coefficient_family("s+", "c", 7, rng)),
    }


def _generate(ctx, cat, n, M, seed, name):
    path = os.path.join(ctx.dir, name)
    ctx.run(
        "generate",
        ["--category", cat, "--n", n, "--max-order", M, "--seed", seed, "--output", path],
        output=path,
        check=table_oracle("moments", "kernel"),
    )
    return path


def cert_oracle(table_path, expect_pass):
    def check(out, ctx):
        return O.check_certificate(json.loads(out), json.loads(read(table_path)), expect_pass)

    return check


def solve_oracle(table_path, cat, m):
    def check(out, ctx):
        return O.check_solve(json.loads(out), json.loads(read(table_path)), cat, m)

    return check


def reconstruct_oracle(table_path, i):
    def check(out, ctx):
        return O.check_reconstruct(json.loads(out), json.loads(read(table_path)), i)

    return check


def same_bytes_oracle(path):
    want = read(path)
    return lambda out, ctx: O.check_same_bytes(out, want)


def round_trip(ctx, cmd, there, back, source):
    """Run source -> mid -> back; the second output must equal the source bytes."""
    mid = source + ".there"
    out = source + ".back"
    ctx.run(cmd, there + ["--input", source, "--output", mid], output=mid)
    return ctx.run(cmd, back + ["--input", mid, "--output", out], output=out, check=same_bytes_oracle(source))


def pipeline_pass(ctx, state):
    s1, s2, s3, s4 = state["seeds"]
    t1 = _generate(ctx, "s+", 7, 7, s1, "s7.json")
    ctx.run(
        "solve",
        ["--category", "s+", "--which", "c", "--m", 7, "--input", t1],
        check=solve_oracle(t1, "s+", 7),
    )
    phi = write(os.path.join(ctx.dir, "phi.json"), O.phi_family(json.loads(read(t1)), "s+"))
    for i in state["reconstruct"]:
        ctx.run(
            "reconstruct",
            ["--category", "s+", "--input", phi, "--i", O.rgs_text(i)],
            check=reconstruct_oracle(t1, i),
        )

    t2 = _generate(ctx, "o+", 4, 6, s2, "o4.json")
    ctx.run("check", ["--category", "o+", "--input", t2], check=cert_oracle(t2, True))
    round_trip(ctx, "transform", ["--to", "cumulants"], ["--to", "moments"], t2)
    k2 = t2 + ".there"
    ctx.run(
        "solve",
        ["--category", "o+", "--which", "C", "--m", 6, "--input", k2],
        check=solve_oracle(k2, "o+", 6),
    )

    for cat, n, seed, name in (("s+", 6, s3, "s6.json"), ("b+", 5, s4, "b5.json")):
        t = _generate(ctx, cat, n, 6, seed, name)
        ctx.run("check", ["--category", cat, "--input", t], check=cert_oracle(t, True))

    round_trip(ctx, "convert", ["--direction", "c-to-C"], ["--direction", "C-to-c"], state["family"])


# ---- dense-warm ---------------------------------------------------------

DENSE_TABLES = (("s+", 6), ("b+", 5), ("h+", 6), ("o+", 5))
DENSE_M = 6
WARM_WG = tuple((cat, DENSE_M, n) for cat, n in DENSE_TABLES)

# Fills FREEDF_CACHE_DIR with every Weingarten table the checks read.
_WARM = """
import sys
import freedf as F
for arg in sys.argv[1:]:
    cat, n, M = arg.split(":")
    for m in range(1, int(M) + 1):
        F.weingarten(F.parse_category(cat), m, int(n))
"""


def dense_warm_setup(ctx, seed):
    rng = O.rng_for(seed, "dense")
    tables = []
    for cat, n in DENSE_TABLES:
        doc = O.dense_doc(O.invariant_kernel_table(cat, n, DENSE_M, rng), n, DENSE_M)
        good = write(os.path.join(ctx.dir, "%s%d.json" % (cat[0], n)), doc)
        bad = write(os.path.join(ctx.dir, "%s%d.bad.json" % (cat[0], n)), O.perturb_dense(doc, rng))
        tables.append((cat, good, bad))
    ctx.python(_WARM, ["%s:%d:%d" % (cat, n, DENSE_M) for cat, n in DENSE_TABLES])
    return {"tables": tables, "transform": tables[1][1]}


def dense_warm_pass(ctx, state):
    for cat, good, bad in state["tables"]:
        ctx.run("check", ["--category", cat, "--input", good], check=cert_oracle(good, True))
        ctx.run("check", ["--category", cat, "--input", bad], expect_rc=1, check=cert_oracle(bad, False))
    round_trip(ctx, "transform", ["--to", "cumulants"], ["--to", "moments"], state["transform"])
    for cat, m, n in WARM_WG:
        ctx.run("weingarten", ["--category", cat, "--m", m, "--n", n], check=wg_oracle(cat, m, n))


class Workload:
    def __init__(self, setup, run_pass, cache):
        self.setup = setup
        self.run_pass = run_pass
        self.cache = cache  # whether jobs see FREEDF_CACHE_DIR


WORKLOADS = {
    "wg-cold": Workload(wg_cold_setup, wg_cold_pass, cache=False),
    "pipeline": Workload(pipeline_setup, pipeline_pass, cache=False),
    "dense-warm": Workload(dense_warm_setup, dense_warm_pass, cache=True),
}
