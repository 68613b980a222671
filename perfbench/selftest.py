"""Self-test of the benchmark's oracles.

    python3 perfbench/selftest.py

Runs a few small freedf jobs of every kind the workloads use, confirms
that each passes its oracle, then corrupts each output in one place (an
entry of a verified Weingarten matrix, a verdict, one byte of a round
trip, a value, an exit code) and confirms that the benchmark counts the
job as failed. Exits 0 when every clean job passes and every corruption
is caught.
"""

import json
import os
import random
import shutil
import sys
import time
from fractions import Fraction

import oracles as O
import workloads as W
from run import OUT, Context, Launcher


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(O.dump(doc))


def _bump(text):
    return O.q_text(O.parse_q(text) + Fraction(1, 7))


def _flip_byte(path):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    k = next(k for k in range(len(data) // 2, len(data)) if chr(data[k]).isdigit())
    data[k] = ord("1") if data[k] != ord("1") else ord("2")
    with open(path, "wb") as fh:
        fh.write(data)


def _set(key, value):
    def edit(doc):
        doc[key] = value

    return edit


def run_jobs(ctx):
    rng = random.Random(0)
    table = W.write(
        os.path.join(ctx.dir, "t.json"),
        {"n": 4, "max_order": 4, "kind": "moments", "repr": "kernel", "values": {
            str(m): {O.rgs_text(k): O.q_text(v) for k, v in layer.items()}
            for m, layer in O.invariant_kernel_table("s+", 4, 4, rng).items()
        }},
    )
    bad = W.write(
        os.path.join(ctx.dir, "bad.json"),
        O.perturb_dense(O.dense_doc(O.invariant_kernel_table("b+", 4, 3, rng), 4, 3), rng),
    )
    phi = W.write(os.path.join(ctx.dir, "phi.json"), O.phi_family(json.loads(W.read(table)), "s+"))
    i, j = (1, 1, 2, 2), (3, 3, 4, 4)
    return {
        "weingarten": ctx.run("weingarten", ["--category", "s+", "--m", 4, "--n", 5], check=W.wg_oracle("s+", 4, 5)),
        "haar": ctx.run(
            "haar", ["--category", "s+", "--n", 5, "--i", O.rgs_text(i), "--j", O.rgs_text(j)],
            check=W.haar_oracle("s+", 5, i, j),
        ),
        "check PASS": ctx.run("check", ["--category", "s+", "--input", table], check=W.cert_oracle(table, True)),
        "check FAIL": ctx.run(
            "check", ["--category", "b+", "--input", bad], expect_rc=1, check=W.cert_oracle(bad, False)
        ),
        "solve": ctx.run(
            "solve", ["--category", "s+", "--which", "c", "--m", 4, "--input", table],
            check=W.solve_oracle(table, "s+", 4),
        ),
        "reconstruct": ctx.run(
            "reconstruct", ["--category", "s+", "--input", phi, "--i", "2,5,5,2"],
            check=W.reconstruct_oracle(table, (2, 5, 5, 2)),
        ),
        "transform": W.round_trip(ctx, "transform", ["--to", "cumulants"], ["--to", "moments"], table),
    }


def corruptions(jobs):
    """(description, job, function that corrupts the job's result)."""

    def entries(doc):
        doc["entries"][1][2] = _bump(doc["entries"][1][2])

    def exit_code(job):
        job.rc = 1 - job.rc

    def out(edit):
        return lambda job: _edit_json(job.output, edit)

    return [
        ("one Weingarten entry", jobs["weingarten"], out(entries)),
        ("haar value", jobs["haar"], out(lambda d: d.update(value=_bump(d["value"])))),
        ("verdict PASS -> FAIL", jobs["check PASS"], out(_set("verdict", "FAIL"))),
        ("verdict FAIL -> PASS", jobs["check FAIL"], out(_set("verdict", "PASS"))),
        ("FAIL without witnesses", jobs["check FAIL"], out(_set("witnesses", []))),
        ("one solve coefficient", jobs["solve"], out(lambda d: d["coefficients"].update(
            {"0,0,0,0": _bump(d["coefficients"]["0,0,0,0"])}))),
        ("reconstruct value", jobs["reconstruct"], out(lambda d: d.update(value=_bump(d["value"])))),
        ("one byte of a round trip", jobs["transform"], lambda job: _flip_byte(job.output)),
        ("exit code of a PASS", jobs["check PASS"], exit_code),
    ]


def main():
    work = os.path.join(OUT, "selftest-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    launcher = Launcher()
    ok = True
    try:
        ctx = Context(work, launcher, time.perf_counter() + 120)
        jobs = run_jobs(ctx)
        ctx.judge(ctx.jobs)
        for job in ctx.jobs:
            if job.reason:
                ok = False
                print("clean job failed: %s %s: %s" % (job.cmd, " ".join(job.args), job.reason))
        for what, job, corrupt in corruptions(jobs):
            saved = open(job.output, "rb").read(), job.rc
            corrupt(job)
            ctx.verified.clear()
            ctx.weingarten.clear()
            job.reason = None
            ctx.judge([job])
            caught = job.reason is not None
            ok &= caught
            print("%-26s %s  (%s)" % (what, "caught" if caught else "MISSED", job.reason))
            with open(job.output, "wb") as fh:
                fh.write(saved[0])
            job.rc = saved[1]
            job.reason = None
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
