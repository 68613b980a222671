"""freedf benchmark: runs CLI workloads and prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every job is one `python -m freedf.cli`
process with PYTHONPATH=src, run one at a time from this process. A pass
is one run of the workload's fixed job list; passes repeat until
--seconds have elapsed (at least one) and the medians are reported.
Oracles run after each pass, outside its timing.

Times are reported at a reference machine speed. The speed of this kind
of shared virtual machine drifts by 15-25% over tens of seconds, so
launcher.py times a fixed calibration before every job and after the
last one, and each job's time is multiplied by REF_CALIB_S / (the mean of
the calibrations on either side of it). The raw pass time and the
resulting factor are reported too.

--trace 0 prints the end-to-end metrics. --trace 1 runs each pass twice,
untraced and then through shim.py, and prints the per-layer metrics.
A results file stamped with the source, interpreter, backend, cores,
seed and load average is written under .perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import oracles as O
import shim
from launcher import calibrate
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
JOB_TIMEOUT = 60.0
RUN_BUDGET = 170.0  # seconds; no job may run past this point of a run
REF_CALIB_S = 0.25  # launcher.calibrate() at the reference speed
COMMANDS = ("weingarten", "haar", "generate", "check", "transform", "solve", "reconstruct", "convert")

# Per-layer self times: metric -> span names, or module prefixes ending in ".".
SELF_METRICS = {
    "weingarten.self_s": ("weingarten.",),
    "cumulants.transform.self_s": ("cumulants.moments_from_cumulants", "cumulants.cumulants_from_moments"),
    "cumulants.io.self_s": ("cumulants.table_from_json", "cumulants.Table.to_json"),
    "cumulants.kernel_classes.self_s": ("cumulants.kernel_classes",),
    "posets.self_s": ("posets.",),
    "definetti.solve.self_s": ("definetti.solve_moment_coefficients", "definetti.solve_cumulant_coefficients"),
    "definetti.reconstruct.self_s": ("definetti.reconstruct_infinite",),
    "definetti.check.self_s": ("definetti.check_invariance", "definetti.averaged_coefficients"),
    "definetti.generate.self_s": ("definetti.generate_invariant_model", "definetti.seed_coefficients"),
    "definetti.convert.self_s": ("definetti.c_from_C", "definetti.C_from_c"),
    "categories.enumerate.self_s": ("categories.enumerate_category",),
    "partitions.enumerate.self_s": ("partitions.enumerate_partitions",),
    "cli.self_s": ("cli.",),
}
COUNT_METRICS = {
    "partitions.Partition.calls": "partitions.Partition.__new__",
    "partitions.canonicalize.calls": "partitions.canonicalize",
    "partitions.leq.calls": "partitions.leq",
    "partitions.join_num_blocks.calls": "partitions.join_num_blocks",
    "categories.c_leq.calls": "categories.c_leq",
    "posets.mobius.calls": "posets.FinitePoset.mobius",
    "rationals.parse.calls": "rationals.parse_rational",
    "rationals.format.calls": "rationals.format_rational",
}
MAX_METRICS = {
    "weingarten.dim_max": "weingarten.gram",
    "weingarten.det_bits_max": "weingarten._ff_inverse",
}


class Job:
    def __init__(self, cmd, args, expect_rc, output, check):
        self.cmd = cmd
        self.args = args
        self.expect_rc = expect_rc
        self.output = output
        self.check = check
        self.rc = None
        self.wall = None
        self.cpu = None
        self.calib = None
        self.rss_kb = 0
        self.timed_out = False
        self.reason = None
        self.trace = None


class Launcher:
    """Client of launcher.py, which forks every job (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(ROOT, "perfbench", "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _ask(self, req):
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def run(self, argv, env, cwd, stdout, stderr, timeout):
        return self._ask({"argv": argv, "env": env, "cwd": cwd, "stdout": stdout, "stderr": stderr, "timeout": timeout})

    def calibrate(self):
        return self._ask({"calibrate": True})["calib"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Context:
    """Runs the jobs of one setup directory and holds the oracles' state."""

    def __init__(self, directory, launcher, deadline):
        self.dir = directory
        self.launcher = launcher
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["PYTHONHASHSEED"] = "0"
        self.env.pop("FREEDF_CACHE_DIR", None)
        self.jobs = []
        self.traced = False
        self.weingarten = {}  # verified Weingarten matrices, for the haar oracle
        self.verified = set()  # digests of outputs that passed their oracle
        os.makedirs(directory)

    def use_cache(self):
        self.env["FREEDF_CACHE_DIR"] = os.path.join(self.dir, "cache")

    def python(self, code, args):
        """Run a set-up snippet in a child interpreter that sees src/."""
        subprocess.run(
            [sys.executable, "-c", code] + list(args),
            env=self.env, cwd=self.dir, check=True, stdout=subprocess.PIPE,
            timeout=self.deadline - time.perf_counter(),
        )

    def run(self, cmd, args, expect_rc=0, output=None, check=None):
        job = Job(cmd, [str(a) for a in args], expect_rc, output, check)
        self.jobs.append(job)
        k = len(self.jobs)
        stdout = os.path.join(self.dir, "job%d.out" % k)
        if self.traced:
            job.trace = os.path.join(self.dir, "job%d.trace" % k)
            argv = [sys.executable, os.path.join(ROOT, "perfbench", "shim.py"), job.trace, str(k)]
        else:
            argv = [sys.executable, "-m", "freedf.cli"]
        timeout = min(JOB_TIMEOUT, self.deadline - time.perf_counter())
        if timeout <= 0:
            job.timed_out = True
            return job
        got = self.launcher.run(argv + [cmd] + job.args, self.env, self.dir, stdout, stdout + ".err", timeout)
        job.rc, job.wall, job.cpu = got["rc"], got["wall"], got["cpu"]
        job.rss_kb, job.calib = got["maxrss_kb"], got["calib"]
        job.timed_out = job.rc < 0
        job.output = output or stdout
        return job

    def weingarten_matrix(self, cat, m, n):
        key = (cat, m, n)
        if key not in self.weingarten:
            if len(O.category_members(cat, m)) > 64:
                raise ValueError("no verified Weingarten matrix for %s m=%d n=%d" % key)
            self.weingarten[key] = O.exact_inverse(cat, m, n)
        return self.weingarten[key]

    def judge(self, jobs):
        """Set job.reason for every job whose exit code or oracle is wrong."""
        for job in jobs:
            if job.timed_out:
                job.reason = "timed out"
            elif job.rc != job.expect_rc:
                job.reason = "exit code %d, expected %d" % (job.rc, job.expect_rc)
            elif job.check is not None:
                try:
                    with open(job.output, "rb") as fh:
                        out = fh.read()
                except OSError as e:
                    job.reason = "no output: %s" % e
                    continue
                digest = self._digest(job, out)
                if digest in self.verified:
                    continue
                try:
                    job.reason = job.check(out, self)
                except (ValueError, KeyError, TypeError, IndexError) as e:
                    job.reason = "oracle could not read the output: %r" % (e,)
                if job.reason is None:
                    self.verified.add(digest)

    @staticmethod
    def _digest(job, out):
        h = hashlib.sha256(repr((job.cmd, job.args)).encode())
        for flag, value in zip(job.args, job.args[1:]):
            if flag == "--input":
                with open(value, "rb") as fh:
                    h.update(fh.read())
        h.update(out)
        return h.hexdigest()


def run_pass(ctx, workload, state, traced):
    ctx.traced = traced
    first = len(ctx.jobs)
    workload.run_pass(ctx, state)
    jobs = ctx.jobs[first:]
    ran = [j for j in jobs if j.calib is not None]
    calib = [j.calib for j in ran] + [ctx.launcher.calibrate()]
    scaled = {id(j): j.wall * 2 * REF_CALIB_S / (a + b) for j, a, b in zip(ran, calib, calib[1:])}
    wall = sum(j.wall for j in ran)
    speed = sum(scaled.values()) / wall if wall else 1.0
    ctx.judge(jobs)
    by_cmd = {c: sum((scaled.get(id(j), 0.0) for j in jobs if j.cmd == c), 0.0) for c in COMMANDS}
    layers = layer_metrics(jobs) if traced else None
    if layers:
        layers["metrics"] = {
            k: v * speed if k.endswith("_s") and v is not None else v for k, v in layers["metrics"].items()
        }
    return {
        "wall_s": wall * speed,
        "wall_raw_s": wall,
        "speed_factor": speed,
        "peak_rss_mb": max(j.rss_kb for j in jobs) / 1024.0,
        "commands": {c + "_s": v for c, v in by_cmd.items()},
        "jobs": jobs,
        "layers": layers,
    }


# ---- traces -------------------------------------------------------------


def _matches(name, selectors):
    return any(name == s or (s.endswith(".") and name.startswith(s)) for s in selectors)


def _depends(selectors):
    """Shim targets a self-time metric needs: a missing one hides its time."""
    names = ["%s.%s" % t for t in shim.SPANNED]
    return [n for n in names if _matches(n, selectors)]


def layer_metrics(jobs):
    """Per-layer metrics summed over the traced jobs of one pass."""
    records = []
    for job in jobs:
        if job.trace and os.path.exists(job.trace):
            with open(job.trace, encoding="utf-8") as fh:
                records.append((job, json.load(fh)))
    missing = set()
    selfs = dict.fromkeys(SELF_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    maxima = dict.fromkeys(MAX_METRICS, 0)
    computed, reuse, startup = 0, 0.0, 0.0
    module_self = {}
    by_cmd = {}
    for job, rec in records:
        missing.update(rec["missing"])
        spans = rec["spans"]
        child = [0.0] * len(spans)
        reached_gram = [False] * len(spans)
        for k, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                if name == "weingarten.gram":
                    # mark every enclosing span up to the root
                    p = parent
                    while p >= 0 and not reached_gram[p]:
                        reached_gram[p] = True
                        p = spans[p][3]
        cmd_layers = by_cmd.setdefault(job.cmd, {})
        for k, (name, start, end, parent, _) in enumerate(spans):
            own = end - start - child[k]
            module = name.split(".")[0]
            module_self[module] = module_self.get(module, 0.0) + own
            cmd_layers[module] = cmd_layers.get(module, 0.0) + own
            for metric, sel in SELF_METRICS.items():
                if _matches(name, sel):
                    selfs[metric] += own
            if name == "weingarten.weingarten":
                if reached_gram[k]:
                    computed += 1
                else:
                    reuse += own
        for metric, target in COUNT_METRICS.items():
            counts[metric] += rec["counts"].get(target, 0)
        for metric in MAX_METRICS:
            maxima[metric] = max(maxima[metric], rec["maxima"].get(metric, 0))
        if rec["entry"] is not None:
            startup += rec["entry"] - rec["launch"]
    out = {}
    for metric, sel in SELF_METRICS.items():
        out[metric] = None if missing.intersection(_depends(sel)) else selfs[metric]
    for metric, target in COUNT_METRICS.items():
        out[metric] = None if target in missing else counts[metric]
    for metric, target in MAX_METRICS.items():
        out[metric] = None if target in missing else maxima[metric]
    wg_missing = bool(missing.intersection(["weingarten.weingarten", "weingarten.gram"]))
    out["weingarten.computed"] = None if wg_missing else computed
    out["weingarten.reuse.self_s"] = None if wg_missing else reuse
    out["cli.startup_s"] = None if "cli.main" in missing else startup
    return {"metrics": out, "missing": sorted(missing), "module_self_s": module_self, "by_command": by_cmd}


# ---- stamp --------------------------------------------------------------


def _commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "freedf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _backend(ctx):
    return subprocess.run(
        [sys.executable, "-c", "import freedf.cli, freedf._backend as b; print(b.BACKEND)"],
        env=ctx.env, cwd=ctx.dir, check=True, stdout=subprocess.PIPE, text=True, timeout=60,
    ).stdout.strip()


# ---- main ---------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "freedf", "cli.py")):
        sys.exit("perfbench: no freedf sources under %s; run from the root of a checkout" % SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    # One CPU for this process, the launcher and every job, so the calibration
    # runs where the jobs run; children inherit the mask.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    start = time.perf_counter()
    deadline = start + RUN_BUDGET
    load_before = os.getloadavg()
    run_dir = os.path.join(OUT, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    launcher = Launcher()
    try:
        setup_times = []  # (raw seconds, speed factor)
        calib = calibrate()
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = Context(os.path.join(run_dir, "setup%d" % k), launcher, deadline)
            if workload.cache:
                ctx.use_cache()
            backend = _backend(ctx)  # also warms the interpreter's bytecode cache
            state = workload.setup(ctx, args.seed)
            raw = time.perf_counter() - t0
            after = calibrate()
            setup_times.append((raw, 2 * REF_CALIB_S / (calib + after)))
            calib = after

        passes = []
        t_measure = time.perf_counter()
        while not passes or time.perf_counter() - t_measure < args.seconds:
            plain = run_pass(ctx, workload, state, traced=False)
            traced = run_pass(ctx, workload, state, traced=True) if args.trace else None
            passes.append((plain, traced))
    finally:
        launcher.close()
        jobs = ctx.jobs if "ctx" in locals() else []
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [j for j in jobs if j.reason]
    plain = [p for p, _ in passes]
    if args.trace:
        traced = [t for _, t in passes]
        metrics = {}
        names = list(traced[0]["layers"]["metrics"])
        for name in names:
            metrics[name] = _median([t["layers"]["metrics"][name] for t in traced])
        for name in plain[0]["commands"]:
            metrics[name] = _median([p["commands"][name] for p in plain])
        for name in ("wall_raw_s", "speed_factor"):
            metrics[name] = _median([p[name] for p in plain])
        metrics["trace.overhead_frac"] = _median([t["wall_s"] / p["wall_s"] - 1 for p, t in passes])
        metrics["fail_frac"] = len(failed) / len(jobs)
    else:
        metrics = {
            "wall_s": _median([p["wall_s"] for p in plain]),
            "setup_s": statistics.median(raw * speed for raw, speed in setup_times),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        }

    line = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    _write_results(args, line, passes, setup_times, backend, load_before, jobs)
    print(json.dumps(line))
    return 0 if not failed else 1


def _write_results(args, line, passes, setup_times, backend, load_before, jobs):
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "backend": backend,
        "nproc": os.cpu_count(),
        "loadavg_start": load_before,
        "loadavg_end": os.getloadavg(),
        "setup_raw_s_and_speed": setup_times,
        "result": line,
        "passes": [
            {
                "untraced": {k: v for k, v in p.items() if k not in ("jobs", "layers")},
                "traced": t and {k: v for k, v in t.items() if k != "jobs"},
            }
            for p, t in passes
        ],
        "jobs": [
            {
                "cmd": j.cmd, "args": j.args, "rc": j.rc, "wall_s": j.wall, "cpu_s": j.cpu, "calib_s": j.calib,
                "rss_kb": j.rss_kb, "traced": bool(j.trace), "failure": j.reason,
            }
            for j in jobs
        ],
    }
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace, time.time_ns())
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
