"""The import graph: jobs load only the layers they run.

Each case starts a fresh interpreter. Commands that never call the de
Finetti layer must not compile definetti.py or posets.py, and the package
keeps every public name: freedf.weingarten stays the function, whatever
was imported first.
"""

import json
import os
import subprocess
import sys

import pytest

from freedf.definetti import semicircular_model

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LAZY = ("freedf.definetti", "freedf.posets")


def python(*args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("FREEDF_CACHE_DIR", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def cli_imports(*argv):
    """The freedf modules that `python -X importtime -m freedf.cli argv` imports."""
    got = python("-X", "importtime", "-m", "freedf.cli", *map(str, argv))
    assert got.returncode == 0, got.stderr[-2000:]
    lines = [line.rpartition("|")[2].strip() for line in got.stderr.splitlines() if line.startswith("import time:")]
    return {name for name in lines if name.startswith("freedf")}


@pytest.fixture(scope="module")
def kernel_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "semicircular.json"
    path.write_text(json.dumps(semicircular_model(3, 4).to_json()))
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ("weingarten", "--category", "s+", "--m", 4, "--n", 3),
        ("gram", "--category", "o+", "--m", 4, "--n", 2),
        ("haar", "--category", "s+", "--n", 3, "--i", "1,2,2,1", "--j", "1,1,2,2"),
        ("partitions", "--m", 4, "--category", "b+"),
    ],
)
def test_matrix_and_partition_jobs_skip_the_de_finetti_layer(argv):
    loaded = cli_imports(*argv)
    assert "freedf.weingarten" in loaded and not loaded & set(LAZY), sorted(loaded)


def test_transform_skips_the_de_finetti_layer(kernel_table):
    loaded = cli_imports("transform", "--to", "cumulants", "--input", kernel_table)
    assert "freedf.cumulants" in loaded and not loaded & set(LAZY), sorted(loaded)


def test_de_finetti_jobs_load_it(kernel_table):
    # the same probe sees the module when a command needs it
    assert "freedf.definetti" in cli_imports("semicircular", "--n", 2, "--max-order", 2)
    assert "freedf.definetti" in cli_imports("check", "--category", "s+", "--input", kernel_table)


@pytest.mark.parametrize(
    "first",
    [
        "import freedf.cli",
        "import freedf.weingarten",
        "import freedf; freedf.check_invariance, freedf.FinitePoset",
        "from freedf import definetti, posets",
        "from freedf.cli import main",
    ],
)
def test_weingarten_stays_the_function(first):
    probe = "import sys, freedf\nprint(freedf.weingarten is sys.modules['freedf.weingarten'].weingarten)"
    got = python("-c", first + "\n" + probe)
    assert got.returncode == 0 and got.stdout.split() == ["True"], got.stderr


@pytest.mark.parametrize(
    "resolve",
    [
        'names = {}; exec("from freedf import *", names); ok = all(name in names for name in freedf.__all__)',
        "ok = all(getattr(freedf, name) is not None for name in freedf.__all__)",
        "ok = set(freedf.__all__) <= set(dir(freedf))",
    ],
)
def test_every_public_name_resolves_in_a_fresh_interpreter(resolve):
    code = """
import freedf, sys
lazy = [m for m in ("freedf.definetti", "freedf.posets") if m in sys.modules]
%s
from freedf import definetti, posets
same = freedf.check_invariance is definetti.check_invariance and freedf.FinitePoset is posets.FinitePoset
try:
    freedf.no_such_name
    missing = False
except AttributeError:
    missing = True
print(lazy, ok, same, missing)
""" % resolve
    got = python("-c", code)
    assert got.returncode == 0, got.stderr
    assert got.stdout.split() == ["[]", "True", "True", "True"], got.stdout
