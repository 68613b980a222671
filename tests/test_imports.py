"""The import graph: jobs load only the layers they run.

Each case starts a fresh interpreter. Every job loads exactly the layers
its command calls: matrix and partition jobs no table, de Finetti or poset
module, transform no de Finetti module, and each de Finetti job only its
own family (certify, families or probes). The transforms load only in
transform and asymptotics jobs. The matrix layer (weingarten,
rotation) loads only in matrix jobs and in checks that average, and the
help renderer (clihelp) only where help or a usage error is printed. The
package keeps every public name: freedf.weingarten stays the function,
whatever was imported first.
"""

import json
import os
import subprocess
import sys

import pytest

from freedf.categories import S_PLUS, enumerate_category
from freedf.cli import family_json
from freedf.cumulants import cumulants_from_moments
from freedf.definetti import seed_coefficients, semicircular_model

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LAZY = ("freedf.definetti", "freedf.certify", "freedf.families", "freedf.probes", "freedf.posets")
# what every job loads
BASE = {"freedf", "freedf.errors", "freedf.partitions", "freedf.categories", "freedf.rationals"}
MATRIX = ("gram", "haar_moment", "verify_inverse", "weingarten", "wg_scaled")


def python(*args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("FREEDF_CACHE_DIR", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def cli_imports(*argv, returncode=0):
    """The freedf modules that `python -X importtime -m freedf.cli argv`
    imports; the job must import no click, the command line's parser is
    its own."""
    got = python("-X", "importtime", "-m", "freedf.cli", *map(str, argv))
    assert got.returncode == returncode, got.stderr[-2000:]
    lines = [line.rpartition("|")[2].strip() for line in got.stderr.splitlines() if line.startswith("import time:")]
    assert not [name for name in lines if name.partition(".")[0] == "click"], argv
    return {name for name in lines if name.startswith("freedf")}


@pytest.fixture(scope="module")
def kernel_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "semicircular.json"
    path.write_text(json.dumps(semicircular_model(3, 4).to_json()))
    return path


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, kernel_table):
    """One input file per kind a job reads, by its @name in the job's arguments."""
    folder = tmp_path_factory.mktemp("families")
    docs = {
        "c": family_json(S_PLUS, "c", seed_coefficients(S_PLUS, 3, 3, seed=1)),
        "phi": family_json(S_PLUS, "phi", {m: dict.fromkeys(enumerate_category(S_PLUS, m), 1) for m in (1, 2, 3)}),
        "sc4": semicircular_model(4, 2).to_json(),
        "k3": cumulants_from_moments(semicircular_model(3, 4)).to_json(),
    }
    for name, doc in docs.items():
        (folder / (name + ".json")).write_text(json.dumps(doc))
    return dict({"@" + name: folder / (name + ".json") for name in docs}, **{"@table": kernel_table})


@pytest.mark.parametrize(
    "argv, layers",
    [
        (("weingarten", "--category", "s+", "--m", 4, "--n", 3), {"weingarten", "rotation"}),
        (("gram", "--category", "o+", "--m", 4, "--n", 2), {"weingarten", "rotation"}),
        (("haar", "--category", "s+", "--n", 3, "--i", "1,2,2,1", "--j", "1,1,2,2"), {"weingarten", "rotation"}),
        (("partitions", "--m", 4, "--category", "b+"), set()),
        (("transform", "--to", "cumulants", "--input", "@table"), {"cumulants", "transforms"}),
        # order 4 > n = 3 is averaged, so this check builds a Weingarten matrix
        (("check", "--category", "s+", "--input", "@table"), {"cumulants", "definetti", "certify", "weingarten", "rotation"}),
        (("check", "--category", "o+", "--input", "@table"), {"cumulants", "definetti", "certify", "weingarten", "rotation"}),
        # every order m <= n passes by the triangular solve, without averaging
        (("check", "--category", "s+", "--input", "@sc4"), {"cumulants", "definetti", "certify"}),
        (("solve", "--category", "s+", "--which", "c", "--m", 3, "--input", "@table"), {"cumulants", "definetti", "certify"}),
        # m = 4 > n = 3: the fallback solve, which builds no Weingarten matrix
        (("solve", "--category", "o+", "--which", "c", "--m", 4, "--input", "@table"), {"cumulants", "definetti", "certify"}),
        (("solve", "--category", "o+", "--which", "C", "--m", 4, "--input", "@k3"), {"cumulants", "definetti", "certify"}),
        (("generate", "--category", "s+", "--n", 4, "--max-order", 3, "--seed", 1), {"cumulants", "definetti", "families"}),
        (("convert", "--direction", "c-to-C", "--input", "@c"), {"definetti", "families"}),
        (("reconstruct", "--category", "s+", "--input", "@phi", "--i", "1,2,1"), {"definetti", "families"}),
        (("semicircular", "--n", 2, "--max-order", 2), {"cumulants", "definetti", "probes"}),
        (("block-sum", "--input", "@table", "--p", "0,0"), {"cumulants", "definetti", "probes"}),
        (
            ("asymptotics", "--category", "o+", "--m", 2, "--inputs", "@table", "--inputs", "@sc4"),
            {"cumulants", "definetti", "probes", "certify", "transforms"},
        ),
    ],
)
def test_each_job_loads_exactly_its_layers(argv, layers, inputs):
    loaded = cli_imports(*(inputs.get(arg, arg) for arg in argv))
    assert loaded == BASE | {"freedf." + name for name in layers}, sorted(loaded)
    # generate, check, solve, semicircular and block-sum read or build tables, and never transform one
    assert ("freedf.transforms" in loaded) == (argv[0] in ("transform", "asymptotics")), sorted(loaded)


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
    assert ("freedf.weingarten" in loaded) == (argv[0] != "partitions"), sorted(loaded)
    assert not loaded & set(LAZY), sorted(loaded)


@pytest.mark.parametrize(
    "argv, returncode, shown",
    [
        (("partitions", "--m", 3), 0, False),
        (("partitions", "--m", 3, "--noncrossing", "--format", "text"), 0, False),
        (("partitions",), 2, True),  # a missing option prints the usage line
        (("--help",), 0, True),
        (("partitions", "--help"), 0, True),
        ((), 2, True),
        (("partitions", "--mm", 3), 2, True),
        (("partition",), 2, True),
        (("partitions", "--m"), 2, False),  # an option without its argument prints no usage line
    ],
)
def test_only_help_and_usage_errors_load_the_help_renderer(argv, returncode, shown):
    assert ("freedf.clihelp" in cli_imports(*argv, returncode=returncode)) == shown


def test_transform_skips_the_de_finetti_layer(kernel_table):
    loaded = cli_imports("transform", "--to", "cumulants", "--input", kernel_table)
    assert "freedf.cumulants" in loaded and not loaded & set(LAZY), sorted(loaded)


def test_de_finetti_jobs_load_it(kernel_table):
    # the same probe sees the module when a command needs it
    assert "freedf.definetti" in cli_imports("semicircular", "--n", 2, "--max-order", 2)
    assert "freedf.definetti" in cli_imports("check", "--category", "s+", "--input", kernel_table)


def test_the_table_module_loads_the_transforms_only_for_their_names():
    code = """
import sys
import freedf.cumulants as cumulants
from freedf.cumulants import Table, table_from_text
refused = []
for name in ("__path__", "__wrapped__", "__conform__", "no_such_name", "first_block_shapes", "_transform"):
    try:
        getattr(cumulants, name)
    except AttributeError:
        refused.append(name)
before = "freedf.transforms" in sys.modules
f = cumulants.moments_from_cumulants
print(len(refused), before, f is sys.modules["freedf.transforms"].moments_from_cumulants)
"""
    got = python("-c", code)
    assert got.returncode == 0 and got.stdout.split() == ["6", "False", "True"], got.stderr


@pytest.mark.parametrize(
    "first",
    [
        "import freedf.cli",
        "import freedf.weingarten",
        "import freedf.rotation",
        "from freedf.weingarten import gram",
        "import freedf; freedf.gram",
        "from freedf.certify import check_invariance",
        "import freedf.cumulants",
        "from freedf.definetti import check_invariance, semicircular_model",
        "import freedf; freedf.check_invariance, freedf.FinitePoset",
        "from freedf import definetti, posets",
        "from freedf.cli import main",
    ],
)
def test_weingarten_stays_the_function(first):
    probe = "import sys, freedf\nprint(freedf.weingarten is sys.modules['freedf.weingarten'].weingarten)"
    got = python("-c", first + "\n" + probe)
    assert got.returncode == 0 and got.stdout.split() == ["True"], got.stderr


def test_the_matrix_names_load_on_first_use():
    code = """
import freedf, sys
before = "freedf.weingarten" in sys.modules
got = {name: getattr(freedf, name) for name in %r}
module = sys.modules["freedf.weingarten"]
print(before, all(f is getattr(module, name) for name, f in got.items()), freedf.weingarten is module.weingarten)
""" % (MATRIX,)
    got = python("-c", code)
    assert got.returncode == 0 and got.stdout.split() == ["False", "True", "True"], got.stderr


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
lazy = [m for m in %r if m in sys.modules]
%s
from freedf import definetti, posets
same = freedf.check_invariance is definetti.check_invariance and freedf.FinitePoset is posets.FinitePoset
try:
    freedf.no_such_name
    missing = False
except AttributeError:
    missing = True
print(lazy, ok, same, missing)
""" % (LAZY + ("freedf.cumulants", "freedf.weingarten", "freedf.rotation", "freedf.clihelp"), resolve)
    got = python("-c", code)
    assert got.returncode == 0, got.stderr
    assert got.stdout.split() == ["[]", "True", "True", "True"], got.stdout
