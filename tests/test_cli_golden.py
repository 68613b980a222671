"""Golden CLI outputs: the exit code and the sha256 of stdout and stderr.

Each command runs in-process on small inputs written by _write_inputs.
The digests freeze the CLI bytes, so a refactor that changes any output
byte, or the stderr of the one error case, fails here. The --help text
of the group and of every subcommand is frozen the same way, so option
order and help strings cannot move either. Every case that exits 0 or
1 is also run with --output, into a file and into a missing directory.
Usage errors are frozen from `python -m freedf.cli` in a fresh
interpreter, and three cases run with a wrapped callback, as the
benchmark's tracing shim runs them.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from clirunner import invoke

from freedf.categories import O_PLUS, S_PLUS, enumerate_category
from freedf.cli import family_json, main
from freedf.cumulants import cumulants_from_moments
from freedf.definetti import generate_invariant_model, seed_coefficients, semicircular_model
from freedf.partitions import one_block

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _write_inputs(d):
    def dump(name, doc):
        (d / name).write_text(json.dumps(doc))

    dump("model.json", generate_invariant_model(S_PLUS, 4, 4, 3).to_json())
    dump("small.json", generate_invariant_model(O_PLUS, 2, 4, 3).to_json())
    inconsistent = generate_invariant_model(O_PLUS, 2, 4, 7)
    inconsistent.values[4][one_block(4)] += 1
    dump("inconsistent.json", inconsistent.to_json())
    dump("cum.json", cumulants_from_moments(generate_invariant_model(S_PLUS, 4, 4, 3)).to_json())
    sc = semicircular_model(3, 4).to_dense()
    dump("dense.json", sc.to_json())
    sc.values[2][(1, 1)] = Fraction(2)
    dump("bad.json", sc.to_json())
    near = semicircular_model(3, 2).to_dense()
    near.values[2][(1, 1)] += Fraction(1, 10 ** 15)
    dump("near.json", near.to_json())
    for n in (2, 4, 6, 8):
        dump("sc%d.json" % n, semicircular_model(n, 4).to_json())
    dump("C.json", family_json(S_PLUS, "C", seed_coefficients(S_PLUS, 4, 4, 11)))
    dump("c.json", family_json(S_PLUS, "c", seed_coefficients(S_PLUS, 4, 4, 12)))
    phi = {}
    for m in range(1, 5):
        view = semicircular_model(4, m).kernel_view(m)
        phi[m] = {p: view[p] for p in enumerate_category(O_PLUS, m)}
    dump("phi.json", family_json(O_PLUS, "phi", phi))


# (id, argv with {d} for the input directory, exit code, sha256 of stdout + NUL + stderr)
CASES = [
    ("partitions-s+", "partitions --m 4 --category s+", 0,
     "2aebf7984cec27e64893b6891c0699d2be1b8bd585827da4d6705bc746725dd8"),
    ("partitions-text", "partitions --m 3 --format text", 0,
     "8f7039aab09e1d03be341577918165ecd29e33f51f28db472483f1c9b719d745"),
    ("partitions-nc", "partitions --m 5 --noncrossing", 0,
     "46f0378716e95438e696c7b2390b3be52f29bd424b6ec8a10de4c91790fe3732"),
    ("gram", "gram --category s+ --m 3 --n 4", 0,
     "d47d4c48d2fe0d06304783de4a195e1556ce46057cbd6fc7f43c3aeaca3c6945"),
    ("weingarten-text", "weingarten --category o+ --m 6 --n 3 --format text", 0,
     "c6745d935027a8625fa67585ff89041a010c4242f630ebb056cfd3147c2128e1"),
    ("weingarten-s+", "weingarten --category s+ --m 4 --n 3", 0,
     "7f0ebafaf4d7e54cba4876892408b10fc30769a3e323118ea8fec353686d33b3"),
    ("weingarten-singular", "weingarten --category o+ --m 4 --n 1", 2,
     "b3d8ebd9c3b82ac65edc878912b7c9c9792de1da3831595dcb897a317cf54a1c"),
    ("haar", "haar --category o+ --n 5 --i 1,1,1,1 --j 1,1,1,1", 0,
     "9f8c19bf237c144bdd72d3e01725c0bdf6ca42d73ab6dd63468a0c5f05b0611b"),
    ("haar-text", "haar --category s+ --n 4 --i 1,2,1 --j 1,1,1 --format text", 0,
     "e92f3380612e4f0749f6a0218077a8640cb9365c62b4b5319fb6a57dedf62432"),
    ("generate", "generate --category s+ --n 4 --max-order 4 --seed 3", 0,
     "fecac8d5122be97fa7e261066011d9c9d4ae7b97d952087e7de84d8b138794a8"),
    ("check-pass", "check --category s+ --input {d}/model.json", 0,
     "ad0eb86963bbac01e9346dfda1fd809db41830885ada88bec2a89df6b103d492"),
    ("check-fail", "check --category o+ --input {d}/bad.json", 1,
     "a0bf39c32539dc769bb197c82e210fd43ee145235be7cb19264dde691f6b3f10"),
    ("check-float", "check --category o+ --input {d}/near.json --mode float", 0,
     "060bc1a3beb8ea59e5e7006898f38adfb44628c096603fc827a11e49c4bc4cd6"),
    ("check-text", "check --category o+ --input {d}/bad.json --format text", 1,
     "ad76e961dfdaa5a11de903cbba59df3b9ee518af589c3594d0f0e2c81d923f4f"),
    ("transform-cumulants", "transform --to cumulants --input {d}/model.json", 0,
     "aa20fc087ffec0ef6796ccfdf3edbf10ac4761b7879b6e7aafbcd233b341c6c8"),
    ("transform-moments", "transform --to moments --input {d}/cum.json", 0,
     "fecac8d5122be97fa7e261066011d9c9d4ae7b97d952087e7de84d8b138794a8"),
    ("transform-kind-mismatch", "transform --to moments --input {d}/model.json", 2,
     "52b905ad32ccc16b03764963f0cd076eef51d5e408d8fa692c8ee11b757bdc03"),
    ("transform-dense", "transform --to cumulants --input {d}/dense.json", 0,
     "48bdfb0add74d0a223218bf431003f08871a19cc16e75b15ba3cda0aca76db9a"),
    ("solve-c", "solve --category s+ --which c --m 3 --input {d}/model.json", 0,
     "c1695f15cc7b6b1f9b1ab20b838f79331b698fc647082bc46699c2cb6e9d3e30"),
    ("solve-C", "solve --category s+ --which C --m 4 --input {d}/cum.json", 0,
     "3ee43f8d1bf00a49e66dbe41bb2d8a28b0d17ac03b96ea6ad3e191f537e12de5"),
    ("solve-c-fallback", "solve --category o+ --which c --m 4 --input {d}/small.json", 0,
     "eabfa2987f26b3635e60548d515ed4f1348a707e63bf411a73a929c479fb8b07"),
    ("solve-c-not-unique", "solve --category s+ --which c --m 4 --input {d}/sc2.json", 0,
     "a81438e6dd28d180a4aaab4d15003a4a3dfc1499e46037d6c4ba2dbef10bda97"),
    ("solve-c-inconsistent", "solve --category o+ --which c --m 4 --input {d}/inconsistent.json", 2,
     "df1ee426c99afb6eaa396eb153a4a762a6ef531aa8b565d6e14710bdb7107473"),
    ("convert-C-to-c", "convert --direction C-to-c --input {d}/C.json", 0,
     "99d6daef09574e14d536425eebdd9c62592d0b9e75a0fe4439dbff0724bc7db7"),
    ("convert-c-to-C", "convert --direction c-to-C --input {d}/c.json", 0,
     "b21e185b6253b60c844b26530b6dc820418d75564f05a4d87904ae625cb2ab79"),
    ("semicircular", "semicircular --n 3 --max-order 4", 0,
     "cba9b6fab506ce6153778d638c2fc94e524b8ae520dc9bcf44ad08b84531406f"),
    ("reconstruct", "reconstruct --category o+ --input {d}/phi.json --i 1,1,2,2", 0,
     "027039b4d9c033518aac4e3be3431e124d3aa2453bfb31a1d63ca0ae2fe1c3e3"),
    ("reconstruct-text", "reconstruct --category o+ --input {d}/phi.json --i 1,2,2,1 --format text", 0,
     "d5764082d748bd60f4e3bc7cc01743b76cca4ea51eba52843e8f487201ee0f47"),
    ("block-sum", "block-sum --input {d}/sc4.json --p 0,0,1,1", 0,
     "16d2c217921d393c9832c823816f60689e1600995c19cfde93c304ebdd309047"),
    ("asymptotics",
     "asymptotics --category o+ --m 4 --inputs {d}/sc4.json --inputs {d}/sc6.json --inputs {d}/sc8.json", 0,
     "712bed814237d59c601b7c28b35e61424208400e5a9cecf03843bc4b08ce2548"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    _write_inputs(d)
    return d


def run_case(args, d):
    result = invoke(args.format(d=d).split())
    digest = hashlib.sha256(result.stdout_bytes + b"\0" + result.stderr_bytes).hexdigest()
    return result.exit_code, digest


@pytest.mark.parametrize("args,code,digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_golden_output(inputs, monkeypatch, args, code, digest):
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    assert run_case(args, inputs) == (code, digest)


def test_cases_cover_every_command():
    assert {c[1].split()[0] for c in CASES if c[2] < 2} == set(main.commands)


_WRITING = [c for c in CASES if c[2] < 2]


@pytest.mark.parametrize("args,code", [c[1:3] for c in _WRITING], ids=[c[0] for c in _WRITING])
def test_output_file_holds_the_stdout_bytes(inputs, tmp_path, monkeypatch, args, code):
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    argv = args.format(d=inputs).split()
    printed = invoke(argv)
    out = tmp_path / "out"
    written = invoke(argv + ["--output", str(out)])
    assert printed.exit_code == code
    assert (written.exit_code, written.stdout_bytes, written.stderr_bytes) == (code, b"", b"")
    assert out.read_bytes() == printed.stdout_bytes


@pytest.mark.parametrize("args", [c[1] for c in _WRITING], ids=[c[0] for c in _WRITING])
def test_unwritable_output_exits_2(inputs, tmp_path, monkeypatch, args):
    # a FAIL check exits 2 here, not 1: nothing was written
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    out = str(tmp_path / "missing" / "out")
    result = invoke(args.format(d=inputs).split() + ["--output", out])
    assert result.exit_code == 2 and result.stdout_bytes == b""
    assert json.loads(result.stderr) == {"error": "error", "message": "[Errno 2] No such file or directory: %r" % out}


# a success, a FAIL verdict and an error: each ends in its own exit code
@pytest.mark.parametrize("case", ["partitions-s+", "check-fail", "weingarten-singular"])
def test_a_wrapped_callback_runs_as_the_benchmark_shim_runs_it(inputs, monkeypatch, capsysbinary, case):
    # perfbench/shim.py replaces each command's callback with a timing
    # wrapper, then runs main(args=..., prog_name="freedf") and lets its
    # SystemExit end the job
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    args, code = next(c[1:3] for c in CASES if c[0] == case)
    argv = args.format(d=inputs).split()
    plain = invoke(argv)
    command, calls = main.commands[argv[0]], []
    callback = command.callback

    @functools.wraps(callback)
    def traced(*a, **kw):
        calls.append(kw)
        return callback(*a, **kw)

    monkeypatch.setattr(command, "callback", traced)
    with pytest.raises(SystemExit) as ended:
        main(args=argv, prog_name="freedf")
    out, err = capsysbinary.readouterr()
    assert (ended.value.code, len(calls)) == (code, 1)
    assert (out, err) == (plain.stdout_bytes, plain.stderr_bytes)


# (subcommand or None for the group, sha256 of `freedf [subcommand] --help` at 80 columns)
HELP = [
    (None,
     "9a89eb0c4dbfc70b6fc4a98ad608be91cc4f3f94686003bc4a65c5fb78dc7bfd"),
    ("asymptotics",
     "b80f8f9f8e55523bea940fe89f1005b9c7e7ce2665d648d5e44d964590ca7e33"),
    ("block-sum",
     "6fa5625917bbdaf4fb24604eff91798c11cf7f97f1456b46bdb1eb13c497b1f6"),
    ("check",
     "0d14bdb8732d33693064064be13116a275736e8b013e40b907251f132acb7e21"),
    ("convert",
     "56c3013b7749986ec0b3020c40ea8645aa01484de0f821f908a3f22306b91ab2"),
    ("generate",
     "6cf7f94e64dada991df25ea5d3de5e0c87c8611f5c575500713bb180b4cebf19"),
    ("gram",
     "e6d07676192774383ae3d2d8c8faa472d5b715ea046177b676428edd8432a77d"),
    ("haar",
     "926dcec861e669940cfa2ec7cf6275d370aa5a9e673ceb038291ccd2c3ca090c"),
    ("partitions",
     "f366dd17bb56c88b8ef44db1b48d7801373b2aee3f819b479e14c7cd06e0b968"),
    ("reconstruct",
     "2cea51420577356fe6f2000ce4eb7d31b93eadecba1864e763b89525d409c216"),
    ("semicircular",
     "7bdf0a620955a9f74929a46abf291c346a5b2649a4d907da54179066abfb3c3e"),
    ("solve",
     "afc7507e16e69fbd43f77b2d23dcb666767c55f936a091c2f5f4066638d147d6"),
    ("transform",
     "00b673c73f4e3b4a68e7f7b0c5aa3f332a098c6fd17abf3941014c13985adb71"),
    ("weingarten",
     "d9b5c6b9619eafaece07b28b697e085298c8dfd09e95b3a6aa0732c29f9257c2"),
]


def test_help_covers_every_command():
    assert [c for c, _ in HELP[1:]] == sorted(main.commands)


@pytest.mark.parametrize("command,digest", HELP, ids=[c or "freedf" for c, _ in HELP])
def test_help_is_frozen(command, digest):
    args = [command, "--help"] if command else ["--help"]
    result = invoke(args, terminal_width=80)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


# Usage errors and help as `python -m freedf.cli` prints them in a fresh
# interpreter, so the program name and terminal width are the real ones:
# (id, argv, COLUMNS, exit code, sha256 of stdout + NUL + stderr). Each
# digest was recorded from the click-based parser that this one replaced.
USAGE = [
    ("no-arguments", "", "80", 2,
     "91f5131be51f93299986011f8fa826213dd20cad74604be1de87cb948d7169a3"),
    ("group-help-60-columns", "--help", "60", 0,
     "f7a366106834b5b156ce7e35d07fff3ca306d3f98f6e4f9f855406fa87850a1d"),
    ("unknown-command", "chek --category o+", "80", 2,
     "feaaae146680fcafec69afa7ff0a87272032370eb07326dfb8e3a63090845734"),
    ("unknown-command-far", "zzz", "80", 2,
     "2b60f2b900efb71681600885a56fa6e6f247f00a72622995883ed075ccfd9b2d"),
    ("unknown-option-close", "partitions --m 3 --noncrosing", "80", 2,
     "360e5e1c4b9fb087a6a0dae5d9aa5d34cbda851bbab0b9d5cdf48cbe8eb15b21"),
    ("unknown-option-far", "partitions --m 3 --xyz", "80", 2,
     "fb7f189e4dee0a96170df51b9e13df9528aeb939f4ffb6ddb7258ba882ac6da9"),
    ("unknown-short-option", "partitions -m 3", "80", 2,
     "2e80d19623f6010386f36e15892fcd840109ae70f32b8c2a0935d8cabd83e296"),
    ("option-without-value", "partitions --m", "80", 2,
     "8ac0effb721660b2148fda585e5fab2677d32d588dc915cf464d8e961e60bfdf"),
    ("flag-with-value", "partitions --m 3 --noncrossing=yes", "80", 2,
     "87f30b55ac0b442d8d6de2257d92352b9ae41674590ed5169747565016b18ada"),
    ("bad-integer", "partitions --m x", "80", 2,
     "c0387ed796601cbb5d5c588e0b45f5530c994c4c089a43696dcba9f1911ab2e6"),
    ("bad-float", "check --mode float --tolerance x", "80", 2,
     "d2ee31bc6bd867e20c88ebc26adedf29a0c0b8a9511b965a95faa6462aacda81"),
    ("bad-choice", "transform --to moment --input x.json", "80", 2,
     "a1766c4050a89f18f090d08be1109f3e617005c3eadbaac093a69ce0722e3585"),
    ("missing-required", "gram --category o+ --m 4", "80", 2,
     "9daae225548a9d1cf883b46c961451a553e2ffd4bc6dc42523b487d3646c8d1f"),
    ("missing-choice", "transform --input x.json", "80", 2,
     "b4d911f3f33fbf99f9503fd5e394a321996037a7a0ccae1e3e85ed4ac1c8dabf"),
    ("extra-argument", "partitions --m 3 extra", "80", 2,
     "7ac77f496139c583d2b048995099d0234978edee98d0e49d12842f948ee96686"),
    ("equals-value", "partitions --m=4 --category=o+", "80", 0,
     "b6e7617008a53865637d84bc7b5dac1f6d337921fb27ab04b2a0b2ff7a0a3fa2"),
    ("repeated-option", "partitions --m 9 --m 3 --format text", "80", 0,
     "8f7039aab09e1d03be341577918165ecd29e33f51f28db472483f1c9b719d745"),
    ("help-after-bad-value", "partitions --m x --help", "80", 0,
     "0312acd58706dc258613fff0dee860e521f56e1b66d10cdbe6ae6972e25766d8"),
]


@pytest.mark.parametrize("args,columns,code,digest", [c[1:] for c in USAGE], ids=[c[0] for c in USAGE])
def test_usage_is_frozen(args, columns, code, digest):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""), COLUMNS=columns)
    env.pop("FREEDF_CACHE_DIR", None)
    got = subprocess.run([sys.executable, "-m", "freedf.cli", *args.split()], env=env, capture_output=True, timeout=120)
    assert (got.returncode, hashlib.sha256(got.stdout + b"\0" + got.stderr).hexdigest()) == (code, digest)
