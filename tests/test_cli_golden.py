"""Golden CLI outputs: the exit code and the sha256 of stdout and stderr.

Each command runs in-process on small inputs written by _write_inputs.
The digests freeze the CLI bytes, so a refactor that changes any output
byte, or the stderr of the one error case, fails here.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from freedf.categories import O_PLUS, S_PLUS, enumerate_category
from freedf.cli import family_json, main
from freedf.cumulants import cumulants_from_moments
from freedf.definetti import generate_invariant_model, seed_coefficients, semicircular_model


def _write_inputs(d):
    def dump(name, doc):
        (d / name).write_text(json.dumps(doc))

    dump("model.json", generate_invariant_model(S_PLUS, 4, 4, 3).to_json())
    dump("small.json", generate_invariant_model(O_PLUS, 2, 4, 3).to_json())
    dump("cum.json", cumulants_from_moments(generate_invariant_model(S_PLUS, 4, 4, 3)).to_json())
    sc = semicircular_model(3, 4).to_dense()
    dump("dense.json", sc.to_json())
    sc.values[2][(1, 1)] = Fraction(2)
    dump("bad.json", sc.to_json())
    near = semicircular_model(3, 2).to_dense()
    near.values[2][(1, 1)] += Fraction(1, 10 ** 15)
    dump("near.json", near.to_json())
    for n in (4, 6, 8):
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
    result = CliRunner().invoke(main, args.format(d=d).split())
    digest = hashlib.sha256(result.stdout_bytes + b"\0" + result.stderr_bytes).hexdigest()
    return result.exit_code, digest


@pytest.mark.parametrize("args,code,digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_golden_output(inputs, monkeypatch, args, code, digest):
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    assert run_case(args, inputs) == (code, digest)
