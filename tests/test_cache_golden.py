"""The golden CLI bytes hold on the disk-cache path too, cold and warm.

Cases that build Weingarten matrices run twice with FREEDF_CACHE_DIR
set: first against an empty directory, which writes the cache files,
then with the in-process cache cleared, which reads them back. Both runs
must give the digests frozen in test_cli_golden.CASES. The bytes of one
written cache file are frozen as well, so files written by earlier
versions stay valid.
"""

import hashlib

from test_cli_golden import CASES, _write_inputs, run_case

from freedf.weingarten import weingarten

CACHED = ("weingarten-s+", "weingarten-text", "haar", "check-fail")
S_PLUS_4_3_SHA256 = "c18aa5bf5814c60b817a9805666dd121d2f75f42f901dfa0a32560a0510b7e18"


def test_golden_output_through_disk_cache(tmp_path, monkeypatch):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _write_inputs(inputs)
    cache = tmp_path / "cache"
    monkeypatch.setenv("FREEDF_CACHE_DIR", str(cache))
    cases = [c for c in CASES if c[0] in CACHED]
    assert len(cases) == len(CACHED)
    try:
        for phase in ("cold", "warm"):
            weingarten.cache_clear()
            for name, args, code, digest in cases:
                assert run_case(args, inputs) == (code, digest), (phase, name)
            if phase == "cold":
                written = {p.name: p.read_bytes() for p in cache.iterdir()}
        assert {p.name: p.read_bytes() for p in cache.iterdir()} == written
        assert hashlib.sha256(written["s+_4_3.json"]).hexdigest() == S_PLUS_4_3_SHA256
    finally:
        weingarten.cache_clear()
