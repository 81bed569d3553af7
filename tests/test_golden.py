"""Golden outputs: sha256 digests of reports and files that must stay bit-identical.

The digests were computed before the verify generators and the composite
mirror maps moved to per-axis coordinates and one reflection plan; any change
to a verdict, a counterexample payload, a trace row or a final iterate shows
up here.  Regenerate only for a change that is meant to alter outputs.
"""

import hashlib
import json

import pytest

import symmkit as sk
from symmkit import gridio
from symmkit.cli import cli_dispatch
from symmkit.harness import random_blob_function, trial_rng

VERIFY_DIGESTS = {
    (1, 1): "c0578a01c38e56e0b54536a316327bfe18bc3eb2e84454ed76ca76eaa3959b31",
    (1, 5): "19da34dc4ef6540e2fd315354e0590c19b8b7b25b4c1c48c7bf58d7344345fb4",
    (7, 1): "6dabe700b300b3dfdb65feabc7dbf0873525ddf1d2f5d11fead386a907a39f4e",
    (7, 5): "c8d4dce625d89a3cfd3d2dff380bde40ed7ba95461525cdaf0c3ddb0425445bd",
    (42, 1): "d385b91230684170a8b204c1fd8301ea125d066fc41827f49ed1be5ba80ec871",
    (42, 5): "2ecc16c9ff288589fef329fccdde3a503fa00b38d1abb32bfe12e69cc264d34f",
}
GALLERY_DIGEST = "9cb8f2afa53542315dfcebb3053c96ce6b5011c814ade5afa20f2040b1c76807"
CONVERGE_INPUT_DIGEST = "53914e497873c5c118aedb5bd6ed73f4d76703e9cbf71ce1ceb36836a5da6f80"
CONVERGE_TRACE_DIGEST = "c8430879e3c1dc2071b623d0e2a11c2127bdc8341363ce7b08f58a358330daae"
CONVERGE_FINAL_DIGEST = "81b4c7ea2ad34be95b8155ec24c545b3baa740fd6c0702af275b8eed25cba796"


def _json_digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed,trials", sorted(VERIFY_DIGESTS))
def test_verify_report_golden(seed, trials):
    report, all_hold = sk.run_verify(trials=trials, seed=seed)
    assert all_hold
    assert _json_digest(report) == VERIFY_DIGESTS[seed, trials]


def test_gallery_report_golden():
    assert _json_digest(sk.run_gallery(seed=7, trials=20)) == GALLERY_DIGEST


def test_converge_outputs_golden(tmp_path):
    f = random_blob_function(trial_rng(4242, 0), sk.centered_grid((64, 64), 1.0 / 16.0))
    inp, trace, final = tmp_path / "in.grd", tmp_path / "trace.csv", tmp_path / "final.grd"
    gridio.write_grid_function(inp, f)
    assert _file_digest(inp) == CONVERGE_INPUT_DIGEST
    argv = ["converge", "--in", str(inp), "--axis", "1", "--iters", "200", "--seed", "5",
            "--out", str(trace), "--final", str(final)]
    assert cli_dispatch(argv) == 0
    assert _file_digest(trace) == CONVERGE_TRACE_DIGEST
    assert _file_digest(final) == CONVERGE_FINAL_DIGEST
