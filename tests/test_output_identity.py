"""Seeded CLI outputs, pinned by their sha256.

Each command below runs on a 200-node planted graph with unit weights, or
on a 120-node graph whose weights are not integers, where the order in
which aggregates are summed changes their bits; three more generate a
3,000-node planted graph of 60 communities, a calibrated planted graph and
a ring of cliques. The digest of every
file it writes, and of its stdout, is pinned, so a change that moves any
seeded output by one bit fails here; a change that means to move them
records new digests and says why. Manifests are hashed without
`duration_seconds` and traces without their `millis` column, the only
wall-clock fields. numpy may change a generator's stream in a feature
release, so the test skips under another numpy than the recorded one.
"""

import hashlib
import json

import numpy as np
import pytest

from qicd.cli import main

RECORDED_NUMPY = "2.4"

COMMANDS = {
    "g": ["generate", "planted", "--n", "200", "--k", "5", "--p-in", "0.2", "--p-out", "0.03", "--seed", "11",
          "--out", "g.el"],
    # 60 communities: 1,770 inter blocks drawn from one stream, one of which
    # needs a second chunk of gaps.
    "g60": ["generate", "planted", "--n", "3000", "--k", "60", "--p-in", "0.1", "--p-out", "0.01", "--seed", "1",
            "--out", "g60.el"],
    "cal": ["generate", "calibrated", "--n", "150", "--k", "3", "--target-q", "0.5", "--tolerance", "0.08",
            "--avg-degree", "10", "--seed", "5", "--out", "cal.el"],
    "ring": ["generate", "clique-ring", "--cliques", "6", "--size", "4", "--out", "ring.el"],
    "null": ["generate", "rewire", "--input", "g.el", "--seed", "5", "--out", "null.el"],
    "det": ["detect", "--graph", "g.el", "--method", "leiden", "--seed", "3", "--out", "det.csv"],
    "hh": ["qicd", "--graph", "g.el", "--kind", "haar-hu", "--refine-before-accept", "--iterations", "4",
           "--seed", "3", "--out", "hh"],
    "pt": ["qicd", "--graph", "g.el", "--kind", "pt", "--base", "louvain", "--iterations", "4",
           "--seed", "4", "--out", "pt"],
    "bench": ["benchmark", "--graph", "g.el", "--methods", "leiden,louvain-hu,leiden-haar", "--runs", "3",
              "--iterations", "2", "--seed", "9", "--out", "bench"],
    "sig": ["mrg", "--graph", "g.el", "--nulls", "5", "--iterations", "2", "--seed", "2", "--out", "sig"],
    "wdet": ["detect", "--graph", "w.el", "--method", "leiden", "--seed", "5", "--out", "wdet.csv"],
    "whh": ["qicd", "--graph", "w.el", "--kind", "haar-hu", "--refine-before-accept", "--iterations", "4",
            "--seed", "6", "--out", "whh"],
}


def _weighted_edge_list() -> str:
    """120 nodes in 8 groups of 15: dense within a group, sparse across,
    with weights from 0.1 to 2.506 at four decimals."""
    lines = []
    for u in range(120):
        for v in range(u + 1, 120):
            if (u * 7 + v * 11) % (3 if u // 15 == v // 15 else 29) == 0:
                lines.append(f"{u} {v} {0.1 + (u * 13 + v * 17) % 25 / 10 + (u + v) % 7 / 1000:.4f}")
    return "\n".join(lines) + "\n"


# Input files that COMMANDS read, written before they run.
INPUTS = {"w.el": _weighted_edge_list()}

PINNED = {
    "g.stdout": "2a2860d381f133e66d61e0b846bc4f399a8936ef3bc8e2fd3314529c0c262e91",
    "null.stdout": "c505e4b99956f815bc5e7c3ffcf3c13ea8543bbb32ea54b3c0e8effeddfb07e3",
    "det.stdout": "ce21f0503fc9b677159dfca00fa7933ae1b0170ab4f1dd11deea04ccccd85a31",
    "hh.stdout": "6eed093f46f5d6c3ab6e66ab8dfd0ff3b49408028b1ebc608a14380e3cb87775",
    "pt.stdout": "78608ab56da62df14f61e00649bed7b05941421b352693bfdbd5633a802f940d",
    "bench.stdout": "e5647506acbf91b92f9b7f895a8b88265cb92af7d73c78a94c1a29f89a38ad54",
    # sig.stdout and sig.mrg.json: each null's loop draws from its own baseline seed, mix(seed, 3, i),
    # not from mix(seed, 2, i); the observed gap, the percentile and every rewired null held.
    "sig.stdout": "4f209c248cdc048c6a7b518bc7a36dc31d8d16bb4c126765addf2f172ddb2681",
    # Every manifest: the config's seed is the one record of --seed, so no top-level base_seed is written.
    "bench.manifest.json": "9492e901e1dcca0a5a09916e1e58955b742bc67524e2c45dbbf83d77f5a61c71",
    "bench.runs.csv": "b89c505789e901b5718a70c963007c39e3f74d1b5375709e124e66a8242afec9",
    "bench.summary.json": "5b85abb5f3dcb113135730edcfb672841f4c0245827083fc62ed6fe46daad283",
    "bench.table.txt": "e5647506acbf91b92f9b7f895a8b88265cb92af7d73c78a94c1a29f89a38ad54",
    "cal.el": "71da83b6ef03bd2f23c1f14b0ea78a3f7f57d2d85990c1203e5458fe322930f6",
    "cal.manifest.json": "c5e25529819e123314392e0b57ea5ea15d365adda537faac6278946b71ce9a95",
    "cal.stdout": "92488bad7e5a8932554b5ed2213f3e2ca17fe72c034c255d8a811f60caac45ba",
    "cal.truth.csv": "a2579d0ef6dcb689a894f63833363ee201682d0abb7a11951ea5fee1bdb007d8",
    "det.csv": "d7448b87a6b45e5b02104a39fc69428abe10a3d9b2c6396f35ee1b83a65efd40",
    "det.manifest.json": "d1f66c401a7c2ec91ec658753865961bb0f5fd1d408480cfd4eb8a64abaad4c4",
    "g.el": "b5a150026f9e12928df97351366399ffd91cf4b4dc9cbfe810ada3222ddeff54",
    "g.manifest.json": "a952b941689bdd12ee2721d4ee3c26ae06b44b3440368410c033d5ba3d8c9cd4",
    "g.truth.csv": "3ef62bb3386805e5cb67d4c2b362e0b65ca8162ef1f6484cf159e3dd68a7c9dc",
    "g60.stdout": "d675096c0cd01f3d40d6dfe2f984a327c97a26881a7e7beac05a80df85395a5d",
    "g60.el": "cbe328f2fa263d1d73499a91f685e065f1a11bb2ed22c227d983dea7389dc3b1",
    "g60.manifest.json": "8434de10ec82dbdd9fe12a9991d6457204df0c3196dbb27f615746970d41b426",
    "g60.truth.csv": "023189e78ff9d948b81e8c3067d13b4096f17ed7304ddb1b322ee0ca194d0bae",
    # hh.json, pt.json and whh.json: the config echo's seed is --seed itself, and it holds no baseline_seed.
    "hh.json": "89c365b2c90108690bea4ececa5ea6448da906de4b18d9d4eabea09c872d5936",
    "hh.manifest.json": "7643cfd5be1aa93688aeccf413ea64d28218a53b1f8d16783aec31347a72f713",
    "hh.partition.csv": "c1403becd7b94060afded2e3cd64079806f011ad18499d05d13c40300d705d9a",
    "hh.trace.csv": "8335349605feb469dbd5af2b984d2974dc5e6adb9ae76076a5dea55f1c229f9d",
    "null.el": "269ed06b26f235544869e6c9b5b35e6caad6913896b7987689bbc8df2a62a222",
    "null.manifest.json": "30cd149570bad87eba0d252815d6c98c620d04c358e4d16d6f972d970bead6c6",
    "pt.json": "7b697809a4f0f700425ea1c2e58cbe8e5bfe72e215457f3eacdabb3df41ef00c",
    "pt.manifest.json": "986bb699da8639db41c4ee6d6601ab9e51f602c99482ac4b5b6c628b637f7dd5",
    "pt.partition.csv": "ae9e1952e2070e81848e963f0e4ce69ddc3227dd3b9ce66d88c60e070c8bde7f",
    # pt.trace.csv: K is ceil(sqrt(200)) = 15, not the 7 that the retired --seeds once set; the
    # partition and stdout held.
    "pt.trace.csv": "f9b259a18d876055c78f9f2bdaf0d6c8b9575e2f18c2bc0d73b1b1018448a551",
    "ring.el": "8a7934cf6912152e2124e8a585ea3d1c68de3d81a8c88046ca018c17cefb0ef3",
    "ring.manifest.json": "92927a5afbb7085ef1229057ef9e678c6344154bbced88a2d3d503c2081ec8a6",
    "ring.stdout": "a0aac7dbfe7f125c6723fa2234a453409978ccd5afecf0c7d4c94c8682aacd45",
    "ring.truth.csv": "fd9dd9bba2e8cb41bc69db766440b8462e8fd42bf90989dab69ae021104465b9",
    "sig.manifest.json": "cccb1db4e747c5fce27f3bdeef16735fe3456605da21ed5050d09e88725077bf",
    "sig.mrg.json": "bf3c31cc5c0f52027f8cf25f4fea7e15c563408683a12d8cd7601bef7618da94",
    "w.el": "b59fb7c10dcb75737ecb493696b01482e01dce529ac400ee936024c36150edb7",
    "wdet.csv": "554ac9ac0a4056fb555c548b046ffb5da5e98f23d4651c6ffd728574302dc03e",
    "wdet.manifest.json": "f151cad7e34b57279da227b7df9702c40f986942518fd94fb90a92ffdce96a4e",
    "wdet.stdout": "d85eecabe6b9e9f2614e03dd32e2e85215cce9953dcfef1572ff418eecb2a898",
    "whh.json": "93daa7b6d7cc6e380e6b6a71e4d97215171e9dff1780a887eeea2dfa7d821baa",
    "whh.manifest.json": "63196e8519e9b2f8855e88f420d4b05cce9cb85710e7d10d7efca62917833e14",
    "whh.partition.csv": "d3a1845d5649a029dee04b78d064fae9b7ffcd19f0a1202b829dab1a48dc6f88",
    "whh.stdout": "c5eac21f1734d59e38e3fb4697213cec6f6e1152fd13c06979f9892133f27962",
    # whh.trace.csv: Q of a refined incumbent is summed from labels, not accumulated move by move.
    "whh.trace.csv": "b6b1ee3b998e7dc1361e7cf0e0e7f0e21cb7180f80b6fee33c5d22ec5b215301",
}


def _stable_bytes(path):
    """The file's bytes, less its wall-clock fields."""
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(data)
        del manifest["duration_seconds"]
        return json.dumps(manifest, indent=2, sort_keys=True).encode()
    if path.name.endswith(".trace.csv"):
        return b"".join(line.rpartition(b",")[0] + b"\n" for line in data.splitlines())
    return data


def run_commands(workdir, capsys):
    """Run COMMANDS in workdir, which must be the current directory, and
    return the sha256 of each file written and of each command's stdout."""
    digests = {}
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    for name, argv in COMMANDS.items():
        assert main(argv) == 0, name
        digests[f"{name}.stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    for path in sorted(workdir.iterdir()):
        digests[path.name] = hashlib.sha256(_stable_bytes(path)).hexdigest()
    return digests


@pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != RECORDED_NUMPY,
    reason=f"digests were recorded under numpy {RECORDED_NUMPY}; numpy {np.__version__} may draw other streams",
)
def test_seeded_outputs_match_their_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_commands(tmp_path, capsys) == PINNED
