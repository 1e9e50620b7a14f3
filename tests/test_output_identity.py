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
    "sig.stdout": "5fbab33d3144bc4f6e1e3db07580bbee710aa730b4f7e3902259560a48c6d814",
    # bench.manifest.json: benchmark reads its graph from --graph alone, so the config no longer records
    # generate_spec or fresh_graphs; the runs CSV, summary, table and stdout held.
    "bench.manifest.json": "526597ee9be9ccca6483a92e193c321786f763eb806c6b8f2322148f3550547c",
    "bench.runs.csv": "b89c505789e901b5718a70c963007c39e3f74d1b5375709e124e66a8242afec9",
    "bench.summary.json": "5b85abb5f3dcb113135730edcfb672841f4c0245827083fc62ed6fe46daad283",
    "bench.table.txt": "e5647506acbf91b92f9b7f895a8b88265cb92af7d73c78a94c1a29f89a38ad54",
    "cal.el": "71da83b6ef03bd2f23c1f14b0ea78a3f7f57d2d85990c1203e5458fe322930f6",
    # cal.manifest.json, null.manifest.json and sig.manifest.json: the calibration's run count and the rewire's
    # swap factor are the constants CALIBRATION_RUNS and SWAP_FACTOR, so the configs no longer record
    # calibration_runs or swap_factor; the graphs, truth, report and stdout held.
    "cal.manifest.json": "1ba9f5f03f24dd1160c0aec3507ebbf1136369d23ccc47607ed2bb5c7c0c3108",
    "cal.stdout": "92488bad7e5a8932554b5ed2213f3e2ca17fe72c034c255d8a811f60caac45ba",
    "cal.truth.csv": "a2579d0ef6dcb689a894f63833363ee201682d0abb7a11951ea5fee1bdb007d8",
    "det.csv": "d7448b87a6b45e5b02104a39fc69428abe10a3d9b2c6396f35ee1b83a65efd40",
    "det.manifest.json": "09e1d7335fec139032d9e4bc0e49b5e2acc59b56820eaba337700fea39292c5c",
    "g.el": "b5a150026f9e12928df97351366399ffd91cf4b4dc9cbfe810ada3222ddeff54",
    "g.manifest.json": "5d79d6781c4bb8edba3aabeee093cc09d28c3486248662108bf9f8fb103c6004",
    "g.truth.csv": "3ef62bb3386805e5cb67d4c2b362e0b65ca8162ef1f6484cf159e3dd68a7c9dc",
    "g60.stdout": "d675096c0cd01f3d40d6dfe2f984a327c97a26881a7e7beac05a80df85395a5d",
    "g60.el": "cbe328f2fa263d1d73499a91f685e065f1a11bb2ed22c227d983dea7389dc3b1",
    "g60.manifest.json": "3e4643ee553d04af7529bf5f61b715188f360df84d0465f2c195e78f4bc535fa",
    "g60.truth.csv": "023189e78ff9d948b81e8c3067d13b4096f17ed7304ddb1b322ee0ca194d0bae",
    # hh.json, pt.json and whh.json: the config echo holds a flat baseline_seed, not a nested detector seed,
    # and no proposal_seeds. The manifests of bench, hh, pt, sig and whh record no proposal_seeds either.
    "hh.json": "a0755aae41e23ad8c44fa3c1526763f81afbf2864f3de09e5902fbcfd278653b",
    "hh.manifest.json": "897c9b0293b784f07e8330fac7ee396e7e2494595b7285e42c371b1681f1478e",
    "hh.partition.csv": "c1403becd7b94060afded2e3cd64079806f011ad18499d05d13c40300d705d9a",
    "hh.trace.csv": "8335349605feb469dbd5af2b984d2974dc5e6adb9ae76076a5dea55f1c229f9d",
    "null.el": "269ed06b26f235544869e6c9b5b35e6caad6913896b7987689bbc8df2a62a222",
    "null.manifest.json": "1a7bbffe7d79d785dfc496f5751cb48246475ce3a77127e97aed67338f5646fa",
    "pt.json": "1bb84b8d26616431f338a9e0ef0adb7b0693c5a3f9dbb45a0306c62e22029609",
    "pt.manifest.json": "60dc9486ab77ef39915c56fcd0dfbfc0a37bdbde0242a1403f08062e9f618321",
    "pt.partition.csv": "ae9e1952e2070e81848e963f0e4ce69ddc3227dd3b9ce66d88c60e070c8bde7f",
    # pt.trace.csv: K is ceil(sqrt(200)) = 15, not the 7 that the retired --seeds once set; the
    # partition and stdout held.
    "pt.trace.csv": "f9b259a18d876055c78f9f2bdaf0d6c8b9575e2f18c2bc0d73b1b1018448a551",
    "ring.el": "8a7934cf6912152e2124e8a585ea3d1c68de3d81a8c88046ca018c17cefb0ef3",
    # ring.manifest.json: generate clique-ring draws nothing and takes no --seed, so its base_seed is
    # null and its config holds no seed; the graph, truth and stdout held.
    "ring.manifest.json": "3a23e95efeb94346bdf1b91211d16b891ef6e4a001701af98e8a78216ba75880",
    "ring.stdout": "a0aac7dbfe7f125c6723fa2234a453409978ccd5afecf0c7d4c94c8682aacd45",
    "ring.truth.csv": "fd9dd9bba2e8cb41bc69db766440b8462e8fd42bf90989dab69ae021104465b9",
    "sig.manifest.json": "1f6610fabff8a0f1b4699ee3b717566300b11126ce6bc922980611250e435911",
    "sig.mrg.json": "02a23d25e97fb4d94383745dfd5fa21034bdc7ca01d0a24ef8b3f93952d70ca2",
    "w.el": "b59fb7c10dcb75737ecb493696b01482e01dce529ac400ee936024c36150edb7",
    "wdet.csv": "554ac9ac0a4056fb555c548b046ffb5da5e98f23d4651c6ffd728574302dc03e",
    "wdet.manifest.json": "7552909f8187ebaf40bd191831ba28cecbec54a031b672e4e2e5b70a08e3c8ff",
    "wdet.stdout": "d85eecabe6b9e9f2614e03dd32e2e85215cce9953dcfef1572ff418eecb2a898",
    # whh.json and whh.trace.csv: Q of a refined incumbent is summed from labels, not accumulated move by move.
    "whh.json": "e4c62ac3d2cd229a32eb92d523bfac8f51004cd6c709b218a5334aea593690eb",
    "whh.manifest.json": "65faf89b28cd4c277cff80620ebbd8ee1973a2eb96f026234f9ff4cb5407e8e5",
    "whh.partition.csv": "d3a1845d5649a029dee04b78d064fae9b7ffcd19f0a1202b829dab1a48dc6f88",
    "whh.stdout": "c5eac21f1734d59e38e3fb4697213cec6f6e1152fd13c06979f9892133f27962",
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
