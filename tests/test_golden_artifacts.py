"""Byte-level goldens: sha256 of every artifact of the shipped-scenario runs.

Nine CLI runs on ``scenarios/steer_225.json`` and ``scenarios/tank_replay.json``
write 32 artifacts; each run's output directory must hold exactly the files
listed here, byte for byte. A refactor that keeps behaviour keeps these hashes.
A deliberate change of floats regenerates only the hashes it changes, with a
CHANGES.md entry. The separable (lattice) array factor did so for the pattern
CSVs, ``metrics*.json`` and ``comparison.json`` of the four steer/compare
runs: its patterns agree with the dense sum within 1e-12 of their peak
(measured: 3.7e-14 at 64x64), while ``assignment.json`` and every
link/power/catalog/tank hash stayed as they were.
"""

import hashlib
from pathlib import Path

import pytest

from uaris.cli import main

REPO_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

RUNS = {
    "steer": ("steer", "steer_225.json"),
    "steer_quantize": ("steer", "steer_225.json", "--quantize"),
    "compare": ("compare", "steer_225.json", "--schemes", "synthetic,1bit,2bit"),
    "compare_quantize": (
        "compare", "steer_225.json", "--schemes", "synthetic,1bit,2bit", "--quantize",
    ),
    "link": ("link", "steer_225.json"),
    "power": ("power", "steer_225.json"),
    "catalog_csv": ("catalog", "steer_225.json"),
    "catalog_json": ("catalog", "steer_225.json", "--format", "json"),
    "tank_wav": ("tank", "tank_replay.json", "--wav"),
}

GOLDEN = {
    "steer": {
        "assignment.json": "6aed69f3d5cbf358d8c05fc4e85057d5d0173ef106db9eda04dbc7204ba3eeab",
        "link.json": "d6ec07807c39aaa70a9bab35792b9471f6f6adfd53c2097f49099bf168f07782",
        "metrics.json": "009bd06c7f5e14a28f719dc6f6cc4f736e6b1fd78e2557b14f9fbda544a94ceb",
        "pattern.csv": "4c52e02b47be449d1d7983ad0704f684ffc2c58669b7bbee82ee66e430b57365",
        "power.json": "2badd16021e21454efe88a6a6b81cc2a556106e527158797184840048335dfca",
    },
    "steer_quantize": {
        "assignment.json": "8c98b73863771b39d4eccd5fe3ef33c99e23a5fecd9c38385315cd15cbdd688c",
        "link.json": "d6ec07807c39aaa70a9bab35792b9471f6f6adfd53c2097f49099bf168f07782",
        "metrics.json": "009bd06c7f5e14a28f719dc6f6cc4f736e6b1fd78e2557b14f9fbda544a94ceb",
        "metrics_quantized.json": "bbf5c7f858e9fb08d929a3d7b2462fe1bc9b4c66755e49d2c9408503b8210288",
        "pattern.csv": "4c52e02b47be449d1d7983ad0704f684ffc2c58669b7bbee82ee66e430b57365",
        "pattern_quantized.csv": "f431d76e585d88ba36b4c0649639e23d247fa5935ce0db37f3182f3e6a497ac2",
        "power.json": "2badd16021e21454efe88a6a6b81cc2a556106e527158797184840048335dfca",
    },
    "compare": {
        "comparison.json": "d841c6034c2a622d4849efe265aa837b5c574754d8b001b4ad6c2b43f72017b8",
        "pattern_1bit.csv": "0cb589004d999c5f83cd49efa678c3d3ea60dd2a9379c5968b82e62f8779bd0b",
        "pattern_2bit.csv": "82548dcf5219ca5647c63e4cf75c56693117017a230cfd9a8ccdc274e10f42c6",
        "pattern_synthetic.csv": "4c52e02b47be449d1d7983ad0704f684ffc2c58669b7bbee82ee66e430b57365",
    },
    "compare_quantize": {
        "comparison.json": "d841c6034c2a622d4849efe265aa837b5c574754d8b001b4ad6c2b43f72017b8",
        "pattern_1bit.csv": "0cb589004d999c5f83cd49efa678c3d3ea60dd2a9379c5968b82e62f8779bd0b",
        "pattern_2bit.csv": "82548dcf5219ca5647c63e4cf75c56693117017a230cfd9a8ccdc274e10f42c6",
        "pattern_synthetic.csv": "4c52e02b47be449d1d7983ad0704f684ffc2c58669b7bbee82ee66e430b57365",
    },
    "link": {
        "link.json": "d6ec07807c39aaa70a9bab35792b9471f6f6adfd53c2097f49099bf168f07782",
    },
    "power": {
        "power.json": "2badd16021e21454efe88a6a6b81cc2a556106e527158797184840048335dfca",
        "reference_energy.csv": "603864fb0251de77aa1b7401ad1cfe80ae5db23097b5a1b358c9983e496e7284",
    },
    "catalog_csv": {
        "catalog.csv": "295dafcf3b21c01b48fa98546c93c5a2f4b3b15016624613d50fb89db8082020",
    },
    "catalog_json": {
        "catalog.json": "b653a82c4da56ccbca8a785c19c1205e43079291e5beae2a51b9f39b7deea075",
    },
    "tank_wav": {
        "differential.csv": "47f5e8ee9229c06af26330d1f000ee79ab326831c44f369b215e8693e56d788b",
        "differential.wav": "1b0b1674c56cd76c303207cfb0125133efe7c6b3c485585b3dd10be62084d029",
        "received_a.csv": "bb9bfbe8ad62a1eb30a66653740f9f2e40a40c2ac4c3f2bf6018a9fe0dbe0645",
        "received_a.wav": "bfd1d93d3045ad97ac4460b57fe399068791ec542b49684c66df0735517e22fb",
        "received_b.csv": "acf9b26a3696e9116053b35095ad7246502ec15bfabc06175470f256bb0550b9",
        "received_b.wav": "8ecf03cb4587fa3068da85ac0cd2aedb655a1ba887248a8d5afd493343e3e2f7",
        "tank.json": "e00dc53daf2452cc7e76a2a03cf336c9a5b6fb126925ad04c38496284630d052",
    },
}


def test_goldens_cover_32_artifacts():
    assert set(GOLDEN) == set(RUNS)
    assert sum(len(files) for files in GOLDEN.values()) == 32


@pytest.mark.parametrize("run", sorted(RUNS))
def test_artifacts_byte_identical(run, tmp_path):
    command, scenario, *flags = RUNS[run]
    argv = [command, "--scenario", str(REPO_SCENARIOS / scenario), "--out", str(tmp_path)]
    assert main(argv + flags) == 0
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert hashes == GOLDEN[run]
