"""Golden CLI outputs: sha256 digests of reports, recovery files and CSVs.

The digests pin the byte-deterministic CLI output for phase3 and phase5
under dephasing at gamma = 0.1 (the e = (m - 1)/2 family for check and
synthesize, the full channel after the recovery for fidelity, with and
without ``--entangled``, and for memory), all with ``--seed 3``. They
were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64); another BLAS
or numpy may round the last bit differently, so a mismatch there calls
for a look at the diff, not necessarily a bug.
Every path is relative to the working directory, because reports embed
the paths they were given.

``PHASE7`` pins the 45 MB phase7 recovery file and its synthesize report
(e = 3 family, ``--seed 3``). Both digests were recorded while the file
was still written through ``recovery_to_json`` and ``json.dumps``, before
``synthesize --out`` encoded the operators from arrays; the new encoder
must reproduce those bytes.
"""

import hashlib

import pytest

from qeckit.cli import main

GOLDEN = {
    3: {
        "check": "fddf0c4850856c6d3ed2a61fcfc6088786e23a9cfbd69d986829e94a7e4a253c",
        "synthesize": "dd68a06dbab72f337cb487764c3bd0d8d62bb09787acbd43b874711535e90125",
        "recovery": "78221829ef175f8c60a02cf837aa51e5347201c944d2939d686917f0f938163d",
        "fidelity": "e0d7dfae80bcffa3933da507f174b6fbef79bd247cd7c1c73ffda74c0c17607a",
        "entangled": "04cf410873c40edae67a7faf90126ba3cc6559a562300c7d0be856a647d6cfc9",
        "memory": "0bc3aa4f797b7595a972d95e1261f39819e30ef830800bbf67bf4c3ebd968d51",
        "compare": "a05cedeed21356703242465632d84c7311b73268aae66e8dd518035f10d1b3d6",
    },
    5: {
        "check": "ba32bf25242269a245ba9bfb4af4a274c34fc8b36acc2568af5923802f89cfe9",
        "synthesize": "bbb87e43c18e43cd03d8ce3278630175a84118acd10c89b4f1d927b0525e6480",
        "recovery": "2502aca30f771aa5cfcd12ae482cbfa36baf0cab8d30435782ad99055b403243",
        "fidelity": "633cb52291102c955135b6b0a1fc494a7ddc32f41a77717ae92f22d2b7b8f884",
        "entangled": "9d4ee6e18e3668fdafd2c9e3d141f0663d7d71d6ec72c68ad575aad8fa90936e",
        "memory": "a4c3b5f11939e6467cf3823c9565374befe97404be1f2621c66e04241e4915f5",
        "compare": "a05cedeed21356703242465632d84c7311b73268aae66e8dd518035f10d1b3d6",
    },
}

PHASE7 = {
    "synthesize": "23cd17563749d701212b60bffe97d29fe2653d1e171ee4a391bb5c1488052cc1",
    "recovery": "62995a95bb871d69299070022d9cec367e990aabe1b2312696cd70a9e376b660",
}


def _run(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


def cli_outputs(m, capsys):
    """Bytes of every golden output for phase<m>, written in the current directory."""
    family = f"decoherence_pm_basis:gamma=0.1,qubits={m},max_errors={(m - 1) // 2}"
    noise = f"decoherence_pm_basis:gamma=0.1,qubits={m}"
    code, rec = f"phase{m}", f"recovery{m}.json"
    out = {
        "check": _run(["check", code, family, "--seed", "3"], capsys),
        "synthesize": _run(["synthesize", code, family, "--seed", "3", "--out", rec], capsys),
    }
    with open(rec, "rb") as fh:
        out["recovery"] = fh.read()
    out["fidelity"] = _run(["fidelity", code, noise, "--recovery", rec, "--seed", "3"], capsys)
    out["entangled"] = _run(["fidelity", code, noise, "--recovery", rec, "--entangled", "--seed", "3"], capsys)
    out["memory"] = _run(["memory", code, noise, "--recovery", rec, "--cycles", "5", "--seed", "3"], capsys)
    out["compare"] = _run(
        ["memory", code, "--compare", "--gamma", "0.05", "--cycles", "5", "--seed", "3"], capsys
    )
    return out


@pytest.mark.parametrize("m", sorted(GOLDEN))
def test_cli_output_matches_golden_digest(m, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in cli_outputs(m, capsys).items()}
    assert digests == GOLDEN[m]


def test_phase7_recovery_file_matches_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    family = "decoherence_pm_basis:gamma=0.1,qubits=7,max_errors=3"
    report = _run(["synthesize", "phase7", family, "--seed", "3", "--out", "recovery7.json"], capsys)
    with open("recovery7.json", "rb") as fh:
        digests = {"synthesize": hashlib.sha256(report).hexdigest(), "recovery": hashlib.sha256(fh.read()).hexdigest()}
    assert digests == PHASE7
