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

``LIFTED`` pins ``info`` and ``check`` for every catalogued one-qubit kind
lifted to a register: the e <= 2 family on five qubits against phase5
where slot 0 is the identity, and the three-qubit tensor power against
phase3 otherwise. They were recorded while every member was still built
as a dense kron, so they hold the images, Grams and completeness residuals
of the families kept as words to the dense bytes.

``INLINE`` pins the outputs that hold arrays but write no file:
``check --format text``, and ``synthesize`` without ``--out``, whose
report embeds the recovery, as JSON and as text, for phase3 and phase5
(same families and seed as ``GOLDEN``), plus the refusal of phase3 under
``decoherence:gamma=0.3,qubits=3``, which prints the KL report. They were
recorded while those reports still held their matrices as nested lists.
The ``info`` entries (phase3, ``overlap_example:q=0.25`` and the
``GOLDEN`` phase3 recovery file, each as JSON and as text) were recorded
while ``code_to_json``, ``ensemble_to_json`` and ``recovery_to_json``
still built nested lists; each runs in a fresh directory that holds
``recovery3.json``, written first where the command names it.
``compare`` (shared by phase3 and phase5) was re-recorded when memory's
worst cases moved to the pure-state solver ``min_fidelity`` runs, fed the
Kraus matrices of each cycle's logical channel; its rows moved by at most
2.2e-16. ``memory-bound`` is the README's ``memory … --p 0.05`` example, recorded
while ``--e`` still defaulted to 1 in the parser rather than in the command.
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
        "compare": "6e4a0490a22252c1fa76564f3f35b82f9f79d1977581882939d0ef708bf54fc5",
    },
    5: {
        "check": "ba32bf25242269a245ba9bfb4af4a274c34fc8b36acc2568af5923802f89cfe9",
        "synthesize": "bbb87e43c18e43cd03d8ce3278630175a84118acd10c89b4f1d927b0525e6480",
        "recovery": "2502aca30f771aa5cfcd12ae482cbfa36baf0cab8d30435782ad99055b403243",
        "fidelity": "633cb52291102c955135b6b0a1fc494a7ddc32f41a77717ae92f22d2b7b8f884",
        "entangled": "9d4ee6e18e3668fdafd2c9e3d141f0663d7d71d6ec72c68ad575aad8fa90936e",
        "memory": "a4c3b5f11939e6467cf3823c9565374befe97404be1f2621c66e04241e4915f5",
        "compare": "6e4a0490a22252c1fa76564f3f35b82f9f79d1977581882939d0ef708bf54fc5",
    },
}

PHASE7 = {
    "synthesize": "23cd17563749d701212b60bffe97d29fe2653d1e171ee4a391bb5c1488052cc1",
    "recovery": "62995a95bb871d69299070022d9cec367e990aabe1b2312696cd70a9e376b660",
}

# channel -> (code, info digest, check exit code, check digest)
LIFTED = {
    "decoherence:gamma=0,qubits=5,max_errors=2": (
        "phase5",
        "98f39fc6b75b9e7e4f17102fcfbda7fa6fc53fc1634ed9dadf1685795a11b579",
        0,
        "635bdf3ee15d9caeac8f004ed65ab7abfc2f71a72b4ae0f4386cb0ce7991f920",
    ),
    "decoherence_pm_basis:gamma=0.2,qubits=5,max_errors=2": (
        "phase5",
        "379fe6ce07f28e095fce86ba42c2376682751e214f50627c478f096a1091708e",
        0,
        "1ff544416893213d757185ec867ff5f46ac3b28d0ea2644bcdf764ad8e3f6351",
    ),
    "spontaneous_emission:p=0,qubits=5,max_errors=2": (
        "phase5",
        "f300fe3774ab746e7e864b5abebf55f39f0249692541add5ea7a2dd2ab8c52f8",
        0,
        "e31b007ba1ca4e608b2fd400c782f1dab4581f5292e5935c57e382351f1940e4",
    ),
    "amplitude_damping:p=0,qubits=5,max_errors=2": (
        "phase5",
        "3d2c4444cd133c0145e9d8527f3fe8461246150ecba906765abf7ec377327d29",
        0,
        "8a00b7df13850c301d5bbf6ffc76ff77bbb2521a56c3b79594a4f26d570621f9",
    ),
    "pauli_unitary_basis:qubits=5,max_errors=2": (
        "phase5",
        "c1688ffa6949508b77eb941cddfa716922ee0de1e189a6ee20fae3eeb523e8bc",
        1,
        "d056f25d094a53f3e8e476738906a1e140b0f6b51fd6613cb6e3cce762adf0a1",
    ),
    "decoherence:gamma=0.3,qubits=3": (
        "phase3",
        "b4dfb03a97d08eedbb78bae8c164cfd40c0e35c5188dfb5aa5a12a93e6627dcd",
        1,
        "169f7eb713c02f15f68e3b1dfbd409d52fd25c6f4e09a0d76f4b55b9e009a662",
    ),
    "spontaneous_emission:p=0.3,qubits=3": (
        "phase3",
        "73c0c01b2f69a2d4431d5994a41a26f7d9ce5a278b853182ddcb64a4c4bd18d0",
        1,
        "ef88dc0ba2575247a5240d247577614e3bf34cc33c573b5f56c20a62eb9a2356",
    ),
    "amplitude_damping:p=0.3,qubits=3": (
        "phase3",
        "9a51ffed833549a569b41078dc1f10dab404f355ed18300c8b9f80404f529a53",
        1,
        "2dd9cb796d6fdd875d4b75cddb48368d0d8438e0296ea2f66bbfc290a23dd55e",
    ),
    "measurement_basis:qubits=3": (
        "phase3",
        "78c67d9f59de6d7c1fb60f9e3c9d0696627cf5359e942de9e666af0d517a7d37",
        1,
        "e4dfac3dcfbde8ab9d2026e4b3e0f3aa78d99121c83dfb35356229bee2b56818",
    ),
    "depolarizing_third:qubits=3": (
        "phase3",
        "4225e417e7e8fcc69afcb4b72cce5618cdf49ea6bf97f33445d42149ba1377a0",
        1,
        "75814c7892c598d9404372815120f7828d559b325005464fb5d57310d3ae13f0",
    ),
}


# command -> (argv, exit code, digest)
INLINE = {
    "check-text-3": (["check", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1", "--format", "text"], 0,
                     "7a0dd329007db6c26f85cf5c04319dd90c749ea9f65cfffb4f22fd49ca830c9f"),
    "check-text-5": (["check", "phase5", "decoherence_pm_basis:gamma=0.1,qubits=5,max_errors=2", "--format", "text"], 0,
                     "280c705635aad7bdc14ce2fb40156c967aa9e3f1ab6387dc837436e8113f5976"),
    "synthesize-3": (["synthesize", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1"], 0,
                     "323ce9b765481ff4b440d4c91eadc343be3597ab09790833edd21eeaa4403735"),
    "synthesize-5": (["synthesize", "phase5", "decoherence_pm_basis:gamma=0.1,qubits=5,max_errors=2"], 0,
                     "0997bf9f5f773051cf74f080891ebf530996ffa11d387abdb58af4030c5fa62f"),
    "synthesize-text-3": (["synthesize", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1", "--format", "text"],
                          0, "c5bf7e3de4b645610e8a58a1da2a52932ecf0e06049ba33d3c7e59d08cc4ca1e"),
    "synthesize-text-5": (["synthesize", "phase5", "decoherence_pm_basis:gamma=0.1,qubits=5,max_errors=2", "--format", "text"],
                          0, "4158acdb997f7e0bc0dc70c66fbdb1e5d124468f151d79088a46ff751b6b2870"),
    "refused": (["synthesize", "phase3", "decoherence:gamma=0.3,qubits=3"], 1,
                "2c0fcde8c8c8f8ad8a7e5ac1c40bf49f13f1762f73b1dac32d9d4526b2ca2d19"),
    "refused-text": (["synthesize", "phase3", "decoherence:gamma=0.3,qubits=3", "--format", "text"], 1,
                     "31abe1a55782f1db1a2765fc002b28eb73a58e208aeab78f9902ba6b3db6519b"),
    "info-code": (["info", "phase3"], 0, "83b3a2666fe979af438b5ae58c255566d6c131ee7335a6fcb65d1131c0f14f99"),
    "info-code-text": (["info", "phase3", "--format", "text"], 0,
                       "0034732f5444ec68842a8d760fc3d0887223f48596971c828327928a8c03bc01"),
    "info-channel": (["info", "overlap_example:q=0.25"], 0,
                     "b98dd28e8f6a976816fd38c1ce53a7dd8a004a80a16f8860e62e3557632845b3"),
    "info-channel-text": (["info", "overlap_example:q=0.25", "--format", "text"], 0,
                          "16ed1fc7b2f81a080ed4497e5f37711595733ec7d2e96b7423090c8993138b73"),
    "info-recovery": (["info", "recovery3.json"], 0, "1cfc079840ee41082a2d6edc412a856d23a2f3d6df69f89091d40449be1920fc"),
    "info-recovery-text": (["info", "recovery3.json", "--format", "text"], 0,
                           "b0d8026fbb748c1c88947086094bd5a6f66a0080cffa6c4be74dde31f54f5efd"),
    "memory-bound": (["memory", "phase3", "uniform_phase_flip:p=0.05,qubits=3", "--cycles", "20", "--p", "0.05"], 0,
                     "3adf499492c856859a42896fe1eee35d611a64d3551ced58c06946b30fd61750"),
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


@pytest.mark.parametrize("channel", sorted(LIFTED))
def test_lifted_family_outputs_match_golden_digest(channel, capsys):
    code, info, rc, check = LIFTED[channel]
    info_out = _run(["info", channel], capsys)
    assert main(["check", code, channel, "--seed", "3"]) == rc
    check_out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(info_out).hexdigest(), hashlib.sha256(check_out).hexdigest()) == (info, check)


@pytest.mark.parametrize("name", sorted(INLINE))
def test_inline_outputs_match_golden_digest(name, tmp_path, monkeypatch, capsys):
    argv, rc, digest = INLINE[name]
    monkeypatch.chdir(tmp_path)
    if "recovery3.json" in argv:
        family = "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1"
        _run(["synthesize", "phase3", family, "--seed", "3", "--out", "recovery3.json"], capsys)
    assert main([*argv, "--seed", "3"]) == rc
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
