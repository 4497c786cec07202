"""Golden output bytes: four small simulate sweeps, pinned by the sha256 of
every file they write.

Three sweeps synthesise their corpora (no --corpus path), so sweep.json holds
no path and every file is a function of the command line alone. Their length
caps put the corpus lengths in uint8, uint16 and uint32 range, the widths at
which the loader's block sort changes its key type; one sweep runs two epochs
with --drop-last. The fourth reads a corpus file that the test writes with
plain Python formatting, lengths of 1 to 7 digits, by a relative path from
the working directory, so its sweep.json holds no temporary path either. A
change that is meant to keep the output bytes must pass this test as it
stands; the digests are never regenerated to make it pass.
"""

import hashlib
from pathlib import Path

import pytest

from sortbatch.cli import EXIT_OK, main

SWEEPS = {
    "u8": [
        "--n", "300", "--mean-src", "40", "--std-src", "30", "--max-len", "250", "--pair-diff", "6",
        "--m", "8", "--k", "1", "4", "all", "--seeds", "0", "1",
    ],
    "u16": [
        "--n", "300", "--mean-src", "3000", "--std-src", "8000", "--max-len", "60000", "--pair-diff", "500",
        "--length-dist", "normal", "--m", "16", "--k", "1", "3", "all", "--seeds", "2",
        "--epochs", "2", "--drop-last",
    ],
    "u32": [
        "--n", "300", "--mean-src", "200000", "--std-src", "150000", "--max-len", "3000000", "--seed", "3",
        "--m", "7", "--k", "1", "5", "all", "--seeds", "0",
    ],
}

DIGESTS = {
    "u8": {
        "comparison.csv": "fbae648b8c24620789f51dab098de4f619dfefbc938b5173d965f8aaa089b13e",
        "comparison.md": "1dcebcafeb15ff957cc23bcf16c7e3086d8fc44b0a9f64a0413de3e0c91e4d2e",
        "corpus.tsv": "84662dd96b6ddd728dec3c30f665bb54ccedc43d2ef1586b1fd84dde2ba49fdc",
        "run_k1_seed0/batches.jsonl": "d6023fc78f0f3093883780b6aa4e15c3212dd7528bb7da8dcb88f549c3a18465",
        "run_k1_seed0/iid.json": "47d08a5e9b0d03328a41c243f9f54acbead355e32c1618f2624d33c2d2a05a9e",
        "run_k1_seed0/report.json": "92bb0fe9233d5de919f62b05e6511367b132189f83181e85d6fa9c5c75b10021",
        "run_k1_seed1/batches.jsonl": "3f81670d0a6236bb59076c5205306bc65f19efe5df29de38688f6bcecf9f67c8",
        "run_k1_seed1/iid.json": "243edc49a1f77600efb6fe81036a24bb5b4d360b449c8c1065251db8eec930af",
        "run_k1_seed1/report.json": "43539622c2c624a550bce1e53135462bd211d165682b698a58c1643474ab3b2c",
        "run_k4_seed0/batches.jsonl": "f3a0fca0a13373634356bb521007e028717f029757cf620a05fc49a33cb88b2d",
        "run_k4_seed0/iid.json": "29af434e1c12c9cbb8971af628789a067917668247dc8a3b10879b3c9bb40f7a",
        "run_k4_seed0/report.json": "00c1ed1eda70012d3170208df0a2e06a31057b413829d82ae7dfbf405d71e422",
        "run_k4_seed1/batches.jsonl": "85de9550050aa64b1346431c0f588b5dcbbd106f67cd4fa74a6cc1f97383606f",
        "run_k4_seed1/iid.json": "d8c97afe81b2d4635b15388dc14ade9c7a1291a429395bd0a6745af32ce62620",
        "run_k4_seed1/report.json": "c8a13d970aa5ba5fbd97e4114f91080e81e926694260c09966cad42a0387f6bc",
        "run_kall_seed0/batches.jsonl": "46e3ef49fb399c2b83c90cbb63859e3591ee7358f7ed427b0295e44987da077d",
        "run_kall_seed0/iid.json": "b516e9f33107a017a797b4e219932b57123bb10543ced88ee4eee503a6239e24",
        "run_kall_seed0/report.json": "8df6146d5ebba1dd2107f94376fe77c253e6786260506fc56a1d7f87a179754e",
        "run_kall_seed1/batches.jsonl": "69ddb2ff595371fd1fddfeeaf2df1fb315cbb289760b9df8984dd7f830191236",
        "run_kall_seed1/iid.json": "db94c955e4c8fa66b5789d76002b88bd50a3961ccb1c2d18d2851f19cacb257f",
        "run_kall_seed1/report.json": "8073d76f2bb379f369e052d8ad012a541b32a512c72a4d70059de792a4eb65b8",
        "sweep.json": "e6eb47022ce223eed63d7d69690272528f8d0449149cac2d9b2286691b5724a5",
    },
    "u16": {
        "comparison.csv": "01dd18a5a8d41f1bfd72f172f26630dd8ba50e81ec385f946f23d7572b9ba04b",
        "comparison.md": "9eeb3547cd74336da5e32b2b042b9ab3fe400a41a6b90fa87e5603a67b76ac53",
        "corpus.tsv": "15c208979b7bba8fe97f331e5c647ad7e89933d2f8169bc44163985fdfa62f8d",
        "run_k1_seed2/batches.jsonl": "03791ddaae1c719821c9c8fcd8045b9f23f3a74fe0b68a191db9110fdd8ab6d4",
        "run_k1_seed2/iid.json": "2ea9399802f8fbbbc1d3f2c5f12bec3ff5947ea0d1faa754ec54b43d3eb6ac61",
        "run_k1_seed2/report.json": "9f540a6b2a3b453d887394991fb17cde3b400e42802babea3c94db79c8058b6a",
        "run_k3_seed2/batches.jsonl": "027b30db2ed1d76a178a560487ed7e48533b71705d936650a1d25b085f23acc5",
        "run_k3_seed2/iid.json": "1fc081e3962d3a81f966bffec51faf7fabe053ae2ff2bb9b7d77eb93288a1cc3",
        "run_k3_seed2/report.json": "ae44bff9fbb637d78534b4e07d6015eae259e6be5d0b91cdc4f3d21fbc5b969b",
        "run_kall_seed2/batches.jsonl": "24fb4ae01f9cbe3d0f2870d573d7016e882ee53bb24316cbcbd84e88512377a4",
        "run_kall_seed2/iid.json": "6b95a77a1cdea363a1043cd7ff169b7563aaf189d406ba7bc59b6c29b8fc2217",
        "run_kall_seed2/report.json": "17a88919224fef3831b41e18e050edb792c92104221212829d9e1253a43c2770",
        "sweep.json": "127f07d4a9f10c79ccf41c395e04f2f8ab6705acd03f72f8f80b84d15671b43d",
    },
    "u32": {
        "comparison.csv": "1cce4eea6e0f760d8d005f77c34692427b1c70638c447afc3d1ac52a79218115",
        "comparison.md": "40be342a97b6e6f5c3e719981416a5bd4c2612d4e4de63f4c1fc83f8fc26616c",
        "corpus.tsv": "38738532703482005f55791623bd08c5173563e5be056a5cba2dac051fcfec76",
        "run_k1_seed0/batches.jsonl": "e46d1680ad5c43c0ecfafbf37554b748f04e19e2128408b1bcd246a064dca6fc",
        "run_k1_seed0/iid.json": "46bccad29a29a4ee03f207249493f1d6b7067d27ffbea6e5e3d7e68863fb784d",
        "run_k1_seed0/report.json": "88d6da11411a05cee7062b12189cba81eeca90255511d5549c256123701236cd",
        "run_k5_seed0/batches.jsonl": "d11fb1124634834797cf57fa4439fd7e12282db891729f915c2baa1f43617373",
        "run_k5_seed0/iid.json": "1bddff27c3becfd0eb4c43b297a46b59ef0626bd1ef9b53850c91a64e7a62f85",
        "run_k5_seed0/report.json": "cc5232f1ffc09d0ade16485b78f8fb28cc068b84ac4c714d4734dbaae30e801e",
        "run_kall_seed0/batches.jsonl": "675e762c365c04b656cc200302b840f09336ecb5b4ca0796c608280f110cac99",
        "run_kall_seed0/iid.json": "0aac5971afd7eb82ffb7c725e5ba90245e21be0800d263a32e878f54ca696cc4",
        "run_kall_seed0/report.json": "fffdcf6e39fade226243562fb96f77c7fc9b67c784c04fa55246c0cd714a437b",
        "sweep.json": "1a9c3fcf70cb9a41586226bc9b137d84be06cab58634f6a4f679cfa15f6e9ebf",
    },
    "corpus": {
        "comparison.csv": "43261dd1780b306e1670b8211458b65f9bfc91d2aac88a5df3630981b6464a4b",
        "comparison.md": "eac13d6676a67c749e60ecbb73ad3d175bfb336b145b72963fe1e73ee3ab5405",
        "corpus.tsv": "bba70edb0c6fb571d061bb304e62e1ed7057c0c02e5edcae4512de6d97bc3e82",
        "run_k1_seed0/batches.jsonl": "566fbc4fb8b3e07f01fc968711b5a9083055559c457441de1355c46d275d4146",
        "run_k1_seed0/iid.json": "6fe950dc5eac2cb70e6f6c2c9774eab94a0dac25124766060ed491016f9ab4b9",
        "run_k1_seed0/report.json": "96e2d7cb7fc3e05c3d61bafab5f6294b1f7cdacbebd7a12546b88dd928fe3a57",
        "run_k1_seed1/batches.jsonl": "c81fd1d6ac666ffb415b293d4e029d963c4957e6cc0133c2233dc426f68df938",
        "run_k1_seed1/iid.json": "041fc677c557c1fd3251fd63460a0040c701a582feca85694ef9c6d45b7ced69",
        "run_k1_seed1/report.json": "c6774896c8e0f1cd698a83ff7f6ae6d2ab9081976cd4552ac56b8ae0fc536e06",
        "run_k5_seed0/batches.jsonl": "774a8d8e2f9e03717675d71876c0242cef8bbd378f5d3108efaac5e2767280e2",
        "run_k5_seed0/iid.json": "0548b56462224dff4ae06b6db129fbcc6701610686a55065630c60a579897968",
        "run_k5_seed0/report.json": "7ecbfada5481de1f805ee3488e1a964d4588403064b4766ccd8dd860bf341de4",
        "run_k5_seed1/batches.jsonl": "dd0a5c6644c0f19ccb0fa5e09157c213393f21e9acef29e41b732de8c098d043",
        "run_k5_seed1/iid.json": "2e16ea1b94296448a460df451b351aea1e1f8ee4d8ad7d7f3222a6485a8f6aae",
        "run_k5_seed1/report.json": "1f6bd3692fd93f9081753103bd097f38a03cc2cb3ab273e05b7f966e7fe7b8fc",
        "run_kall_seed0/batches.jsonl": "0310f7a7778182a39d6b13a432a683d3e7e039168914bde1ab5f3b1dc47bf670",
        "run_kall_seed0/iid.json": "343dac569cd0502bc2cc55990fb5d42af3ede4592851374acfe87ecd623acd1f",
        "run_kall_seed0/report.json": "31d1d9b89331a9fada5186b0790390111a995951c144fa73cd346f7f67769fc9",
        "run_kall_seed1/batches.jsonl": "fcc9be1077809fc1515ac91c4273a2ca7d298ecb6b0c5c3e8463f909aae9e87b",
        "run_kall_seed1/iid.json": "7ee658b29ae48d659578f0204c69d821c3fd86e2cfc1152c97a1fd1ac5ef3750",
        "run_kall_seed1/report.json": "d4316072f670fdf313aab644e43196aa86a1680080cbc3147eb826f17d9f8a97",
        "sweep.json": "c0589cc8efa438fa439feb5568c9f1188c4631dc19d0bf2953c06c5ea77b11d3",
    },
}


@pytest.mark.parametrize("name", SWEEPS)
def test_simulate_writes_the_pinned_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["simulate", *SWEEPS[name], "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert _digests(out) == DIGESTS[name]


def _corpus_text() -> str:
    """300 lines of lengths whose widths cycle through 1 to 7 digits, the two
    columns out of step; wider lengths would overflow the int64 batch costs."""
    rows = [(1 + i * 7919**3 % 10 ** (1 + i % 7), 1 + i * 104729**3 % 10 ** (1 + i * 3 % 7)) for i in range(300)]
    return "".join(f"{src}\t{tgt}\n" for src, tgt in rows)


def test_simulate_from_a_corpus_file_writes_the_pinned_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("input.tsv").write_text(_corpus_text(), encoding="utf-8")
    argv = ["--corpus", "input.tsv", "--m", "8", "--k", "1", "5", "all", "--seeds", "0", "1", "--epochs", "2"]
    assert main(["simulate", *argv, "--out", "sweep"]) == EXIT_OK
    capsys.readouterr()
    assert Path("sweep/corpus.tsv").read_bytes() == Path("input.tsv").read_bytes()
    assert _digests(Path("sweep")) == DIGESTS["corpus"]


def _digests(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }
