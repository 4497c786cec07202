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
        "run_k1_seed0/iid.json": "0b0bd31fb6a2f763a5f43388650a6ab8e0955ad8cd437b1f99a5f8391f964d09",
        "run_k1_seed0/report.json": "455d6209f297d58818c9f8798ea3802b535680641e8cd16d9982c051ee9790af",
        "run_k1_seed1/batches.jsonl": "3f81670d0a6236bb59076c5205306bc65f19efe5df29de38688f6bcecf9f67c8",
        "run_k1_seed1/iid.json": "081596f2f8a2dec60a11a5408d6a7ad2954e41f4403a552c7f14e454a96b3702",
        "run_k1_seed1/report.json": "484e8d5b025971e4b6d14b1358594decef9fc0237bcca2665f8a562bb7cf910e",
        "run_k4_seed0/batches.jsonl": "f3a0fca0a13373634356bb521007e028717f029757cf620a05fc49a33cb88b2d",
        "run_k4_seed0/iid.json": "ff5d5da41c6cee6d043c0c5768384cd75201ef16c3e2014b29a6943bc89b498c",
        "run_k4_seed0/report.json": "caed98cf0f5d8a0b839f7283fd97b5a50abd7f9db026d3bf471c7d1c64264a14",
        "run_k4_seed1/batches.jsonl": "85de9550050aa64b1346431c0f588b5dcbbd106f67cd4fa74a6cc1f97383606f",
        "run_k4_seed1/iid.json": "14088854cebb91f1812c4de8d8f75d985677d6b71b5461bb3423ce377a0d74ee",
        "run_k4_seed1/report.json": "4a4efba7f6c4f6aed10064827c2ae26a401d0eb2d3a38b433d60a8207309edd2",
        "run_kall_seed0/batches.jsonl": "46e3ef49fb399c2b83c90cbb63859e3591ee7358f7ed427b0295e44987da077d",
        "run_kall_seed0/iid.json": "5b1a8a4f96e6e823cfcc6b5dbf881c34f6141c84ab9e18082b38f0b4b13d99bf",
        "run_kall_seed0/report.json": "9745f0699fd3c5256079c0de762daa7881e576022bf947fac6c1a3d963ea20a3",
        "run_kall_seed1/batches.jsonl": "69ddb2ff595371fd1fddfeeaf2df1fb315cbb289760b9df8984dd7f830191236",
        "run_kall_seed1/iid.json": "5b1a8a4f96e6e823cfcc6b5dbf881c34f6141c84ab9e18082b38f0b4b13d99bf",
        "run_kall_seed1/report.json": "5e6536069b6423cef1715901b75036538cd73db664e9fda285b5972624424a23",
        "sweep.json": "12755111c965b61038cc4c30d09d963b477313309e9812550031f5e4b0e6d730",
    },
    "u16": {
        "comparison.csv": "01dd18a5a8d41f1bfd72f172f26630dd8ba50e81ec385f946f23d7572b9ba04b",
        "comparison.md": "9eeb3547cd74336da5e32b2b042b9ab3fe400a41a6b90fa87e5603a67b76ac53",
        "corpus.tsv": "15c208979b7bba8fe97f331e5c647ad7e89933d2f8169bc44163985fdfa62f8d",
        "run_k1_seed2/batches.jsonl": "03791ddaae1c719821c9c8fcd8045b9f23f3a74fe0b68a191db9110fdd8ab6d4",
        "run_k1_seed2/iid.json": "49f034c006ec9804b527682beec9513c3519f18233a4217dadeff9854bd673fb",
        "run_k1_seed2/report.json": "aada3f521e918942dbbb8e96dd609c90f2d84222c5bfa2f2d8c08420a0519e59",
        "run_k3_seed2/batches.jsonl": "027b30db2ed1d76a178a560487ed7e48533b71705d936650a1d25b085f23acc5",
        "run_k3_seed2/iid.json": "dd6d1fcce8678fcb1b145fd31cb5af5719bf4d6311a49d1b5ed0ea4adb6d8482",
        "run_k3_seed2/report.json": "e02fba59d678861638dee491c3eb1ffe6d6f27674e509536711de5523ea895bd",
        "run_kall_seed2/batches.jsonl": "24fb4ae01f9cbe3d0f2870d573d7016e882ee53bb24316cbcbd84e88512377a4",
        "run_kall_seed2/iid.json": "ce11064e1e961bce0fba938e4e180f1852efb4f6b2b81738b2a14f0eee527813",
        "run_kall_seed2/report.json": "2f14d986b4611da98bffa4c2c7c7d0e5afa7726dfa67575ac7a1b4fa24324e3e",
        "sweep.json": "712ac035d8af93b617e0eb60ca04726cd95c68d6fbfa7d79390cfa718a7cf5c6",
    },
    "u32": {
        "comparison.csv": "1cce4eea6e0f760d8d005f77c34692427b1c70638c447afc3d1ac52a79218115",
        "comparison.md": "40be342a97b6e6f5c3e719981416a5bd4c2612d4e4de63f4c1fc83f8fc26616c",
        "corpus.tsv": "38738532703482005f55791623bd08c5173563e5be056a5cba2dac051fcfec76",
        "run_k1_seed0/batches.jsonl": "e46d1680ad5c43c0ecfafbf37554b748f04e19e2128408b1bcd246a064dca6fc",
        "run_k1_seed0/iid.json": "11bbb2c7e55593452b2af2cb6bda97b1f3cb419965e1b6514eaab0e4dd64816e",
        "run_k1_seed0/report.json": "d6b27b7d40cfa7713f62f5805cb819675bb6c8c626ef5095c47f30ce9be1629d",
        "run_k5_seed0/batches.jsonl": "d11fb1124634834797cf57fa4439fd7e12282db891729f915c2baa1f43617373",
        "run_k5_seed0/iid.json": "f548a76deaa01f9ab39473dae7c99dae279f84b7c1d5250ff76ef6094bc82de5",
        "run_k5_seed0/report.json": "9e3d4029f4f6ded421ef444a047c30ac8d7a7c9942fde453fe066dddbf310a54",
        "run_kall_seed0/batches.jsonl": "675e762c365c04b656cc200302b840f09336ecb5b4ca0796c608280f110cac99",
        "run_kall_seed0/iid.json": "c8bceff82959d051d0b53dd34746c109cc4549f9ffeff1555d093cd0e479c322",
        "run_kall_seed0/report.json": "66b34e5ba19bf8c1ce3a9d896b18a9f5365767210b965f706d5fa8e7bfc009ff",
        "sweep.json": "8b2cb0df4d0f5cfd33cc47a48bc8d99a48bce7271ed1691a9644d46576b462dc",
    },
    "corpus": {
        "comparison.csv": "43261dd1780b306e1670b8211458b65f9bfc91d2aac88a5df3630981b6464a4b",
        "comparison.md": "eac13d6676a67c749e60ecbb73ad3d175bfb336b145b72963fe1e73ee3ab5405",
        "corpus.tsv": "bba70edb0c6fb571d061bb304e62e1ed7057c0c02e5edcae4512de6d97bc3e82",
        "run_k1_seed0/batches.jsonl": "566fbc4fb8b3e07f01fc968711b5a9083055559c457441de1355c46d275d4146",
        "run_k1_seed0/iid.json": "e4109da8c326312f7d3d9d874b0068f7a84cc4e2f9276347bd8da0c1da670f29",
        "run_k1_seed0/report.json": "084e7d2cc0c3a9bf9d771967e6aacbee1a9784ae8e2f84d7dcbf5d6598b1f545",
        "run_k1_seed1/batches.jsonl": "c81fd1d6ac666ffb415b293d4e029d963c4957e6cc0133c2233dc426f68df938",
        "run_k1_seed1/iid.json": "61e1cb2b0acdd031a4000011efba5d338d3012ee641af4f7773bb19fb8d5a859",
        "run_k1_seed1/report.json": "085f63e25e1d0d1be04bb899991bc7a13836cc10dea696647ccf66bd0ff58c25",
        "run_k5_seed0/batches.jsonl": "774a8d8e2f9e03717675d71876c0242cef8bbd378f5d3108efaac5e2767280e2",
        "run_k5_seed0/iid.json": "e0fceed0aeac3ac5c366f228b65ca4093c5051ddeae6119307f8725fd9b67459",
        "run_k5_seed0/report.json": "67f545b47ff0122bd9c440de6a013a934b3cec8f29ea0dc911d0fc54ce34a690",
        "run_k5_seed1/batches.jsonl": "dd0a5c6644c0f19ccb0fa5e09157c213393f21e9acef29e41b732de8c098d043",
        "run_k5_seed1/iid.json": "a534b7d42c16122e3fabd3598e8c50b693713f7c02e77908d1d6783a43a62f4e",
        "run_k5_seed1/report.json": "dfb8fa4c57b273a3b69f83d3b6a826da25a174e182b678736d3e8411777511e1",
        "run_kall_seed0/batches.jsonl": "0310f7a7778182a39d6b13a432a683d3e7e039168914bde1ab5f3b1dc47bf670",
        "run_kall_seed0/iid.json": "ec16f6fc293ab310c6836f531570471b617c6ecb5d16aa8c2a587402d198c341",
        "run_kall_seed0/report.json": "fe6b0b534e9db1568e6beab7b9799bb252beb7b82ca171d90bfc6a319dab72d6",
        "run_kall_seed1/batches.jsonl": "fcc9be1077809fc1515ac91c4273a2ca7d298ecb6b0c5c3e8463f909aae9e87b",
        "run_kall_seed1/iid.json": "ec16f6fc293ab310c6836f531570471b617c6ecb5d16aa8c2a587402d198c341",
        "run_kall_seed1/report.json": "e416cf90384967bafc793fdb608cc0fb86b81788e02f40bbdd0bf4a3da314ab2",
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
