"""Pinned SHA-256 digests of every file the CLI writes at seed 0, and of
the theory report at seeds 1 to 11, 201 and 203 to 205.

Covers `compare` on the three shipped configs (per-run CSV/JSON and the
comparison CSV/TXT), `theory` and `angles`. A change meant to keep
behaviour must leave every digest as it is; one that moves a trajectory,
even in its last bit, fails here. No file holds a path, so the digests
hold under any `--out`, relative or absolute.

The digests hold for one float64 platform: numpy 2.4.6 dispatching its
AVX-512 code (X86_V4 among the SIMD extensions numpy.show_runtime()
finds), and glibc 2.36 with the FMA variants of its math functions,
which supply sin/cos on the 2-D toy surfaces through Python's `math`.
One numpy build rounds exp, log, arctan, tan and tanh differently at
another SIMD level. With numpy held to its AVX2 code (X86_V3), 8 of the
48 compare and angles files move: the angles CSV and JSON, the
moons-dycent and moons-adam CSVs and JSONs, the moons comparison CSV and
the toya-diffgrad CSV, so the angles, moons_compare and toy_a_compare
cases fail. At numpy's X86_V2 baseline 11 move: those 8, the
toya-angulargrad-cos CSV and JSON, and the toy_a comparison CSV.
tests/test_simd_dispatch.py checks both lists at each level the CPU
reaches. glibc's non-FMA variants move the toy_a_compare and
toy_b_compare files. A numpy
release, C library or CPU whose results round differently in the last
bit gives other files. Re-pin only for such a platform change, or a
change of behaviour that is intended and recorded in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from dycent import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

EXPECTED = {
    "toy_a_compare": (
        ["compare", "--config", str(CONFIGS / "toy_a_compare.ini")],
        {
            "toya-adabelief-005d59a8c9.csv":
                "79173ccb277de450e616aee09280cc8c92a04c3f9e5ccc4e54093f8162a3f06c",
            "toya-adabelief-005d59a8c9.json":
                "95a999f24d54b34dbbe10e55bd30b1777d6ab6ac1b76feeabd5039170b0f253e",
            "toya-adam-8fd1f0e780.csv":
                "e989bdbffd7ccccb6fbbe7fc15df5f61486a94b9b32a01ddd11f871ca884d100",
            "toya-adam-8fd1f0e780.json":
                "25953152806e8f15cc45d202a4287bba92a0bd5f5824ae049f5a82e238ee20b8",
            "toya-angulargrad-cos-0c3002876f.csv":
                "51270d2cfd735fd43f9753d7f6be3a7bfaa8715fbeaa755e7984013d007578ad",
            "toya-angulargrad-cos-0c3002876f.json":
                "616684d9eca3f6ac724fefeedeea9f6e922798f9e9435ae39530a1beb39a00ab",
            "toya-angulargrad-tan-0eb31a463e.csv":
                "e12fc68529f5462b13bac8efddf596569f9009702cc625ff396db27aea60b815",
            "toya-angulargrad-tan-0eb31a463e.json":
                "1540b8e123d401bdfc397edf6ff9687cd3d4cdc5e73426808754c91086e86127",
            "toya-diffgrad-c95852408b.csv":
                "9c388096535e448fd259f6ae9255f537599f181e380583b03f81cf75e6865d64",
            "toya-diffgrad-c95852408b.json":
                "4b4295d8844dc5eddd035f5528915dc0aba5284799e1a4d59c1813b4d1b00239",
            "toya-dycent-comparison-41c573cc14.csv":
                "6d3baea3c238320f2f53ce8f8b896b21b42d594bfa798787a330e02fba37c042",
            "toya-dycent-comparison-41c573cc14.txt":
                "403efd3f70edd8fc1b1ce19479e724146562030526dcef64bf6c60d56a68021d",
            "toya-dycent-e7086e68f3.csv":
                "66658d2618b8d5af528a859370700ea02b7029c26dce6c218dc042a24f0ceb15",
            "toya-dycent-e7086e68f3.json":
                "1bc898c3bb368a6ca2d2894debd7bfd29fe256e9981c5e7a78ce147003d196a2",
            "toya-rmsprop-64f964f1bd.csv":
                "062149547de4bb20e6e6ece4e1d84857e904d49fb1b252b86238e469d2171f6a",
            "toya-rmsprop-64f964f1bd.json":
                "6c242ca7076deb943969269d14817a92c2eca3b3811b93aea09b9c016381fc69",
            "toya-sgd-8d085d4757.csv":
                "1f43361e3ccfb8e2a37e85d832a9eaa65c026efad8ed73cadb2f90ee03a5bd5c",
            "toya-sgd-8d085d4757.json":
                "c52e458ec1c0f5f8bbb85fb5df9ee32185e60e5ef20c3f8094e5247a7b6d2639",
            "toya-sgdm-6e01551358.csv":
                "703d7552e60bf1168d38fbb3312321f518317f9969a43c94008ec5b3d44ea0c6",
            "toya-sgdm-6e01551358.json":
                "19f0f3708fb92724a0e9fa2beafe3c04fa0cac1fdc59dffba1e8e417ec28eb53",
        },
    ),
    "toy_b_compare": (
        ["compare", "--config", str(CONFIGS / "toy_b_compare.ini")],
        {
            "toyb-adabelief-12cbb6ef93.csv":
                "9aa8b7413d0a30d1039521f021163b148f04870d67f522793d9d8198f139135a",
            "toyb-adabelief-12cbb6ef93.json":
                "39d714182f386d1b889dd60ad5d69367d2254f622cf80bfa671e54da7bbe42d0",
            "toyb-adam-a59e6d08fd.csv":
                "fca6558f526acffc55f06a1bee3e37601376cce1f3c7d1d1481a5ea8a93c986f",
            "toyb-adam-a59e6d08fd.json":
                "71d26de02637f137296c4a0943d2ebd73c0447a6934f8475bdd3ca3722375f91",
            "toyb-angulargrad-cos-e9f218541a.csv":
                "1501f47b9ce7339ce043e0c6fd797d90240289e0a5b27431d212e7be39238d09",
            "toyb-angulargrad-cos-e9f218541a.json":
                "2be22660844c4abb76936787e9b2c3a9a16b2aca60cd89994d36108bea4a5b8b",
            "toyb-angulargrad-tan-60d52b9e30.csv":
                "2c4025f052b2e351fdf3d5d071038d4450d4e671f79cae68c1d57226765a86a3",
            "toyb-angulargrad-tan-60d52b9e30.json":
                "d99b4d713e7f5e12b03d5acb578d2a5bf16615eb30564eafad4687519d83bd75",
            "toyb-diffgrad-00d271df09.csv":
                "0188a2bd4f7fb9ffaca88e9cb5108f83c49367e4190c6da819bd537fc914f2be",
            "toyb-diffgrad-00d271df09.json":
                "0552b6c1ca8b9f34a8c6a7f24c2083ba503ecb2592cc170b361e3fd4bd4c22cc",
            "toyb-dycent-c7969d05af.csv":
                "a1d7c41cff121b112d4dd6acdeee2f10b732438ef2b4a375313df0112db36fcd",
            "toyb-dycent-c7969d05af.json":
                "1f15da36073f1a6111ad0c40d16acef7ef044981711f6619554b8b5b334dc911",
            "toyb-dycent-comparison-1945750993.csv":
                "6250fe4e1cf9feb8dcf396ee5f25159c6dcc9dbbe4eedd4c48fc58d8867190cf",
            "toyb-dycent-comparison-1945750993.txt":
                "dbbba43d21642b9dcf1cd915ac5bfb33eaa8918bc481d043c399978d7a89fc5c",
            "toyb-rmsprop-c1899f9256.csv":
                "deac12d9325d9899d813c3f20c9a3cfeec54cb2683ea2f9b9da39a24fc74970e",
            "toyb-rmsprop-c1899f9256.json":
                "405645d356d610e8fae5001246de2cabc9a805e024074aad3ea69d400c66264f",
            "toyb-sgd-ceb6df9337.csv":
                "cebf46ff731edaf09925af4629dfd9d449f12df828e285612fa8f2d20f51de5b",
            "toyb-sgd-ceb6df9337.json":
                "949adc899e450c22299a81e17822ce9eae6481654b86eb21c91871d8da778b83",
            "toyb-sgdm-0cd6981fef.csv":
                "a4f438f4dae0dca10dc3c35f3f82d6262996ef9d13cf0fb0b8c7a6fe54ca3533",
            "toyb-sgdm-0cd6981fef.json":
                "694e29308071c57b14d5290647be6816aa652b2ad59ede29ce8273fbe8d22edb",
        },
    ),
    "moons_compare": (
        ["compare", "--config", str(CONFIGS / "moons_dycent.ini")],
        {
            "moons-adam-a865733347.csv":
                "813bdfec0126ee15866102111238e7b8b26a20b3ca54b6a69ca44fc88b756a9d",
            "moons-adam-a865733347.json":
                "688722b5149f2d75f685cafe70d220186e538a5b2f69db08c8c313f67a39190e",
            "moons-dycent-comparison-88099c2b91.csv":
                "4c98c01c7a17ff97a4ce16c211860d3e5327f4ca202505e38230fb844d2fdaf1",
            "moons-dycent-comparison-88099c2b91.txt":
                "57928ec31d9724f80f1dff6007ad825c03d661f9225e31b1b471157c7bbc6ee0",
            "moons-dycent-e5952d4977.csv":
                "df49703aad0f0a45e01869def8764fe6575e25379142ddaef3308f4f7126f8e3",
            "moons-dycent-e5952d4977.json":
                "5968aa0755071d7d7dd4be0215bb75448a617261ec6c3485b0fbd70b218236e1",
        },
    ),
    "theory": (
        ["theory"],
        {
            "theory-0.json":
                "74b5fc7d6565ee2bf1e47d564ceca80b351f5a96957805b4296e986e698c2b2a",
        },
    ),
    "angles": (
        ["angles"],
        {
            "angles-dbe2609215.csv":
                "ffc91f3bc1323465090a9f35f656af4bf525affd553aadda6a337b9bef221e33",
            "angles-dbe2609215.json":
                "65645e4cc45683fb8cf9227b1fe7ea2748a8a65ea2462a37bd6b50bbae907ab2",
        },
    ),
}

# theory-<seed>.json at seeds 1 to 11, whose starts differ from seed 0's, and at
# 201 and 203 to 205, whose isotropic runs reach gradients near 1e-160, where
# squared norms leave the normal range
THEORY_DIGESTS = {
    1: "5181463dce915568b106ab6e87125061666d5e182b594af1b0b2e000eb06a71d",
    2: "dd4206774819a21e0a3b2e7bffc4eb96bc18c9f062a789d629a2c311027d9fe5",
    3: "517f30782c6e2cd4ff727840c94b162e60c41b70bc49b67f05ba9489aea791ae",
    4: "6bfc1816ab23a8ef4417f79510dc70f6b2457c74f6c0fd42a97204bdea4007bd",
    5: "c4149f84cffc20b8c740b5fb063825bd36809ac6a098b04c5ba1d59a7b9d1efc",
    6: "9ff2a152fd1274dbf06dbf71385084b6874b84c4284e2f0a40b59d9c91ed56de",
    7: "7be11b271987e7392a28325752bb5b5a3b7405cc52c19c26fc6f25a2891c71a6",
    8: "9e1e76d5b0d6e0b64fdad6d2004fe1d798652558cf4c6bce00f794f66ef04021",
    9: "91dd17960ac59fd15561827840bca26b7c396cbf8a87b62dcb1ed329ce624b38",
    10: "defabb71d0a214b76039d0acef99ba368cbaacd2ae3b8ac90ee59c984905e08f",
    11: "f950adf961e6252ba35873dd6ddf361b7421bc60c02b0947930a87a11a28baa4",
    201: "930cd69aabc42e5119a0b9291207033987d7b699d973747f9bf661abfddd3b6e",
    203: "153143ee4b662e253ef1454cf6f6520c5298e94e218d69d6388444e900319023",
    204: "a45ea1380bc163974509a62e9021ed7fa9df39b0903d172a925ac81f0ad169f7",
    205: "5260d73a174c23f76e71d3e3755e02af6156706a4d14c34e6310e32c22b17612",
}


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_digests_at_seed_0(name, tmp_path, capsys):
    argv, expected = EXPECTED[name]
    assert cli.main(argv + ["--seed", "0", "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert _digests(tmp_path / "out") == expected


@pytest.mark.parametrize("seed", sorted(THEORY_DIGESTS))
def test_theory_digests(seed, tmp_path, capsys):
    assert cli.main(["theory", "--seed", str(seed), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert _digests(tmp_path / "out") == {f"theory-{seed}.json": THEORY_DIGESTS[seed]}


@pytest.mark.parametrize(
    "argv",
    [["compare", "--config", str(CONFIGS / "toy_b_compare.ini"), "--iters", "3"], ["angles", "--iters", "2"]],
    ids=["compare", "angles"],
)
def test_every_file_is_the_same_under_any_out(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    written = []
    for out in ("out", "x/y", str(tmp_path / "abs")):
        assert cli.main(argv + ["--out", out]) == cli.EXIT_OK
        written.append({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()})
    assert written[0] == written[1] == written[2]
    assert len(written[0]) == (2 * 9 + 2 if argv[0] == "compare" else 2)
