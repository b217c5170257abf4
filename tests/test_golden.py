"""Golden stdout: the sha256 of stdout and the exit code of each command.

The digests pin the exact bytes the command line prints on small generated
ER and SF networks, so an internal rewrite that changes any output fails
here. A change that alters stdout on purpose must re-record the affected
digests and say why.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from netcontrol.cli import main

GRAPHS = {
    "er": ["generate", "--model", "er", "-n", "1500", "-k", "6",
           "--seed", "1"],
    "sf": ["generate", "--model", "sf", "-n", "2000", "-k", "8",
           "--seed", "2"],
}
SEEDS = (0, 3)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _digest(code: int, text: str) -> tuple[int, str]:
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Generated networks plus, per seed, the SF network after step one."""
    work = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, argv in GRAPHS.items():
        code, text = _run(argv)
        assert code == 0
        paths[name] = work / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    for seed in SEEDS:
        code, out = _run(_saturate_argv(paths, seed))
        assert code == 0
        added = "".join(f"{a['src']}\t{a['dst']}\n"
                        for a in json.loads(out)["plan"]["additions"])
        paths[f"sat{seed}"] = work / f"sat{seed}.txt"
        paths[f"sat{seed}"].write_text(
            paths["sf"].read_text(encoding="utf-8") + added, encoding="utf-8")
    # The ER network without its "# nodes:" header (integer labels in
    # first-appearance order), and with every label prefixed "v".
    lines = paths["er"].read_text(encoding="utf-8").splitlines(keepends=True)
    body = [line for line in lines if not line.startswith("# nodes:")]
    paths["er-bare"] = work / "er-bare.txt"
    paths["er-bare"].write_text("".join(body), encoding="utf-8")
    paths["er-v"] = work / "er-v.txt"
    paths["er-v"].write_text("".join(
        line if line.startswith("#") else re.sub(r"(\S+)", r"v\1", line)
        for line in body), encoding="utf-8")
    return paths


def _saturate_argv(paths, seed):
    return ["alter", str(paths["sf"]), "--component", "largest", "--to",
            "smc", "--seed", str(seed)]


def _cases():
    cases = {f"generate-{name}": (lambda p, argv=argv: argv)
             for name, argv in GRAPHS.items()}
    for seed in SEEDS:
        s = ["--seed", str(seed)]
        for graph in GRAPHS:
            for cmd, fmts in (("analyze", ("json", "tsv")),
                              ("classify", ("tsv", "json")),
                              ("inputgraph", ("tsv", "json")),
                              ("components", ("tsv", "json"))):
                for fmt in fmts:
                    cases[f"{cmd}-{fmt}-{graph}-s{seed}"] = (
                        lambda p, c=cmd, g=graph, f=fmt, s=s:
                        [c, str(p[g]), "--format", f, *s])
        cases[f"alter-saturate-sf-s{seed}"] = (
            lambda p, seed=seed: _saturate_argv(p, seed))
        cases[f"alter-cover-sf-s{seed}"] = (
            lambda p, seed=seed, s=s:
            ["alter", str(p[f"sat{seed}"]), "--component", "largest-smc",
             "--to", "ic", "--mode", "full", *s])
        cases[f"alter-single-sf-s{seed}"] = (
            lambda p, seed=seed, s=s:
            ["alter", str(p[f"sat{seed}"]), "--component", "largest-smc",
             "--to", "ic", *s])
        for node in EXCHANGE_NODES:
            cases[f"exchange-{node}-sf-s{seed}"] = (
                lambda p, node=node, s=s:
                ["exchange", str(p["sf"]), "--node", node, *s])
    for graph in ("er-bare", "er-v"):
        cases[f"analyze-json-{graph}-s0"] = (
            lambda p, g=graph: ["analyze", str(p[g]), "--format", "json",
                                "--seed", "0"])
    cases["sweep-sf"] = lambda p: ["sweep", "--model", "sf", "-n", "300",
                                   "--k-list", "2,6", "--replicates", "2",
                                   "--seed-base", "4"]
    cases["sweep-er"] = lambda p: ["sweep", "--model", "er", "-n", "300",
                                   "--k-list", "3", "--replicates", "2"]
    return cases


EXCHANGE_NODES = ("569", "258", "7", "nosuch")
CASES = _cases()

DIGESTS = {
    'alter-cover-sf-s0': (0, '8c0e69a63eb5d34952f6a79c44484ced4e6bbc729ea782bb980b54bfaf201ac2'),
    'alter-cover-sf-s3': (0, 'ebce46dab1f1d5596b12eb107d263953eb829a2cc27cf8dc6b621ac9a2b05014'),
    'alter-saturate-sf-s0': (0, 'c95bc7d073a166e050ee4ba23fdb28462d26f745a8b97c63438ed90c3a886e77'),
    'alter-saturate-sf-s3': (0, 'd3af535d497213e0a841634bf5f9b99e3c3af84183f0da0bbdba6ce631b0d941'),
    'alter-single-sf-s0': (0, 'c0914b9282065da8c281f4c7c861127a6ed80b24e7505c47fb32b87a1a7e6008'),
    'alter-single-sf-s3': (0, '43c117925a5c5d4d2f600aa7caf1fea55781efa6de655c48b025b43480bcc91c'),
    'analyze-json-er-bare-s0': (0, 'fae9083c7cdb3e9e1e628a8a6ccc91b455823f9c6e1638e2894044dfb8dc46f8'),
    'analyze-json-er-s0': (0, '7b3bd8016677b410484182d8d516ec37b18ee6486375fda2ce81b6b2016d63eb'),
    'analyze-json-er-s3': (0, 'fe1c4e21bc4594c2ea0b86072b38e2ed0306d98b58568ae85a2167a603310fc5'),
    'analyze-json-er-v-s0': (0, '78429a61b1c179f754971e0934cf559e5323e002c2ad0f3650d13faae55ee08c'),
    'analyze-json-sf-s0': (0, 'a33c622f8b4c6d14392d48b918ebd0e1bfcedb5aed61d36a823f31d1e4440170'),
    'analyze-json-sf-s3': (0, '9195af825796b1793511161718987af7d9966513017f24a0ec84bcf972368d32'),
    'analyze-tsv-er-s0': (0, 'f76fe3879a6d3a48b9a0656db979661b54fdae30b8cf97d28eb44e2c22260b3f'),
    'analyze-tsv-er-s3': (0, '01b8134d0332e3e60ae8f54e58112248896c9a21218e0bda41b4777c370092a8'),
    'analyze-tsv-sf-s0': (0, '590638d314b6b290f6fa8dc65bd237d0c11987b59264506ad288198b538bc438'),
    'analyze-tsv-sf-s3': (0, 'e7b5441b326e7559fa351b4806408ccfc45315106add0bd53f9d375c8b7ab450'),
    'classify-json-er-s0': (0, '4f8352304662a6ebdc04c37aa6cea9c9b891ddb083a8e4ce9a6bb0363c33716f'),
    'classify-json-er-s3': (0, '4f8352304662a6ebdc04c37aa6cea9c9b891ddb083a8e4ce9a6bb0363c33716f'),
    'classify-json-sf-s0': (0, '6180ebd8a0936e50bfe017b562823d9c18352e16ef1c6d9a0ceaaeba96fee65e'),
    'classify-json-sf-s3': (0, '6180ebd8a0936e50bfe017b562823d9c18352e16ef1c6d9a0ceaaeba96fee65e'),
    'classify-tsv-er-s0': (0, 'e7441d3c789f072c37a4b0a452f2c5c78b9e3a72fbfeb7ff8034fbf6f02d45f1'),
    'classify-tsv-er-s3': (0, 'e7441d3c789f072c37a4b0a452f2c5c78b9e3a72fbfeb7ff8034fbf6f02d45f1'),
    'classify-tsv-sf-s0': (0, '472d38a7396452384b806b7ef1a6a09923229d5c6a5dfbcaa7688a640dc8d3fe'),
    'classify-tsv-sf-s3': (0, '472d38a7396452384b806b7ef1a6a09923229d5c6a5dfbcaa7688a640dc8d3fe'),
    'components-json-er-s0': (0, '475f7d35ac4cbedd59a08a749e9af57b9a2b9a4a8b452ce013cfb63b90a1f3a3'),
    'components-json-er-s3': (0, '12291a2051685cf8d72dc137f5c0f1c535ce79f5d94b8f5875a45f3da7226321'),
    'components-json-sf-s0': (0, '9d6019d330023dba349c1ce2272a59b8b4c76f01abe5fefedef88a236b66ebdc'),
    'components-json-sf-s3': (0, '537b1592ee6e7ff306af3335c05ea0a116eeece97d216b22f0c5299497701910'),
    'components-tsv-er-s0': (0, 'f0217584a9da971c5e80dc91f2a551743da7c9fa24bfa92ff8279a4d148de007'),
    'components-tsv-er-s3': (0, '5d3dd3bbc2b0848ebd738e982a764103aec658d74bdcf5369f2869bbfc614a64'),
    'components-tsv-sf-s0': (0, '87d41b8467d44bd6f9282b56e2e5d623614b1ae340e30adfc0a9da2681abea83'),
    'components-tsv-sf-s3': (0, 'b306c6924767fcf4e6d33dfe6caee89a01fb6ee4b12e69339bd1df849670ba4c'),
    'exchange-258-sf-s0': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'exchange-258-sf-s3': (0, '7279e1ceaf92a145ba1ba8d077a78dd7911be49a2b513cab809f04ac737ad7be'),
    'exchange-569-sf-s0': (0, '383a86840f792199adeb29e562663a5035fee1c937d9946dbb7867bef3d7ed21'),
    'exchange-569-sf-s3': (0, '4dce16b1bcdb9fd91ffbaef506283514eb9c7f86f268f055a6f0dcefff0ef9af'),
    'exchange-7-sf-s0': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'exchange-7-sf-s3': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'exchange-nosuch-sf-s0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'exchange-nosuch-sf-s3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'generate-er': (0, '3d877ce119c930d498d47196e8943f761d63694520ef868b0f790dcd36f437d1'),
    'generate-sf': (0, '7a2740222a5df3be3cd98b1a31d0c0a18273e59266bae3c123dbfc97d63e5055'),
    'inputgraph-json-er-s0': (0, '5848790562c0fd2f88de7a8c5f9d4044e5ccf8dbccdda0407970cde336bb2ba4'),
    'inputgraph-json-er-s3': (0, '5dcacdf30382e4a7e1eb3e947ffc7bd1ad1d6fe70af594f714d80b44ca341006'),
    'inputgraph-json-sf-s0': (0, 'bd4b790216a3e16d96fa34d0786e3da1a831bc0ad11083b625e3fae16235d5b6'),
    'inputgraph-json-sf-s3': (0, '024b94006ce8db1c8b33ed9dd0cc16ceb36e7508b5662a2e65c9c9015688d010'),
    'inputgraph-tsv-er-s0': (0, '0a75eb53d18b4955218f44fc3d468b0cfebdc55752da6d6caf90c6b2cd431cb5'),
    'inputgraph-tsv-er-s3': (0, '5aab4bc201ad68d0fb407033e76b515e978a4fe519bad5432c67efe5547b8cfc'),
    'inputgraph-tsv-sf-s0': (0, '8ffd3a8fdb722598ff7cb38b14a33e2a0a45423c67b75fc67bf32d3be23c788a'),
    'inputgraph-tsv-sf-s3': (0, '49287cee96b5a6ef8e7aca537835bbcfa807f0786a4ec7e7d69c40258cccfe3d'),
    'sweep-er': (0, '6c73b156322aa8d85f5e3d386dfb234638120b2079f717b2153265e042a54e4e'),
    'sweep-sf': (0, '4df8adbb5e56260569b5931da5fe944f642579d80ced248049fab1b029308cdf'),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_digest(case, files):
    assert _digest(*_run(CASES[case](files))) == DIGESTS[case]


# sha256 prefixes of ``generate`` stdout at N=10^5, a size the digests above
# do not reach. Recorded before the sampler read its batches in parts;
# never re-recorded.
AT_SCALE = {"er": "7ac447528d239c78", "sf": "796e3fc32f11478a"}


@pytest.mark.parametrize("model", sorted(AT_SCALE))
def test_generate_at_scale_digest(model):
    code, digest = _digest(*_run(["generate", "--model", model, "-n",
                                  "100000", "-k", "10", "--seed", "7"]))
    assert (code, digest[:16]) == (0, AT_SCALE[model])
