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
    'alter-cover-sf-s0': (0, 'cf9e301fd29946330ae3a0698c7be68361ae4a84a0af6ef65b1455f06d8afe28'),
    'alter-cover-sf-s3': (0, 'ae0d198602e5112a9542bd458e0188906ed63d8631a219129533e7e2a4b82824'),
    'alter-saturate-sf-s0': (0, 'c95bc7d073a166e050ee4ba23fdb28462d26f745a8b97c63438ed90c3a886e77'),
    'alter-saturate-sf-s3': (0, 'd2404d1c1e9f371d6d8e3a67817f498f7aa5f391eaae4a1f030f6d2939bdb0ec'),
    'alter-single-sf-s0': (0, '7546913502b66c425ea76d6d61456ec1615f6c7b9612be644affa62757917621'),
    'alter-single-sf-s3': (0, 'd494125b2edcac4747ac14001f122300dfeb83442ebf24abd848fc3dd7ffb7c7'),
    'analyze-json-er-bare-s0': (0, 'fae9083c7cdb3e9e1e628a8a6ccc91b455823f9c6e1638e2894044dfb8dc46f8'),
    'analyze-json-er-s0': (0, '7b3bd8016677b410484182d8d516ec37b18ee6486375fda2ce81b6b2016d63eb'),
    'analyze-json-er-s3': (0, '45eba4b1380125ffededa71271f00c20dffd81fae7aef3d0c9e4de2e54c18538'),
    'analyze-json-er-v-s0': (0, '78429a61b1c179f754971e0934cf559e5323e002c2ad0f3650d13faae55ee08c'),
    'analyze-json-sf-s0': (0, 'a33c622f8b4c6d14392d48b918ebd0e1bfcedb5aed61d36a823f31d1e4440170'),
    'analyze-json-sf-s3': (0, 'ca7d9dd8df578e0e527251d791f42e089c31f59c483ebda7d20689c4e6843582'),
    'analyze-tsv-er-s0': (0, 'f76fe3879a6d3a48b9a0656db979661b54fdae30b8cf97d28eb44e2c22260b3f'),
    'analyze-tsv-er-s3': (0, '57bd51c9a3b004cbeb2af448da07e6dc1e325dbfbaff66d68cb2e57dc13303a3'),
    'analyze-tsv-sf-s0': (0, '590638d314b6b290f6fa8dc65bd237d0c11987b59264506ad288198b538bc438'),
    'analyze-tsv-sf-s3': (0, 'cbe86877c2d3acfd79b2595cefb56825e1b143cc3d7bd3c2496e580ab9b28134'),
    'classify-json-er-s0': (0, '4f8352304662a6ebdc04c37aa6cea9c9b891ddb083a8e4ce9a6bb0363c33716f'),
    'classify-json-er-s3': (0, '4f8352304662a6ebdc04c37aa6cea9c9b891ddb083a8e4ce9a6bb0363c33716f'),
    'classify-json-sf-s0': (0, '6180ebd8a0936e50bfe017b562823d9c18352e16ef1c6d9a0ceaaeba96fee65e'),
    'classify-json-sf-s3': (0, '6180ebd8a0936e50bfe017b562823d9c18352e16ef1c6d9a0ceaaeba96fee65e'),
    'classify-tsv-er-s0': (0, 'e7441d3c789f072c37a4b0a452f2c5c78b9e3a72fbfeb7ff8034fbf6f02d45f1'),
    'classify-tsv-er-s3': (0, 'e7441d3c789f072c37a4b0a452f2c5c78b9e3a72fbfeb7ff8034fbf6f02d45f1'),
    'classify-tsv-sf-s0': (0, '472d38a7396452384b806b7ef1a6a09923229d5c6a5dfbcaa7688a640dc8d3fe'),
    'classify-tsv-sf-s3': (0, '472d38a7396452384b806b7ef1a6a09923229d5c6a5dfbcaa7688a640dc8d3fe'),
    'components-json-er-s0': (0, '475f7d35ac4cbedd59a08a749e9af57b9a2b9a4a8b452ce013cfb63b90a1f3a3'),
    'components-json-er-s3': (0, '39cdf279454333db4e7ed197297a715a99fc97b36a3d5cbb12232e5b1e7115a4'),
    'components-json-sf-s0': (0, '9d6019d330023dba349c1ce2272a59b8b4c76f01abe5fefedef88a236b66ebdc'),
    'components-json-sf-s3': (0, '43d439eeaf32eaf5bdca9c402963d69ae6dff1042b7a4f4651c8d80d67269c1e'),
    'components-tsv-er-s0': (0, 'f0217584a9da971c5e80dc91f2a551743da7c9fa24bfa92ff8279a4d148de007'),
    'components-tsv-er-s3': (0, 'fdfc272423bba763f884acbf104912c996b632f27396e52e3779953d117febfb'),
    'components-tsv-sf-s0': (0, '87d41b8467d44bd6f9282b56e2e5d623614b1ae340e30adfc0a9da2681abea83'),
    'components-tsv-sf-s3': (0, '02b4587f4d75002e3fb10d179b3cc29efb3e482ea26b7223e7d7f887a30daec4'),
    'exchange-258-sf-s0': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'exchange-258-sf-s3': (0, 'c98ff37fcefceb8e735b7235da21705a7acd0804683f3fe3119e46698dc117cf'),
    'exchange-569-sf-s0': (0, '383a86840f792199adeb29e562663a5035fee1c937d9946dbb7867bef3d7ed21'),
    'exchange-569-sf-s3': (0, 'dcd58e807e3ae56c7eb3461b8d8a3f17307a3e91fc9f0c81800d0ac84ebd2e32'),
    'exchange-7-sf-s0': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'exchange-7-sf-s3': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'exchange-nosuch-sf-s0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'exchange-nosuch-sf-s3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'generate-er': (0, '3d877ce119c930d498d47196e8943f761d63694520ef868b0f790dcd36f437d1'),
    'generate-sf': (0, '7a2740222a5df3be3cd98b1a31d0c0a18273e59266bae3c123dbfc97d63e5055'),
    'inputgraph-json-er-s0': (0, '5848790562c0fd2f88de7a8c5f9d4044e5ccf8dbccdda0407970cde336bb2ba4'),
    'inputgraph-json-er-s3': (0, '1f1fb4fd86058ea069df36e359631cb0ff59bdab5d64255320b7684d80ccda77'),
    'inputgraph-json-sf-s0': (0, 'bd4b790216a3e16d96fa34d0786e3da1a831bc0ad11083b625e3fae16235d5b6'),
    'inputgraph-json-sf-s3': (0, '4814692990c99db734114292d96900c6d3d70b578f9b3f492c241db1658faeb5'),
    'inputgraph-tsv-er-s0': (0, '0a75eb53d18b4955218f44fc3d468b0cfebdc55752da6d6caf90c6b2cd431cb5'),
    'inputgraph-tsv-er-s3': (0, '266c6d82925a11767b9bd7ebb771826ad26f0f3f0c797cca9bc94ab02bfa1bea'),
    'inputgraph-tsv-sf-s0': (0, '8ffd3a8fdb722598ff7cb38b14a33e2a0a45423c67b75fc67bf32d3be23c788a'),
    'inputgraph-tsv-sf-s3': (0, '247e7a2ceb74b1ea2b7d555e5d4c5cb00049a94fe23a3f84f82df3a1e8243746'),
    'sweep-er': (0, '6c73b156322aa8d85f5e3d386dfb234638120b2079f717b2153265e042a54e4e'),
    'sweep-sf': (0, '4df8adbb5e56260569b5931da5fe944f642579d80ced248049fab1b029308cdf'),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_digest(case, files):
    assert _digest(*_run(CASES[case](files))) == DIGESTS[case]
