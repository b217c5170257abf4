import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcontrol import (analyze, load_edge_list, reports, smc_to_ic_full,
                        umc_to_smc)
from netcontrol.cli import main


@pytest.fixture
def dilation_file(tmp_path):
    path = tmp_path / "dilation.txt"
    path.write_text("c a\nc b\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def confluence_file(tmp_path):
    path = tmp_path / "confluence.txt"
    path.write_text("1 3\n2 3\n", encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_analyze_json(dilation_file, capsys):
    code, out = run_cli(capsys, "analyze", dilation_file)
    assert code == 0
    record = json.loads(out)
    assert record["n"] == 3
    assert record["mis"]["n_mis_percent"] == 66.67
    assert record["components"]["cc_max"]["percent"] == 66.67
    assert record["components"]["cc_max"]["kind"] == "I"
    assert record["node_classes"]["c"] == "critical"


def test_analyze_missing_file_exits_2(capsys):
    assert main(["analyze", "/nonexistent/net.txt"]) == 2


def test_analyze_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b c\n", encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing path
    assert exc.value.code == 1


def test_single_isolated_node(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("# nodes: 1\n", encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(path))
    assert code == 0
    record = json.loads(out)
    assert record["mis"]["n_mis_percent"] == 100.0
    assert record["components"]["component_count"] == 1
    assert record["components"]["components"][0]["kind"] == "IC"


def test_classify_tsv(dilation_file, capsys):
    code, out = run_cli(capsys, "classify", dilation_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert "c\tcritical\tyes" in lines
    assert "a\tintermittent\tyes" in lines


def test_inputgraph_tsv(dilation_file, capsys):
    code, out = run_cli(capsys, "inputgraph", dilation_file)
    assert code == 0
    assert "b\ta\tc\tDi" in out  # seed-0 matching pairs c with a


def test_components_tsv(dilation_file, capsys):
    code, out = run_cli(capsys, "components", dilation_file)
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [(r[0], r[2]) for r in rows] == [("0", "IC"), ("1", "IC")]


def test_generate_writes_directive_and_roundtrips(tmp_path, capsys):
    out_file = tmp_path / "er.txt"
    code = main(["generate", "--model", "er", "-n", "50", "-k", "2",
                 "--seed", "5", "-o", str(out_file)])
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert "# nodes: 50" in text
    code, out = run_cli(capsys, "analyze", str(out_file))
    assert code == 0
    assert json.loads(out)["n"] == 50  # isolated nodes preserved


def test_alter_umc_to_smc(confluence_file, capsys):
    code, out = run_cli(capsys, "alter", confluence_file,
                        "--component", "largest-mc", "--to", "smc")
    assert code == 0
    payload = json.loads(out)
    assert payload["goal_attained"] is True
    assert payload["plan"]["additions"] == [
        {"src": "2", "dst": "1", "reason": "saturate_unsaturated"}]
    assert payload["plan"]["p_percent"] == 50.0
    assert payload["plan"]["mis_before"] == 2
    assert payload["plan"]["mis_after"] == 1


def test_alter_wrong_kind_exits_3(dilation_file, capsys):
    assert main(["alter", dilation_file, "--component", "largest-ic",
                 "--to", "ic"]) == 3


@pytest.mark.parametrize("edges, selector, to, message", [
    ("c a\nc b\n", "largest-ic", "ic",
     "cannot alter IC component 1 to IC; it is one already"),
    ("s a\ns b\nx a\nx y\ny b\n", "largest-smc", "smc",
     "cannot alter SMC component 1 to SMC; it is one already"),
    ("1 3\n2 3\n", "largest-umc", "ic",
     "cannot alter UMC component 1 to IC; saturate it to SMC first"),
], ids=["ic_to_ic", "smc_to_smc", "umc_to_ic"])
def test_alter_wrong_kind_names_the_component(edges, selector, to, message,
                                              tmp_path, capsys):
    path = tmp_path / "net.txt"
    path.write_text(edges, encoding="utf-8")
    assert main(["alter", str(path), "--component", selector,
                 "--to", to]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_alter_to_ic_on_a_perfect_matching_exits_3(tmp_path, capsys):
    path = tmp_path / "cycle.txt"
    path.write_text("0 1\n1 0\n", encoding="utf-8")
    assert main(["alter", str(path), "--to", "ic"]) == 3
    err = capsys.readouterr().err
    assert "error: no input node available (perfect matching)" in err


def test_alter_writes_files(confluence_file, tmp_path, capsys):
    prefix = tmp_path / "plan"
    code = main(["alter", confluence_file, "--component", "largest-mc",
                 "--to", "smc", "-o", str(prefix)])
    assert code == 0
    assert (tmp_path / "plan.plan.json").exists()
    added = (tmp_path / "plan.added.tsv").read_text(encoding="utf-8")
    assert "2\t1\tsaturate_unsaturated" in added
    assert (tmp_path / "plan.before.json").exists()
    assert (tmp_path / "plan.after.json").exists()


def test_alter_plan_file_carries_goal_attained(confluence_file, tmp_path,
                                               capsys):
    argv = ["alter", confluence_file, "--component", "largest-mc",
            "--to", "smc"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    printed = json.loads(out)
    assert main(argv + ["-o", str(tmp_path / "plan")]) == 0
    written = json.loads((tmp_path / "plan.plan.json").read_text(
        encoding="utf-8"))
    assert written == {**printed["plan"],
                       "goal_attained": printed["goal_attained"]}


@pytest.mark.parametrize("argv", [
    ("generate", "--model", "sf", "-n", "300", "-k", "4", "--seed", "2"),
    *((command, "{net}", "--format", fmt)
      for command in ("analyze", "classify", "inputgraph", "components")
      for fmt in ("json", "tsv")),
    ("exchange", "{small}", "--node", "b"),
    ("oracle-check", "{small}"),
    ("sweep", "--model", "er", "-n", "40", "--k-list", "2,4",
     "--replicates", "2"),
], ids=lambda argv: "-".join(a for a in argv[:4] if "{" not in a))
def test_output_file_holds_the_stdout_bytes(argv, dilation_file, tmp_path,
                                            capsys):
    net = tmp_path / "sf.txt"
    assert main(["generate", "--model", "sf", "-n", "300", "-k", "4",
                 "--seed", "2", "-o", str(net)]) == 0
    argv = [a.format(net=net, small=dilation_file) for a in argv]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    out_file = tmp_path / "out"
    assert main(argv + ["-o", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("edges, argv, build", [
    ("1 3\n2 3\n", ("--component", "largest-mc", "--to", "smc"),
     umc_to_smc),
    ("s a\ns b\nx a\nx y\ny b\n",
     ("--component", "largest-smc", "--to", "ic", "--mode", "full"),
     smc_to_ic_full),
], ids=["umc_to_smc", "smc_to_ic_full"])
def test_alter_files_hold_the_stdout_payload(edges, argv, build, tmp_path,
                                             capsys):
    path = tmp_path / "net.txt"
    path.write_text(edges, encoding="utf-8")
    argv = ["alter", str(path), *argv]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    printed = json.loads(out)
    prefix = tmp_path / "plan"
    assert main(argv + ["-o", str(prefix)]) == 0
    assert capsys.readouterr().out == ""

    def written(suffix):
        return prefix.with_suffix(suffix).read_text(encoding="utf-8")

    for suffix, payload in (
            (".plan.json", {**printed["plan"],
                            "goal_attained": printed["goal_attained"]}),
            (".before.json", printed["before"]),
            (".after.json", printed["after"])):
        assert written(suffix) == json.dumps(payload, sort_keys=True,
                                             indent=2) + "\n"
    with open(path, encoding="utf-8") as fh:
        net = load_edge_list(fh)
    before = analyze(net, 0)
    plan = build(before, before.report.component(
        printed["plan"]["target_component_id"]))
    assert written(".added.tsv") == reports.additions_tsv(plan, net.labels)
    rows = [dict(zip(("src", "dst", "reason"), line.split("\t")))
            for line in written(".added.tsv").splitlines()[1:]]
    assert rows == printed["plan"]["additions"]


def test_exchange_roundtrip(dilation_file, capsys):
    code, out = run_cli(capsys, "exchange", dilation_file, "--node", "b")
    assert code == 0
    payload = json.loads(out)
    assert payload["replaced"] == "a"
    assert sorted(payload["mis_after"]) == ["a", "c"]


def test_exchange_critical_node_exits_3(dilation_file, capsys):
    assert main(["exchange", dilation_file, "--node", "c"]) == 3


def test_oracle_check_agrees(dilation_file, capsys):
    code, out = run_cli(capsys, "oracle-check", dilation_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["matching_count"] == 2
    assert payload["possible_inputs_match_union"] is True


def test_oracle_check_guard_exits_4(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("\n".join(f"a{i} b{i}" for i in range(20)) + "\n",
                    encoding="utf-8")
    assert main(["oracle-check", str(path)]) == 4


def test_sweep_rows_and_header(capsys):
    code, out = run_cli(capsys, "sweep", "--model", "er", "-n", "60",
                        "--k-list", "2,4", "--replicates", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "model,N,k,seed,cc_max_frac,cc_count,n_p,cc_kind"
    assert len(lines) == 1 + 2 * 3
    assert all(line.startswith("er,60,") for line in lines[1:])


def test_sweep_edgeless(capsys):
    code, out = run_cli(capsys, "sweep", "--model", "er", "-n", "10",
                        "--k-list", "0", "--replicates", "1")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(1 / 10)  # all singleton ICs
    assert row[7] == "I"


@pytest.mark.parametrize("argv", [
    ("analyze", "{path}"),
    ("inputgraph", "{path}"),
    ("components", "{path}"),
    ("generate", "--model", "sf", "-n", "40", "-k", "4", "--seed", "3"),
    ("sweep", "--model", "er", "-n", "40", "--k-list", "2,4",
     "--replicates", "2"),
])
def test_repeated_runs_are_byte_identical(argv, dilation_file, capsys):
    argv = [a.format(path=dilation_file) for a in argv]
    code1, first = run_cli(capsys, *argv)
    code2, second = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert first == second


def test_module_entry_point(dilation_file):
    proc = subprocess.run(
        [sys.executable, "-m", "netcontrol", "analyze", dilation_file],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3
    assert "completed in" in proc.stderr


def test_format_variants(dilation_file, capsys):
    code, out = run_cli(capsys, "analyze", dilation_file, "--format", "tsv")
    assert code == 0
    assert "n_mis_percent\t66.67" in out
    assert "cc_max_kind\tI" in out

    code, out = run_cli(capsys, "classify", dilation_file, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"a": "intermittent", "b": "intermittent",
                               "c": "critical"}

    code, out = run_cli(capsys, "inputgraph", dilation_file,
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["Di"] == [{"src": "b", "dst": "a", "witness": "c"}]
    assert payload["Dr"] == []

    code, out = run_cli(capsys, "components", dilation_file,
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["cc_max"]["kind"] == "I"


def test_alter_full_mode(tmp_path, capsys):
    path = tmp_path / "net.txt"
    path.write_text("s a\ns b\nx a\nx y\ny b\n", encoding="utf-8")
    code, out = run_cli(capsys, "alter", str(path), "--component",
                        "largest-smc", "--to", "ic", "--mode", "full")
    assert code == 0
    payload = json.loads(out)
    assert payload["goal_attained"] is True
    assert payload["plan"]["requested_kind"] == "IC"
    assert all(a["reason"] == "adjacency_link"
               for a in payload["plan"]["additions"])


def test_alter_searches_for_one_matching(confluence_file, tmp_path, capsys,
                                         monkeypatch):
    # the re-analysis reuses the plan's matching; perfbench counts the
    # matcher through this module attribute
    import netcontrol.pipeline
    calls = []
    original = netcontrol.pipeline.maximum_matching

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(netcontrol.pipeline, "maximum_matching", counted)
    cover = tmp_path / "net.txt"
    cover.write_text("s a\ns b\nx a\nx y\ny b\n", encoding="utf-8")
    for argv in (["alter", confluence_file, "--component", "largest-mc",
                  "--to", "smc"],
                 ["alter", str(cover), "--component", "largest-smc",
                  "--to", "ic", "--mode", "full"]):
        calls.clear()
        code, out = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["goal_attained"] is True
        assert len(calls) == 1


def test_alter_component_by_id(confluence_file, capsys):
    code, out = run_cli(capsys, "alter", confluence_file, "--component", "1",
                        "--to", "smc")
    assert code == 0
    assert json.loads(out)["plan"]["target_component_id"] == 1


def test_alter_unknown_component_exits_3(confluence_file, capsys):
    assert main(["alter", confluence_file, "--component", "99",
                 "--to", "smc"]) == 3
    assert main(["alter", confluence_file, "--component", "largest-smc",
                 "--to", "ic"]) == 3


def test_sweep_accepts_gamma_flags(capsys):
    code, out = run_cli(capsys, "sweep", "--model", "sf", "-n", "80",
                        "--k-list", "4", "--replicates", "2",
                        "--gamma-in", "2.5", "--gamma-out", "3.5")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_member_lists_suppressed_on_large_networks(tmp_path, capsys):
    code = main(["generate", "--model", "er", "-n", "10001", "-k", "1",
                 "--seed", "0", "-o", str(tmp_path / "big.txt")])
    assert code == 0
    code, out = run_cli(capsys, "analyze", str(tmp_path / "big.txt"))
    assert code == 0
    record = json.loads(out)
    assert "node_classes" not in record
    assert "members" not in record["mis"]
    assert "members" not in record["components"]["components"][0]


def test_analyze_tsv_builds_no_member_lists(dilation_file, capsys,
                                            monkeypatch):
    # the TSV drops every per-node list, so it must not build them
    argv = ["analyze", dilation_file, "--format", "tsv", "--members"]
    code, expected = run_cli(capsys, *argv)
    assert code == 0

    def must_not_list(*args):
        raise AssertionError("built a per-node list for the TSV")

    monkeypatch.setattr(reports, "node_class_records", must_not_list)
    monkeypatch.setattr(reports.LabelColumn, "table", must_not_list)
    assert run_cli(capsys, *argv) == (0, expected)


def test_id_labelled_outputs_build_no_label_string(tmp_path, capsys,
                                                   monkeypatch):
    # on a # nodes: file the writers take the ids' digits from the label
    # column, and --node and --via are parsed: no label string is built
    from netcontrol.network import LabelColumn

    path = tmp_path / "ids.txt"
    path.write_text("# nodes: 12\n0 1\n0 2\n1 3\n2 10\n10 11\n",
                    encoding="utf-8")
    argvs = [("inputgraph", path), ("inputgraph", path, "--format", "json"),
             ("exchange", path, "--node", "2", "--via", "0"),
             ("exchange", path, "--node", "4"),
             ("exchange", path, "--node", "1"),
             ("exchange", path, "--node", "02")]

    def outcomes():
        for argv in argvs:
            code = main(list(map(str, argv)))
            out, err = capsys.readouterr()
            yield code, out, err.splitlines()[0] if code else ""

    expected = list(outcomes())
    assert [code for code, *_ in expected] == [0, 0, 0, 3, 3, 2]

    def must_not_build(self):
        raise AssertionError("built the label strings")

    monkeypatch.setattr(LabelColumn, "labels", property(must_not_build))
    assert list(outcomes()) == expected


def test_internal_error_exits_5(dilation_file, capsys, monkeypatch):
    from netcontrol import InternalInvariantError

    def broken(*args, **kwargs):
        raise InternalInvariantError("component sizes disagree")

    monkeypatch.setattr("netcontrol.cli.analyze", broken)
    assert main(["analyze", dilation_file]) == 5
    err = capsys.readouterr().err
    assert "internal error: component sizes disagree" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("generate", "--model", "er", "-n", "10", "-k", "inf"),
    ("generate", "--model", "er", "-n", "10", "-k", "nan"),
    ("sweep", "--model", "er", "-n", "10", "--k-list", "inf",
     "--replicates", "1"),
    ("sweep", "--model", "er", "-n", "10", "--k-list", "nan",
     "--replicates", "1"),
])
def test_non_finite_generator_parameters_exit_2(argv, capsys):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err and "Traceback" not in captured.err


def test_largest_selector_uses_cc_max_tie_break(tmp_path, capsys):
    # two singletons: 0 is SMC, 1 is IC; cc_max prefers the IC on a size tie
    path = tmp_path / "tie.txt"
    path.write_text("# nodes: 2\n1\t0\n", encoding="utf-8")
    code, out = run_cli(capsys, "components", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["cc_max"]["id"] == 1
    code, out = run_cli(capsys, "alter", str(path), "--component", "largest",
                        "--to", "smc")
    assert code == 0
    assert json.loads(out)["plan"]["target_component_id"] == 1


def test_oracle_check_enumerates_once(dilation_file, capsys, monkeypatch):
    import netcontrol.cli
    import netcontrol.oracle
    calls = []
    original = netcontrol.oracle.enumerate_maximum_matchings

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (netcontrol.oracle, netcontrol.cli):
        monkeypatch.setattr(module, "enumerate_maximum_matchings", counted)
    code, out = run_cli(capsys, "oracle-check", dilation_file)
    assert code == 0 and json.loads(out)["agree"] is True
    assert len(calls) == 1


def test_nodes_directive_above_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("# nodes: 10000001\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert "limit" in capsys.readouterr().err


def test_byte_order_mark_and_crlf_match_plain_input(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("1 2\n2 1\n", encoding="utf-8")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf1 2\r\n2 1\r\n")
    expected = run_cli(capsys, "analyze", str(plain))
    assert expected[0] == 0 and json.loads(expected[1])["n"] == 2
    assert run_cli(capsys, "analyze", str(marked)) == expected
    directive = tmp_path / "directive.txt"
    directive.write_bytes(b"\xef\xbb\xbf# nodes: 3\r\n0 1\r\n")
    code, out = run_cli(capsys, "analyze", str(directive))
    assert code == 0 and json.loads(out)["n"] == 3


def test_alter_edgeless_network_omits_p(tmp_path, capsys):
    path = tmp_path / "edgeless.txt"
    path.write_text("# nodes: 3\n", encoding="utf-8")
    assert main(["alter", str(path), "--to", "smc"]) == 0
    captured = capsys.readouterr()
    plan = json.loads(captured.out)["plan"]
    assert plan["edge_count"] == 1 and "p_percent" not in plan
    assert "Traceback" not in captured.err


def test_exchange_errors_name_labels(tmp_path, capsys):
    path = tmp_path / "letters.txt"
    path.write_text("x y\ny z\n", encoding="utf-8")
    assert main(["exchange", str(path), "--node", "y"]) == 3
    assert "error: node y is not an input node" in capsys.readouterr().err
    assert main(["exchange", str(path), "--node", "x", "--via", "z"]) == 3
    assert "(z, x) is not an edge" in capsys.readouterr().err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9 b\n")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and "Traceback" not in err


@pytest.mark.parametrize("selector", ["²", "\u0663"],
                         ids=["superscript_two", "arabic_indic_three"])
def test_non_ascii_digit_selector_exits_3(confluence_file, capsys, selector):
    assert main(["alter", confluence_file, "--component", selector,
                 "--to", "smc"]) == 3
    assert "unknown component selector" in capsys.readouterr().err


@pytest.mark.parametrize("selector", ["9" * 5000, "1" + "0" * 4999, "3"],
                         ids=["nines", "power_of_ten", "one_past_the_last"])
def test_oversized_digit_selector_exits_3(confluence_file, capsys, selector):
    # 5 000 digits pass int()'s 4 300-digit limit; no id is that long
    assert main(["alter", confluence_file, "--component", selector,
                 "--to", "smc"]) == 3
    err = capsys.readouterr().err
    assert f"error: no component with id {selector}\n" in err
    assert "internal error" not in err


def test_digit_selector_keeps_leading_zeros(confluence_file, capsys):
    code, out = run_cli(capsys, "alter", confluence_file, "--component",
                        "0" * 5000 + "1", "--to", "smc")
    assert code == 0
    assert json.loads(out)["plan"]["target_component_id"] == 1


def test_request_beyond_memory_exits_2():
    # The address-space limit makes the allocation fail whatever the host's
    # overcommit setting; 5*10^12 edges pass GenSpec's capacity check.
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from netcontrol.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    small, huge = ([sys.executable, "-c", code, "generate", "--model", "er",
                    "-n", n, "-k", k] for n, k in (("2000", "4"),
                                                   ("10000000", "1000000")))
    proc = subprocess.run(small, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(huge, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: not enough memory: ")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_stray_value_error_exits_5(dilation_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("two sources matched to the same target")

    monkeypatch.setattr("netcontrol.cli.analyze", broken)
    assert main(["analyze", dilation_file]) == 5
    err = capsys.readouterr().err
    assert "internal error: two sources" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("generate", "--model", "er", "-n", "10", "-k", "2", "--seed", "-1"),
    ("sweep", "--model", "er", "-n", "10", "--k-list", "2",
     "--replicates", "1", "--seed-base", "-1"),
    ("generate", "--model", "sf", "-n", "10000001", "-k", "10"),
    # an empty grid: no replicate or no degree
    ("sweep", "--model", "er", "-n", "10", "--k-list", "2",
     "--replicates", "-1"),
    ("sweep", "--model", "er", "-n", "10", "--k-list", "2",
     "--replicates", "0"),
    ("sweep", "--model", "er", "-n", "10", "--k-list", ","),
    ("sweep", "--model", "er", "-n", "10", "--k-list", ""),
    # k*N/2 overflows to infinity before it can become an edge count
    ("generate", "--model", "er", "-n", "100", "-k", "1e308"),
    ("sweep", "--model", "er", "-n", "100", "--k-list", "1e308"),
])
def test_bad_generator_arguments_exit_2(argv, capsys):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_negative_seed_gives_seed_zero_classes(tmp_path, capsys):
    path = tmp_path / "er.txt"
    assert main(["generate", "--model", "er", "-n", "80", "-k", "3",
                 "-o", str(path)]) == 0
    records = {}
    for seed in ("0", "-3"):
        code, out = run_cli(capsys, "analyze", str(path), "--seed", seed)
        assert code == 0
        records[seed] = json.loads(out)
    assert records["-3"]["node_classes"] == records["0"]["node_classes"]


def test_unwritable_output_exits_2(dilation_file, tmp_path, capsys):
    missing = tmp_path / "missing" / "out"
    for argv in (["analyze", dilation_file],
                 ["alter", dilation_file, "--to", "smc"]):
        assert main(argv + ["-o", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {missing}")
        assert "Traceback" not in err


@pytest.mark.parametrize("prefix", [".", "/"])
def test_alter_prefix_with_empty_name_exits_2(dilation_file, prefix, capsys,
                                              monkeypatch):
    import netcontrol.cli as cli

    def must_not_plan(*args):
        raise AssertionError("planned before checking the output prefix")

    monkeypatch.setattr(cli, "analyze", must_not_plan)
    assert main(["alter", dilation_file, "--to", "smc", "-o", prefix]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {prefix}")
    assert "internal error" not in err


@pytest.mark.parametrize("command", ["analyze", "components"])
def test_members_flag_lists_members_on_large_networks(command, tmp_path,
                                                      capsys):
    path = tmp_path / "big.txt"
    path.write_text("# nodes: 10001\n0 1\n", encoding="utf-8")

    def first_component(*flags):
        code, out = run_cli(capsys, command, str(path), "--format", "json",
                            *flags)
        assert code == 0
        record = json.loads(out)
        census = record["components"] if command == "analyze" else record
        return census["components"][0]

    assert "members" not in first_component()
    assert first_component("--members")["members"] == ["0"]


@pytest.mark.parametrize("command", ["classify", "inputgraph"])
def test_members_flag_is_only_on_listing_commands(command, dilation_file,
                                                  capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, dilation_file, "--members"])
    assert exc.value.code == 1


# Pieces of hostile edge lists: a BOM, odd line ends and blanks, NUL, a byte
# UTF-8 never uses, U+2028, digit runs past 18 digits, negative labels and
# small "# nodes:" headers (each ends its line, so no piece can make it
# declare more nodes).
_PIECES = [b"\xef\xbb\xbf", b"\r", b"\n", b"\r\n", b"\t", b" ", b"\x00",
           b"\xff", "\u2028".encode(), b"\x0b", b"\x0c", b"\x1c", b"0", b"1",
           b"7", b"12", b"-1", b"x", b"\xce\xb1", b"9" * 19, b"1" * 25,
           b"# nodes: 3\n", b"# nodes: 0\r\n", b"# nodes: 12\r", b"# c\n"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40))
def test_hostile_files_exit_0_or_2_without_traceback(pieces):
    """Reading commands exit 0 or 2; those that select or alter a
    component may also find it infeasible (3). None fails internally."""
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(b"".join(pieces))
        for argv, codes in (
                (["analyze"], (0, 2)), (["classify"], (0, 2)),
                (["inputgraph"], (0, 2)), (["components"], (0, 2, 3)),
                (["alter", "--to", "smc"], (0, 2, 3)),
                (["alter", "--component", "largest-smc", "--to", "ic",
                  "--mode", "full"], (0, 2, 3))):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main([argv[0], path, *argv[1:]])
            assert code in codes, err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert "internal error" not in err.getvalue()
    finally:
        os.unlink(path)
