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


def test_non_ascii_digit_selector_exits_3(confluence_file, capsys):
    assert main(["alter", confluence_file, "--component", "²",
                 "--to", "smc"]) == 3
    assert "unknown component selector" in capsys.readouterr().err


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
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(b"".join(pieces))
        for command in ("analyze", "classify", "inputgraph"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main([command, path])
            assert code in (0, 2), err.getvalue()
            assert "Traceback" not in err.getvalue()
    finally:
        os.unlink(path)
