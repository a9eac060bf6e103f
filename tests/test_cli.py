import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from graph_fixtures import dimacs

from qappoly.cli import main
from qappoly.config import Caps, caps_from_config, parse_config
from qappoly.errors import QappolyError
from qappoly.graphs import Graph


@pytest.fixture
def triangle7(tmp_path):
    path = tmp_path / "triangle7.col"
    path.write_text(dimacs(Graph.from_edges(7, [(1, 2), (2, 3), (1, 3)])))
    return path


def test_verify_facet_valid_only_qap5(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0",
                 "--coeffs", "1,1:1;2,2:-1", "--expect", "valid-only",
                 "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    names = [v["name"] for v in report["verdicts"]]
    assert "validity" in names and "facet-analysis" in names
    assert report["tool_version"]


def test_verify_facet_small_qap5_not_facet_fails_strict(tmp_path):
    # same form under the strict expectation: exit code reflects the verdict
    code = main(["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0",
                 "--coeffs", "1,1:1;2,2:-1"])
    assert code == 1


def test_verify_lemmas_identity2(capsys):
    code = main(["verify-lemmas", "--which", "identity2", "--n", "8",
                 "--samples", "20", "--seed", "3"])
    assert code == 0
    assert "[PASS]" in capsys.readouterr().out


def test_verify_lemmas_identity2_at_n100(tmp_path):
    # the identity lemmas enumerate nothing, so they run far past the cap
    out = tmp_path / "report.json"
    assert main(["verify-lemmas", "--which", "identity2", "--n", "100",
                 "--samples", "20", "--json", str(out)]) == 0
    (verdict,) = json.loads(out.read_text())["verdicts"]
    assert verdict["details"] == {"runs": 20, "failures": 0}


def test_verify_slack_qap2_n7():
    assert main(["verify-slack", "--family", "qap2", "--n", "7"]) == 0


def test_reduce_and_oracle(triangle7, tmp_path):
    out = tmp_path / "reduce.json"
    assert main(["reduce", "--family", "qap2", "--graph", str(triangle7),
                 "--t", "2", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    detail = report["verdicts"][0]["details"]
    assert detail["member"] is False and detail["witness_index"] == 0

    assert main(["clique-oracle", "--family", "qap2", "--graph", str(triangle7)]) == 0


def test_verify_facet_qap1(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-facet", "--family", "qap1", "--n", "7", "--i-set", "1,2,3",
                 "--j-set", "1,2,3", "--k", "4", "--l", "4", "--json", str(out)]) == 0
    verdicts = {v["name"]: v["details"] for v in json.loads(out.read_text())["verdicts"]}
    assert {key: verdicts["facet"][key]
            for key in ("verdict", "polytope_dim", "tight_dim", "tight_count")} == {
        "verdict": "facet", "polytope_dim": 457, "tight_dim": 456, "tight_count": 4356}


def test_verify_slack_writes_its_table(tmp_path):
    table = tmp_path / "slack.csv"
    assert main(["verify-slack", "--family", "qap1", "--n", "6", "--limit", "4",
                 "--csv", str(table)]) == 0
    lines = table.read_text().splitlines()
    assert len(lines) == 1 + 4 * 720   # the header, then one line per form and vertex
    assert lines[:2] == ["form_id,sigma,q_stats,slack", "0,1 2 3 4 5 6,q=3;pkl=1,1"]


@pytest.mark.parametrize("graph,member,witness_index", [
    (Graph.complete(7), False, 0),
    (Graph.from_edges(7, [(1, 2), (2, 3), (1, 3)]), True, None),
], ids=["K7", "triangle"])
def test_reduce_qap4(graph, member, witness_index, tmp_path):
    path, out = tmp_path / "graph.col", tmp_path / "reduce.json"
    path.write_text(dimacs(graph))
    assert main(["reduce", "--family", "qap4", "--graph", str(path), "--t", "6",
                 "--json", str(out)]) == 0
    (verdict,) = json.loads(out.read_text())["verdicts"]
    details = verdict["details"]
    assert (details["member"], details.get("witness_index"), details["forms_checked"]) == (
        member, witness_index, 5040)


def test_protocol_commands(tmp_path):
    assert main(["protocol", "n0", "--a", "1111", "--b", "1111",
                 "--samples", "5000", "--seed", "2"]) == 0
    assert main(["protocol", "slack", "--family", "qap2", "--a", "1100",
                 "--b", "1100"]) == 0


def test_reports_deterministic_up_to_timings(tmp_path):
    paths = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        main(["protocol", "n0", "--a", "10110", "--b", "11010",
              "--samples", "4000", "--seed", "11", "--json", str(out)])
        paths.append(out)
    reports = [json.loads(p.read_text()) for p in paths]
    for rep in reports:
        rep.pop("timings")
    assert reports[0] == reports[1]


def test_graph_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 3 1\ne 1\n")
    assert main(["reduce", "--family", "qap2", "--graph", str(bad), "--t", "1"]) == 1


def test_config_caps():
    caps = caps_from_config(parse_config("enumeration_cap=8\nclique_cap=15\n"))
    assert caps == Caps(enumeration_cap=8, clique_cap=15)
    with pytest.raises(QappolyError, match="acknowledge"):
        caps_from_config(parse_config("clique_cap=25\n"))
    assert caps_from_config(parse_config("clique_cap=25\n"),
                            acknowledge=True).clique_cap == 25
    with pytest.raises(QappolyError, match="unknown"):
        caps_from_config(parse_config("mystery=1\n"))
    with pytest.raises(QappolyError, match="config line 1: expected key=value"):
        parse_config("enumeration_cap 10")
    with pytest.raises(QappolyError, match="enumeration_cap needs an integer"):
        caps_from_config(parse_config("enumeration_cap=ten\n"))


def test_config_file_flows_through_cli(tmp_path, triangle7):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("clique_cap=25\n")
    code = main(["clique-oracle", "--family", "qap2", "--graph", str(triangle7),
                 "--config", str(cfg)])
    assert code == 1  # raising a cap without acknowledgment is a usage failure
    code = main(["clique-oracle", "--family", "qap2", "--graph", str(triangle7),
                 "--config", str(cfg), "--acknowledge-caps"])
    assert code == 0


@pytest.fixture
def cap4(tmp_path):
    path = tmp_path / "cap4.cfg"
    path.write_text("enumeration_cap=4\n")
    return path


@pytest.mark.parametrize("argv", [
    ["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0",
     "--coeffs", "1,1:1;2,2:-1", "--expect", "valid-only"],
    ["verify-slack", "--family", "qap1", "--n", "5", "--limit", "1"],
    ["verify-lemmas", "--which", "szeroconn", "--n", "5"],
    ["verify-lemmas", "--which", "skasnxt4", "--n", "5", "--samples", "5"],
    ["verify-lemmas", "--which", "s3ss0", "--n", "5", "--samples", "5"],
    ["verify-lemmas", "--which", "szeroins", "--n", "5", "--samples", "5"],
])
def test_enumeration_cap_from_config_refuses(argv, cap4, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--config", str(cap4), "--json", str(out)]) == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["name"] for v in verdicts] == ["usage"]
    assert "exceeds the enumeration cap 4" in verdicts[0]["details"]["error"]


@pytest.mark.parametrize("which", ["identity1", "identity2"])
def test_identity_lemmas_ignore_the_enumeration_cap(which, cap4):
    assert main(["verify-lemmas", "--which", which, "--n", "5", "--samples", "5",
                 "--config", str(cap4)]) == 0


@pytest.mark.parametrize("argv", [
    ["--which", "skasnxt4", "--n", "5", "--m", "3"],  # no S_k with k >= 4
    ["--which", "s3ss0", "--n", "5", "--m", "2"],     # no S_3
    ["--which", "s3ss0", "--n", "5", "--m", "7"],     # pattern outside [1, 5]
    ["--which", "szeroconn", "--n", "5", "--m", "7"],
    ["--which", "s3ss0", "--n", "5", "--m", "0"],     # no S_3, not the default m
])
def test_lemma_patterns_without_the_sampled_class_are_usage_failures(argv, tmp_path):
    out = tmp_path / "report.json"
    samples = [] if "szeroconn" in argv else ["--samples", "5"]
    assert main(["verify-lemmas", "--json", str(out)] + samples + argv) == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["name"] for v in verdicts] == ["usage"]
    assert "does not read" not in verdicts[0]["details"]["error"]


@pytest.mark.parametrize("argv", [
    ["protocol", "n0", "--a", "1111", "--b", "1111", "--samples", "-5"],
    ["verify-slack", "--family", "qap1", "--n", "6", "--limit", "-1"],
    ["verify-lemmas", "--which", "s3ss0", "--n", "5", "--samples", "-3"],
    ["protocol", "n0", "--a", "1111", "--b", "1111", "--samples", "10", "--seed", "-1"],
])
def test_negative_counts_are_usage_failures(argv, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--json", str(out)]) == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["name"] for v in verdicts] == ["usage"]
    assert "must be >= 0" in verdicts[0]["details"]["error"]


@pytest.mark.parametrize("argv", [
    ["verify-lemmas", "--which", "identity1", "--n", "5", "--samples", "0"],
    ["verify-lemmas", "--which", "identity2", "--n", "5", "--samples", "0"],
    ["verify-lemmas", "--which", "s3ss0", "--n", "5", "--samples", "0"],
    ["verify-lemmas", "--which", "all", "--n", "5", "--samples", "0"],
    # a 0 is refused by validation, not replaced by the default
    ["verify-facet", "--family", "qap4", "--n", "7", "--m", "0"],
    ["reduce", "--family", "qap1", "--graph", "TRIANGLE7", "--k", "0", "--l", "0",
     "--t", "2"],
])
def test_zero_counts_and_indices_are_usage_failures(argv, triangle7, tmp_path):
    out = tmp_path / "report.json"
    argv = [str(triangle7) if arg == "TRIANGLE7" else arg for arg in argv]
    assert main(argv + ["--json", str(out)]) == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["name"] for v in verdicts] == ["usage"]


@pytest.mark.parametrize("argv,unread", [
    (["reduce", "--family", "qap2", "--graph", "TRIANGLE7", "--t", "3", "--k", "0",
      "--l", "0"], "--k, --l"),
    (["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0",
      "--coeffs", "1,1:1;2,2:-1", "--expect", "valid-only", "--m", "3"], "--m"),
    (["verify-facet", "--family", "qap4", "--n", "7", "--k", "1"], "--k"),
    (["verify-lemmas", "--which", "identity1", "--n", "5", "--m", "3",
      "--samples", "5"], "--m"),
    (["protocol", "n0", "--a", "1111", "--b", "1111", "--family", "qap2"], "--family"),
    (["protocol", "slack", "--family", "qap2", "--a", "1100", "--b", "1010",
      "--samples", "7"], "--samples"),
    (["verify-lemmas", "--which", "szeroconn", "--n", "5", "--samples", "7"],
     "--samples"),
])
def test_options_the_family_does_not_read_are_usage_failures(argv, unread, triangle7,
                                                             tmp_path):
    out = tmp_path / "report.json"
    argv = [str(triangle7) if arg == "TRIANGLE7" else arg for arg in argv]
    assert main(argv + ["--json", str(out)]) == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["name"] for v in verdicts] == ["usage"]
    assert verdicts[0]["details"]["error"].endswith("does not read " + unread)


@pytest.mark.parametrize("argv,error", [
    (["verify-facet", "--family", "qap1", "--n", "7"], "qap1 needs --i-set, --j-set, --k, --l"),
    (["verify-facet", "--family", "qap2", "--n", "7", "--P", "1,2,3", "--Q", "1,2,3"],
     "qap2 needs --beta"),
    (["verify-facet", "--family", "qap5", "--n", "5", "--coeffs", "1,1:1"], "qap5 needs --beta"),
    (["verify-facet", "--family", "qap2", "--n", "7", "--P", "1,a", "--Q", "1,2,3",
      "--beta", "2"], "--P takes integers, got '1,a'"),
    (["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0", "--coeffs", "1,1"],
     "--coeffs takes 'i,j:v;i,j:v', got '1,1'"),
    (["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0", "--coeffs", "1:2"],
     "--coeffs takes 'i,j:v;i,j:v', got '1:2'"),
    (["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0", "--coeffs",
      "1,1:1;1,1:2"], "--coeffs gives cell 1,1 more than once"),
    (["reduce", "--family", "qap1", "--graph", "MISSING", "--t", "2"], "MISSING"),
    (["clique-oracle", "--family", "qap2", "--graph", "TRIANGLE7", "--config", "MISSING"],
     "MISSING"),
    (["verify-lemmas", "--which", "identity1", "--n", "4"], "lemma checks need n >= 5"),
], ids=["qap1-sets", "qap2-beta", "qap5-beta", "P", "coeffs-value", "coeffs-pair",
        "coeffs-repeat", "graph-file", "config-file", "lemma-n"])
def test_malformed_and_missing_inputs_are_usage_failures(argv, error, triangle7, tmp_path):
    out, missing = tmp_path / "report.json", str(tmp_path / "missing.txt")
    argv = [{"TRIANGLE7": str(triangle7), "MISSING": missing}.get(arg, arg) for arg in argv]
    assert main(argv + ["--json", str(out)]) == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["name"] for v in verdicts] == ["usage"]
    assert error.replace("MISSING", missing) in verdicts[0]["details"]["error"]


QAP5_CERTIFY = ["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0",
                "--coeffs", "1,1:1;2,2:-1", "--expect", "valid-only", "--certify"]


def test_verify_facet_takes_certify(tmp_path):
    out = tmp_path / "report.json"
    assert main(QAP5_CERTIFY + ["--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["parameters"]["certify"] is True
    certificate = report["verdicts"][-1]["details"]["certificate"]
    assert certificate["polytope"] and certificate["tight"]


def test_certify_confirms_the_readme_qap5_form_at_n6(monkeypatch, tmp_path):
    # exact elimination over all 720 vertices and the 624 tight ones
    # confirms both proven dimensions, so the report is the uncertified one
    from qappoly import geometry

    shapes = []
    exact = geometry.rank_exact_rational

    def recording(matrix):
        shapes.append(matrix.shape)
        return exact(matrix)

    monkeypatch.setattr(geometry, "rank_exact_rational", recording)
    argv = [arg if arg != "5" else "6" for arg in QAP5_CERTIFY if arg != "--certify"]
    analyses = []
    for extra in ([], ["--certify"]):
        out = tmp_path / "report.json"
        assert main(argv + extra + ["--json", str(out)]) == 0
        analyses.append(json.loads(out.read_text())["verdicts"][-1]["details"])
    assert shapes == [(720, 486), (624, 486)]
    plain, certified = analyses
    assert certified == plain
    assert (certified["polytope_dim"], certified["tight_dim"]) == (206, 199)


def test_a_certification_mismatch_is_a_failed_report(monkeypatch, tmp_path):
    from qappoly import geometry

    monkeypatch.setattr(geometry, "rank_exact_rational", lambda matrix: 0)
    out = tmp_path / "report.json"
    assert main(QAP5_CERTIFY + ["--json", str(out)]) == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["name"] for v in verdicts] == ["usage"]
    assert verdicts[0]["details"]["error"].startswith("certification mismatch")


@pytest.mark.parametrize("argv", [
    ["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0",
     "--coeffs", "1,1:1;2,2:-1", "--expect", "valid-only"],
    ["verify-lemmas", "--which", "s3ss0", "--n", "5", "--samples", "5"],
])
def test_a_verdict_without_a_lift_is_refused_as_unproven(argv, monkeypatch, tmp_path):
    from qappoly import geometry, modrank

    for module in (geometry, modrank):
        monkeypatch.setattr(module, "lifted_kernel", lambda points, known: None)
    out = tmp_path / "report.json"
    assert main(argv + ["--json", str(out)]) == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert verdicts[-1]["name"] == "usage"
    assert verdicts[-1]["details"]["error"].startswith("unproven")


@pytest.mark.parametrize("argv", [
    ["reduce", "--family", "qap2", "--graph", "TRIANGLE7", "--t", "2"],
    ["verify-lemmas", "--which", "identity1", "--n", "5", "--samples", "5"],
])
def test_other_commands_reject_certify(argv, triangle7, capsys):
    argv = [str(triangle7) if arg == "TRIANGLE7" else arg for arg in argv]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--certify"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --certify" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["szeroconn", "skasnxt4", "s3ss0", "szeroins"])
def test_an_empty_match_pattern_is_a_usage_failure(which, tmp_path):
    # --m 0 would put every vertex in S_0, so the check would say nothing
    out = tmp_path / "report.json"
    samples = [] if which == "szeroconn" else ["--samples", "5"]
    assert main(["verify-lemmas", "--which", which, "--n", "5", "--m", "0",
                 "--json", str(out)] + samples) == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["name"] for v in verdicts] == ["usage"]
    assert "at least one pair" in verdicts[0]["details"]["error"]


def test_szeroconn_takes_no_samples(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-lemmas", "--which", "szeroconn", "--n", "5",
                 "--json", str(out)]) == 0
    assert "samples" not in json.loads(out.read_text())["parameters"]
    assert main(["verify-lemmas", "--which", "szeroconn", "--n", "5",
                 "--samples", "0"]) == 1


def test_sampled_lemmas_record_the_default_sample_count(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-lemmas", "--which", "s3ss0", "--n", "5",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["parameters"]["samples"] == 200
    assert report["verdicts"][0]["details"]["samples"] == 200


def test_szeroconn_above_the_vertex_space_limit_is_a_usage_failure(tmp_path):
    # a raised cap lets n=10 past the CLI, but no vertex space is built above 9
    cfg = tmp_path / "cap10.cfg"
    cfg.write_text("enumeration_cap=10\n")
    out = tmp_path / "report.json"
    assert main(["verify-lemmas", "--which", "szeroconn", "--n", "10",
                 "--config", str(cfg), "--acknowledge-caps",
                 "--json", str(out)]) == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["name"] for v in verdicts] == ["usage"]
    assert "exceeds the enumeration cap 9" in verdicts[0]["details"]["error"]


def test_verify_slack_reuses_the_cached_vertex_space():
    from qappoly.geometry import vertex_space

    vertex_space(6)
    misses = vertex_space.cache_info().misses
    assert main(["verify-slack", "--family", "qap1", "--n", "6", "--limit", "1"]) == 0
    assert vertex_space.cache_info().misses == misses


def test_verify_slack_counts_a_per_vertex_formula_off_by_one(monkeypatch, tmp_path):
    from qappoly import cli

    scalar = cli.closed_form_slack
    monkeypatch.setattr(cli, "closed_form_slack",
                        lambda *args, **kwargs: scalar(*args, **kwargs) + 1)
    out = tmp_path / "slack.json"
    # qap1 has forms from n = 6 on
    code = main(["verify-slack", "--family", "qap1", "--n", "6", "--limit", "6",
                 "--json", str(out)])
    details = json.loads(out.read_text())["verdicts"][0]["details"]
    assert code == 1
    assert (details["forms"], details["mismatches"]) == (6, 6 * 720)


@pytest.mark.parametrize("family,n", [("qap2", 6), ("qap1", 5), ("qap4", 6)])
def test_verify_slack_on_an_empty_family_is_a_usage_failure(family, n, tmp_path):
    out = tmp_path / "slack.json"
    assert main(["verify-slack", "--family", family, "--n", str(n),
                 "--json", str(out)]) == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["name"] for v in verdicts] == ["usage"]
    assert f"{family} has no forms at n={n}" in verdicts[0]["details"]["error"]


# the five operations of the facet-n7 benchmark workload (seed 1), with the
# verdict and dimensions each gave before the lifted kernel started from the
# hull equations
FACET_N7_OPS = [
    (["verify-facet", "--family", "qap4", "--n", "7", "--m", "7"],
     "facet", {"verdict": "facet", "polytope_dim": 457, "tight_dim": 456,
               "tight_count": 2779}),
    (["verify-facet", "--family", "qap3", "--n", "7", "--P1", "1,2", "--P2", "3",
      "--Q", "1,2,3", "--beta", "1", "--expect", "valid-only"],
     "facet-analysis", {"verdict": "not facet", "polytope_dim": 457, "tight_dim": 454,
                        "tight_count": 3600}),
    (["verify-lemmas", "--which", "szeroins", "--n", "7", "--samples", "200",
      "--seed", "1"],
     "S_0 neighbor differences in span(S)", {"samples": 200, "members": 200}),
    (["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0",
      "--coeffs", "1,1:1;2,2:-1", "--expect", "valid-only", "--certify"],
     "facet-analysis", {"verdict": "not facet", "polytope_dim": 77, "tight_dim": 72,
                        "tight_count": 102}),
    (["verify-slack", "--family", "qap1", "--n", "7", "--limit", "300", "--seed", "1"],
     "slack formulas agree with direct evaluation", {"forms": 300, "mismatches": 0}),
]


@pytest.mark.parametrize("argv,name,pinned", FACET_N7_OPS,
                         ids=["qap4", "qap3", "szeroins", "qap5", "slack"])
def test_the_facet_n7_operations_keep_their_verdicts(argv, name, pinned, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--json", str(out)]) == 0
    verdicts = {v["name"]: v for v in json.loads(out.read_text())["verdicts"]}
    assert verdicts[name]["passed"]
    assert {key: verdicts[name]["details"][key] for key in pinned} == pinned


ROOT = Path(__file__).resolve().parent.parent


def _fresh_process(code, *args):
    """Run Python ``code`` in a fresh interpreter with this checkout's src/
    on the path; returns its standard output."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _without_timings(path):
    report = json.loads(path.read_text())
    report.pop("timings")
    return report


def test_main_builds_one_parser_and_no_option_carries_over(tmp_path):
    # a flag given to one call and the default a call records are both
    # absent from the next call's report, which equals a fresh process's
    from qappoly.cli import build_parser

    plain = [arg for arg in QAP5_CERTIFY if arg != "--certify"]
    lemmas = ["verify-lemmas", "--which", "s3ss0", "--n", "5"]
    calls = [QAP5_CERTIFY, plain, lemmas, lemmas + ["--samples", "5"], lemmas]
    build_parser.cache_clear()
    reports = []
    for index, argv in enumerate(calls):
        out = tmp_path / f"report{index}.json"
        assert main(argv + ["--json", str(out)]) == 0
        reports.append(_without_timings(out))
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    assert reports[0]["parameters"]["certify"] is True
    assert reports[1]["parameters"]["certify"] is False
    assert [report["parameters"]["samples"] for report in reports[2:]] == [200, 5, 200]
    fresh = tmp_path / "fresh.json"
    for index in (1, 4):
        _fresh_process("import sys; from qappoly.cli import main; main(sys.argv[1:])",
                       *calls[index], "--json", str(fresh))
        assert reports[index] == _without_timings(fresh)


def test_the_readme_qap5_check_leaves_numpy_ma_unloaded(tmp_path):
    # the tight set's proof lifts extras, and no step of it needs numpy's
    # set routines, whose first use imports numpy.ma
    out = tmp_path / "report.json"
    argv = [arg for arg in QAP5_CERTIFY if arg != "--certify"]
    loaded = _fresh_process("import sys; from qappoly.cli import main\n"
                            "main(sys.argv[1:]); print('numpy.ma' in sys.modules)",
                            *argv, "--json", str(out))
    assert loaded.splitlines()[-1] == "False"
    details = json.loads(out.read_text())["verdicts"][-1]["details"]
    assert details["certificate"]["tight"]["kind"] == "lifted kernel"
