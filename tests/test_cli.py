import json
import sys

import pytest

from bpmatch import (PERFECT, StopPolicy, fixture_path, make_schedule, parse_certificate,
                     parse_graph, parse_schedule, reduce_trivial, run_async)
from bpmatch import cli
from bpmatch.cli import main
from bpmatch.harness import solve_pipeline
from conftest import load_fixture, lower_vertex_prices


def fx(name):
    return str(fixture_path(name))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_c4_certified_match(self, capsys):
        code, out, _ = run_cli(capsys, "solve", fx("c4"), "--mode", "perfect", "--certify")
        assert code == 0
        assert "match vs oracle: True" in out
        assert "[[1, 2], [3, 4]]" in out

    def test_c4_stabilizes_within_hand_bound(self, capsys):
        code, out, _ = run_cli(capsys, "solve", fx("c4"), "--certify", "--json")
        payload = json.loads(out)
        assert payload["match"] is True
        assert payload["bp"]["stabilized_at"] <= 4

    def test_k4_certified_stop(self, capsys):
        code, out, _ = run_cli(capsys, "solve", fx("k4-appendix"),
                               "--certify", "--stop", "certified", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["match"] is True

    def test_tri_half_reports_nonconvergence(self, capsys):
        code, out, _ = run_cli(capsys, "solve", fx("tri-half"), "--mode", "nonperfect",
                               "--certify", "--stop", "budget=30")
        assert code == 4
        assert "tight: False" in out
        assert "oscillates with period 2" in out

    def test_constant_estimate_short_of_the_window_is_no_oscillation(self, capsys):
        # one round of c4 never changes the estimate; period 1 in --json
        code, out, _ = run_cli(capsys, "solve", fx("c4"), "--stop", "budget=1")
        assert code == 4
        assert "estimate unchanged, but the stability window was not reached" in out
        assert "oscillates" not in out
        code, out, _ = run_cli(capsys, "solve", fx("c4"), "--stop", "budget=1", "--json")
        assert code == 4 and json.loads(out)["bp"]["period"] == 1

    def test_p4_forced_edges_restored(self, capsys):
        code, out, _ = run_cli(capsys, "solve", fx("p4"), "--certify", "--stop", "certified")
        assert code == 0
        assert "[[1, 2], [3, 4]]" in out and "forced" in out

    def test_infeasible_exit_code(self, capsys, tmp_path):
        path = tmp_path / "odd.graph"
        path.write_text("3 3\n1 1 1\n1 2 1\n2 3 1\n1 3 1\n")
        code, out, _ = run_cli(capsys, "solve", str(path), "--certify")
        assert code == 3

    def test_validation_exit_code(self, capsys, tmp_path):
        path = tmp_path / "overcap.graph"
        path.write_text("2 1\n2 2\n1 2 1\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2 and "capacity" in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.graph"
        path.write_text("2 1\n1 1\n1 1 3\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2 and "self-loop" in err

    def test_json_reports_are_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "solve", fx("c4"), "--certify", "--json")
        _, second, _ = run_cli(capsys, "solve", fx("c4"), "--certify", "--json")
        assert first == second
        assert "wall_time" not in first

    def test_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.tsv"
        run_cli(capsys, "solve", fx("c4"), "--stop", "budget=2", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        assert lines[0] == "0\t1\t2\t1"
        assert {line.split("\t")[0] for line in lines} == {"0", "1", "2"}

    def test_zero_init(self, capsys):
        code, out, _ = run_cli(capsys, "solve", fx("c4"), "--init", "zero", "--certify")
        assert code == 0 and "match vs oracle: True" in out

    def test_init_file(self, capsys, tmp_path):
        g = parse_graph(fixture_path("c4").read_text())
        path = tmp_path / "init.txt"
        path.write_text("\n".join(f"{i} {j} 2" for (i, j) in g.directed_edges()) + "\n")
        code, out, _ = run_cli(capsys, "solve", fx("c4"), "--init", f"file={path}", "--certify")
        assert code == 0 and "match vs oracle: True" in out

    def _bad_init(self, capsys, tmp_path, line):
        g = parse_graph(fixture_path("c4").read_text())
        rows = [f"{i} {j} 2" for (i, j) in g.directed_edges()]
        rows[2] = line
        path = tmp_path / "init.txt"
        path.write_text("# header\n" + "\n".join(rows) + "\n")
        return run_cli(capsys, "solve", fx("c4"), "--init", f"file={path}")

    def test_init_file_zero_denominator(self, capsys, tmp_path):
        code, out, err = self._bad_init(capsys, tmp_path, "2 1 1/0")
        assert code == 2 and out == ""
        assert err == "error: init file line 4: bad value '1/0'\n"

    def test_init_file_non_numeric_value(self, capsys, tmp_path):
        code, _, err = self._bad_init(capsys, tmp_path, "2 1 abc")
        assert code == 2 and err == "error: init file line 4: bad value 'abc'\n"

    def test_init_file_non_integer_vertex(self, capsys, tmp_path):
        code, _, err = self._bad_init(capsys, tmp_path, "2.5 1 3")
        assert code == 2 and err == "error: init file line 4: bad vertex id in '2.5 1'\n"

    def test_init_file_pair_that_is_not_a_directed_edge(self, capsys, tmp_path):
        for line, pair in (("1 3 5", "(1, 3)"), ("1 1 5", "(1, 1)")):
            code, out, err = self._bad_init(capsys, tmp_path, line)
            assert code == 2 and out == ""
            assert err == f"error: init file line 4: {pair} is not a directed edge of the graph\n"

    def test_init_file_duplicate_directed_edge(self, capsys, tmp_path):
        code, out, err = self._bad_init(capsys, tmp_path, "1 2 5")
        assert code == 2 and out == ""
        assert err == "error: init file line 4: duplicate directed edge (1, 2)\n"

    def test_init_file_missing_a_directed_edge(self, capsys, tmp_path):
        code, _, err = self._bad_init(capsys, tmp_path, "# no line for 2 1")
        assert code == 2 and err == "error: init file: no value for directed edge (2, 1)\n"

    def test_init_file_inline_comments(self, capsys, tmp_path):
        # the text after '#' is dropped from every line, and an error still
        # names its line among all lines, comment lines included
        g = parse_graph(fixture_path("c4").read_text())
        rows = [f"{i} {j} 2  # into {j}" for (i, j) in g.directed_edges()]
        path = tmp_path / "init.txt"
        path.write_text("\n".join(rows[:3] + ["# the rest", ""] + rows[3:]) + "\n")
        code, out, _ = run_cli(capsys, "solve", fx("c4"), "--init", f"file={path}", "--json")
        plain = tmp_path / "plain.txt"
        plain.write_text("\n".join(f"{i} {j} 2" for (i, j) in g.directed_edges()) + "\n")
        assert (code, out) == run_cli(capsys, "solve", fx("c4"), "--init", f"file={plain}",
                                      "--json")[:2]
        rows[4] = "3 2 x  # not a number"
        path.write_text("\n".join(rows[:3] + ["# the rest", ""] + rows[3:]) + "\n")
        code, out, err = run_cli(capsys, "solve", fx("c4"), "--init", f"file={path}")
        assert code == 2 and err == "error: init file line 7: bad value 'x'\n"

    def test_init_file_on_a_reduced_instance(self, capsys, tmp_path):
        # p4 reduces away entirely; its init file names the input graph's edges
        path = tmp_path / "init.txt"
        path.write_text("1 2 1\n2 1 1\n2 3 5\n3 2 5\n3 4 2\n4 3 2\n")
        code, out, _ = run_cli(capsys, "solve", fx("p4"), "--init", f"file={path}",
                               "--certify", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["match"] is True
        assert "initial messages relabeled onto the reduced instance" in payload["notes"]

    @pytest.mark.parametrize("stop", ["budget=10", "window=3"])
    @pytest.mark.parametrize("schedule", ["roundrobin", "random:3"])
    def test_single_edge_schedule_on_a_reduced_away_instance(self, capsys, schedule, stop):
        # p4 reduces to a graph with no directed edges: a generated schedule
        # then takes empty steps, as the all-edges schedule does
        argv = ("solve", fx("p4"), "--stop", stop, "--certify", "--json")
        _, out, _ = run_cli(capsys, *argv, "--schedule", "sync")
        sync = json.loads(out)
        code, out, err = run_cli(capsys, *argv, "--schedule", schedule)
        payload = json.loads(out)
        assert code == 0 and err == ""
        assert payload["bp"].pop("u") == 0
        assert payload.pop("schedule") == ("roundrobin" if schedule == "roundrobin"
                                           else "random(seed=3)")
        sync.pop("schedule")
        assert payload == sync

    @pytest.mark.parametrize("stop", ["budget=10", "window=3"])
    @pytest.mark.parametrize("schedule", ["roundrobin", "random:3"])
    def test_single_edge_schedule_where_no_edge_can_be_re_updated(self, capsys, tmp_path,
                                                                 schedule, stop):
        # no directed edge of a path has a feeder, so each is updated once;
        # a generated schedule then takes empty steps, and the run stops as
        # the all-edges one does
        path = tmp_path / "path.graph"
        path.write_text("3 2\n1 1 1\n1 2 -1\n2 3 -1\n")
        argv = ("solve", str(path), "--mode", "nonperfect", "--stop", stop, "--json")
        code, out, _ = run_cli(capsys, *argv, "--schedule", "sync")
        assert code == 0
        sync = json.loads(out)["estimate"]
        code, out, err = run_cli(capsys, *argv, "--schedule", schedule)
        payload = json.loads(out)
        assert code == 0 and err == ""
        assert payload["estimate"] == sync == [[1, 2]]
        assert payload["bp"]["u"] == 1

    def test_async_certified_stop_grows_with_the_init(self, capsys, tmp_path):
        # weights start L at 8; this init adds 197, and the coverage stop must
        # grow with it as the synchronous bound does
        graph = tmp_path / "k4.graph"
        graph.write_text("4 6\n1 1 1 1\n1 2 16\n1 3 3\n1 4 24\n2 3 10\n2 4 11\n3 4 5\n")
        init = tmp_path / "init.txt"
        init.write_text("1 2 118\n1 3 -70\n1 4 179\n2 1 -17\n2 3 153\n2 4 178\n"
                        "3 1 133\n3 2 71\n3 4 -186\n4 1 38\n4 2 197\n4 3 -73\n")
        code, out, _ = run_cli(capsys, "solve", str(graph), "--schedule", "roundrobin",
                               "--init", f"file={init}", "--stop", "certified",
                               "--certify", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["match"] is True
        # threshold 2*4*(8 + 197)/7 = 234.3, so u must reach 235
        assert payload["bp"]["u"] == 235 and payload["certification"]["bound"] == 235

    @pytest.mark.parametrize("schedule", ["roundrobin", "random:3"])
    def test_unreachable_async_certified_stop_exits_two(self, capsys, tmp_path, schedule):
        # the leaf's edge (4 -> 3) has no feeder, so a single-edge schedule
        # updates it once and the certified coverage stop can never trigger
        graph = tmp_path / "leaf.graph"
        graph.write_text("4 4\n1 1 1 1\n1 2 -3\n2 3 -2\n1 3 -1\n3 4 -5\n")
        code, out, err = run_cli(capsys, "solve", str(graph), "--mode", "nonperfect",
                                 "--schedule", schedule, "--stop", "certified")
        assert code == 2 and out == ""
        assert "coverage stop unreachable" in err and "(4, 3) only once" in err

    def test_async_random_schedule_certified(self, capsys):
        code, out, _ = run_cli(capsys, "solve", fx("c4"), "--schedule", "random:7",
                               "--stop", "certified", "--certify", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["match"] is True
        assert payload["schedule"] == "random(seed=7)"

    def test_schedule_file_run(self, capsys, tmp_path):
        g = parse_graph(fixture_path("c4").read_text())
        steps = []
        order = sorted(g.directed_edges())
        for _ in range(3):
            steps.extend(f"{i}>{j}" for (i, j) in order)
        path = tmp_path / "sched.txt"
        path.write_text("\n".join(steps) + "\n")
        code, out, _ = run_cli(capsys, "solve", fx("c4"), "--schedule", f"file={path}",
                               "--stop", f"budget={3 * len(order)}", "--certify")
        assert code == 0 and "match vs oracle: True" in out

    def test_schedule_file_on_a_reduced_instance(self, capsys, tmp_path):
        # vertex 1 is trivial: forcing 1-2 uses up vertex 2, and what is left
        # is c4 on vertices 3..6, so the file's steps, named in the input
        # graph's labels, are relabeled onto the reduced instance
        graph = tmp_path / "pendant.graph"
        graph.write_text("6 6\n1 1 1 1 1 1\n1 2 1\n2 3 7\n3 4 1\n4 5 2\n5 6 1\n3 6 3\n")
        g = parse_graph(graph.read_text())
        order = [(i, j) for (i, j) in g.directed_edges() if i > 2 and j > 2]
        path = tmp_path / "sched.txt"
        path.write_text("".join(f"{i}>{j}\n" for (i, j) in order) * 3)
        code, out, _ = run_cli(capsys, "solve", str(graph), "--schedule", f"file={path}",
                               "--stop", "budget=24", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["estimate"] == [[1, 2], [3, 4], [5, 6]]
        assert "schedule relabeled onto the reduced instance" in payload["notes"]
        reduction = reduce_trivial(g)
        assert reduction.graph == load_fixture("c4")
        sets = [{(i - 2, j - 2)} for (i, j) in order] * 3
        report = solve_pipeline(g, PERFECT, schedule=parse_schedule(path.read_text(), g),
                                stop_spec=("budget", 24))
        want = run_async(reduction.graph, make_schedule(reduction.graph, "explicit", sets=sets),
                         stop=StopPolicy.budget(24))
        assert report.run == want

    @pytest.mark.parametrize("spec, kind, seed", [("roundrobin", "roundrobin", None),
                                                  ("random:5", "random", 5)])
    def test_generated_schedule_on_a_reduced_instance(self, capsys, tmp_path, spec, kind,
                                                      seed):
        # the graph of test_schedule_file_on_a_reduced_instance: a generated
        # schedule is made again on the reduced instance, c4 on vertices 3..6
        graph = tmp_path / "pendant.graph"
        graph.write_text("6 6\n1 1 1 1 1 1\n1 2 1\n2 3 7\n3 4 1\n4 5 2\n5 6 1\n3 6 3\n")
        g = parse_graph(graph.read_text())
        work = reduce_trivial(g).graph
        want = run_async(work, make_schedule(work, kind, seed=seed), stop=StopPolicy.budget(24))
        report = solve_pipeline(g, PERFECT, schedule=cli._parse_schedule_flag(spec, g),
                                stop_spec=("budget", 24))
        assert report.run == want and report.schedule == spec.replace(":5", "(seed=5)")
        code, out, _ = run_cli(capsys, "solve", str(graph), "--schedule", spec,
                               "--stop", "budget=24", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["bp"]["iterations"] == want.iterations == 24
        assert payload["estimate"] == [[1, 2]] + [[i + 2, j + 2] for (i, j) in
                                                  sorted(want.estimate.edges)]
        assert "schedule relabeled onto the reduced instance" not in payload["notes"]

    def test_redundant_schedule_file_needs_force(self, capsys, tmp_path):
        # 1 -> 2 twice with no feeding update between, then round-robin
        g = parse_graph(fixture_path("c4").read_text())
        path = tmp_path / "redundant.sched"
        path.write_text("1>2\n1>2\n" + "".join(f"{i}>{j}\n" for (i, j) in
                                                  sorted(g.directed_edges())) * 100)
        argv = ("solve", fx("c4"), "--schedule", f"file={path}", "--stop", "certified", "--json")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "redundant update of (1, 2) at step 2" in err
        code, out, _ = run_cli(capsys, *argv, "--force")
        payload = json.loads(out)
        assert code == 0 and payload["certified"] is False and payload["match"] is True
        assert "schedule validation waived; result uncertified" in payload["notes"]

    def test_solve_emits_the_certificate_certify_emits(self, capsys, tmp_path):
        solved, certified = tmp_path / "solve.cert", tmp_path / "certify.cert"
        code, _, _ = run_cli(capsys, "solve", fx("k4-appendix"), "--certify",
                             "--emit-cert", str(solved))
        assert code == 0
        assert run_cli(capsys, "certify", fx("k4-appendix"), "--emit-cert", str(certified))[0] == 0
        assert solved.read_text() == certified.read_text() != ""

    def test_dual_file_override_gives_sharper_bound(self, capsys, tmp_path):
        cert = tmp_path / "c4.cert"
        cert.write_text("y 1 1/2\ny 2 1/2\ny 3 1/2\ny 4 1/2\n")
        code, out, _ = run_cli(capsys, "solve", fx("c4"), "--certify",
                               "--stop", "certified", "--dual-file", str(cert), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["certification"]["bound"] == 4
        assert payload["bp"]["iterations"] == 4

    def test_certified_nonperfect_zero_message_past_capacity_exits_zero(self, capsys, tmp_path):
        # at the certified stop vertex 4 (b = 2) has taken two negative
        # messages and also receives a zero one: no tie, exit 0
        path = tmp_path / "k4b.graph"
        path.write_text("4 6\n2 1 1 2\n1 2 -14\n1 3 -17\n1 4 -15\n"
                        "2 3 -4\n2 4 -19\n3 4 -17\n")
        code, out, _ = run_cli(capsys, "solve", str(path), "--mode", "nonperfect",
                               "--certify", "--stop", "certified", "--json")
        payload = json.loads(out)
        assert payload["match"] is True and payload["certified"] is True
        assert payload["bp"]["ties"] == [] and payload["bp"]["iterations"] == 61
        assert code == 0 and payload["exit_code"] == 0

    def test_dual_file_self_loop_is_a_parse_error(self, capsys, tmp_path):
        cert = tmp_path / "loop.cert"
        cert.write_text("y 1 1/2\nlambda 2 2 0\n")
        for argv in (("certify", fx("c4")), ("solve", fx("c4"), "--certify")):
            code, out, err = run_cli(capsys, *argv, "--dual-file", str(cert))
            assert code == 2 and out == ""
            assert err == "error: line 2: self-loop at vertex 2\n"

    def test_dual_file_inline_comments(self, capsys, tmp_path):
        # as in graph and init files: what follows '#' is dropped, and an
        # error names its line among all lines
        cert = tmp_path / "c4.cert"
        cert.write_text("# c4, all duals 1/2\ny 1 1/2  # vertex 1\n\n"
                        "y 2 1/2\ny 3 1/2 # vertex 3\ny 4 1/2\n")
        code, out, _ = run_cli(capsys, "solve", fx("c4"), "--certify",
                               "--stop", "certified", "--dual-file", str(cert), "--json")
        assert code == 0 and json.loads(out)["certification"]["bound"] == 4
        cert.write_text("# header\ny 1 1/2  # fine\n# a comment line\nlambda 2 2 0  # loop\n")
        code, out, err = run_cli(capsys, "certify", fx("c4"), "--dual-file", str(cert))
        assert code == 2 and out == "" and err == "error: line 4: self-loop at vertex 2\n"

    def test_dual_file_duplicate_entry_is_a_parse_error(self, capsys, tmp_path):
        cert = tmp_path / "dup.cert"
        for text, msg in (("y 1 1/2\ny 2 1/2\ny 1 0\n", "line 3: duplicate y 1"),
                          ("lambda 1 2 0\nlambda 2 1 1\n", "line 2: duplicate lambda (1, 2)")):
            cert.write_text(text)
            for argv in (("certify", fx("c4")), ("solve", fx("c4"), "--certify")):
                code, out, err = run_cli(capsys, *argv, "--dual-file", str(cert))
                assert code == 2 and out == ""
                assert err == f"error: {msg}\n"

    def test_dual_file_on_an_instance_the_reduction_proves_infeasible(self, capsys, tmp_path):
        # the reduction finds the instance infeasible before the dual file,
        # which names a vertex the reduced graph lacks, is read: exit 3, as
        # certify gives
        path = tmp_path / "p3.graph"
        path.write_text("3 2\n1 1 1\n1 2 1\n2 3 1\n")
        cert = tmp_path / "p3.cert"
        cert.write_text("y 1 0\n")
        for argv in (("certify", str(path)), ("solve", str(path), "--certify")):
            code, out, err = run_cli(capsys, *argv, "--dual-file", str(cert), "--json")
            assert code == 3 and err == ""
            assert json.loads(out)["infeasible"] is True

    def test_suboptimal_dual_file_rejected(self, capsys, tmp_path):
        cert = tmp_path / "bad.cert"
        cert.write_text("y 1 0\ny 2 0\ny 3 0\ny 4 0\n")  # feasible, not optimal
        code, _, err = run_cli(capsys, "solve", fx("c4"), "--certify",
                               "--dual-file", str(cert))
        assert code == 2 and "not optimal" in err


class TestCertify:
    def test_k4_summary(self, capsys):
        code, out, _ = run_cli(capsys, "certify", fx("k4-appendix"))
        assert code == 0
        assert "tight: True" in out and "complementary slackness: pass" in out

    def test_emit_and_reload(self, capsys, tmp_path):
        cert_path = tmp_path / "k4.cert"
        run_cli(capsys, "certify", fx("k4-appendix"), "--emit-cert", str(cert_path))
        g = parse_graph(fixture_path("k4-appendix").read_text())
        cert = parse_certificate(cert_path.read_text(), g, "perfect")
        assert cert.epsilon is not None

    def test_hand_certificate_reproduces_appendix_numbers(self, capsys, tmp_path):
        cert = tmp_path / "hand.cert"
        cert.write_text("y 1 1/2\ny 2 1/2\ny 3 1/2\ny 4 1/2\n")
        code, out, _ = run_cli(capsys, "certify", fx("k4-appendix"),
                               "--dual-file", str(cert))
        assert code == 0
        assert "epsilon = 9, L = 1/2" in out
        assert "iteration bound: 1" in out

    def test_reduced_away_instance_reports_undefined_epsilon(self, capsys):
        code, out, _ = run_cli(capsys, "certify", fx("p4"))
        assert code == 0
        assert "epsilon undefined (S empty); bound n+1 = 1" in out

    def test_dual_file_changes_the_bound_but_not_the_verdict(self, capsys, tmp_path):
        cert = tmp_path / "hand.cert"
        cert.write_text("y 1 1/2\ny 2 1/2\ny 3 1/2\ny 4 1/2\n")
        code, out, _ = run_cli(capsys, "certify", fx("k4-appendix"), "--json")
        own = json.loads(out)["certification"]
        code_hand, out, _ = run_cli(capsys, "certify", fx("k4-appendix"), "--json",
                                    "--dual-file", str(cert))
        hand = json.loads(out)["certification"]
        assert code == code_hand == 0
        assert (hand["epsilon"], hand["L"], hand["bound"]) != (own["epsilon"], own["L"], own["bound"])
        assert (hand["tight"], hand["tight_reason"]) == (own["tight"], own["tight_reason"])

    def test_loose_instance_prints_witness(self, capsys):
        code, out, _ = run_cli(capsys, "certify", fx("tri-half"), "--mode", "nonperfect")
        assert code == 0
        assert "tight: False" in out and "x[1-2]=1/2" in out


class TestTreeVerify:
    def test_sync(self, capsys):
        code, out, _ = run_cli(capsys, "tree-verify", fx("c4"), "--t-max", "3")
        assert code == 0 and "checks passed" in out

    def test_async_schedule(self, capsys):
        code, out, _ = run_cli(capsys, "tree-verify", fx("c4"), "--t-max", "8",
                               "--schedule", "roundrobin")
        assert code == 0 and "checks passed" in out

    def test_single_edge_schedule_on_a_reduced_away_instance(self, capsys):
        code, out, err = run_cli(capsys, "tree-verify", fx("p4"), "--schedule", "roundrobin")
        assert code == 0 and err == "" and "checks passed" in out

    def test_schedule_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_text("1>2\n")
        code, out, err = run_cli(capsys, "tree-verify", fx("c4"), "--schedule", f"file={path}")
        assert code == 2 and out == ""
        assert err == "error: tree-verify supports generated schedules only\n"

    def test_invalid_graph_is_a_validation_error(self, capsys, tmp_path):
        # capacity 2 at a degree-1 vertex: exit 2 before the reduction, as
        # solve and certify do
        path = tmp_path / "cap.graph"
        path.write_text("3 2\n2 1 1\n1 2 1\n2 3 1\n")
        code, out, err = run_cli(capsys, "tree-verify", str(path))
        assert code == 2 and out == ""
        assert "capacity 2 exceeds degree 1" in err
        for cmd in ("solve", "certify"):
            assert run_cli(capsys, cmd, str(path))[0] == 2

    def test_infeasible_instance_json(self, capsys, tmp_path):
        path = tmp_path / "p3.graph"
        path.write_text("3 2\n1 1 1\n1 2 1\n2 3 1\n")
        code, out, _ = run_cli(capsys, "tree-verify", str(path), "--json")
        assert code == 3
        assert json.loads(out) == {"instance": str(path), "infeasible": True}

    def test_dump_tree(self, capsys, tmp_path):
        dump = tmp_path / "trees.txt"
        run_cli(capsys, "tree-verify", fx("c4"), "--t-max", "1", "--dump-tree", str(dump))
        assert "# root 1, t=1" in dump.read_text()
        assert "0 label=1" in dump.read_text()

    def test_a_dumped_schedule_tree_is_the_builders_tree(self, capsys, tmp_path, monkeypatch):
        # the check and the dump read one builder
        from bpmatch import GCTBuilder, dump_tree
        from bpmatch.harness import prepare_instance
        built, init = [], GCTBuilder.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        dump = tmp_path / "trees.txt"
        with monkeypatch.context() as m:
            m.setattr(GCTBuilder, "__init__", counting)
            code, _, _ = run_cli(capsys, "tree-verify", fx("c4"), "--schedule", "random:3",
                                 "--t-max", "6", "--dump-tree", str(dump))
        assert code == 0 and len(built) == 1
        g = prepare_instance(load_fixture("c4"), PERFECT)[0]
        builder = GCTBuilder(g, make_schedule(g, "random", seed=3), 6)
        assert dump.read_text() == "\n".join(f"# root {root}, t=6\n"
                                             + dump_tree(builder.gct(root, 6))
                                             for root in g.vertices())

    def test_tree_code_needs_no_frame_per_level(self, capsys):
        # 100 frames above the current stack cannot hold one frame per
        # level of t = 60 trees
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            code, out, _ = run_cli(capsys, "tree-verify", fx("c4"), "--t-max", "60")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0 and "all 244 root/time checks passed" in out


class TestSweepAndScheduleValidate:
    def test_sweep_small(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--instances", "15", "--seed", "3", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["mismatches"] == 0
        assert payload["tightness_agreements"] == payload["tightness_checked_both_ways"]

    def test_sweep_reports_a_bad_dual_and_finishes(self, capsys, monkeypatch):
        lower_vertex_prices(monkeypatch)
        code, out, _ = run_cli(capsys, "sweep", "--mode", "perfect", "--instances", "6",
                               "--seed", "3")
        assert code == cli.EXIT_MISMATCH
        assert "strong duality: FAIL" in out and "sweep: 6 instances" in out

    def test_schedule_validate_ok(self, capsys):
        code, out, _ = run_cli(capsys, "schedule-validate", fx("c4"),
                               "--schedule", "roundrobin", "--horizon", "24")
        assert code == 0 and "ok" in out

    def test_schedule_validate_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.sched"
        path.write_text("1>2\n1>2\n")
        code, out, _ = run_cli(capsys, "schedule-validate", fx("c4"),
                               "--schedule", f"file={path}", "--horizon", "2")
        assert code == 2 and "re-updated" in out

    def test_schedule_validate_edge_named_twice_on_one_line(self, capsys, tmp_path):
        path = tmp_path / "twice.sched"
        path.write_text("1>2 1>2\n")
        code, out, err = run_cli(capsys, "schedule-validate", fx("c4"),
                                 "--schedule", f"file={path}", "--horizon", "1")
        assert code == 2 and out == ""
        assert err == "error: line 1: duplicate directed edge (1, 2)\n"


def run_cli_or_exit(capsys, *argv):
    """run_cli, also for argparse's errors, which exit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOneParser:
    """main builds its parser once per process and reuses it."""

    SEQUENCE = [("solve", "C4", "--json"), ("certify", "C4", "--json"),
                ("solve", "C4", "--bogus"), ("solve", "C4", "--json")]

    def calls(self, capsys, fresh):
        out = []
        for argv in self.SEQUENCE:
            if fresh:
                cli._parser.cache_clear()
            out.append(run_cli_or_exit(capsys, *(fx("c4") if a == "C4" else a for a in argv)))
        return out

    def test_built_once(self, capsys, monkeypatch):
        builds = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
        cli._parser.cache_clear()
        self.calls(capsys, fresh=False)
        assert len(builds) == 1

    def test_a_sequence_prints_what_calls_made_alone_print(self, capsys):
        alone = self.calls(capsys, fresh=True)
        together = self.calls(capsys, fresh=False)
        assert together == alone
        assert [code for code, _, _ in alone] == [0, 0, 2, 0]
        assert alone[2][1] == "" and "unrecognized arguments: --bogus" in alone[2][2]
        assert alone[3] == alone[0]

    def test_the_module_command_is_the_one_run(self, capsys, monkeypatch):
        seen = []
        main(["solve", fx("c4")])  # the parser exists before the patch
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.graph) or 7)
        assert main(["solve", fx("c4")]) == 7 and seen == [fx("c4")]


class TestWork:
    """Counts calls, times nothing."""

    @pytest.mark.parametrize("schedule", ["sync", "roundrobin"])
    def test_a_solve_scans_its_graph_once(self, capsys, monkeypatch, schedule):
        from bpmatch import graph
        modes = []
        real = graph.validate

        def counting(g, mode):
            modes.append(mode)
            return real(g, mode)

        monkeypatch.setattr(graph, "validate", counting)
        code, _, _ = run_cli(capsys, "solve", fx("c4"), "--schedule", schedule, "--json")
        assert code == 0 and modes == [PERFECT]


@pytest.mark.parametrize("argv", [
    ("solve", "C4", "--stop", "budget=abc"),
    ("solve", "C4", "--stop", "foo"),
    ("solve", "C4", "--stop", "budget=-3"),
    ("solve", "C4", "--stop", "window=0"),
    ("solve", "C4", "--schedule", "random:abc"),
    ("solve", "C4", "--schedule", "bogus"),
    ("solve", "C4", "--init", "bogus"),
    ("tree-verify", "C4", "--t-max", "-1"),
    ("schedule-validate", "C4", "--schedule", "roundrobin", "--horizon", "-1"),
    ("sweep", "--n-max", "2"),
    ("sweep", "--mode", "nonperfect", "--weight-lo", "5"),
    ("sweep", "--instances", "-3"),
])
def test_malformed_flag_value_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *(fx("c4") if a == "C4" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
