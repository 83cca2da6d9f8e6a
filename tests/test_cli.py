import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jflow.cli import main
from jflow.problems import builtin_problems, load_problem

QUAD_CHAIN = {
    "problem": "dirichlet",
    "grid": {"topology": "chain", "n": 8, "h": 0.25},
    "p": 2.0,
}

ROBIN_SMALL = {
    "problem": "robin",
    "grid": {"topology": "grid", "nx": 4, "ny": 4, "h": 0.25},
    "p": 2.0,
    "law": {"g": {"kind": "arctan", "a": 0.5}, "beta": {"kind": "linear", "a": 1.0}},
}

SOURCED_ROBIN = {
    "problem": "robin",
    "grid": {"topology": "chain", "n": 6, "h": 0.25},
    "p": 2.0,
    "law": {"g": {"kind": "affine", "a": 1.0, "b": 0.8}, "beta": {"kind": "linear", "a": 1.0}},
}


def write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    return header, np.array(rows)


def test_run_writes_decaying_trajectory(tmp_path):
    problem = write(tmp_path, "quad.json", QUAD_CHAIN)
    out = tmp_path / "out"
    code = main(["run", "--problem", problem, "--T", "1.0", "--tau", "0.1", "--seed", "3", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert header[0] == "t" and header[-2] == "energy" and header[-1] == "step_residual"
    assert rows.shape[0] == 11
    energy = rows[:, -2]
    assert np.all(np.diff(energy) <= 1e-9)
    t = rows[:, 0]
    assert np.all(np.diff(t) > 0)
    assert np.allclose(np.diff(t), 0.1)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dissipation"]["passed"]
    assert summary["contraction"]["passed"]


def test_run_T_equals_tau_two_rows(tmp_path):
    problem = write(tmp_path, "quad.json", QUAD_CHAIN)
    out = tmp_path / "out2"
    code = main(["run", "--problem", problem, "--T", "0.1", "--tau", "0.1", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "trajectory.csv")
    assert rows.shape[0] == 2


def test_run_missing_file_exit_2(tmp_path):
    assert main(["run", "--problem", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_run_bad_steps_exit_2(tmp_path):
    problem = write(tmp_path, "quad.json", QUAD_CHAIN)
    assert main(["run", "--problem", problem, "--T", "0.01", "--tau", "0.1", "--out", str(tmp_path)]) == 2


def test_check_robin_default_suite_passes(tmp_path):
    problem = write(tmp_path, "robin.json", ROBIN_SMALL)
    out = tmp_path / "rep"
    code = main([
        "check", "--problem", problem, "--seed", "7", "--samples", "8",
        "--T", "0.3", "--tau", "0.05", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]
    assert {c["name"] for c in report["checks"]} >= {"invariance[positive-cone]", "order-preserving"}


def test_check_sourced_flow_fails_positivity(tmp_path):
    problem = write(tmp_path, "sourced.json", SOURCED_ROBIN)
    out = tmp_path / "rep2"
    code = main([
        "check", "--problem", problem, "--seed", "7", "--samples", "8",
        "--T", "0.3", "--tau", "0.05", "--out", str(out),
    ])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing
    assert any(c["witness"] is not None for c in failing)


# the only suites of `jflow check --seed 7` that fail on the bundled problems
FAILING_SUITES = {"coupled_p2": {"comparison"}, "coupled_p3": {"comparison"}}


@pytest.mark.parametrize("name", sorted(builtin_problems()))
def test_check_builtin_default_suite_verdicts(tmp_path, name):
    # every verdict is pinned; on tv_chain32, total-variation flow from
    # nonnegative or ordered data stays so, and an inexact backward step
    # shows up as a false positivity failure
    problem = write(tmp_path, f"{name}.json", builtin_problems()[name])
    out = tmp_path / "rep"
    code = main(["check", "--problem", problem, "--seed", "7", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failing == FAILING_SUITES.get(name, set())
    assert code == (1 if failing else 0)
    assert report["failure"] is None
    # each failing suite fails on its orbit part alone: its functional part disagrees
    flagged = {k.split("/")[0] for e in report["consistency"] if not e["holds"] for k in e["verdicts"]}
    assert flagged == failing


def test_check_reports_comparison_disagreement_on_coupled_p2(tmp_path, capsys):
    # the functional part of comparison misses the failing region that its orbit part finds
    problem = write(tmp_path, "coupled_p2.json", builtin_problems()["coupled_p2"])
    out = tmp_path / "rep"
    code = main(["check", "--problem", problem, "--seed", "7", "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    violated = [e for e in report["consistency"] if not e["holds"]]
    assert violated == [{
        "rule": "agreement",
        "verdicts": {"comparison/functional": True, "comparison/orbit-order": False},
        "holds": False,
    }]
    assert "benilan-crandall" in {e["rule"] for e in report["consistency"]}
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("consistency")]
    assert lines == ["consistency  agreement does not hold: comparison/functional pass, comparison/orbit-order FAIL"]


def test_check_robin_p2_every_implication_holds(tmp_path, capsys):
    problem = write(tmp_path, "robin_p2.json", builtin_problems()["robin_p2"])
    out = tmp_path / "rep"
    assert main(["check", "--problem", problem, "--seed", "7", "--out", str(out)]) == 0
    entries = json.loads((out / "report.json").read_text())["consistency"]
    assert {e["rule"] for e in entries} == {"benilan-crandall", "agreement"}
    assert all(e["holds"] for e in entries)
    printed = capsys.readouterr().out
    assert "consistency" not in printed and "ran no trial" not in printed


def test_check_report_is_strict_json_when_a_part_has_no_trials(tmp_path):
    # with omega = 12 both probe steps lambda in {0.1, 1} are >= 1/omega: the resolvent part has no trials
    problem = write(tmp_path, "robin.json", {**builtin_problems()["robin_p2"], "omega_override": 12})
    out = tmp_path / "rep"
    code = main(["check", "--problem", problem, "--seed", "7", "--suite", "positivity", "--tau", "0.05",
                 "--out", str(out)])
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    resolvent_part = report["checks"][0]["details"]["resolvent"]
    assert resolvent_part["trials"] == 0 and resolvent_part["violation"] is None


def test_check_prints_each_part_that_ran_no_trial(tmp_path, capsys):
    # omega = 12 leaves positivity's resolvent part without a probe step; the verdict stands
    problem = write(tmp_path, "robin.json", {**builtin_problems()["robin_p2"], "omega_override": 12})
    code = main(["check", "--problem", problem, "--seed", "7", "--samples", "4", "--T", "0.1", "--out", str(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [lines[0], "positivity   part 'resolvent' ran no trial"] and lines[0].startswith("positivity")
    assert sum("ran no trial" in line for line in lines) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] and report["checks"][0]["details"]["resolvent"]["trials"] == 0


def test_check_unknown_kind_exit_2(tmp_path):
    problem = write(tmp_path, "bad.json", {"problem": "wave", "grid": {"topology": "chain", "n": 5, "h": 0.1}})
    assert main(["check", "--problem", problem, "--seed", "1", "--out", str(tmp_path)]) == 2


def test_check_domination_without_reference_exit_3(tmp_path):
    problem = write(tmp_path, "quad.json", QUAD_CHAIN)
    code = main(["check", "--problem", problem, "--seed", "1", "--suite", "domination", "--out", str(tmp_path)])
    assert code == 3


def test_check_reports_byte_identical_up_to_timestamp(tmp_path):
    problem = write(tmp_path, "robin.json", ROBIN_SMALL)
    outs = []
    for name in ("repA", "repB"):
        out = tmp_path / name
        main([
            "check", "--problem", problem, "--seed", "11", "--samples", "6",
            "--T", "0.2", "--tau", "0.05", "--out", str(out),
        ])
        text = (out / "report.json").read_text()
        outs.append("\n".join(l for l in text.splitlines() if '"timestamp"' not in l))
    assert outs[0] == outs[1]


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    text = capsys.readouterr().out
    assert "robin" in text and "tv_chain32" in text


def _boom(*args, **kwargs):
    raise RuntimeError("synthetic solver failure")


def _order_only_point(cfg, seed, samples):
    """The first meet of two unordered starts of the order suite: a fibre that no other suite requests."""
    from jflow import checks

    rng = np.random.default_rng(seed)
    us, vs = (checks.sample_states(load_problem(cfg).pair, samples, rng) for _ in range(2))
    return next(np.minimum(u, v) for u, v in zip(us, vs) if np.any(u < v) and np.any(v < u))


def _fail_batches_holding(monkeypatch, name, point, raised):
    """``checks.<name>`` (``lifted_values``, ``evolve`` or ``resolvent``) fails every
    batch holding ``point``, naming its row and the batch size; each message goes
    into ``raised``."""
    from jflow import checks

    real = getattr(checks, name)

    def failing(pair, *args, **kwargs):
        U = args[name == "resolvent"]  # resolvent takes the step lengths first
        rows = [i for i, u in enumerate(U) if np.array_equal(u, point)]
        if rows:
            raised.append(f"synthetic solver failure at row {rows[0]} of {len(U)}")
            raise RuntimeError(raised[-1])
        return real(pair, *args, **kwargs)

    monkeypatch.setattr(checks, name, failing)


def _suite_by_suite(bundle, samples, T, tau, seed):
    """The reports of the public checkers of ``jflow check --suite all``, one
    suite after another in suite order, sharing one memo."""
    from jflow import checks
    from jflow.hilbert import positive_cone

    pair, ref = bundle.pair, bundle.reference
    kw = dict(samples=samples, T=T, tau=tau, seed=seed, memo={})
    yield checks.check_invariance(pair, positive_cone(), **kw)
    yield checks.check_order_preserving(pair, **kw)
    yield checks.check_linf_contractivity(pair, **kw)
    yield checks.check_complete_contractivity(pair, **{**kw, "samples": min(samples, 6)})
    if ref is not None:
        yield checks.check_comparison(ref, pair, **kw)
        yield checks.check_domination(ref, pair, **kw)


def test_check_solver_failure_exit_1_with_partial_report(tmp_path, monkeypatch):
    # a fibre that only the order suite requests fails: the first suite's
    # report survives, and the failing suite is named with its error
    _fail_batches_holding(monkeypatch, "lifted_values", _order_only_point(ROBIN_SMALL, 7, 4), [])
    problem = write(tmp_path, "robin.json", ROBIN_SMALL)
    out = tmp_path / "rep_fail"
    code = main([
        "check", "--problem", problem, "--seed", "7", "--samples", "4",
        "--T", "0.1", "--tau", "0.05", "--out", str(out),
    ])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert not report["passed"]
    assert [c["name"] for c in report["checks"]] == ["invariance[positive-cone]"]
    assert report["failure"]["suite"] == "order"
    assert "synthetic solver failure" in report["failure"]["error"]


CHECK_SMALL = ["check", "--seed", "7", "--samples", "3", "--T", "0.1", "--tau", "0.05"]


@pytest.mark.parametrize("case", ["fibre-of-order", "orbit-of-domination"])
def test_check_failure_after_the_joint_settle_is_that_of_checking_suite_by_suite(tmp_path, monkeypatch, capsys, case):
    # the joint settle meets the failure in a larger batch, so its message differs;
    # the suite and error reported are those of the public checkers run in turn
    from jflow import checks

    if case == "fibre-of-order":
        cfg, name, point, suite = ROBIN_SMALL, "lifted_values", _order_only_point(ROBIN_SMALL, 7, 3), "order"
    else:  # the first orbit start of domination's own sample, on the reference pair
        cfg, name, suite = builtin_problems()["coupled_p3"], "evolve", "domination"
        point = checks.sample_states(load_problem(cfg).reference, 3, np.random.default_rng(7))[0]
    raised = []
    _fail_batches_holding(monkeypatch, name, point, raised)
    out = tmp_path / "rep"
    assert main(CHECK_SMALL + ["--problem", write(tmp_path, "p.json", cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert len(raised) == 2 and raised[0] != raised[1]  # the joint settle's, then the suite's own

    expected = []
    with pytest.raises(RuntimeError) as exc:
        for r in _suite_by_suite(load_problem(cfg), 3, 0.1, 0.05, 7):
            expected.append(r)
    assert report["failure"] == {"suite": suite, "error": str(exc.value)}
    assert report["checks"] == [json.loads(json.dumps(r.to_dict())) for r in expected]
    assert capsys.readouterr().err == f"jflow: suite {suite!r} failed: {exc.value}\n"


@pytest.mark.parametrize("name", ["robin-small", "coupled_p3"])
def test_check_all_settles_one_batch_of_each_kind_per_pair(tmp_path, monkeypatch, name):
    # backward steps: positivity's probes, and on coupled_p3 those of domination's
    # positivity hypothesis too, all on the problem's own pair
    from jflow import checks

    cfg = ROBIN_SMALL if name == "robin-small" else builtin_problems()[name]
    calls = {"lifted_values": [], "evolve": [], "resolvent": []}
    for kind, seen in calls.items():
        real = getattr(checks, kind)

        def spy(pair, *args, real=real, seen=seen, **kwargs):
            seen.append(id(pair))
            return real(pair, *args, **kwargs)

        monkeypatch.setattr(checks, kind, spy)
    out = tmp_path / "rep"
    main(CHECK_SMALL + ["--problem", write(tmp_path, "p.json", cfg), "--out", str(out)])
    suites = json.loads((out / "report.json").read_text())["suites"]
    pairs = 2 if name == "coupled_p3" else 1
    assert ("domination" in suites) == (pairs == 2)
    assert [len(set(seen)) for seen in calls.values()] == [pairs, pairs, 1]
    assert [len(seen) for seen in calls.values()] == [pairs, pairs, 1]


# stdout and stderr of ``check --suite all`` on coupled_p3 (CHECK_SMALL) when the
# probe step from the second start of a positivity check fails, measured while
# the probe steps were solved as each checker was planned
PROBE_FAILURES = {
    "positivity": ("", "jflow: suite 'positivity' failed: synthetic solver failure at row 2 of 6\n"),
    "domination-hypothesis": (
        "positivity   pass  max_violation=0 tol=1e-06\n"
        "order        pass  max_violation=0 tol=1e-06\n"
        "linf         pass  max_violation=0 tol=1e-08\n"
        "complete     pass  max_violation=-0.0744 tol=1e-06\n"
        "comparison   FAIL  max_violation=0.0667 tol=1e-06\n"
        "consistency  agreement does not hold: comparison/functional pass, comparison/orbit-order FAIL\n",
        "jflow: suite 'domination' failed: synthetic solver failure at row 2 of 4\n",
    ),
}


@pytest.mark.parametrize("case", PROBE_FAILURES)
def test_check_probe_step_failure_gives_the_output_of_steps_solved_at_planning(tmp_path, monkeypatch, capsys, case):
    # the joint settle meets the failure in the one step batch of the pair; settled
    # stage by stage, the failing stage's own batch is that of the planning-time solve
    from jflow import checks
    from jflow.hilbert import positive_cone

    cfg = builtin_problems()["coupled_p3"]
    seed, count = (7, 3) if case == "positivity" else (7 + 101, 8)  # domination: its hypothesis' sample
    starts = checks.sample_states(load_problem(cfg).pair, count, np.random.default_rng(seed))
    raised = []
    _fail_batches_holding(monkeypatch, "resolvent", positive_cone().project(starts[1]), raised)
    out = tmp_path / "rep"
    assert main(CHECK_SMALL + ["--problem", write(tmp_path, "p.json", cfg), "--out", str(out)]) == 1
    assert capsys.readouterr() == PROBE_FAILURES[case]
    assert len(raised) == 2 and raised[0] != raised[1]

    expected = []
    with pytest.raises(RuntimeError) as exc:
        for r in _suite_by_suite(load_problem(cfg), 3, 0.1, 0.05, 7):
            expected.append(r)
    report = json.loads((out / "report.json").read_text())
    assert report["failure"] == {"suite": case.split("-")[0], "error": str(exc.value)} and str(exc.value) == raised[1]
    assert report["checks"] == [json.loads(json.dumps(r.to_dict())) for r in expected]


@pytest.mark.parametrize("name", ["robin-small", "coupled_p3"])
def test_check_reports_equal_those_of_the_checkers_run_suite_by_suite(tmp_path, name):
    cfg = ROBIN_SMALL if name == "robin-small" else builtin_problems()[name]
    out = tmp_path / "rep"
    main(CHECK_SMALL + ["--problem", write(tmp_path, "p.json", cfg), "--out", str(out)])
    reports = list(_suite_by_suite(load_problem(cfg), 3, 0.1, 0.05, 7))
    assert json.loads((out / "report.json").read_text())["checks"] == [
        json.loads(json.dumps(r.to_dict())) for r in reports
    ]


def test_run_initial_fiber_failure_exit_1(tmp_path, monkeypatch, capsys):
    from jflow import solvers

    monkeypatch.setattr(solvers, "newton", _boom)
    problem = write(tmp_path, "robin.json", ROBIN_SMALL)
    assert main(["run", "--problem", problem, "--T", "0.1", "--tau", "0.05", "--out", str(tmp_path)]) == 1
    assert "synthetic solver failure" in capsys.readouterr().err


def test_run_tv_failure_of_the_contraction_orbit_flushes_no_trajectory(tmp_path, monkeypatch, capsys):
    # tv_chain32 steps are one batched tv_prox call per step: row 1 of the first
    # call is the first step of the perturbed orbit, whose failure is not the run's own
    from jflow import solvers

    real = solvers.tv_prox

    def missed_on_row_1(*args, **kwargs):
        res = real(*args, **kwargs)
        res.residual[1], res.converged = np.inf, False
        return res

    monkeypatch.setattr(solvers, "tv_prox", missed_on_row_1)
    problem = str(Path(__file__).parent.parent / "problems" / "tv_chain32.json")
    out = tmp_path / "out"
    assert main(["run", "--problem", problem, "--T", "0.1", "--tau", "0.05", "--out", str(out)]) == 1
    assert not (out / "trajectory.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("jflow: step 1 failed: backward step solve stalled: ") and err.endswith("(sample 1)\n")


def test_check_failed_hypothesis_exit_1_with_failure_entry(tmp_path):
    # an affine source term makes the dominating flow leave the positive cone
    cfg = json.loads((Path(__file__).parent.parent / "problems" / "robin_p2.json").read_text())
    cfg["law"]["g"] = {"kind": "affine", "a": 1.0, "b": 2.0}
    cfg["reference"] = {**cfg, "law": {**cfg["law"], "g": {"kind": "linear", "a": 1.0}}}
    problem = write(tmp_path, "robin_affine.json", cfg)
    out = tmp_path / "rep_hyp"
    code = main([
        "check", "--problem", problem, "--seed", "7", "--suite", "domination",
        "--samples", "4", "--T", "0.2", "--out", str(out),
    ])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert not report["passed"] and report["checks"] == []
    assert report["failure"]["suite"] == "domination"
    assert "not positive" in report["failure"]["error"]


def test_run_evolves_two_orbits(tmp_path, monkeypatch):
    # the contraction test reuses the run's own orbit and adds one more, in one batch of two
    from jflow import cli, flow

    calls = []
    original = flow.evolve

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "evolve", counting)
    monkeypatch.setattr(flow, "evolve", counting)
    problem = write(tmp_path, "quad.json", QUAD_CHAIN)
    assert main(["run", "--problem", problem, "--T", "0.5", "--tau", "0.1", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1 and calls[0].shape[0] == 2
    assert not np.array_equal(calls[0][0], calls[0][1])


def test_cli_import_leaves_highs_for_the_first_tv_program():
    # start-up imports no LP solver; the first TV fibre solve loads HiGHS and certifies
    code = "\n".join([
        "import sys",
        "import jflow.cli",
        "assert 'scipy.optimize' not in sys.modules",
        "from jflow.solvers import constrained_tv_min",
        "res = constrained_tv_min([(0, 1), (1, 2), (2, 3)], [1.0, 2.0, 1.0], [0, 3], [0.0, 3.0], 4)",
        "assert 'scipy.optimize' in sys.modules",
        "assert res.converged and res.residual <= 1e-9 and abs(res.value - 3.0) <= 1e-9",
        "assert 0.0 <= res.x[1] <= res.x[2] <= 3.0",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_check_all_evolves_each_orbit_once(tmp_path, monkeypatch):
    # the suites of one invocation share one memo of lifted values and orbits
    from jflow import checks

    calls = []
    original = checks.evolve

    def counting(pair, u0, T, tau, **kwargs):
        calls.append((id(pair), u0.tobytes(), T, tau))
        return original(pair, u0, T, tau, **kwargs)

    monkeypatch.setattr(checks, "evolve", counting)
    problem = write(tmp_path, "robin.json", ROBIN_SMALL)
    code = main(["check", "--problem", problem, "--seed", "7", "--samples", "6", "--T", "0.2", "--out", str(tmp_path)])
    assert code == 0
    assert calls and len(set(calls)) == len(calls)


CHAIN10 = {"topology": "chain", "n": 10, "h": 0.2}


@pytest.mark.parametrize(
    "cfg, named",
    [
        ({**ROBIN_SMALL, "law": {"g": {"kind": "linear", "b": 1}}}, "'b'"),
        ({**QUAD_CHAIN, "p": "3"}, "'3'"),
        ({k: v for k, v in QUAD_CHAIN.items() if k != "p"}, "missing key 'p'"),
        ({**QUAD_CHAIN, "initial": {"kind": "constant"}}, "missing key 'value'"),
        ({"problem": "coupled", "grid": CHAIN10, "subdomain": [3, 99], "p": 2.0}, "subregion node 99"),
        ({"problem": "coupled", "grid": CHAIN10, "subdomain": [3, -4], "p": 2.0}, "subregion node -4"),
        ({"problem": "tv", "grid": CHAIN10, "subdomain": [3, 99]}, "subregion node 99"),
        ({"problem": "tv", "grid": CHAIN10, "subdomian": [3, 4]}, "unknown key 'subdomian'"),
        ({**QUAD_CHAIN, "law": {"g": {"kind": "sine", "a": 5}}}, "unknown key 'law'"),
        ({**QUAD_CHAIN, "grid": {**QUAD_CHAIN["grid"], "ny": 3}}, "unknown key 'ny'"),
        ({**QUAD_CHAIN, "reference": {**QUAD_CHAIN, "omega_overide": 0.5}}, "unknown key 'omega_overide'"),
        ({k: v for k, v in QUAD_CHAIN.items() if k != "problem"}, "missing key 'problem'"),
        ({**QUAD_CHAIN, "initial": {"kind": "gaussian", "scael": 1.0}}, "initial state: gaussian: unknown key 'scael'"),
        ({**QUAD_CHAIN, "initial": {"kind": "constant", "value": 1.0, "scale": 2.0}}, "constant: unknown key 'scale'"),
        ({**QUAD_CHAIN, "initial": {"kind": "values", "values": [0.0], "value": 1.0}}, "values: unknown key 'value'"),
        ({**QUAD_CHAIN, "initial": 3}, "initial state: need an object, got 3"),
    ],
    ids=[
        "law-parameter", "p-string", "p-missing", "initial-value", "coupled-node-99", "coupled-node-minus-4", "tv-node",
        "unread-key", "unread-law", "unread-grid-key", "unread-reference-key", "problem-missing",
        "unread-initial-gaussian", "unread-initial-constant", "unread-initial-values", "initial-not-an-object",
    ],
)
def test_run_malformed_problem_file_exit_2_naming_the_key(tmp_path, capsys, cfg, named):
    problem = write(tmp_path, "bad.json", cfg)
    assert main(["run", "--problem", problem, "--T", "0.1", "--tau", "0.05", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("jflow: bad problem file: ") and named in err[0]


def test_run_initial_entry_of_each_kind_runs(tmp_path):
    dim = load_problem(QUAD_CHAIN).pair.space.dim
    for i, initial in enumerate([
        {"kind": "gaussian", "scale": 2.0}, {"kind": "constant", "value": 0.5},
        {"kind": "values", "values": list(np.linspace(0.0, 1.0, dim))}, None,
    ]):
        problem = write(tmp_path, f"ok{i}.json", {**QUAD_CHAIN, "initial": initial})
        out = str(tmp_path / f"out{i}")
        assert main(["run", "--problem", problem, "--T", "0.1", "--tau", "0.05", "--out", out]) == 0


SINE_ROBIN = str(Path(__file__).parent.parent / "problems" / "robin_sine_p2.json")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--problem", SINE_ROBIN, "--tau", "2", "--T", "4"], "0.9/omega"),
        (["run", "--problem", "QUAD", "--tol", "0"], "tol"),
        (["run", "--problem", "QUAD", "--tau", "nan"], "tau"),
        (["run", "--problem", "QUAD", "--T", "inf"], "tau"),
        (["check", "--problem", "QUAD", "--seed", "1", "--tau", "0"], "tau"),
        (["check", "--problem", "QUAD", "--seed", "1", "--T", "0.01"], "tau"),
        (["check", "--problem", SINE_ROBIN, "--seed", "1", "--tau", "2", "--T", "4"], "0.9/omega"),
        (["check", "--problem", "QUAD", "--seed", "1", "--samples", "0"], "samples"),
    ],
    ids=["run-shift", "run-tol", "run-tau-nan", "run-T-inf", "check-tau", "check-T", "check-shift", "check-samples"],
)
def test_bad_step_arguments_exit_2_before_any_solve(tmp_path, monkeypatch, capsys, argv, named):
    from jflow import solvers

    monkeypatch.setattr(solvers, "newton", _boom)
    problem = write(tmp_path, "quad.json", QUAD_CHAIN)
    argv = [problem if a == "QUAD" else a for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and named in err[0]
    assert not out.exists()


def test_check_rejects_a_step_the_reference_cannot_take_only_when_a_suite_uses_it(tmp_path):
    problem = write(tmp_path, "ref.json", {**QUAD_CHAIN, "reference": {**QUAD_CHAIN, "omega_override": 30.0}})
    base = ["check", "--problem", problem, "--seed", "1", "--samples", "2", "--T", "0.1", "--tau", "0.05"]
    assert main(base + ["--suite", "domination", "--out", str(tmp_path / "dom")]) == 2
    assert main(base + ["--suite", "positivity", "--out", str(tmp_path / "pos")]) == 0
