"""Command-line interface: exit codes, stream discipline, determinism."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mmot import harness
from mmot.cli import load_config, main, parse_density
from mmot.errors import ParseError
from mmot.measure import FiniteAtomic, TruncatedGaussian, UniformBall
from mmot.transport import load_plan, load_potentials

TWO_ATOMS = "atoms:a=0,0,0:w=0.5;b=2,0,0:w=0.5"
# the d = 2 acceptance atoms, whose positions lie off their cell centers
OFF_CENTER_ATOMS = "atoms:a=-0.8,-0.2:w=1;b=0.1,0.6:w=1;c=0.7,-0.5:w=1"
DATA = Path(__file__).parent / "data"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_density_variants():
    density, dim = parse_density("atoms:a=0,0:w=0.5;b=1,1:w=0.5")
    assert isinstance(density, FiniteAtomic)
    assert dim == 2
    density, dim = parse_density("ball:center=0,0,0:radius=1")
    assert isinstance(density, UniformBall)
    assert dim == 3
    density, dim = parse_density("gauss:center=0:sigma=0.5")
    assert isinstance(density, TruncatedGaussian)
    assert dim == 1
    assert parse_density("file:/tmp/x.measure") == ("file", "/tmp/x.measure")
    for bad in (
        "atoms:a=0:w=x",
        "atoms:a=0:w=0.5;a=1:w=0.5",
        "atoms:a=0,1:w=0.5;b=0:w=0.5",
        "ball:center=0",
        "ball:center=0:radius=1:radius=2",
        "gauss:center=0:sigma=0.5:extra=1",
        "cone:center=0",
    ):
        with pytest.raises(ParseError):
            parse_density(bad)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "# defaults for the two-point study\n"
        "level = 2\n"
        "R = 4   # window\n"
        "gap_tol = 1e-8\n"
    )
    parsed = load_config(cfg)
    assert parsed == {"level": "2", "R": "4", "gap-tol": "1e-8"}
    bad = tmp_path / "bad.conf"
    bad.write_text("level\n")
    with pytest.raises(ParseError):
        load_config(bad)
    with pytest.raises(ParseError):
        load_config(tmp_path / "missing.conf")


def test_solve_two_point_writes_value(capsys):
    code, out, err = _run(
        capsys,
        ["solve", "--density", TWO_ATOMS, "--N", "2", "--level", "3", "--R", "4"],
    )
    assert code == 0
    summary = json.loads(out)
    # atomic densities default to exact pointwise pricing
    assert abs(summary["primal_value"] - 0.5) <= 1e-10
    assert summary["relative_gap"] <= 1e-8
    assert summary["n_marginals"] == 2
    # human notes stay on stderr; stdout is one JSON document
    assert err.strip()
    assert "{" not in err.split("mmot-error:")[0] or True
    assert out.count("\n") == 1


def test_solve_cell_mode_override(capsys):
    code, out, _ = _run(
        capsys,
        [
            "solve", "--density", TWO_ATOMS, "--N", "2", "--level", "3",
            "--R", "4", "--cost-mode", "cell",
        ],
    )
    assert code == 0
    summary = json.loads(out)
    # the finite cell bound prices the pair below the true kernel
    assert summary["primal_value"] < 0.5
    assert summary["primal_value"] > 0.4
    assert summary["cost_mode"] == "cell"


def test_solve_insufficient_support_exits_3(capsys):
    code, out, err = _run(
        capsys,
        ["solve", "--density", TWO_ATOMS, "--N", "3", "--level", "3", "--R", "4"],
    )
    assert code == 3
    assert out == ""
    assert "mmot-error:" in err


def test_solve_size_refusal_exits_3(capsys):
    # 80 atoms at generic points: the pointwise LP needs all C(80, 4)
    # = 1 581 580 four-point subsets, more than the pool cap allows
    atoms = ";".join(f"a{i}={(i + 0.5 + 0.3 * (i % 7) / 7) / 64 - 0.7}:w=1" for i in range(80))
    code, out, err = _run(
        capsys,
        ["solve", "--density", f"atoms:{atoms}", "--N", "4", "--level", "6", "--R", "1"],
    )
    assert code == 3
    assert out == ""
    assert "1581580" in err and "exceeds the cap" in err


def test_solve_bad_density_exits_2(capsys):
    code, _, err = _run(
        capsys, ["solve", "--density", "cone:center=0", "--R", "4"]
    )
    assert code == 2
    assert "mmot-error:" in err


def test_solve_missing_R_exits_2(capsys):
    code, _, err = _run(capsys, ["solve", "--density", TWO_ATOMS])
    assert code == 2
    assert "mmot-error:" in err


def test_solve_coulomb_rejects_exponent(capsys):
    code, _, err = _run(
        capsys,
        ["solve", "--density", TWO_ATOMS, "--R", "4", "--s", "2"],
    )
    assert code == 2
    assert "mmot-error:" in err


def test_solve_power_cost_needs_s(capsys):
    code, _, err = _run(
        capsys,
        ["solve", "--density", TWO_ATOMS, "--R", "4", "--cost", "power"],
    )
    assert code == 2
    code, out, _ = _run(
        capsys,
        [
            "solve", "--density", TWO_ATOMS, "--R", "4", "--cost", "power",
            "--s", "2", "--level", "2",
        ],
    )
    assert code == 0
    assert json.loads(out)["cost_exponent"] == 2.0


def test_solve_deterministic_stdout(capsys):
    argv = ["solve", "--density", TWO_ATOMS, "--N", "2", "--level", "2", "--R", "4"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_solve_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "solve.conf"
    cfg.write_text("density = " + TWO_ATOMS + "\nR = 4\nlevel = 2\nN = 2\n")
    code, out, _ = _run(capsys, ["solve", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["level"] == 2
    code, out, _ = _run(capsys, ["solve", "--config", str(cfg), "--level", "3"])
    assert code == 0
    assert json.loads(out)["level"] == 3


def test_solve_saves_artifacts_verify_accepts_them(capsys, tmp_path):
    plan_path = tmp_path / "out.plan"
    pot_path = tmp_path / "out.potentials"
    code, _, _ = _run(
        capsys,
        [
            "solve", "--density", TWO_ATOMS, "--N", "2", "--level", "3",
            "--R", "4", "--out", str(plan_path), "--potentials", str(pot_path),
        ],
    )
    assert code == 0
    plan = load_plan(plan_path)
    assert plan.n_marginals == 2
    pots = load_potentials(pot_path)
    assert pots.n_marginals == 2

    code, out, err = _run(
        capsys,
        [
            "verify", "--plan", str(plan_path), "--potentials", str(pot_path),
            "--cost-mode", "pointwise",
        ],
    )
    assert code == 0
    assert "relative_gap=" in out
    assert "verify: OK" in err


def test_nan_potential_bound_is_explained_on_stderr(capsys, tmp_path):
    # the level-1 ball with N = 3 has two cells, so every plan atom
    # repeats one and bound_parameters finds no off-diagonal atom
    plan_path = tmp_path / "out.plan"
    pot_path = tmp_path / "out.potentials"
    code, out, err = _run(
        capsys,
        [
            "solve", "--density", "ball:center=0:radius=1", "--N", "3", "--level", "1",
            "--R", "1", "--out", str(plan_path), "--potentials", str(pot_path),
        ],
    )
    assert code == 0
    assert json.loads(out)["potential_bound"] == "nan"
    assert "solve: potential bound is nan: no plan atom in the window" in err
    code, out, err = _run(
        capsys, ["verify", "--plan", str(plan_path), "--potentials", str(pot_path)]
    )
    assert code == 0
    assert "potential_bound=nan\n" in out
    assert "verify: potential bound is nan: no plan atom in the window" in err
    # a bound that applies gets no note
    code, out, err = _run(
        capsys,
        ["solve", "--density", "ball:center=0:radius=1", "--N", "2", "--level", "2", "--R", "1"],
    )
    assert code == 0 and "potential bound" not in err


def test_verify_json_output(capsys, tmp_path):
    plan_path = tmp_path / "out.plan"
    pot_path = tmp_path / "out.potentials"
    _run(
        capsys,
        [
            "solve", "--density", TWO_ATOMS, "--N", "2", "--level", "2",
            "--R", "4", "--out", str(plan_path), "--potentials", str(pot_path),
        ],
    )
    code, out, _ = _run(
        capsys,
        [
            "verify", "--plan", str(plan_path), "--potentials", str(pot_path),
            "--cost-mode", "pointwise", "--json",
        ],
    )
    assert code == 0
    assert isinstance(json.loads(out), dict)


def test_verify_detects_corrupted_potentials(capsys, tmp_path):
    plan_path = tmp_path / "out.plan"
    pot_path = tmp_path / "out.potentials"
    _run(
        capsys,
        [
            "solve", "--density", TWO_ATOMS, "--N", "2", "--level", "2",
            "--R", "4", "--out", str(plan_path), "--potentials", str(pot_path),
        ],
    )
    # inflate one potential value: dual feasibility must break
    lines = pot_path.read_text().splitlines()
    head, first, rest = lines[0], lines[1], lines[2:]
    parts = first.split()
    parts[-1] = repr(float(parts[-1]) + 0.5)
    pot_path.write_text("\n".join([head, " ".join(parts)] + rest) + "\n")
    code, _, err = _run(
        capsys,
        [
            "verify", "--plan", str(plan_path), "--potentials", str(pot_path),
            "--cost-mode", "pointwise",
        ],
    )
    assert code == 4
    assert "mmot-error:" in err


# values for the potentials file: NaN, +inf, and +inf and -inf line by line
NON_FINITE = {
    "nan": lambda i: "nan",
    "inf": lambda i: "inf",
    "mixed": lambda i: "-inf" if i % 2 else "inf",
    # finite, but the dual's sum overflows
    "huge": lambda i: "1e308",
}


@pytest.mark.parametrize("kind", sorted(NON_FINITE))
def test_verify_fails_non_finite_potentials(capsys, tmp_path, kind):
    plan_path = tmp_path / "out.plan"
    pot_path = tmp_path / "out.potentials"
    solve = [
        "solve", "--density", "ball:center=0:radius=1", "--N", "2", "--level", "2",
        "--R", "1", "--out", str(plan_path), "--potentials", str(pot_path),
    ]
    assert _run(capsys, solve)[0] == 0
    argv = ["--plan", str(plan_path), "--potentials", str(pot_path)]
    assert _run(capsys, ["verify"] + argv)[0] == 0
    lines = pot_path.read_text().splitlines()
    body = [" ".join(ln.split()[:-1] + [NON_FINITE[kind](i)]) for i, ln in enumerate(lines[1:])]
    pot_path.write_text("\n".join([lines[0]] + body) + "\n")
    code, _, err = _run(capsys, ["verify"] + argv)
    assert code == 4
    assert "verify: potentials hold non-finite values" in err
    assert "verify: OK" not in err


@pytest.mark.parametrize("kind", sorted(NON_FINITE))
def test_converge_fails_non_finite_potentials(capsys, monkeypatch, kind):
    solve = harness.solve_mmot

    def spoiled(*args, **kwargs):
        plan, pots, value = solve(*args, **kwargs)
        n, k = pots.values.shape
        values = np.array([[float(NON_FINITE[kind](i)) for i in range(k)]] * n)
        return plan, dataclasses.replace(pots, values=values), value

    monkeypatch.setattr(harness, "solve_mmot", spoiled)
    code, _, err = _run(
        capsys,
        [
            "converge", "--density", "ball:center=0:radius=1", "--N", "2",
            "--levels", "1,2", "--R", "1",
        ],
    )
    assert code == 4
    assert "converge: level 1: potentials hold non-finite values" in err
    assert "converge: level 2: potentials hold non-finite values" in err


def test_verify_missing_file_exits_2(capsys, tmp_path):
    code, _, err = _run(
        capsys,
        ["verify", "--plan", str(tmp_path / "no.plan"), "--potentials", str(tmp_path / "no.pot")],
    )
    assert code == 2
    assert "mmot-error:" in err


def test_converge_csv_on_stdout(capsys):
    code, out, err = _run(
        capsys,
        [
            "converge", "--density", "ball:center=0:radius=1", "--N", "2",
            "--levels", "1..3", "--R", "1",
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "level,primal,dual,gap,alpha,pot_sup,bound,ms"
    assert len(lines) == 4
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert values == sorted(values)
    assert "level 1" in err


def test_converge_out_file_and_stability(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = [
        "converge", "--density", "ball:center=0:radius=1", "--N", "2",
        "--levels", "1,2", "--R", "1",
    ]
    assert _run(capsys, argv + ["--out", str(out_a)])[0] == 0
    assert _run(capsys, argv + ["--out", str(out_b)])[0] == 0

    def _drop_ms(text):
        return [",".join(l.split(",")[:-1]) for l in text.strip().split("\n")]

    # identical configuration: identical table up to the wall-time column
    assert _drop_ms(out_a.read_text()) == _drop_ms(out_b.read_text())


@pytest.mark.parametrize(
    "field, message",
    [
        ("max_dual_violation", "dual constraint violated"),
        ("max_slackness_violation", "complementary slackness off"),
    ],
)
def test_converge_fails_on_the_audit_like_verify(capsys, monkeypatch, field, message):
    # a level whose audit finds a violation, or a NaN in its place, fails
    # converge with exit 4, as verify would, while the CSV, which has no
    # column for it, is unchanged
    argv = [
        "converge", "--density", "ball:center=0:radius=1", "--N", "2",
        "--levels", "1,2", "--R", "1",
    ]
    code, clean, _ = _run(capsys, argv)
    assert code == 0
    audit = harness.verify_duality

    def _drop_ms(text):
        return [",".join(l.split(",")[:-1]) for l in text.strip().split("\n")]

    for value in (1e-3, float("nan")):
        def violating(*args, **kwargs):
            return dataclasses.replace(audit(*args, **kwargs), **{field: value})

        monkeypatch.setattr(harness, "verify_duality", violating)
        code, out, err = _run(capsys, argv)
        assert code == 4
        assert f"converge: level 1: {message} by {value!r}" in err
        assert f"converge: level 2: {message} by {value!r}" in err
        assert _drop_ms(out) == _drop_ms(clean)


def test_converge_rejects_stored_measures(capsys, tmp_path):
    mfile = tmp_path / "m.measure"
    mfile.write_text("mmot-measure v1 level=1 halfwidth=1.0 dim=1\n1 0.5\n2 0.5\n")
    code, _, err = _run(
        capsys,
        ["converge", "--density", f"file:{mfile}", "--levels", "1..2", "--R", "1"],
    )
    assert code == 2
    assert "mmot-error:" in err


def test_converge_solver_failure_exits_3(capsys):
    code, _, err = _run(
        capsys,
        [
            "converge", "--density", TWO_ATOMS, "--N", "3",
            "--levels", "1..2", "--R", "4",
        ],
    )
    assert code == 3
    assert "mmot-error:" in err


def test_converge_bad_levels_exit_2(capsys):
    code, _, err = _run(
        capsys,
        [
            "converge", "--density", "ball:center=0:radius=1",
            "--levels", "3..1", "--R", "1",
        ],
    )
    assert code == 2
    assert "mmot-error:" in err


def test_improve_diagonal_plan(capsys, tmp_path):
    plan_path = tmp_path / "diag.plan"
    plan_path.write_text(
        "mmot-plan v1 level=1 halfwidth=1.0 dim=1 N=2\n"
        "-1 -1 0.5\n"
        "2 2 0.5\n"
    )
    out_path = tmp_path / "better.plan"
    code, out, err = _run(
        capsys,
        ["improve", "--plan", str(plan_path), "--out", str(out_path)],
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["improved"] is True
    assert summary["final_cost"] < summary["initial_cost"]
    improved = load_plan(out_path)
    assert set(improved.atoms) == {((-1,), (2,)), ((2,), (-1,))}
    assert "improve:" in err


def test_improve_zero_rounds_keeps_plan(capsys, tmp_path):
    plan_path = tmp_path / "diag.plan"
    plan_path.write_text(
        "mmot-plan v1 level=1 halfwidth=1.0 dim=1 N=2\n"
        "-1 -1 0.5\n"
        "2 2 0.5\n"
    )
    code, out, _ = _run(
        capsys,
        ["improve", "--plan", str(plan_path), "--max-rounds", "0"],
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["improved"] is False
    assert summary["atoms_after"] == 2


def test_threads_and_seed_flags_accepted(capsys):
    code, out, _ = _run(
        capsys,
        [
            "solve", "--density", TWO_ATOMS, "--N", "2", "--level", "2",
            "--R", "4", "--threads", "4", "--seed", "7",
        ],
    )
    assert code == 0
    assert json.loads(out)["relative_gap"] <= 1e-8


def test_verify_pointwise_needs_the_solved_positions(capsys, tmp_path):
    plan_path = tmp_path / "out.plan"
    pot_path = tmp_path / "out.potentials"
    code, _, _ = _run(
        capsys,
        [
            "solve", "--density", OFF_CENTER_ATOMS, "--N", "2", "--level", "3",
            "--R", "1", "--out", str(plan_path), "--potentials", str(pot_path),
        ],
    )
    assert code == 0
    verify = [
        "verify", "--plan", str(plan_path), "--potentials", str(pot_path),
        "--cost-mode", "pointwise",
    ]
    # cell centers are not where solve priced the atoms
    code, out, err = _run(capsys, verify)
    assert code == 4
    assert "duality gap" in err
    code, out, err = _run(capsys, verify + ["--density", OFF_CENTER_ATOMS])
    assert code == 0
    assert "relative_gap=0.0\n" in out
    assert "verify: OK" in err
    # atoms default to pointwise pricing, as in solve
    code, out, _ = _run(capsys, verify[:-2] + ["--density", OFF_CENTER_ATOMS])
    assert code == 0
    assert "cost_mode=pointwise" in out
    code, _, err = _run(capsys, verify + ["--density", "atoms:a=0.1:w=1"])
    assert code == 2
    assert "dimension" in err


# Files written by `mmot solve` before plans were array-backed; every byte
# of the plan, the potentials and stdout must stay the same.
GOLDEN = {
    "ball1d_L4": ["--density", "ball:center=0:radius=1", "--level", "4"],
    "ball3d_L1": ["--density", "ball:center=0,0,0:radius=1", "--level", "1"],
    "atoms2d_L3": ["--density", OFF_CENTER_ATOMS, "--level", "3"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_solve_output_matches_golden_files(capsys, tmp_path, name):
    plan_path = tmp_path / "out.plan"
    pot_path = tmp_path / "out.potentials"
    code, out, _ = _run(
        capsys,
        ["solve", *GOLDEN[name], "--N", "2", "--R", "1",
         "--out", str(plan_path), "--potentials", str(pot_path)],
    )
    assert code == 0
    assert out == (DATA / f"solve_{name}.stdout").read_text()
    assert plan_path.read_bytes() == (DATA / f"solve_{name}.plan").read_bytes()
    assert pot_path.read_bytes() == (DATA / f"solve_{name}.potentials").read_bytes()
