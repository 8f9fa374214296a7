"""Tests for the benchmark's independent checks.

Each op check must pass the program's genuine output and reject a
corrupted one: a perturbed potential, moved plan mass, a wrong value.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import run  # noqa: E402
from mmot import cli  # noqa: E402  (only produces outputs to check)

BALL = next(op for op in run.ball_sweep_ops(0) if op.label == "ball d=1 N=3 L=3")
ATOMS = next(op for op in run.atoms_stream_ops(7) if op.spec["d"] == 2 and op.spec["n"] == 3)
LADDER = run.Op(
    "converge ball N=2 L=1..3",
    (("converge", "--density", "ball:center=0:radius=1", "--N", "2", "--R", "1", "--levels", "1..3"),),
    run.check_ladder,
    {"kind": "ball", "scale": 1.0, "n": 2, "levels": [1, 2, 3]},
)


def run_op(op, tmp_path):
    prefix = str(tmp_path / "op")
    stdout = []
    for call in op.calls:
        code, out, err = run.invoke(cli, [a.replace("{out}", prefix) for a in call])
        assert code == 0, err
        stdout.append(out)
    return stdout, prefix


def edit_lines(path, edit):
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join([lines[0]] + edit(lines[1:])) + "\n")


@pytest.mark.parametrize("op", [BALL, ATOMS, LADDER], ids=lambda op: op.label)
def test_genuine_output_passes(op, tmp_path):
    stdout, prefix = run_op(op, tmp_path)
    assert op.check(op, stdout, prefix) == []


@pytest.mark.parametrize("op", [BALL, ATOMS], ids=lambda op: op.label)
def test_perturbed_potential_is_rejected(op, tmp_path):
    stdout, prefix = run_op(op, tmp_path)

    # +d on slot 1 and -d on slot 2 at one cell keeps the dual value, so
    # only the rescan can see that tuples through that cell now violate it
    def shift(lines):
        rows = [ln.split() for ln in lines]
        cell = rows[0][1:-1]
        for r in rows:
            if r[1:-1] == cell and r[0] in ("1", "2"):
                r[-1] = repr(float(r[-1]) + (1e-3 if r[0] == "1" else -1e-3))
        return [" ".join(r) for r in rows]

    edit_lines(f"{prefix}-pots.txt", shift)
    problems = op.check(op, stdout, prefix)
    assert any("dual constraint violated" in p for p in problems), problems
    assert not any("disagree" in p for p in problems), problems


@pytest.mark.parametrize("op", [BALL, ATOMS], ids=lambda op: op.label)
def test_moved_plan_mass_is_rejected(op, tmp_path):
    stdout, prefix = run_op(op, tmp_path)
    d = op.spec["d"]

    # send the first atom's slot-1 mass to another slot-1 cell
    def move(lines):
        rows = [ln.split() for ln in lines]
        rows[0][:d] = next(r[:d] for r in rows if r[:d] != rows[0][:d])
        return [" ".join(r) for r in rows]

    edit_lines(f"{prefix}-plan.txt", move)
    assert any("marginal off" in p for p in op.check(op, stdout, prefix))


@pytest.mark.parametrize("op", [BALL, ATOMS, LADDER], ids=lambda op: op.label)
def test_wrong_value_is_rejected(op, tmp_path):
    stdout, prefix = run_op(op, tmp_path)
    if op is LADDER:
        head, first, *rest = stdout[0].splitlines()
        cols = first.split(",")
        cols[1] = cols[2] = repr(float(cols[1]) * (1 + 1e-6))
        stdout[0] = "\n".join([head, ",".join(cols), *rest]) + "\n"
        expected = "quantile-shift oracle"
    else:
        summary = json.loads(stdout[0])
        summary["primal_value"] *= 1 + 1e-6
        stdout[0] = json.dumps(summary) + "\n"
        expected = "solve reports"
    assert any(expected in p for p in op.check(op, stdout, prefix))


def test_rescan_matches_a_loop_over_all_tuples():
    rng = np.random.default_rng(3)
    m, n = 5, 3
    u = rng.normal(size=(n, m))
    recip = rng.uniform(0.1, 2.0, size=(m, m))
    recip = recip + recip.T
    recip[1, 1] = np.inf
    loop = max(
        sum(u[i, t[i]] for i in range(n))
        - sum(recip[t[i], t[j]] for i in range(n) for j in range(i + 1, n))
        for t in itertools.product(range(m), repeat=n)
    )
    assert checker.max_dual_excess(u, recip) == pytest.approx(loop, abs=1e-12)


def test_quantile_shift_closed_forms():
    # two equal atoms 2 apart: every plan pairs them, cost 1/2
    pts = np.array([[-1.0], [1.0]])
    assert checker.quantile_shift_value([0.5, 0.5], checker.point_pair_recip(pts), 2) == 0.5
    # three equal atoms at 0, 1, 3 with N = 3: each tuple is a permutation
    pts = np.array([[0.0], [1.0], [3.0]])
    value = checker.quantile_shift_value([1 / 3] * 3, checker.point_pair_recip(pts), 3)
    assert value == pytest.approx(1 + 1 / 2 + 1 / 3, rel=1e-15)
