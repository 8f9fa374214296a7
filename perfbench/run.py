"""Certified-solve benchmark for mmot.

    python3 perfbench/run.py --workload ball-sweep --seed 1 --seconds 10 --trace 0

Runs one workload through the public `mmot` command line, in process, for
at least --seconds seconds of whole rounds, then checks every output with
perfbench/checker.py, which shares no code with the program.  The last
line of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones.  With
--trace 1 the run times untraced rounds for --seconds, then a fresh
process times rounds traced by perfbench/tracer.py for --seconds, and the
metrics are per-layer ones.
A readable summary goes to stderr.  Run it from the repository root; it
imports the program from src/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, peak_rss

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-up is timed in fresh processes: SETUP_PROBES before the timed phase,
# one between operations whenever PROBE_EVERY seconds have passed since
# the last, and SETUP_PROBES after it.  The shared host's CPU speed swings
# from one second to the next, and probes spread over the whole run see the
# same mix of speeds as the timed operations.
SETUP_PROBES = 4
PROBE_EVERY = 2.0

# Host speed.  The shared host's CPU speed swings by up to 2x in spells of
# seconds to minutes, more than most changes to the program would move a
# run.  So both time metrics are scaled to a reference speed: while an
# operation runs, a SIGALRM handler times calibrate(), a fixed piece of
# interpreter work, every SAMPLE_EVERY seconds, and a round's time is
# multiplied by CALIBRATION_REF_S over the round's median calibration time.
# The handler's own time is taken out of the operation's time.
# CALIBRATION_REF_S is near calibrate()'s median time inside operations on
# the reference host (see README.md), so scaled round times are close to
# raw ones there.
CALIBRATION_REF_S = 360e-6
SAMPLE_EVERY = 0.05
PROBE_CALIBRATIONS = 5  # calibrations before, and again after, each set-up probe

# The uniform-ball instances of the acceptance fixture in
# tests/test_acceptance.py: {(dimension, marginals): levels}, with its
# per-axis sample counts.
BALL_LEVELS = {
    (1, 2): (1, 2, 3, 4, 5),
    (1, 3): (1, 2, 3, 4, 5),
    (2, 2): (1, 2, 3),
    (2, 3): (1, 2),
    (3, 2): (1, 2),
    (3, 3): (1,),
}


def ball_samples(level: int) -> int:
    return max(4, 32 // 2 ** (level - 1))


# atoms-stream draws this many instances of every (dimension, marginals,
# atoms) combination, so that the LP sizes in a round do not depend on
# the seed; positions, weights and levels do.  A round lasts 3-5 s, so a
# run holds several and its median round skips those a slow spell of the
# host hit.
ATOM_REPEATS = 7
ATOM_SHAPES = tuple(
    (d, n, k) for d in (1, 2, 3) for n in (2, 3, 4) for k in range(max(3, n + 1), 9)
)
# (density kind, scale, marginals, levels) of each converge command
LADDER = (("gauss", 0.4, 2, range(1, 8)), ("ball", 1.0, 3, range(1, 6)))


@dataclass
class Op:
    """One benchmark operation: CLI calls run back to back, then checked.

    "{out}" in an argument becomes a per-(round, op) file prefix.
    """

    label: str
    calls: tuple[tuple[str, ...], ...]
    check: object  # check(op, stdout texts, prefix) -> list of problems
    spec: dict
    reference: object = None  # the checker's data, built on first check


@dataclass
class OpResult:
    op: Op
    prefix: str
    codes: list[int]
    stdout: list[str]
    stderr: list[str]


@dataclass
class Round:
    results: list[OpResult] = field(default_factory=list)
    wall: float = 0.0  # the sum of the ops' wall times
    speed: list[float] = field(default_factory=list)  # calibrate() times during the ops

    def scaled(self) -> float:
        """`wall` at the reference host speed."""
        return self.wall * CALIBRATION_REF_S / statistics.median(self.speed)


def calibrate() -> float:
    """Seconds that a fixed piece of pure-Python work takes now: integer
    arithmetic, then dict, sort and string work.  Of the loops tried (see
    README.md), this one followed the program's speed most closely."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i
    table = {(i * 7919) % 1000: str(i) for i in range(300)}
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    ",".join(v for _, v in ordered)
    return time.perf_counter() - t0


class SpeedSampler:
    """Times calibrate() every SAMPLE_EVERY seconds while an op runs.

    A SIGALRM interval timer runs for the whole timed phase; its handler
    samples only between begin() and end(), into the list `into`.
    """

    def __init__(self):
        self.into: list[float] = []
        self.active = False
        self.spent = 0.0

    def _sample(self, _signum, _frame) -> None:
        if self.active:
            t0 = time.perf_counter()
            self.into.append(calibrate())
            self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self, into: list[float]) -> None:
        self.into, self.spent, self.active = into, 0.0, True

    def end(self) -> float:
        """Stops sampling; returns the seconds the handler took since begin()."""
        self.active = False
        return self.spent


# ---------------------------------------------------------------------------
# workloads


def ball_sweep_ops(_seed: int) -> list[Op]:
    ops = []
    for (d, n), levels in sorted(BALL_LEVELS.items()):
        for level in levels:
            density = "ball:center=" + ",".join(["0"] * d) + ":radius=1"
            solve = (
                "solve", "--density", density, "--N", str(n), "--R", "1",
                "--level", str(level), "--samples", str(ball_samples(level)),
                "--out", "{out}-plan.txt", "--potentials", "{out}-pots.txt",
            )
            verify = ("verify", "--plan", "{out}-plan.txt", "--potentials", "{out}-pots.txt")
            spec = {"d": d, "n": n, "level": level, "samples": ball_samples(level)}
            ops.append(Op(f"ball d={d} N={n} L={level}", (solve, verify), check_ball, spec))
    return ops


def atom_instance(rng: random.Random, d: int, n: int, k: int) -> dict:
    """k atoms in distinct cells of a random level, each at a random point
    inside its cell, with weights below 1/N."""
    level = rng.choice([lv for lv in range(1, 6) if 2 ** ((lv + 1) * d) >= k])
    per_axis = 2 ** (level + 1)
    while True:
        counts = [rng.randint(1, 10) for _ in range(k)]
        if n * max(counts) < sum(counts):
            break
    h = 0.5**level
    points = []
    for flat in rng.sample(range(per_axis**d), k):
        point = []
        for _ in range(d):
            flat, a = divmod(flat, per_axis)
            point.append((a - 2**level + rng.uniform(0.05, 0.95)) * h)
        points.append(tuple(point))
    weights = [c / sum(counts) for c in counts]
    return {"d": d, "n": n, "level": level, "points": points, "weights": weights}


def atoms_stream_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for _ in range(ATOM_REPEATS):
        for d, n, k in ATOM_SHAPES:
            spec = atom_instance(rng, d, n, k)
            density = "atoms:" + ";".join(
                f"a{j}={','.join(repr(x) for x in p)}:w={w!r}"
                for j, (p, w) in enumerate(zip(spec["points"], spec["weights"]))
            )
            solve = (
                "solve", "--density", density, "--N", str(n), "--R", "1",
                "--level", str(spec["level"]), "--cost-mode", "pointwise",
                "--out", "{out}-plan.txt", "--potentials", "{out}-pots.txt",
            )
            label = f"atoms#{len(ops)} d={d} N={n} k={k} L={spec['level']}"
            ops.append(Op(label, (solve,), check_atoms, spec))
    return ops


def refine_ladder_ops(_seed: int) -> list[Op]:
    ops = []
    for kind, scale, n, levels in LADDER:
        key = "sigma" if kind == "gauss" else "radius"
        call = (
            "converge", "--density", f"{kind}:center=0:{key}={scale}", "--N", str(n),
            "--R", "1", "--levels", f"{levels[0]}..{levels[-1]}",
        )
        spec = {"kind": kind, "scale": scale, "n": n, "levels": list(levels)}
        ops.append(Op(f"converge {kind} N={n} L={levels[0]}..{levels[-1]}", (call,), check_ladder, spec))
    return ops


BUILDERS = {
    "ball-sweep": ball_sweep_ops,
    "atoms-stream": atoms_stream_ops,
    "refine-ladder": refine_ladder_ops,
}


# ---------------------------------------------------------------------------
# checks (run after the timed phase)


def _reported(text: str, key: str) -> float:
    """A value from `mmot solve` JSON or a `mmot verify` key=value block."""
    last = text.strip().splitlines()[-1]
    if last.startswith("{"):
        return float(json.loads(last)[key])
    for line in text.splitlines():
        if line.startswith(key + "="):
            return float(line.split("=", 1)[1])
    raise ValueError(f"no {key} in output")


def check_ball(op: Op, stdout: list[str], prefix: str) -> list[str]:
    import checker

    s = op.spec
    if op.reference is None:
        cells, w = checker.discretize_smooth(
            "ball", (0.0,) * s["d"], 1.0, s["level"], 1.0, s["samples"]
        )
        recip = checker.cell_pair_recip(cells, s["level"])
        oracle = checker.quantile_shift_value(w, recip, s["n"]) if s["d"] == 1 else None
        op.reference = (cells, w, recip, oracle)
    cells, w, recip, oracle = op.reference
    primal, problems = checker.certify(
        f"{prefix}-plan.txt", f"{prefix}-pots.txt", cells, w, recip, s["n"]
    )
    for name, text in (("solve", stdout[0]), ("verify", stdout[1])):
        value = _reported(text, "primal_value")
        if not checker.same_value(value, primal):
            problems.append(f"{name} reports {value!r}, the plan costs {primal!r}")
    if oracle is not None and not checker.same_value(primal, oracle):
        problems.append(f"value {primal!r} differs from the quantile-shift oracle {oracle!r}")
    return problems


def check_atoms(op: Op, stdout: list[str], prefix: str) -> list[str]:
    import numpy as np

    import checker

    s = op.spec
    if op.reference is None:
        points = np.array(s["points"], dtype=float)
        weights = np.array(s["weights"]) / sum(s["weights"])
        recip = checker.point_pair_recip(points)
        oracle = None
        if s["d"] == 1:
            order = np.argsort(points[:, 0])
            oracle = checker.quantile_shift_value(
                weights[order], recip[np.ix_(order, order)], s["n"]
            )
        op.reference = (checker.cell_of(points, s["level"]), weights, recip, oracle)
    cells, w, recip, oracle = op.reference
    primal, problems = checker.certify(
        f"{prefix}-plan.txt", f"{prefix}-pots.txt", cells, w, recip, s["n"]
    )
    value = _reported(stdout[0], "primal_value")
    if not checker.same_value(value, primal):
        problems.append(f"solve reports {value!r}, the plan costs {primal!r}")
    if oracle is not None and not checker.same_value(primal, oracle):
        problems.append(f"value {primal!r} differs from the quantile-shift oracle {oracle!r}")
    return problems


def check_ladder(op: Op, stdout: list[str], _prefix: str) -> list[str]:
    import checker

    s = op.spec
    n = s["n"]
    if op.reference is None:
        samples = checker.ladder_samples(s["levels"])
        oracles = {}
        for level in s["levels"]:
            cells, w = checker.discretize_smooth(
                s["kind"], (0.0,), s["scale"], level, 1.0, samples[level]
            )
            recip = checker.cell_pair_recip(cells, level)
            oracles[level] = checker.quantile_shift_value(w, recip, n)
        op.reference = (oracles, checker.product_cost(w, recip, n))
    oracles, ceiling = op.reference
    lines = stdout[0].strip().splitlines()
    if lines[0] != "level,primal,dual,gap,alpha,pot_sup,bound,ms":
        return [f"unexpected CSV header {lines[0]!r}"]
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    if [int(r[0]) for r in rows] != s["levels"]:
        return [f"levels {[r[0] for r in rows]} differ from {s['levels']}"]
    problems = []
    for (level, primal, dual, *_), prev in zip(rows, [None] + rows[:-1]):
        level = int(level)
        if not abs(primal - dual) <= checker.GAP_TOL * (1.0 + abs(primal)):
            problems.append(f"level {level}: primal {primal!r} and dual {dual!r} disagree")
        if not checker.same_value(primal, oracles[level]):
            problems.append(
                f"level {level}: value {primal!r} differs from the quantile-shift "
                f"oracle {oracles[level]!r}"
            )
        if prev is not None and primal < prev[1]:
            problems.append(f"level {level}: value {primal!r} below the coarser {prev[1]!r}")
        if primal > ceiling:
            problems.append(f"level {level}: value {primal!r} above the independent coupling {ceiling!r}")
    return problems


# ---------------------------------------------------------------------------
# running


def invoke(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this op; the run goes on
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_rounds(
    cli, ops, work: str, seconds: float, tracer=None, between=None, sampler=None
) -> list[Round]:
    """Whole rounds over all ops until their wall times add up to `seconds`
    (at least one round).  `between()`, if given, runs after every op,
    outside the timed ops.  `sampler`, if given, records the host speed
    during the ops."""
    rounds = []
    while sum(r.wall for r in rounds) < seconds or not rounds:
        r = len(rounds)
        prefixes = [f"{work}/r{r}-o{i}" for i in range(len(ops))]
        argvs = [[[a.replace("{out}", p) for a in c] for c in op.calls] for op, p in zip(ops, prefixes)]
        rnd = Round()
        for i, (op, prefix, calls) in enumerate(zip(ops, prefixes, argvs)):
            if tracer is not None:
                tracer.where = (r, i)
            if sampler is not None:
                sampler.begin(rnd.speed)
            t0 = time.perf_counter()
            outcomes = [invoke(cli, argv) for argv in calls]
            rnd.wall += time.perf_counter() - t0
            if sampler is not None:
                rnd.wall -= sampler.end()
            rnd.results.append(OpResult(op, prefix, *map(list, zip(*outcomes))))
            if between is not None:
                between()
        rounds.append(rnd)
    return rounds


def check_rounds(rounds: list[Round]) -> tuple[int, int, bool]:
    """(attempted, failed, correct); prints each problem to stderr."""
    attempted = failed = 0
    correct = True
    for rnd in rounds:
        for res in rnd.results:
            attempted += 1
            if any(code != 0 for code in res.codes):
                failed += 1
                print(f"FAILED {res.op.label}: exit {res.codes}\n{''.join(res.stderr)}", file=sys.stderr)
                continue
            try:
                problems = res.op.check(res.op, res.stdout, res.prefix)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            for p in problems:
                print(f"WRONG {res.op.label}: {p}", file=sys.stderr)
            correct &= not problems
    return attempted, failed, correct


def setup(workload: str, seed: int):
    """Everything a run does before its first timed operation."""
    if not (SRC / "mmot" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mmot.cli as cli

    ops = BUILDERS[workload](seed)
    (HERE / "work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / "work")
    return cli, ops, work


def child_command(args, flag: str) -> list[str]:
    """This benchmark, for the same workload and seed, in a fresh process."""
    return [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", flag,
    ]


class SetupProbes:
    """Seconds from spawning a fresh interpreter to the point where its
    first operation would start, one fresh process per probe, scaled to
    the reference host speed by calibrations made just before and just
    after each probe."""

    def __init__(self, args):
        self.cmd = child_command(args, "--setup-probe")
        self.times: list[float] = []
        self.last = time.perf_counter()

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            speed = [calibrate() for _ in range(PROBE_CALIBRATIONS)]
            t0 = time.perf_counter()
            proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
            raw = float(proc.stdout.split()[-1]) - t0
            speed += [calibrate() for _ in range(PROBE_CALIBRATIONS)]
            self.times.append(raw * CALIBRATION_REF_S / statistics.median(speed))
            self.last = time.perf_counter()

    def between_ops(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY:
            self.probe()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[Round], peak_rss_bytes: int, setup_s: float) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(r.scaled() for r in rounds), "s"),
        "peak_rss_mb": metric(peak_rss_bytes / 2**20, "MB"),
    }


def per_layer(tracer, traced: list[Round]) -> dict:
    """Per-round means over the traced rounds.  The self times of nested
    spans add up to the time of the root spans, so the self times plus
    trace.uncovered_s add up to trace.wall_s."""
    count = len(traced)
    traced_wall = sum(r.wall for r in traced)
    out = {}
    for bucket, (secs, calls) in tracer.self_times().items():
        out[f"{bucket}_s"] = metric(secs / count, "s")
        name = "lp.price_rounds" if bucket == "lp.price_columns" else f"{bucket}_calls"
        out[name] = metric(calls // count if calls % count == 0 else calls / count, "count")
    out["lp.solve_peak_mb"] = metric(tracer.peak_rise("lp.solve_mmot_self") / 2**20, "MB")
    out["measure.discretize_peak_mb"] = metric(tracer.peak_rise("measure.discretize") / 2**20, "MB")
    out["trace.wall_s"] = metric(traced_wall / count, "s")
    out["trace.uncovered_s"] = metric((traced_wall - tracer.root_seconds()) / count, "s")
    return out


def traced_phase(cli, ops, work: str, args) -> dict:
    """Traced rounds in this process, which has run no op before them, so
    that the *_peak_mb metrics see the heap as an untraced run starts it."""
    import mmot

    tracer = Tracer()
    tracer.install({name: getattr(mmot, name) for name in ("cli", "lp", "transport", "harness")})
    try:
        traced = run_rounds(cli, ops, work, args.seconds, tracer)
    finally:
        tracer.uninstall()
    (HERE / "out").mkdir(exist_ok=True)
    tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv")
    attempted, failed, correct = check_rounds(traced)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": per_layer(tracer, traced), "walls": [r.wall for r in traced]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=BUILDERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-phase", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli, ops, work = setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(repr(time.perf_counter()))
            return 0
        if args.traced_phase:
            print(json.dumps(traced_phase(cli, ops, work, args)))
            return 0
        if args.trace:
            rounds = run_rounds(cli, ops, work, args.seconds)
        else:
            probes = SetupProbes(args)
            probes.probe(SETUP_PROBES)
            with SpeedSampler() as sampler:
                rounds = run_rounds(
                    cli, ops, work, args.seconds, between=probes.between_ops, sampler=sampler
                )
        peak_rss_bytes = peak_rss()
        attempted, failed, correct = check_rounds(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    walls = [r.wall for r in rounds]
    if args.trace:
        proc = subprocess.run(child_command(args, "--traced-phase"), stdout=subprocess.PIPE,
                              text=True, timeout=900, check=True)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += child["attempted"]
        failed += child["failed"]
        correct &= child["correct"]
        walls += child["walls"]
        metrics = child["metrics"]
        untraced_wall = sum(r.wall for r in rounds) / len(rounds)
        metrics["trace_overhead_s"] = metric(metrics["trace.wall_s"]["value"] - untraced_wall, "s")
    else:
        probes.probe(SETUP_PROBES)
        metrics = end_to_end(rounds, peak_rss_bytes, statistics.median(probes.times))
        print(f"setup probes, scaled (s): {' '.join(f'{t:.3f}' for t in probes.times)}", file=sys.stderr)
        print(f"rounds, scaled (s): {' '.join(f'{r.scaled():.3f}' for r in rounds)}; "
              f"median calibration (us): "
              f"{' '.join(f'{statistics.median(r.speed) * 1e6:.0f}' for r in rounds)}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed}: {len(walls)} rounds "
          f"({', '.join(f'{w:.3f}' for w in walls)} s), "
          f"{attempted} ops, {failed} failed, correct={correct}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
