"""Command-line front end.

Machine-readable output (JSON summaries, CSV tables, key=value reports)
goes to stdout or the --out path; progress notes go to stderr, so the two
streams never interleave.  Exit codes: 0 success, 2 malformed input or
options, 3 solver failure (insufficient support, size limit, numerical
breakdown), 4 verification failure (duality gap or dual feasibility out
of tolerance).

Densities are inline strings or files:
  atoms:a=0,0,0:w=0.5;b=2,0,0:w=0.5
  ball:center=0,0,0:radius=1
  gauss:center=0,0,0:sigma=0.5
  file:path/to/measure.txt
The spatial dimension is inferred from the coordinate lists.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .cost import CostModel, coulomb, power_law
from .errors import (
    DimensionMismatch,
    EmptyRestriction,
    InsufficientSupport,
    MMOTError,
    NegativeWeight,
    NoOffDiagonalSupport,
    NormalizationError,
    NumericalBreakdown,
    OverlappingNeighborhoods,
    ParseError,
    PointOutsideWindow,
    ProblemTooLarge,
    SupportOutsideWindow,
    ZeroMass,
)
from .grid import GridSpec
from .harness import converge, swap_search
from .lp import solve_mmot
from .measure import (
    DiscreteMeasure,
    FiniteAtomic,
    TruncatedGaussian,
    UniformBall,
    discretize,
    load_measure,
)
from .transport import (
    load_plan,
    load_potentials,
    plan_cost,
    save_plan,
    save_potentials,
    verify_duality,
)

_USAGE_ERRORS = (
    ParseError,
    NormalizationError,
    NegativeWeight,
    DimensionMismatch,
    ZeroMass,
    PointOutsideWindow,
    SupportOutsideWindow,
    ValueError,
)
_SOLVER_ERRORS = (
    InsufficientSupport,
    ProblemTooLarge,
    NumericalBreakdown,
    OverlappingNeighborhoods,
    EmptyRestriction,
    NoOffDiagonalSupport,
)


def _fail(message: str) -> None:
    print(f"mmot-error: {message}", file=sys.stderr)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _json_clean(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_coords(s: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in s.split(","))
    except ValueError as exc:
        raise ParseError(f"bad coordinate list {s!r}") from exc


def parse_density(text: str):
    """Parse an inline density string; returns (density, dimension) or
    ('file', path) for stored measures."""
    if text.startswith("file:"):
        return "file", text[5:]
    if text.startswith("atoms:"):
        body = text[len("atoms:"):]
        points, weights, labels = [], [], set()
        for entry in body.split(";"):
            parts = entry.split(":")
            if len(parts) != 2 or "=" not in parts[0] or not parts[1].startswith("w="):
                raise ParseError(
                    f"atom entry {entry!r} must look like name=x,y,z:w=0.5"
                )
            label, coords = parts[0].split("=", 1)
            if label in labels:
                raise ParseError(f"duplicate atom label {label!r}")
            labels.add(label)
            points.append(_parse_coords(coords))
            try:
                weights.append(float(parts[1][2:]))
            except ValueError as exc:
                raise ParseError(f"bad weight in {entry!r}") from exc
        dims = {len(p) for p in points}
        if len(dims) != 1:
            raise ParseError("atom coordinates disagree on dimension")
        return FiniteAtomic(tuple(points), tuple(weights)), dims.pop()
    if text.startswith("ball:") or text.startswith("gauss:"):
        kind, body = text.split(":", 1)
        fields = {}
        for part in body.split(":"):
            if "=" not in part:
                raise ParseError(f"bad density field {part!r}")
            key, val = part.split("=", 1)
            if key in fields:
                raise ParseError(f"duplicate density field {key!r}")
            fields[key] = val
        try:
            center = _parse_coords(fields.pop("center"))
            if kind == "ball":
                density = UniformBall(center, float(fields.pop("radius")))
            else:
                density = TruncatedGaussian(center, float(fields.pop("sigma")))
        except KeyError as exc:
            raise ParseError(f"{kind} density is missing field {exc}") from exc
        if fields:
            raise ParseError(f"unknown density fields {sorted(fields)}")
        return density, len(center)
    raise ParseError(
        f"unrecognized density {text!r}; expected atoms:, ball:, gauss:, or file:"
    )


def _parse_levels(s: str) -> list[int]:
    try:
        if ".." in s:
            a, b = s.split("..", 1)
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(x) for x in s.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad level range {s!r}; expected a..b or a,b,c") from exc


def load_config(path: str) -> dict[str, str]:
    """key = value lines; '#' starts a comment; keys match long options."""
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from exc
    for i, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{i}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key or not val:
            raise ParseError(f"{path}:{i}: empty key or value")
        out[key.replace("_", "-")] = val
    return out


class RunConfig:
    """Merged view of command-line flags and an optional config file;
    explicit flags win, then config entries, then built-in defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default, cast):
        cli_val = getattr(self.args, key.replace("-", "_"), None)
        if cli_val is not None:
            raw = cli_val
        elif key in self.file:
            raw = self.file[key]
        else:
            return default
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad value for --{key}: {raw!r}") from exc


def _bool(v) -> bool:
    if isinstance(v, bool):
        return v
    if str(v).lower() in ("1", "true", "yes", "on"):
        return True
    if str(v).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _cost_model(cfg: RunConfig, n: int) -> CostModel:
    kind = cfg.get("cost", "coulomb", str)
    s = cfg.get("s", None, float)
    if kind == "coulomb":
        if s is not None and s != 1.0:
            raise ParseError("the coulomb cost fixes the exponent at 1; use --cost power")
        return coulomb(n)
    if kind == "power":
        if s is None:
            raise ParseError("--cost power requires --s")
        return power_law(s, n)
    raise ParseError(f"unknown cost kind {kind!r}; expected coulomb or power")


def _cost_mode(cfg: RunConfig, default: str = "cell") -> str:
    """Atomic densities default to pointwise pricing (their locations are
    exact), smooth and stored ones to the finite cell bound."""
    mode = cfg.get("cost-mode", default, str)
    if mode not in ("cell", "pointwise"):
        raise ParseError(f"bad --cost-mode {mode!r}; expected cell or pointwise")
    return mode


def _measure_for_solve(cfg: RunConfig) -> tuple[DiscreteMeasure, GridSpec]:
    text = cfg.get("density", None, str)
    if text is None:
        raise ParseError("--density is required")
    parsed = parse_density(text)
    if parsed[0] == "file":
        measure = load_measure(parsed[1])
        level = cfg.get("level", None, int)
        R = cfg.get("R", None, float)
        g = measure.grid
        if level is not None and level != g.level:
            raise ParseError(
                f"--level {level} disagrees with the stored measure's level {g.level}"
            )
        if R is not None and abs(R - g.window_halfwidth) > 1e-12:
            raise ParseError(
                f"--R {R!r} disagrees with the stored measure's halfwidth "
                f"{g.window_halfwidth!r}"
            )
        return measure, g
    density, dim = parsed
    level = cfg.get("level", 3, int)
    R = cfg.get("R", None, float)
    if R is None:
        raise ParseError("--R is required for inline densities")
    grid = GridSpec(level, R, dim)
    samples = cfg.get("samples", 4, int)
    return discretize(density, grid, samples_per_axis=samples), grid


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    measure, grid = _measure_for_solve(cfg)
    n = cfg.get("N", 2, int)
    model = _cost_model(cfg, n)
    mode = _cost_mode(cfg, "pointwise" if measure.positions is not None else "cell")
    gap_tol = cfg.get("gap-tol", 1e-8, float)
    feas_tol = cfg.get("feas-tol", 1e-9, float)
    m_fraction = cfg.get("m-fraction", 0.1, float)
    plan, potentials, value = solve_mmot(
        measure, model, cost_mode=mode, feas_tol=feas_tol, gap_tol=gap_tol
    )
    report = verify_duality(
        plan,
        potentials,
        model,
        cost_mode=mode,
        positions=measure.positions,
        m_fraction=m_fraction,
        feas_tol=feas_tol,
    )
    plan_path = cfg.get("out", None, str)
    if plan_path:
        save_plan(plan, plan_path)
    pot_path = cfg.get("potentials", None, str)
    if pot_path:
        save_potentials(potentials, pot_path)
    summary = {
        "command": "solve",
        "level": grid.level,
        "halfwidth": grid.window_halfwidth,
        "dimension": grid.dimension,
        "n_marginals": n,
        "cost_kind": model.kind,
        "cost_exponent": model.exponent,
        "support_cells": len(measure.support()),
        "plan_atoms": len(plan.atoms),
    }
    summary.update(report.as_dict())
    sys.stdout.write(
        json.dumps({k: _json_clean(v) for k, v in summary.items()}, sort_keys=True) + "\n"
    )
    _note(
        f"solve: m={len(measure.support())} atoms={len(plan.atoms)} "
        f"value={value!r} gap={report.relative_gap!r}"
    )
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    text = cfg.get("density", None, str)
    if text is None:
        raise ParseError("--density is required")
    parsed = parse_density(text)
    if parsed[0] == "file":
        raise ParseError(
            "converge rediscretizes the density at each level and cannot "
            "use a stored measure; pass atoms:, ball:, or gauss:"
        )
    density, dim = parsed
    n = cfg.get("N", 2, int)
    model = _cost_model(cfg, n)
    mode = _cost_mode(cfg, "pointwise" if isinstance(density, FiniteAtomic) else "cell")
    levels = _parse_levels(cfg.get("levels", "1..3", str))
    R = cfg.get("R", None, float)
    if R is None:
        raise ParseError("--R is required")
    table = converge(
        density,
        model,
        levels,
        R,
        dim,
        m_fraction=cfg.get("m-fraction", 0.1, float),
        gap_tol=cfg.get("gap-tol", 1e-8, float),
        feas_tol=cfg.get("feas-tol", 1e-9, float),
        cost_mode=mode,
    )
    _emit(table.to_csv(), cfg.get("out", None, str))
    for row in table.rows:
        if row.error is None:
            _note(f"level {row.level}: value={row.primal!r} gap={row.gap!r}")
        else:
            _note(f"level {row.level}: failed ({row.error})")
    if any(row.error is not None for row in table.rows):
        _fail("converge: some levels failed to solve")
        return 3
    violations = table.check(cfg.get("gap-tol", 1e-8, float))
    if violations:
        for v in violations:
            _fail(f"converge: {v}")
        return 4
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    plan_path = cfg.get("plan", None, str)
    pot_path = cfg.get("potentials", None, str)
    if plan_path is None or pot_path is None:
        raise ParseError("verify needs --plan and --potentials")
    plan = load_plan(plan_path)
    potentials = load_potentials(pot_path)
    model = _cost_model(cfg, plan.n_marginals)
    mode = _cost_mode(cfg)
    gap_tol = cfg.get("gap-tol", 1e-8, float)
    feas_tol = cfg.get("feas-tol", 1e-9, float)
    report = verify_duality(
        plan,
        potentials,
        model,
        cost_mode=mode,
        m_fraction=cfg.get("m-fraction", 0.1, float),
        feas_tol=feas_tol,
    )
    if cfg.get("json", False, _bool):
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_kv_block())
    scale = feas_tol * (1.0 + abs(report.primal_value))
    reasons = []
    if report.relative_gap > gap_tol:
        reasons.append(f"duality gap {report.relative_gap!r} above {gap_tol!r}")
    if report.max_slackness_violation > scale:
        reasons.append(f"complementary slackness off by {report.max_slackness_violation!r}")
    if report.max_dual_violation > scale:
        reasons.append(f"dual constraint violated by {report.max_dual_violation!r}")
    if reasons:
        for r in reasons:
            _fail(f"verify: {r}")
        return 4
    _note("verify: OK")
    return 0


def _cmd_improve(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    plan_path = cfg.get("plan", None, str)
    if plan_path is None:
        raise ParseError("improve needs --plan")
    plan = load_plan(plan_path)
    model = _cost_model(cfg, plan.n_marginals)
    initial = plan_cost(plan, model, cost_mode="cell")
    improved, log = swap_search(
        plan, model, max_rounds=cfg.get("max-rounds", 8, int)
    )
    final = plan_cost(improved, model, cost_mode="cell")
    out_path = cfg.get("out", None, str)
    if out_path:
        save_plan(improved, out_path)
    summary = {
        "command": "improve",
        "initial_cost": initial,
        "final_cost": final,
        "improved": final < initial,
        "atoms_before": len(plan.atoms),
        "atoms_after": len(improved.atoms),
    }
    sys.stdout.write(
        json.dumps({k: _json_clean(v) for k, v in summary.items()}, sort_keys=True) + "\n"
    )
    for line in log:
        _note(f"improve: {line}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cost", help="cost kind: coulomb or power")
    p.add_argument("--s", help="power-law exponent (coulomb fixes 1)")
    p.add_argument("--config", help="file of key = value defaults; flags win")
    p.add_argument("--seed", help="random seed (accepted for compatibility)")
    p.add_argument("--threads", help="thread count (accepted; solver is single-threaded)")
    p.add_argument("--gap-tol", help="relative duality-gap tolerance (default 1e-8)")
    p.add_argument("--feas-tol", help="dual feasibility tolerance (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmot",
        description="Multimarginal optimal transport with repulsive costs on dyadic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one discretized instance")
    p.add_argument("--density", help="atoms:/ball:/gauss:/file: density string")
    p.add_argument("--N", help="number of marginals (default 2)")
    p.add_argument("--level", help="dyadic refinement level (default 3)")
    p.add_argument("--R", help="window halfwidth")
    p.add_argument("--samples", help="per-axis subsamples for smooth densities (default 4)")
    p.add_argument("--cost-mode", help="cell or pointwise (default: pointwise for atoms:, else cell)")
    p.add_argument("--m-fraction", help="ball-mass fraction for the potential bound (default 0.1)")
    p.add_argument("--out", help="write the optimal plan here")
    p.add_argument("--potentials", help="write the dual potentials here")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("converge", help="solve one density across refinement levels")
    p.add_argument("--density", help="atoms:/ball:/gauss: density string")
    p.add_argument("--N", help="number of marginals (default 2)")
    p.add_argument("--levels", help="level range a..b or list a,b,c (default 1..3)")
    p.add_argument("--R", help="window halfwidth")
    p.add_argument("--cost-mode", help="cell or pointwise (default: pointwise for atoms:, else cell)")
    p.add_argument("--m-fraction", help="ball-mass fraction for the potential bound (default 0.1)")
    p.add_argument("--out", help="write the CSV table here instead of stdout")
    _add_common(p)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("verify", help="audit a stored plan against stored potentials")
    p.add_argument("--plan", help="plan file")
    p.add_argument("--potentials", help="potentials file")
    p.add_argument("--cost-mode", help="cell or pointwise (default cell)")
    p.add_argument("--m-fraction", help="ball-mass fraction for the potential bound (default 0.1)")
    p.add_argument("--json", action="store_true", default=None, help="emit JSON instead of key=value lines")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("improve", help="rearrange a stored plan away from the diagonal")
    p.add_argument("--plan", help="plan file")
    p.add_argument("--max-rounds", help="local search rounds (default 8)")
    p.add_argument("--out", help="write the rearranged plan here")
    _add_common(p)
    p.set_defaults(func=_cmd_improve)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # argparse builds a help formatter per argument; in-process callers
    # (tests, benchmarks) call main() many times over
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        _fail(str(exc))
        return 2
    except _SOLVER_ERRORS as exc:
        _fail(str(exc))
        return 3
    except OSError as exc:
        _fail(str(exc))
        return 2
    except MMOTError as exc:
        _fail(str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
