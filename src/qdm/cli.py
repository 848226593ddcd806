"""Command-line front end: run scenarios, sweeps, and parameter calculators.

Outputs are plain CSV plus a JSON manifest; all energies are ueV, times ns,
temperatures K, lengths nm. Exit codes: 0 success, 2 unknown scenario,
3 unwritable output directory, 4 config schema violation, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, QdmError
from .params import CouplingParams, DotGeometry, DriveParams, MaterialParams
from .physics import (
    forster_coupling,
    spectral_density,
    wkb_tunneling_rate,
    zeeman_splittings,
)
from .scenarios import (
    ScenarioConfig,
    run_scenario,
    scenario_presets,
    sweep_T0,
    sweep_temperature,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_UNKNOWN_SCENARIO = 2
EXIT_UNWRITABLE = 3
EXIT_SCHEMA = 4

_NESTED_FIELDS = {
    "drive": DriveParams,
    "coupling": CouplingParams,
    "geometry": DotGeometry,
    "material": MaterialParams,
}


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _env_seed() -> int | None:
    """The integer in QDM_SEED, None if it is unset."""
    raw = os.environ.get("QDM_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise _CliError(EXIT_SCHEMA, f"QDM_SEED must be an integer, got {raw!r}") from None


def load_config_file(path: Path) -> ScenarioConfig:
    """Parse a JSON scenario file whose keys mirror ScenarioConfig fields."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(EXIT_SCHEMA, f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise _CliError(EXIT_SCHEMA, "config root must be a JSON object")
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(raw) - known
    if unknown:
        raise _CliError(EXIT_SCHEMA, f"unknown config keys: {sorted(unknown)}")
    kwargs: dict = {}
    for key, value in raw.items():
        if key in _NESTED_FIELDS:
            cls = _NESTED_FIELDS[key]
            sub_known = {f.name for f in dataclasses.fields(cls)}
            sub_unknown = set(value) - sub_known
            if sub_unknown:
                raise _CliError(EXIT_SCHEMA, f"unknown keys in {key}: {sorted(sub_unknown)}")
            try:
                kwargs[key] = cls(**value)
            except (TypeError, ValueError) as exc:
                raise _CliError(EXIT_SCHEMA, f"bad {key} block: {exc}") from exc
        elif key == "t_grid":
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    seed = _env_seed()
    if seed is not None and "seed" not in kwargs:
        kwargs["seed"] = seed
    try:
        return ScenarioConfig(**kwargs)
    except (ConfigError, TypeError, ValueError) as exc:
        raise _CliError(EXIT_SCHEMA, f"invalid config: {exc}") from exc


def _resolve_scenario(spec: str) -> ScenarioConfig:
    presets = scenario_presets()
    if spec in presets:
        seed = _env_seed()
        return presets[spec] if seed is None else dataclasses.replace(presets[spec], seed=seed)
    path = Path(spec)
    if path.suffix and path.exists():
        return load_config_file(path)
    raise _CliError(
        EXIT_UNKNOWN_SCENARIO,
        f"unknown scenario {spec!r}; presets: {sorted(presets)}",
    )


def _prepare_out(out: str) -> Path:
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise _CliError(EXIT_UNWRITABLE, f"output directory {out!r} not writable: {exc}") from exc
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def _write_manifest(out: Path, config: ScenarioConfig, summary: dict, files: list[str]) -> None:
    for name in files:
        target = out / name
        if not target.exists() or target.stat().st_size == 0:
            raise _CliError(EXIT_UNWRITABLE, f"declared output {name} missing or empty")
    manifest = {
        "artifact_version": __version__,
        "config": dataclasses.asdict(config),
        "config_hash": config.config_hash(),
        "summary": summary,
        "output_files": files,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_scenario(args.scenario)
    out = _prepare_out(args.out)
    started = time.time()
    result = run_scenario(config)
    traj = result.trajectory
    header = ["t_ns", "concurrence", "leak"] + [f"p_{lab}" for lab in traj.basis.labels]
    rows = []
    for i, t in enumerate(traj.times):
        rows.append(
            [float(t), float(traj.concurrence[i]), float(traj.leak[i])]
            + [float(traj.populations[lab][i]) for lab in traj.basis.labels]
        )
    _write_csv(out / "trajectory.csv", header, rows)
    summary = {
        "steady_concurrence": result.steady_concurrence,
        "t0_ns": result.t0_ns,
        "steady_leak": result.steady_leak,
        "final_concurrence": float(traj.concurrence[-1]),
        "max_leak": float(traj.leak.max()),
        "wall_time_s": time.time() - started,
    }
    _write_manifest(out, config, summary, ["trajectory.csv"])
    print(
        f"scenario {config.name}: steady concurrence {result.steady_concurrence:.6f}, "
        f"T0 {result.t0_ns:.4f} ns -> {out}"
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    presets = scenario_presets()
    if args.preset not in ("fig3b", "fig4b"):
        raise _CliError(EXIT_UNKNOWN_SCENARIO, f"unknown sweep preset {args.preset!r}")
    config = presets[args.preset]
    out = _prepare_out(args.out)
    started = time.time()
    if args.preset == "fig3b":
        omega = config.drive.omega
        result = sweep_T0(
            config,
            omega_grid=[omega],
            omega_m_grid=np.linspace(0.1 * omega, omega, 15).tolist(),
            gamma_grid=[config.drive.gamma0],
        )
        summary: dict = {
            "argmin_omega_m": {f"{k[0]}_{k[1]}": v for k, v in result.summary["argmin_omega_m"].items()},
        }
    else:
        result = sweep_temperature(
            config,
            T_grid=[0.0, 0.5, 1.0, 2.0, 4.0],
            te_grid=[0.0, 1000.0, 2000.0, 3000.0],
        )
        summary = {}
    _write_csv(out / "sweep.csv", list(result.columns), [list(r) for r in result.rows])
    summary["wall_time_s"] = time.time() - started
    summary["rows"] = len(result.rows)
    _write_manifest(out, config, summary, ["sweep.csv"])
    print(f"sweep {args.preset}: {len(result.rows)} rows -> {out}")
    return EXIT_OK


def _cmd_calc(args: argparse.Namespace) -> int:
    if args.quantity == "zeeman":
        e_e, e_h, d_h, d_v = zeeman_splittings(args.B, args.ge, args.gh)
        print(f"E_B_e = {e_e:.4f} ueV")
        print(f"E_B_h = {e_h:.4f} ueV")
        print(f"|Delta_H| = {abs(d_h):.4f} ueV")
        print(f"|Delta_V| = {abs(d_v):.4f} ueV")
    elif args.quantity == "forster":
        geom = DotGeometry(eps_r=args.eps_r)
        vf = forster_coupling(geom)
        print(f"V_F = {vf:.4f} ueV ({vf / 1000:.4f} meV) at eps_r = {args.eps_r}")
    elif args.quantity == "wkb":
        te = wkb_tunneling_rate(args.barrier, args.d, args.meff)
        print(f"t_e = {te:.4f} meV")
    elif args.quantity == "spectral-density":
        geom = DotGeometry()
        material = MaterialParams()
        j = spectral_density(args.omega, args.parity, geom, material)
        print(f"J_{args.parity}({args.omega} ueV) = {j:.6e} ueV")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdm",
        description="Dissipative singlet preparation in a two-dot molecule: "
        "scenario runs, sweeps, and parameter calculators.",
    )
    parser.add_argument("--version", action="version", version=f"qdm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write trajectory.csv")
    run_p.add_argument("--scenario", required=True, help="preset name or JSON config path")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a preset parameter sweep")
    sweep_p.add_argument("--preset", required=True, choices=["fig3b", "fig4b"])
    sweep_p.add_argument("--out", required=True)
    sweep_p.set_defaults(func=_cmd_sweep)

    calc_p = sub.add_parser("calc", help="print derived physical parameters")
    calc_sub = calc_p.add_subparsers(dest="quantity", required=True)
    zee = calc_sub.add_parser("zeeman")
    zee.add_argument("--B", type=float, default=1.0)
    zee.add_argument("--ge", type=float, default=-0.46)
    zee.add_argument("--gh", type=float, default=-0.29)
    fo = calc_sub.add_parser("forster")
    fo.add_argument("--eps-r", dest="eps_r", type=float, default=DotGeometry().eps_r)
    wkb = calc_sub.add_parser("wkb")
    wkb.add_argument("--barrier", type=float, default=680.0, help="barrier height, meV")
    wkb.add_argument("--d", type=float, default=9.5, help="dot separation, nm")
    wkb.add_argument("--meff", type=float, default=0.067, help="effective mass, m0")
    sd = calc_sub.add_parser("spectral-density")
    sd.add_argument("--omega", type=float, required=True, help="frequency, ueV")
    sd.add_argument("--parity", choices=["plus", "minus"], default="plus")
    calc_p.set_defaults(func=_cmd_calc)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return exc.code
    except QdmError as exc:
        print(f"error {EXIT_FAILURE}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
