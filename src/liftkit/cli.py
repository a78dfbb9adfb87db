"""Batch front door: generate, solve, verify, roundtrip, self-test.

Every command reads/writes JSON with schema tag "liftkit/1" and is
deterministic for a fixed seed and configuration.  Exit codes: 0 all
checks passed, 1 usage or unreadable input, 2 a verification threshold
failed, 3 a numeric guard tripped inside the computation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .errors import ConfigError, LiftkitError
from .hardy import column_operator, grid_sup_norm
from .lifting import (CHECK_TOL, FIBER_GAP_TOL, RECURRENCE_TOL,
                      InterpolationProblem, _failures, fiber_roundtrip_residuals,
                      random_constrained_z, random_problem, solve_from_Z,
                      uniqueness_certificate, verify_solution)
from .linalg import Subspace
from .modelspace import (DECOMPOSITION_TOL, MULT_ROUNDTRIP_TOL,
                         check_decompositions, model_space,
                         mult_contraction_test, multiplier_roundtrip_residual,
                         random_inner, random_multiplier)
from .rcl import (data_set_from_omega, gamma_to_B, omega_roundtrip_residual,
                  random_data_set, underlying_contraction, validate_data_set,
                  verify_rcl)
from .serialize import (MAX_DEGREE, MAX_ENTRIES, SCHEMA, dataset_from_json, dataset_to_json,
                        dumps, field, load, poly_from_json, poly_to_json,
                        problem_from_json, problem_to_json, save,
                        schur_from_json, schur_to_json)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3

GEN_OMEGA_SCALE = 0.45
GEN_Z_SCALE = 0.5
MODELSPACE_DEGREE = 32


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors raise ConfigError, so that main reports
    them as one line with exit 1, like any other malformed input."""

    def error(self, message):
        raise ConfigError(message)


def _parse(argv):
    ap = _Parser(
        prog="liftkit",
        description="interpolation, lifting and model-space batch checks")
    ap.add_argument("--cmd", required=True,
                    choices=["gen", "solve", "verify", "fiber", "rcl",
                             "modelspace", "selftest"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--degree", type=int, default=24)
    ap.add_argument("--dims", default="2,2,1",
                    help="U,Y,dimF for generated problems")
    ap.add_argument("--in", dest="inp", default=None)
    ap.add_argument("--out", dest="out", default=None)
    args = ap.parse_args(argv)
    if args.degree < 4:
        ap.error("--degree must be at least 4")
    if args.degree > MAX_DEGREE:
        ap.error(f"--degree must be at most {MAX_DEGREE}")
    if args.seed < 0:
        # numpy's generators take only non-negative seeds
        ap.error(f"--seed must be non-negative, got {args.seed}")
    try:
        u, y, f = (int(x) for x in args.dims.split(","))
    except ValueError:
        ap.error("--dims expects three comma-separated integers")
    if u < 0 or y < 0 or f < 0 or f > u:
        ap.error("--dims requires 0 <= dimF <= U and Y >= 0")
    if (u + y) ** 2 > MAX_ENTRIES:  # the largest matrix made from the dims
        ap.error(f"--dims requires (U + Y)^2 <= {MAX_ENTRIES}")
    args.u, args.y, args.f = u, y, f
    return args


def _envelope(args, failures: list, **fields) -> tuple[dict, int]:
    """The output record, ok when no check failed, and the exit code."""
    out = {"schema": SCHEMA, "command": args.cmd, "seed": args.seed,
           "degree": args.degree,
           "tolerances": {"verify": RECURRENCE_TOL, "contract": CHECK_TOL},
           "ok": not failures, "failures": failures}
    out.update(fields)
    return out, EXIT_OK if not failures else EXIT_VERIFY


def _mapping(name: str, fn, u: int, y: int):
    """fn, read from the input record name; ConfigError unless it maps C^u into C^y."""
    if (fn.out_dim, fn.in_dim) != (y, u):
        raise ConfigError(f"{name}: must map C^{u} into C^{y}, got {fn.out_dim} x {fn.in_dim}")
    return fn


def _problem_and_z(args, payload_in):
    if payload_in is not None:
        p = problem_from_json(field(payload_in, "problem"), "problem")
        if "Z" in payload_in:
            return p, _mapping("Z", schur_from_json(payload_in["Z"], "Z"),
                               p.U_dim, p.Y_dim + p.U_dim)
    else:
        p = random_problem(args.u, args.y, args.f, args.seed,
                           scale=GEN_OMEGA_SCALE)
    Z = random_constrained_z(p, 2, args.seed + 1, scale=GEN_Z_SCALE)
    return p, Z


def _cmd_gen(args, payload_in):
    p, Z = _problem_and_z(args, payload_in)
    return _envelope(args, [], problem=problem_to_json(p), Z=schur_to_json(Z),
                     unique=uniqueness_certificate(p))


def _cmd_solve(args, payload_in):
    p, Z = _problem_and_z(args, payload_in)
    N = args.degree
    H = solve_from_Z(p, Z, N)
    rep = verify_solution(p, H, N)
    return _envelope(args, rep.failures(), problem=problem_to_json(p),
                     H=poly_to_json(H), report={**asdict(rep), "grid_sup_norm": grid_sup_norm(H)})


def _cmd_verify(args, payload_in):
    if payload_in is None:
        raise ConfigError("verify requires --in with a problem and H")
    p = problem_from_json(field(payload_in, "problem"), "problem")
    H = _mapping("H", poly_from_json(field(payload_in, "H"), "H"), p.U_dim, p.Y_dim)
    rep = verify_solution(p, H, H.degree)
    return _envelope(args, rep.failures(), degree=rep.degree,
                     report={**asdict(rep), "grid_sup_norm": grid_sup_norm(H)})


def _cmd_fiber(args, payload_in):
    p, Z = _problem_and_z(args, payload_in)
    diff, constraint, w0 = fiber_roundtrip_residuals(p, Z, args.degree)
    return _envelope(args, _failures(("fiber roundtrip residual", diff, FIBER_GAP_TOL)),
                     roundtrip_residual=diff, constraint_residual=constraint,
                     w0_residual=w0)


def _rcl_report(ds, z_seed: int, N: int):
    """Induced problem -> seeded Z -> solve -> gamma_to_B -> verify_rcl."""
    p = underlying_contraction(ds)
    Z = random_constrained_z(p, 2, z_seed, scale=GEN_Z_SCALE)
    H = solve_from_Z(p, Z, N)
    return verify_rcl(ds, gamma_to_B(ds, column_operator(H, N), N), N)


def _cmd_rcl(args, payload_in):
    if payload_in is not None:
        ds = dataset_from_json(field(payload_in, "dataset"), "dataset")
    else:
        ds = random_data_set(args.seed, u=args.u, y=args.y, f=args.f)
    N = args.degree
    valid = validate_data_set(ds)
    failures = [] if valid else ["data set constraints violated"]
    fields = {"dataset": dataset_to_json(ds), "valid": valid}
    if valid:
        rep = _rcl_report(ds, args.seed + 2, N)
        fields["projection_residual"] = rep.projection_residual
        fields["intertwining_residual"] = rep.intertwining_residual
        failures += rep.failures()
    return _envelope(args, failures, **fields)


def _modelspace_roundtrip(theta_seed: int, mult_seed: int, N: int):
    """(model space, decomposition report, multiplier, roundtrip residual).

    theta -> model space -> decompositions -> multiplier -> roundtrip, at
    degree max(N, MODELSPACE_DEGREE).
    """
    N = max(N, MODELSPACE_DEGREE)
    theta = random_inner(theta_seed, 2, 1)
    ms = model_space(theta, N)
    Hf = random_multiplier(theta, 2, N, mult_seed, scale=GEN_Z_SCALE)
    return (ms, check_decompositions(theta, ms), Hf,
            multiplier_roundtrip_residual(theta, Hf, ms))


def _cmd_modelspace(args, payload_in):
    del payload_in
    ms, dec, Hf, diff = _modelspace_roundtrip(args.seed, args.seed + 3, args.degree)
    mb = mult_contraction_test(Hf, ms)
    failures = dec.failures() + _failures(("multiplier roundtrip residual", diff,
                                           MULT_ROUNDTRIP_TOL))
    if not mb.contractive:
        failures.append(f"multiplication norm {mb.norm:.6f} exceeds 1")
    return _envelope(args, failures, degree=ms.N, model_dim=ms.basis.dim,
                     h0_dim=ms.H0_basis.dim,
                     decomposition_residuals=list(map(float, dec[:4])),
                     mult_norm=mb.norm, roundtrip_residual=diff)


def _suite_scalar_fixture(seed: int, N: int):
    p = InterpolationProblem(U_dim=1, Y_dim=1, F=Subspace(1, np.eye(1)),
                             omega1=np.array([[0.6]]), omega2=np.array([[0.8]]))
    H = solve_from_Z(p, random_constrained_z(p, 2, seed), N)
    return ((abs(H.coeff(n)[0, 0] - 0.6 * 0.8 ** n),) for n in range(N + 1))


def _suite_solve_verify(seed: int, N: int):
    for k in range(5):
        p = random_problem(2, 2, 1, seed + 10 + k, scale=0.9)
        Z = random_constrained_z(p, 2, seed + 40 + k)
        rep = verify_solution(p, solve_from_Z(p, Z, N), N)
        yield rep.recurrence_residual, rep.partial_gram_excess


def _suite_fiber_roundtrip(seed: int, N: int):
    for k in range(3):
        p = random_problem(2, 2, 1, seed + 70 + k, scale=GEN_OMEGA_SCALE)
        Z = random_constrained_z(p, 2, seed + 80 + k, scale=GEN_Z_SCALE)
        yield fiber_roundtrip_residuals(p, Z, N)[:1]


def _suite_omega_roundtrip(seed: int, N: int):
    for k in range(5):
        yield (omega_roundtrip_residual(
            random_problem(3, 2, 2, seed + 100 + k, scale=0.9)),)


def _suite_rcl_equivalence(seed: int, N: int):
    for k in range(3):
        rep = _rcl_report(random_data_set(seed + 130 + k), seed + 160 + k, N)
        yield (rep.projection_residual,)
        yield (rep.intertwining_residual,)


def _suite_modelspace_roundtrip(seed: int, N: int):
    for k in range(2):
        _, dec, _, diff = _modelspace_roundtrip(seed + 200 + k, seed + 230 + k, N)
        yield np.max(dec), diff


def _suite_tilde_validates(seed: int, N: int):
    ds = data_set_from_omega(random_problem(2, 2, 1, seed + 300))
    return [(0.0 if validate_data_set(ds) else 1.0,)]


# (suite, least degree, checks as (name, tolerance)) in report order.  A
# suite runs at max(--degree, least degree) and yields rows of residuals, one
# entry per check, each passing when its largest residual, NaN if any is, is
# at most its tolerance.
_SELFTEST = (
    (_suite_scalar_fixture, 0, (("scalar_fixture", 1e-12),)),
    (_suite_solve_verify, 0, (("solve_recurrence", RECURRENCE_TOL),
                              ("solve_gram_excess", CHECK_TOL))),
    (_suite_fiber_roundtrip, 0, (("fiber_roundtrip", FIBER_GAP_TOL),)),
    (_suite_omega_roundtrip, 0, (("omega_roundtrip", 1e-10),)),
    (_suite_rcl_equivalence, 0, (("rcl_equivalence", CHECK_TOL),)),
    (_suite_modelspace_roundtrip, MODELSPACE_DEGREE,
     (("modelspace_decomposition", DECOMPOSITION_TOL),
      ("modelspace_roundtrip", MULT_ROUNDTRIP_TOL))),
    (_suite_tilde_validates, 0, (("tilde_validates", 0.5),)),
)


def _cmd_selftest(args, payload_in):
    del payload_in
    suites = {}
    failures = []
    for suite, least, checks in _SELFTEST:
        N = max(args.degree, least)
        for (name, tol), column in zip(checks, zip(*suite(args.seed, N))):
            value = float(np.max(column))
            failed = _failures((name, value, tol))
            suites[name] = {"degree": N, "max_residual": value, "tol": tol, "pass": not failed}
            failures += failed
    return _envelope(args, failures, suites=suites)


def _load_input(path: str):
    """The decoded --in file; a schema tag other than SCHEMA is a ConfigError.

    An untagged payload is accepted.
    """
    payload = load(path)
    if isinstance(payload, dict) and payload.get("schema", SCHEMA) != SCHEMA:
        raise ConfigError(f"schema: expected {json.dumps(SCHEMA)}, "
                          f"got {json.dumps(payload['schema'])}")
    return payload


_DISPATCH = {"gen": _cmd_gen, "solve": _cmd_solve, "verify": _cmd_verify,
             "fiber": _cmd_fiber, "rcl": _cmd_rcl,
             "modelspace": _cmd_modelspace, "selftest": _cmd_selftest}


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except SystemExit:
        return EXIT_OK  # after --help; usage errors raise ConfigError
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        payload_in = _load_input(args.inp) if args.inp is not None else None
        payload, code = _DISPATCH[args.cmd](args, payload_in)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LiftkitError as exc:
        payload = {"schema": SCHEMA, "command": args.cmd, "ok": False,
                   "error": f"{type(exc).__name__}: {exc}"}
        code = EXIT_NUMERIC
    if args.out:
        save(args.out, payload)
    else:
        sys.stdout.write(dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
