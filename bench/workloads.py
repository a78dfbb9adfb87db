"""Seeded inputs and per-instance pipelines of the benchmark's workloads.

Every input is generated during set-up from the workload seed with the
library's own seeded generators; an instance then carries one input
through the whole pipeline of its workload.  Each call into a liftkit
layer sits in a span named ``<module>.<function>``, and the benchmark's
own comparisons sit in ``bench.checks``, so the spans of an instance
cover all of its time.  Every result is checked against the acceptance
thresholds as it is produced.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import numpy as np

from liftkit import (InterpolationProblem, Subspace, central_C,
                     check_decompositions, default_grid, gamma_to_B,
                     h_from_Z_theta, model_space, mult_contraction_test,
                     pointwise_mult_check, random_constrained_z,
                     random_data_set, random_inner, random_problem,
                     random_schur, solve_from_Z, underlying_contraction,
                     verify_rcl, verify_solution, z_from_C, z_from_H_theta)
from liftkit import serialize
from liftkit.hardy import column_operator, multiplication_operator
from liftkit.linalg import operator_norm

# The CLI's `gen` scales for omega and for the free part of Z.  Copied,
# not imported, so that a change to the program cannot change the inputs.
OMEGA_SCALE = 0.45
Z_SCALE = 0.5
# (U, Y, dim F) cycle of the test suite's randomized checks.
DIMS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2),
        (3, 1, 0), (1, 2, 1), (2, 3, 2), (4, 2, 3), (5, 3, 4)]
MULT_Y = 2

RESIDUAL_FLOOR = 1e-18

# Acceptance thresholds, by check name.  Each check's worst value is
# reported as the per-layer metric "<name>_max".
THRESHOLDS = {
    "lifting.recurrence": 1e-9,
    "lifting.gram_excess": 1e-8,
    "lifting.fiber_roundtrip": 1e-7,
    "lifting.w0_residual": 1e-8,
    "lifting.scalar_oracle": 1e-12,
    "hardy.grid_constraint": 1e-8,
    "rcl.residual": 1e-8,
    "modelspace.decomposition": 1e-8,
    "modelspace.roundtrip": 1e-6,
    "modelspace.mult_norm_excess": 1e-8,
    "modelspace.pointwise": 1e-8,
}

# Spans recorded around calls into each layer, in report order.  The
# root span of an instance is ROOT_SPAN.
SPANS = [
    "lifting.solve_from_Z", "lifting.verify_solution", "lifting.central_C",
    "lifting.z_from_C", "hardy.grid_check", "hardy.column_operator",
    "hardy.multiplication_operator", "serialize.encode", "serialize.decode",
    "rcl.underlying_contraction", "rcl.gamma_to_B", "rcl.verify_rcl",
    "modelspace.model_space", "modelspace.check_decompositions",
    "modelspace.h_from_Z_theta", "modelspace.mult_contraction_test",
    "modelspace.pointwise_mult_check", "modelspace.z_from_H_theta",
    "bench.checks",
]
ROOT_SPAN = "bench.instance"


class Checks:
    """Worst value of each check over a run, and every failure by name."""

    def __init__(self):
        self.worst = dict.fromkeys(THRESHOLDS, 0.0)
        # minimum over the current instance's checks of
        # log10(threshold / residual), the residual floored at RESIDUAL_FLOOR
        self.margin = math.inf
        # failing check -> [count, first failure]
        self.failures: dict = {}
        self.instance = -1
        self.instance_ok = True
        # per-instance counts, by name
        self.counts: dict = {}

    def start(self, instance: int) -> None:
        self.instance = instance
        self.instance_ok = True
        self.margin = math.inf

    def record(self, name: str, value) -> None:
        value = float(value)
        tol = THRESHOLDS[name]
        self.margin = min(self.margin, -math.inf if math.isnan(value) else
                          math.log10(tol / max(value, RESIDUAL_FLOOR)))
        if not value <= tol:  # also catches NaN
            self.fail(f"check {name}", f"{value:.3e} exceeds {tol:g}")
        if value > self.worst[name] or math.isnan(value):
            self.worst[name] = value

    def fail(self, what: str, detail: str) -> None:
        self.instance_ok = False
        rec = self.failures.setdefault(
            what, [0, f"{detail} (first at instance {self.instance})"])
        rec[0] += 1

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))


def _coeff_diff(H1, H2, upto: int) -> float:
    return max(operator_norm(H1.coeff(n) - H2.coeff(n))
               for n in range(upto + 1))


# -- interpolation pipeline (small_batch, high_degree) ----------------------

def lifting_inputs(seed: int, dims: list, N: int) -> list:
    """One problem, constrained parameter and lifting data set per dims entry."""
    rng = np.random.default_rng(seed)
    out = []
    for u, y, f in dims:
        s = int(rng.integers(0, 2**31 - 8))
        p = random_problem(u, y, f, s, scale=OMEGA_SCALE)
        Z = random_constrained_z(p, 2, s + 1, scale=Z_SCALE)
        ds = random_data_set(s + 2, u=u, y=y, f=f)
        # the parameter for the lifting roundtrip needs the induced problem
        Zq = random_constrained_z(underlying_contraction(ds), 2, s + 3,
                                  scale=Z_SCALE)
        out.append({"N": N, "p": p, "Z": Z, "ds": ds, "Zq": Zq})
    return out


def run_lifting(inp: dict, tr, ck: Checks) -> None:
    """solve -> JSON handoff -> verify -> fiber roundtrip -> lifting roundtrip."""
    N, p, Z, ds = inp["N"], inp["p"], inp["Z"], inp["ds"]
    with tr.span("lifting.solve_from_Z"):
        H = solve_from_Z(p, Z, N)
    with tr.span("serialize.encode"):
        text = serialize.dumps({"problem": serialize.problem_to_json(p),
                                "Z": serialize.schur_to_json(Z),
                                "H": serialize.poly_to_json(H)})
    ck.count("serialize.encode.bytes", len(text))
    with tr.span("serialize.decode"):
        payload = json.loads(text)
        p = serialize.problem_from_json(payload["problem"])
        serialize.schur_from_json(payload["Z"])
        H = serialize.poly_from_json(payload["H"])
    with tr.span("lifting.verify_solution"):
        rep = verify_solution(p, H, N)
    ck.record("lifting.recurrence", rep.recurrence_residual)
    ck.record("lifting.gram_excess", rep.partial_gram_excess)
    with tr.span("hardy.column_operator"):
        Gamma = column_operator(H, N)
    with tr.span("lifting.central_C"):
        C = central_C(p, Gamma)
    with tr.span("lifting.z_from_C"):
        Z1 = z_from_C(p, H, Gamma, C, N)
    ck.record("lifting.w0_residual", Z1.meta["w0_residual"])
    points = 0
    with tr.span("hardy.grid_check"):
        constraint = 0.0
        if p.F.dim > 0:
            grid = default_grid(N)
            points = len(grid.points)
            constraint = max(operator_norm(Z1.eval(z) @ p.F.basis - p.omega)
                             for z in grid.points)
    ck.count("hardy.grid_check.points", points)
    ck.record("hardy.grid_constraint", constraint)
    with tr.span("lifting.solve_from_Z"):
        H1 = solve_from_Z(p, Z1, N)
    with tr.span("bench.checks"):
        diff = _coeff_diff(H, H1, N - 4)
    ck.record("lifting.fiber_roundtrip", diff)

    with tr.span("rcl.underlying_contraction"):
        q = underlying_contraction(ds)
    with tr.span("lifting.solve_from_Z"):
        Hq = solve_from_Z(q, inp["Zq"], N)
    with tr.span("hardy.column_operator"):
        Gq = column_operator(Hq, N)
    with tr.span("rcl.gamma_to_B"):
        cand = gamma_to_B(ds, Gq, N)
    with tr.span("rcl.verify_rcl"):
        rr = verify_rcl(ds, cand, N)
    ck.record("rcl.residual", max(rr.projection_residual,
                                  rr.intertwining_residual))


def lifting_mb(inp: dict) -> float:
    """Computed size of the dense lifting matrix verify_rcl builds, in MB.

    The truncated Sz.-Nagy-Schaeffer lifting is square of side
    dim H' + (N+1) * rank(D_T'), complex128.
    """
    ds, N = inp["ds"], inp["N"]
    T = ds.Tprime
    s = np.linalg.svd(np.eye(T.shape[0]) - T.conj().T @ T, compute_uv=False)
    d_T = int(np.count_nonzero(s > 1e-9 * max(1.0, float(s[0]))))
    side = ds.Hprime_dim + (N + 1) * d_T
    return side * side * 16 / 2**20


def scalar_oracle_input(seed: int) -> dict:
    """F = U = C and omega = [0.6; 0.8]: the unique solution is 0.6 * 0.8^n."""
    p = InterpolationProblem(U_dim=1, Y_dim=1, F=Subspace(1, np.eye(1)),
                             omega1=np.array([[0.6]]), omega2=np.array([[0.8]]))
    return {"p": p, "Z": random_constrained_z(p, 2, seed), "N": 24}


def check_scalar_oracle(inp: dict, ck: Checks) -> None:
    H = solve_from_Z(inp["p"], inp["Z"], inp["N"])
    ck.record("lifting.scalar_oracle",
              max(abs(H.coeff(n)[0, 0] - 0.6 * 0.8 ** n)
                  for n in range(inp["N"] + 1)))


# -- model-space pipeline ----------------------------------------------------

def model_inputs(seed: int, configs: list) -> list:
    """An inner function and a Schur-class parameter per (dim, factors, N)."""
    rng = np.random.default_rng(seed)
    out = []
    for dim, n_factors, N in configs:
        s = int(rng.integers(0, 2**31 - 8))
        theta = random_inner(s, dim, n_factors)
        Z = random_schur(MULT_Y + theta.in_dim, theta.out_dim, 2, s + 1,
                         scale=Z_SCALE)
        out.append({"N": N, "theta": theta, "Z": Z})
    return out


def run_model(inp: dict, tr, ck: Checks) -> None:
    """Model space, decompositions, multiplier tests and multiplier roundtrip."""
    N, theta = inp["N"], inp["theta"]
    with tr.span("modelspace.model_space"):
        ms = model_space(theta, N)
    with tr.span("modelspace.check_decompositions"):
        dec = check_decompositions(theta, ms)
    ck.record("modelspace.decomposition", max(dec))
    with tr.span("modelspace.h_from_Z_theta"):
        Hf = h_from_Z_theta(theta, inp["Z"], N)
    with tr.span("modelspace.mult_contraction_test"):
        mb = mult_contraction_test(Hf, ms)
    # fails exactly when mult_contraction_test reports a non-contraction
    ck.record("modelspace.mult_norm_excess", max(0.0, mb.norm - 1.0))
    with tr.span("hardy.multiplication_operator"):
        G, _ = multiplication_operator(Hf, ms.basis, N)
    with tr.span("modelspace.pointwise_mult_check"):
        pw = pointwise_mult_check(G, ms)
    ck.record("modelspace.pointwise", max(pw.intertwining_residual,
                                          pw.pointwise_residual))
    with tr.span("modelspace.z_from_H_theta"):
        Z1 = z_from_H_theta(theta, Hf, ms, N)
    with tr.span("modelspace.h_from_Z_theta"):
        H1 = h_from_Z_theta(theta, Z1, N)
    with tr.span("bench.checks"):
        diff = _coeff_diff(Hf, H1, N - theta.degree_bound - 4)
    ck.record("modelspace.roundtrip", diff)


def toeplitz_dim(inp: dict) -> int:
    """Computed side of the Toeplitz matrices model_space decomposes by SVD."""
    return (inp["N"] + 1) * inp["theta"].out_dim


# Per-instance counts the pipelines record, and sizes computed from the
# inputs (the largest over a workload's inputs), with their units.
COUNTS = {"serialize.encode.bytes": "B", "hardy.grid_check.points": "count"}
COMPUTED = {"rcl.verify_rcl.lifting_mb": ("MB", lifting_mb),
            "modelspace.model_space.toeplitz_dim": ("count", toeplitz_dim)}


# -- workload table ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """Input generator, instance pipeline and computed sizes of a workload.

    ``sizes`` maps a size name to the generator's arguments after the
    seed; "full" is the benchmark and "smoke" is the tiny size of the
    benchmark's own test.  ``computed`` names the COMPUTED sizes that
    apply, and ``oracle`` adds the scalar oracle check to every run.
    """

    generate: Callable
    run: Callable
    sizes: dict
    computed: tuple = ()
    oracle: bool = False


# high_degree and model_space cycle through sizes whose instance times
# differ; each cycle has an odd number of entries so that the median
# instance falls inside one entry's samples, not in the gap between two.
WORKLOADS = {
    "small_batch": Workload(
        lifting_inputs, run_lifting,
        {"full": ([DIMS[k % len(DIMS)] for k in range(50)], 24),
         "smoke": (DIMS[:3], 24)},
        computed=("rcl.verify_rcl.lifting_mb",), oracle=True),
    "high_degree": Workload(
        lifting_inputs, run_lifting,
        {"full": ([(8, 8, 4), (16, 16, 8), (24, 24, 12)], 192),
         "smoke": ([(2, 2, 1), (3, 3, 2), (4, 4, 2)], 32)},
        computed=("rcl.verify_rcl.lifting_mb",)),
    "model_space": Workload(
        model_inputs, run_model,
        {"full": ([(2, 1, 64), (3, 3, 64), (2, 2, 128), (3, 2, 128),
                   (3, 3, 128)],),
         "smoke": ([(2, 1, 48), (2, 2, 48), (3, 1, 48)],)},
        computed=("modelspace.model_space.toeplitz_dim",)),
}


def digest(obj) -> str:
    """SHA-256 over every array and scalar of the generated inputs."""
    h = hashlib.sha256()

    def walk(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.shape}{x.dtype}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(k.encode())
                walk(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(f"[{len(x)}".encode())
            for v in x:
                walk(v)
        elif is_dataclass(x):
            h.update(type(x).__name__.encode())
            for fld in fields(x):
                walk(getattr(x, fld.name))
        else:
            h.update(repr(x).encode())

    walk(obj)
    return h.hexdigest()
