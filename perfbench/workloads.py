"""The benchmark's workloads: problem files and the `jflow` invocations of one round.

Every input is made here from the benchmark seed and written to disk;
jflow receives only those files and command-line arguments.  Bundled
problems are read from ``problems/`` and copied with a seeded initial
state; the larger grid tiers are generated.  Each ``run`` comes in a
pair (orbits from two seeded initial states of one problem), so that the
benchmark can measure the distance between two orbits itself.

``quick`` shrinks every workload (fewer samples, shorter orbits, smaller
grids) so that all correctness checks run in seconds.  Round 0 is the
untimed warm-up: it runs the quick operations on quick inputs, without
full-anchor TV steps.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("p_ge_2", "p_lt_2")

# Each workload is two parts, run one after the other in every round:
# the p >= 2 problems, whose steps go through the primal L-BFGS ladder, and
# the p < 2 ones (robin p = 1.5 and total variation, p = 1), whose steps go
# through edge-dual solvers.
PARTS = {"p_ge_2": ("desk", "grid"), "p_lt_2": ("subquadratic", "tv")}

BUNDLED = Path(__file__).resolve().parent.parent / "problems"

ROBIN_LAW = {"g": {"kind": "arctan", "a": 0.5}, "beta": {"kind": "linear", "a": 1.0}}


def grid_config(kind, n, **extra):
    cfg = {"problem": kind, "grid": {"topology": "grid", "nx": n, "ny": n, "h": 1.0 / (n - 1)}}
    cfg.update(extra)
    return cfg


def centre_block(n, side):
    """Node ids of a ``side`` x ``side`` block in the middle of an ``n`` x ``n`` grid."""
    lo = (n - side) // 2
    return [r * n + c for r in range(lo, lo + side) for c in range(lo, lo + side)]


def data_nodes(cfg):
    """Data-space node ids of a problem config (in jflow's order) and their weights.

    Derived from the discretization convention documented in
    ``jflow.problems``, not from jflow's objects.
    """
    g = cfg["grid"]
    h = g["h"]
    if g["topology"] == "chain":
        d, shape = 1, (g["n"],)
    else:
        d, shape = 2, (g["nx"], g["ny"])
    ids = np.arange(int(np.prod(shape))).reshape(shape)
    ring = np.zeros(shape, dtype=bool)
    if d == 1:
        ring[[0, -1]] = True
    else:
        ring[[0, -1], :] = True
        ring[:, [0, -1]] = True
    interior = ids[~ring]
    kind = cfg["problem"]
    if kind == "dtn":
        return ids[ring], np.full(int(ring.sum()), h ** (d - 1))
    if kind == "coupled" or (kind == "tv" and cfg.get("subdomain") is not None):
        sub = np.asarray(cfg["subdomain"], dtype=int)
        return sub, np.full(sub.size, h**d)
    return interior, np.full(interior.size, h**d)


def initial_values(rng, cfg):
    """A seeded initial state in the data space of ``cfg``.

    Total-variation problems start from a smooth random field, the modes
    ``sin(k1 pi x) sin(k2 pi y)``, ``k1, k2 = 1..3``, with standard normal
    coefficients, times 2.  White noise goes extinct within one default
    step, and four random rectangles plus noise made the cost of a run
    vary six times more (see README.md).  Other problems start from
    standard normal values.
    """
    nodes, _ = data_nodes(cfg)
    if cfg["problem"] != "tv":
        return rng.normal(size=nodes.size)
    x = np.linspace(0.0, 1.0, cfg["grid"]["nx"])
    y = np.linspace(0.0, 1.0, cfg["grid"]["ny"])
    modes = np.arange(1, 4)
    sx = np.sin(np.pi * modes[:, None] * x[None, :])  # (mode, node)
    sy = np.sin(np.pi * modes[:, None] * y[None, :])
    image = 2.0 * np.einsum("ab,ai,bj->ij", rng.normal(size=(3, 3)), sx, sy)
    return image.ravel()[nodes]


def _problem_configs(quick):
    cfgs = {name: json.loads((BUNDLED / f"{name}.json").read_text()) for name in
            ("robin_p3", "coupled_p3", "dtn_p3", "coupled_p2", "robin_p1.5")}
    grid_n = 12 if quick else 24
    cfgs["robin_p3_grid"] = grid_config("robin", grid_n, p=3.0, law=ROBIN_LAW, name=f"robin_p3_{grid_n}x{grid_n}")
    tv_n = 10 if quick else 16
    cfgs["tv_grid"] = grid_config("tv", tv_n, name=f"tv_{tv_n}x{tv_n}")
    side = 4 if quick else 6
    cfgs["tv_grid_sub"] = grid_config("tv", tv_n, subdomain=centre_block(tv_n, side), name=f"tv_{tv_n}x{tv_n}_sub{side}")
    return cfgs


def _check(problem, suite, samples, T, tau):
    return {"kind": "check", "problem": problem, "suite": suite, "samples": samples, "T": T, "tau": tau}


def _run_pairs(problem, T, tau, count=1, oracle=None):
    """``count`` pairs of runs, each pair from two seeded initial states."""
    return [{"kind": "run", "problem": problem, "start": s, "T": T, "tau": tau, "oracle": oracle}
            for _ in range(count) for s in ("u", "v")]


def round_ops(workload, quick=False, warmup=False):
    """The operations of one round, before seeding.

    Sizes are set so that each part of a round takes 3-5 s on one core of
    a machine where a fresh-interpreter set-up takes 0.8 s; solver work
    depends on the data, so a run averages over its rounds' inputs (see
    README.md).  The warm-up round is the quick round without its
    full-anchor TV pair, which fails on some inputs (see CHANGES.md).
    """
    return [op for part in PARTS[workload] for op in _part_ops(part, quick, warmup)]


def _part_ops(part, quick, warmup):
    q = quick or warmup
    if part == "desk":
        return [
            _check("robin_p3", "all", 1 if q else 2, 0.1 if q else 0.2, 0.05),
            _check("coupled_p3", "domination", 2 if q else 3, 0.1 if q else 0.2, 0.05),
            _check("dtn_p3", "all", 2 if q else 3, 0.1 if q else 0.2, 0.05),
            *_run_pairs("coupled_p2", 0.25 if q else 1.0, 0.05, oracle="schur"),
        ]
    if part == "subquadratic":
        # short orbits, many of them: the cost of a sub-quadratic orbit
        # varies with its data, and more so the longer it runs
        return [
            _check("robin_p1.5", "all", 1 if q else 2, 0.1, 0.05),
            *_run_pairs("robin_p1.5", 0.1, 0.05, 1 if q else 6),
        ]
    if part == "grid":
        return [
            _check("robin_p3_grid", "positivity", 1, 0.1, 0.05),
            *_run_pairs("robin_p3_grid", 0.1, 0.05),
        ]
    if part == "tv":
        # subregion pairs only: with every node anchored, solvers.tv_prox
        # fails on some inputs (see CHANGES.md), and an operation that fails
        # on some seeds cannot be held steady.  The quick round keeps one
        # full-anchor pair, so that its optimality check stays tested.
        return [
            *(_run_pairs("tv_grid", 0.05, 0.05, oracle="tv_lp") if quick and not warmup else []),
            *_run_pairs("tv_grid_sub", 0.1, 0.05),
            _check("tv_grid_sub", "positivity", 1 if q else 2, 0.1, 0.05),
        ]
    raise ValueError(f"unknown part {part!r}")


def steps(T, tau):
    """Implicit-Euler steps of one orbit, as jflow counts them."""
    return int(math.ceil(T / tau - 1e-12))


def make_round(workload, seed, r, workdir: Path, quick=False, write=True):
    """The operations of round ``r``, with their inputs under ``workdir/r<r>``.

    Every round after the warm-up (round 0) has the same operations on its
    own seeded inputs, so that a run averages over as many inputs as it
    has rounds.  Each operation is
    the argument vector of ``jflow`` plus what the checks need to know.
    With ``write``, the problem files are written.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), r])
    warmup = r == 0
    cfgs = _problem_configs(quick or warmup)
    base = Path(workdir) / f"r{r:03d}"
    if write:
        (base / "problems").mkdir(parents=True, exist_ok=True)
    ops = []
    for i, op in enumerate(round_ops(workload, quick, warmup)):
        cfg = dict(cfgs[op["problem"]])
        tag = f"{i:02d}-{op['kind']}-{op['problem']}" + (f"-{op['start']}" if op["kind"] == "run" else "")
        out = base / "ops" / tag
        cli_seed = int(rng.integers(0, 2**31 - 1))
        if op["kind"] == "run":
            cfg["initial"] = {"kind": "values", "values": initial_values(rng, cfg).tolist()}
            path = base / "problems" / f"{i:02d}-{op['problem']}.json"
            argv = ["run", "--problem", str(path), "--T", repr(op["T"]), "--tau", repr(op["tau"]),
                    "--seed", str(cli_seed), "--out", str(out)]
        else:
            path = base / "problems" / f"{op['problem']}.json"
            argv = ["check", "--problem", str(path), "--seed", str(cli_seed), "--suite", op["suite"],
                    "--samples", str(op["samples"]), "--T", repr(op["T"]), "--tau", repr(op["tau"]), "--out", str(out)]
        if write:
            path.write_text(json.dumps(cfg, indent=1))
        entry = dict(op, argv=argv, out=str(out), config=cfg, problem_file=str(path))
        if op["kind"] == "run":
            entry["steps"] = steps(op["T"], op["tau"])
        ops.append(entry)
    return ops
