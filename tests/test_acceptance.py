"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (visible even under output
capture) and then asserts, so a failure is both loud and red.  The
pinned runs come from the session registry (`conftest.pinned_runs`).
"""

import json
import subprocess
import sys

import numpy as np

from ppesolve.aps import Certificate, SolverConfig, apply_B, solve, verify_enforceability
from ppesolve.game import (
    StageGame,
    individually_rational_set,
    minmax,
    pure_nash,
)
from ppesolve.geometry import (
    Tolerances,
    area,
    contains_point,
    contains_polygon,
    convex_hull,
    halfspace_rows,
    intersect_polygons,
)
from ppesolve.shadow import shadow_polygon

from iterate_hashes import RUNS
from oracles import byte_equal, match_point_sets
from test_shadow import reference


def announce(capsys, label, checks):
    """checks: list of (bool, description); prints one line, then asserts."""
    failed = [msg for ok, msg in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    with capsys.disabled():
        print(f"\n[{label}] {verdict}" + (f" — {'; '.join(failed)}" if failed else ""))
    assert not failed, f"{label}: {failed}"


def test_criterion_01_pd_setup(pd_game, capsys):
    checks = []
    checks.append((minmax(pd_game).values == (0.0, 0.0), "minmax != (0,0)"))
    checks.append((pure_nash(pd_game) == [(1, 1)], "unique Nash != (D,D)"))
    w0 = individually_rational_set(pd_game).individually_rational
    checks.append(
        (
            match_point_sets(
                w0.vertices, [(0, 0), (8 / 3, 0), (2, 2), (0, 8 / 3)], 1e-9
            ),
            "initial-set vertices wrong",
        )
    )
    normals, offsets = halfspace_rows(w0)
    s10 = np.sqrt(10)
    expected = [
        ((1 / s10, 3 / s10), 8 / s10),
        ((3 / s10, 1 / s10), 8 / s10),
        ((-1.0, 0.0), 0.0),
        ((0.0, -1.0), 0.0),
    ]
    for n_exp, b_exp in expected:
        hit = np.any(
            (np.linalg.norm(normals - n_exp, axis=1) < 1e-9)
            & (np.abs(offsets - b_exp) < 1e-9)
        )
        checks.append((bool(hit), f"missing inequality {n_exp} <= {b_exp}"))
    checks.append((len(offsets) == 4, "expected exactly 4 inequalities"))
    announce(capsys, "criterion 01: payoff-set setup", checks)


def test_criterion_02_pd_impatient_collapse(pd_game, pinned_runs, capsys):
    checks = []
    runs = {0.8: solve(pd_game, SolverConfig(delta=0.8)), 0.5: pinned_runs["pd delta=0.5 theta=0"]}
    for delta, rep in runs.items():
        dists = np.linalg.norm(rep.final_set.vertices, axis=1)
        checks.append(
            (
                rep.converged and len(dists) > 0 and float(dists.max()) <= 0.05,
                f"delta={delta}: final set not within 0.05 of (0,0)",
            )
        )
    announce(capsys, "criterion 02: impatient collapse to static Nash", checks)


def test_criterion_03_pd_patient_run(pinned_runs, capsys):
    rep = pinned_runs["pd delta=0.9 theta=0.02"]
    w0 = convex_hull(rep.trace[0].vertices)
    a = area(rep.final_set)
    checks = [
        (rep.converged, "did not converge"),
        (0.0 < a < 16 / 3, f"final area {a} not strictly inside (0, 16/3)"),
        (34 <= rep.iterations <= 54, f"iterations {rep.iterations} outside 44±10"),
        (contains_point(rep.final_set, (0.0, 0.0), 1e-6), "final set misses (0,0)"),
        (contains_polygon(w0, rep.final_set, 1e-6), "final set leaves initial set"),
    ]
    announce(capsys, "criterion 03: patient-run fixed point", checks)


def test_criterion_04_cournot_patient_run(pinned_runs, capsys):
    rep = pinned_runs["cournot delta=0.9 theta=0.05"]
    w0_area = area(convex_hull(rep.trace[0].vertices))
    a = area(rep.final_set)
    checks = [
        (rep.converged, "did not converge"),
        (13 <= rep.iterations <= 33, f"iterations {rep.iterations} outside 23±10"),
        (a >= 0.9 * w0_area, f"final area {a} < 0.9 x initial {w0_area}"),
    ]
    announce(capsys, "criterion 04: patient oligopoly run", checks)


def test_criterion_05_cournot_impatient_collapse(cournot_game, pinned_runs, capsys):
    nash = pure_nash(cournot_game)
    target = cournot_game.payoffs[nash[0]]
    rep = pinned_runs["cournot delta=0.5 theta=0"]
    dists = np.linalg.norm(rep.final_set.vertices - target, axis=1)
    checks = [
        (nash == [(1, 1)] and target.tolist() == [10, 4], "Nash profile wrong"),
        (
            rep.converged and len(dists) > 0 and float(dists.max()) <= 0.05,
            "final set not within 0.05 of the Nash payoff",
        ),
    ]
    announce(capsys, "criterion 05: oligopoly collapse to Nash payoff", checks)


def test_criterion_06_myopic_oracle(capsys):
    rng = np.random.default_rng(20240821)
    checks = []
    done = 0
    while done < 50:
        n = int(rng.choice([2, 3]))
        payoffs = rng.uniform(-5, 5, size=(n, n, 2))
        probs = rng.dirichlet(np.ones(2), size=(n, n))
        labels = (
            tuple(f"a{i}" for i in range(n)),
            tuple(f"b{j}" for j in range(n)),
        )
        game = StageGame(labels, payoffs, ("y1", "y2"), probs)
        nash = pure_nash(game)
        if not nash:
            continue
        done += 1
        expected = convex_hull([payoffs[a] for a in nash])
        rep = solve(game, SolverConfig(delta=0.0))
        got = convex_hull(rep.trace[1].vertices)
        if not match_point_sets(got.vertices, expected.vertices, 1e-9):
            checks.append((False, f"game {done}: iterate != static Nash hull"))
    checks.append((done == 50, "fewer than 50 games sampled"))
    announce(capsys, "criterion 06: zero-discount solves = static Nash hull", checks)


def test_criterion_07_vertex_enum_oracle(capsys):
    """The shadow walk's image of W^k cut by random rows, for k in 1..3
    and W a polygon, a segment or a point, against the hull of the image
    of the brute-force vertices (`test_shadow.reference`): each row
    misses W^k, cuts it, or excludes all of it.  The walk takes random
    signal weights; the oracle maps through kron(weights, I), whose
    block y is weights[y] times the identity.  The walk keeps its
    images in the CCW order it visits them, so its polygon must also be
    canonical: hulling it again changes no byte."""
    rng = np.random.default_rng(20240822)
    # the maps come from their own stream, so the systems stay those of rng
    maps = np.random.default_rng(20240823)
    tol = Tolerances()
    failures = []
    seen = set()
    for trial in range(200):
        k = int(rng.integers(1, 4))
        shape = str(rng.choice(["polygon", "segment", "point"], p=[0.6, 0.2, 0.2]))
        count = {"polygon": int(rng.integers(3, 10 - 2 * k)), "segment": 2, "point": 1}[shape]
        w = convex_hull(rng.uniform(-1.0, 1.0, size=(count, 2)))
        rows = int(rng.integers(0, 4))
        normals = rng.normal(size=(rows, 2 * k))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        # a row's least and greatest values over W^k, block by block
        vals = normals.reshape(rows, k, 2) @ w.vertices.T
        lo, hi = vals.min(axis=2).sum(axis=1), vals.max(axis=2).sum(axis=1)
        offsets = np.zeros(rows)
        for r in range(rows):
            kind = str(rng.choice(["miss", "cut", "empty"], p=[0.25, 0.6, 0.15]))
            if kind == "cut" and hi[r] - lo[r] < 0.1:
                kind = "miss"  # W^k is too thin across this row to cut
            offsets[r] = {
                "miss": hi[r] + rng.uniform(0.05, 0.5),
                "cut": lo[r] + rng.uniform(0.1, 0.9) * (hi[r] - lo[r]),
                "empty": lo[r] - rng.uniform(0.05, 0.5),
            }[kind]
            seen.add(kind)
        weights, c = maps.dirichlet(np.ones(k)), maps.normal(size=2)
        got, _ = shadow_polygon(w, weights, normals, offsets, c, tol)
        if not byte_equal(convex_hull(got.vertices, tol), got):
            failures.append(f"trial {trial}: hulling the walk's polygon again moves it")
        ref = reference(w, weights, normals, offsets, c)
        seen.add((shape, k, "empty" if ref.is_empty else "nonempty"))
        if not match_point_sets(got.vertices, ref.vertices, 1e-7):
            failures.append(f"trial {trial}: {got.num_vertices} vs oracle {ref.num_vertices}")
    missing = {"miss", "cut", "empty"} - seen
    missing |= {(s, k, "nonempty") for s in ("polygon", "segment", "point") for k in (1, 2, 3)} - seen
    missing |= {("polygon", k, "empty") for k in (1, 2, 3)} - seen
    announce(
        capsys,
        "criterion 07: shadow walk matches brute-force oracle (200 systems)",
        [(not failures, "; ".join(failures[:3])), (not missing, f"cases not drawn: {sorted(map(str, missing))}")],
    )


def prefix(pinned_runs, game_file, game, delta, theta, max_iter):
    """A solve's trace to max_iter: a prefix of a pinned run of the same
    game, delta and theta where one runs that far, else a fresh solve."""
    for name, file, d, t, most in RUNS:
        if (file, d, t) == (game_file, delta, theta) and most >= max_iter:
            return pinned_runs[name].trace[: max_iter + 1]
    return solve(game, SolverConfig(delta=delta, theta=theta, max_iter=max_iter)).trace


# bounded prefixes: the invariants below hold per step, and the
# unsimplified runs grow too many vertices to iterate to convergence
_PREFIX = {
    ("pd", 0.0): 10,
    ("pd", 0.02): 60,
    ("cournot", 0.0): 3,
    ("cournot", 0.02): 4,
}
_PREFIX_OVERRIDE = {("cournot", 0.9, 0.02): 8}


def test_criterion_08_descent_and_anchoring(pd_game, cournot_game, pinned_runs, capsys):
    checks = []
    for name, game_file, game in (
        ("pd", "prisoners_dilemma.json", pd_game),
        ("cournot", "cournot.json", cournot_game),
    ):
        anchors = [game.payoffs[a] for a in pure_nash(game)]
        for delta in (0.5, 0.8, 0.9):
            for theta in (0.0, 0.02):
                mi = _PREFIX_OVERRIDE.get(
                    (name, delta, theta), _PREFIX[(name, theta)]
                )
                trace = prefix(pinned_runs, game_file, game, delta, theta, mi)
                tag = f"{name} d={delta} t={theta}"
                sets = [convex_hull(t.vertices) for t in trace]
                ok_nested = all(
                    contains_polygon(a, b, 1e-7) for a, b in zip(sets, sets[1:])
                )
                ok_anchor = all(
                    contains_point(s, u, 1e-7) for s in sets for u in anchors
                )
                areas = [t.area for t in trace]
                ok_area = all(b <= a + 1e-7 for a, b in zip(areas, areas[1:]))
                checks.append((ok_nested, f"{tag}: iterate escapes predecessor"))
                checks.append((ok_anchor, f"{tag}: Nash payoff left an iterate"))
                checks.append((ok_area, f"{tag}: area increased"))
    announce(capsys, "criterion 08: descent and Nash anchoring", checks)


def test_criterion_09_certificate_audit(pd_game, capsys):
    delta = 0.9
    w = individually_rational_set(pd_game).individually_rational
    bad = []
    audited = 0
    for k in range(1, 6):
        res = apply_B(pd_game, delta, w, theta=0.02)
        for profile in pd_game.profiles():
            label = (
                pd_game.action_labels[0][profile[0]],
                pd_game.action_labels[1][profile[1]],
            )
            poly = res.per_action[label]
            for v in poly.vertices:
                audited += 1
                out = verify_enforceability(pd_game, profile, delta, v, w)
                if not isinstance(out, Certificate) or out.max_violation > 1e-7:
                    bad.append(f"iter {k} {label} vertex {v}")
        w = intersect_polygons(res.set, w)
    checks = [
        (audited > 0, "nothing audited"),
        (not bad, f"{len(bad)} uncertified vertices, first: {bad[:2]}"),
    ]
    announce(
        capsys,
        f"criterion 09: LP certificates for all {audited} decomposition vertices",
        checks,
    )


def _masked_report(path):
    doc = json.loads((path / "report.json").read_text())
    for t in doc["trace"]:
        t["wall_ms"] = None
    return json.dumps(doc, sort_keys=True)


def _masked_trace(path):
    lines = (path / "trace.csv").read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",", 6)
        cells[5] = ""
        out.append(",".join(cells))
    return out


def test_criterion_10_thread_determinism(pd_game_path, tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = subprocess.run(
            [
                sys.executable, "-m", "ppesolve.cli", "solve",
                "--game", str(pd_game_path), "--delta", "0.9",
                "--theta", "0.02", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    checks = [
        (
            _masked_report(outs[0]) == _masked_report(outs[1]),
            "report.json differs beyond timing fields",
        ),
        (
            _masked_trace(outs[0]) == _masked_trace(outs[1]),
            "trace.csv differs beyond timing column",
        ),
        (
            (outs[0] / "final.svg").read_bytes() == (outs[1] / "final.svg").read_bytes(),
            "final.svg bytes differ",
        ),
    ]
    announce(capsys, "criterion 10: two-run byte determinism", checks)


def test_simplification_tames_vertex_growth(pinned_runs, capsys):
    """Unsimplified iterates grow super-linearly; theta reins them in."""
    sharp = pinned_runs["pd delta=0.9 theta=0"]
    coarse = pinned_runs["pd delta=0.9 theta=0.02"]
    counts = [len(t.vertices) for t in sharp.trace[:11]]
    growth = np.diff(counts[:9])
    checks = [
        (len(counts) >= 11, "unsimplified run shorter than 10 iterations"),
        (
            bool(np.all(np.diff(growth) > 0)),
            f"per-iteration vertex growth not super-linear: {counts[:9]}",
        ),
        (
            len(coarse.trace) > 10
            and len(coarse.trace[10].vertices) * 2 <= counts[10],
            "simplification does not halve the iteration-10 vertex count",
        ),
    ]
    announce(capsys, "vertex growth: simplification at least halves it", checks)
