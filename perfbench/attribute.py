"""Which fault makes each failing operator application fail.

    python3 perfbench/attribute.py --workload cournot-patient

Solves the workload once, runs the LP check on every application, and
for each failing one recomputes W_k -> B(W_k) with the solver's own
operator twice: as run, and with simplification off (theta = 0).

- The failure disappears without simplification: rdp_simplify moved the
  boundary inward (the theta > 0 fault).
- It remains: some profile's P(a) misses LP-certified payoffs, which the
  per-profile rows name (the enumeration fault).  Rows for a P(a) whose
  misses the merged hull happens to cover are printed too.
"""

from __future__ import annotations

import argparse

import numpy as np

from check import GameLP, polygon_rows
from run import ROOT, WORKLOADS, load_solver


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    ppesolve, aps, _ = load_solver()
    from ppesolve.geometry import PolygonV, intersect_polygons

    game = ppesolve.parse_game((ROOT / "games" / spec["game"]).read_text())
    config = aps.SolverConfig(delta=spec["delta"], theta=spec["theta"],
                              max_iter=spec["max_iter"])
    report = aps.solve(game, config)
    lp = GameLP(game.payoffs, game.signal_probs, spec["delta"])
    for k in range(1, len(report.trace)):
        w_prev = report.trace[k - 1].vertices
        found = lp.check_application(w_prev, report.trace[k].vertices,
                                     labels=game.profile_label)
        if not found:
            continue
        w = PolygonV(w_prev)
        plain = aps.apply_B(game, spec["delta"], w, 0.0, report.tolerances)
        w_plain = intersect_polygons(plain.set, w, report.tolerances)
        left = lp.check_application(w_prev, w_plain.vertices, labels=game.profile_label)
        if not left:
            cause = "simplification"
        elif len(left) < len(found):
            cause = "enumeration and simplification"
        else:
            cause = "enumeration"
        print(f"application {k}: {cause}")
        for v in found:
            stays = any((u.kind, u.profile) == (v.kind, v.profile) for u in left)
            print(f"  {v.kind} {v.amount:.4g} outside as run"
                  f"{'' if stays else ', inside without simplification'}: {v.detail}")
        for a in lp.profiles:
            pa = plain.per_action[(game.action_labels[0][a[0]],
                                   game.action_labels[1][a[1]])]
            if pa.is_empty:
                continue
            n, b = polygon_rows(pa.vertices)
            h = lp.support_in(a, w_prev, n)
            if h is not None and np.max(h - b) > lp.tol:
                label = game.profile_label(a)
                covered = not any(u.profile == label for u in left)
                print(f"  P{label} misses certified payoffs by {np.max(h - b):.4g}"
                      f"{' (the merged hull covers them)' if covered else ''}")


if __name__ == "__main__":
    main()
