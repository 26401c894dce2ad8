"""Lattice-to-PDE convergence of the distorted value, per schedule.

Run:  python scripts/convergence_table.py [--n 64 256 1024 4096]
"""

import argparse

from distort import DiffusionSpec, Power, Wang, constant_drift, convergence_study
from distort.dynamics import smoothed_step_payload, wang_value_closed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, nargs="+", default=[64, 256, 1024, 4096])
    ap.add_argument("--eval-t", type=float, default=0.5)
    ap.add_argument("--eval-x", type=float, default=0.0)
    args = ap.parse_args()

    spec = DiffusionSpec(drift=constant_drift(0.0), x0=0.0, T=1.0)
    g = smoothed_step_payload()

    cases = [
        ("wang(0.5), closed-form reference", Wang(0.5),
         wang_value_closed(0.5, g, args.eval_t, 1.0, args.eval_x)),
        ("wang(0.5), PDE reference", Wang(0.5), None),
        ("power(2), PDE reference", Power(2.0), None),
    ]
    for label, d, u_ref in cases:
        rep = convergence_study(spec, d, g, args.n, args.eval_t, args.eval_x,
                                u_ref=u_ref)
        print(label)
        print(f"  reference value: {rep.reference:.12g}")
        for N, err in zip(rep.N_list, rep.errors):
            print(f"  N={N:>6d}  error={err:.6e}")
        if rep.skipped:
            print(f"  skipped (interleaving failed): {rep.skipped}")
        if len(rep.errors) < 2:
            print("  fitted order: none, fewer than two lattices")
        elif any(e1 <= e2 for e1, e2 in zip(rep.errors, rep.errors[1:])):
            print("  fitted order: none, the errors do not strictly decrease with N")
        else:
            print(f"  fitted order: {-rep.slope:.2f}")
        print()


if __name__ == "__main__":
    main()
