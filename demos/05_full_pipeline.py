"""End-to-end: synthesize, train, search gains, report.

Library-level version of the command-line flow

    edanav synth    --output-dir out --set dataset.n_sessions=12 ...
    edanav train    --output-dir out ...
    edanav optimize --output-dir out ...
    edanav evaluate --output-dir out ...

but kept small enough to finish in a few seconds: 12 sessions of three
minutes and a 60-trial search. Prints the per-detector improvement table
and the dose change on both channels.
"""

from edanav import (
    build_report,
    eval_split,
    evaluate_sessions,
    optimize,
    synth_cohort,
    train_surrogate,
)


def main():
    records = synth_cohort(12, 180.0, 4.0, seed=7)
    model, heldout = train_surrogate(records)
    print(f"surrogate held-out MAE {heldout:.4f}")

    held_out = eval_split(records)
    result = optimize(held_out, model, budget=60, seed=11)
    best = result.best
    print(f"best objective {best.objective:.1f} of 300 at trial {best.index}")
    print(f"gains: K_Pl={best.gains.K_Pl:.4f} K_Il={best.gains.K_Il:.4f} "
          f"K_Pf={best.gains.K_Pf:.4f} beta_l={best.gains.beta_l:.5f}")
    print()

    outcomes = evaluate_sessions(held_out, best.gains, model)
    report = build_report((o.stats for o in outcomes), result.methods)
    print("method        improved   chi2    phi   significance")
    for method in report.methods:
        s = report.stats[method]
        print(f"{method:12s} {s.positives:3d}/{s.total}   {s.chi2:6.2f}  {s.phi:5.2f}"
              f"   {s.significant_at}")
    msdv_l = report.stats["msdv_longitudinal"]
    msdv_r = report.stats["msdv_rotational"]
    print(f"\nMSDV reduced in {msdv_l.positives}/{msdv_l.total} sessions "
          f"(longitudinal), {msdv_r.positives}/{msdv_r.total} (rotational)")


if __name__ == "__main__":
    main()
