"""Train the windowed-linear phasic surrogate on a synthetic cohort.

Fits the ridge model on the train split, reports train and held-out MAE,
then compares predicted against recorded event counts on one held-out
session for each detector.
"""

from edanav import (
    PidGains,
    default_detectors,
    eval_split,
    evaluate_sessions,
    synth_cohort,
    train_surrogate,
)

RATE = 4.0


def main():
    records = synth_cohort(12, 180.0, RATE, seed=3)
    model, heldout = train_surrogate(records)
    print(f"train MAE    {model.train_mae:.4f} (normalized phasic)")
    print(f"held-out MAE {heldout:.4f}")
    print()

    session = eval_split(records)[0]
    # n_raw counts the surrogate's prediction of the unadapted session;
    # n_recorded counts the recording in the model's normalized scale, so
    # the absolute-threshold detector sees both traces in the same units
    stats = evaluate_sessions([session], PidGains(), model)[0].stats
    print(f"session {session.session_id}: predicted vs recorded event counts")
    for params, n_pred, n_rec in zip(default_detectors(), stats.n_raw, stats.n_recorded):
        print(f"  {params.method:12s} predicted {n_pred}, recorded {n_rec}")


if __name__ == "__main__":
    main()
