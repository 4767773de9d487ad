"""Replay a pulsed acceleration profile through the adaptation law.

Feeds a square-pulse longitudinal profile and a synthetic arousal signal
to the bi-channel PID law and prints how much each pulse is attenuated.
The arousal term rises during the second half, so later pulses are cut
harder than earlier ones.
"""

import numpy as np

from edanav import AccelLimits, PidGains
from edanav.control import apply_gains, pid_terms

RATE = 4.0

# hand-tuned reference setting; the optimizer demo searches around this scale
GAINS = PidGains(
    K_Pl=0.0113, K_Il=0.0065, K_Dl=0.0137,
    K_Pr=0.0098, K_Ir=0.0012, K_Dr=0.0011,
    K_Pf=0.0730, K_If=0.2283, K_Df=0.3724,
    beta_l=0.0017, beta_r=0.0012,
)


def main():
    n = int(120.0 * RATE)
    a_l = np.zeros(n)
    pulse_starts = (10.0, 40.0, 70.0, 100.0)
    for onset in pulse_starts:
        i = int(onset * RATE)
        a_l[i : i + 12] = 3.0
    a_r = np.zeros(n)

    t = np.arange(n) / RATE
    arousal = np.clip((t - 50.0) / 70.0, 0.0, 1.0)  # calm start, rising stress

    out_l = apply_gains(pid_terms(a_l, a_r, arousal, RATE), GAINS.as_array(), AccelLimits())[0]

    print("pulse   commanded   adapted   reduction")
    for onset in pulse_starts:
        i = int(onset * RATE)
        raw = a_l[i : i + 12].max()
        adapted = out_l[i : i + 12].max()
        print(f"{onset:5.0f}s   {raw:9.3f}  {adapted:8.3f}   {100 * (1 - adapted / raw):8.1f}%")


if __name__ == "__main__":
    main()
