"""Soft machines: outputs that survive a transition step.

A Moore machine is soft when out(delta(e, a)) = out(e) for every state
and letter, so its traces are constant words.  The frozen register p2
is the universal example; the one-step delay u2 is maximally un-soft.
Post-composing any Mealy machine with p2 (decapitation) forces
softness.
"""

from mealymoore import (
    PointedMachine,
    decapitate,
    is_n_soft,
    is_soft,
    load_machine,
    pinfty_carrier_check,
    softness_level,
    trace,
)

u2 = load_machine("demos/machines/u2.machine")
p2 = load_machine("demos/machines/p2.machine")
par = load_machine("demos/machines/par.machine")

print("u2 soft:", is_soft(u2))
print("p2 soft:", is_soft(p2))
print("p2 trace from 1 on 0 0 0:", " ".join(trace(PointedMachine(p2, "1"), ("0",) * 3)))

d = decapitate(par)
print("decapitate(PAR) soft:", is_soft(d))
print("decapitate(PAR) trace:", " ".join(trace(PointedMachine(d, ("0", "q0")), ("1", "0"))))

# The n-soft hierarchy compares outputs n steps apart.  Note it is not
# monotone: a period-2 oscillator is 2-soft without being 3-soft.
print("u2 n-soft for n=1..4:", [is_n_soft(u2, n) for n in range(1, 5)])
print("softness level of p2:", softness_level(p2, 3).level)

# The carrier of the frozen register is cut out of the function space
# by the head condition; only the value at the empty word is free.
print("frozen-register carrier size over {0,1}:", pinfty_carrier_check(p2.input))
