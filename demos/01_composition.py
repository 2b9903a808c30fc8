"""Cascading machines: sequential composition and its coherence.

The running example is the XOR-accumulator PAR (a Mealy machine that
emits the parity of the bits read so far) and the one-step delay
register.  Composites carry pair states written (second, first).
"""

from mealymoore import (
    PointedMachine,
    associator,
    check_pentagon,
    compose_mealy,
    compose_moore,
    load_machine,
    trace,
)

par = load_machine("demos/machines/par.machine")
u2 = load_machine("demos/machines/u2.machine")

print("PAR on 1 0 1:", " ".join(trace(PointedMachine(par, "q0"), ("1", "0", "1"))))

cc = compose_mealy(par, par)
print("PAR ⋄ PAR has %d states" % len(cc.states))
print("PAR ⋄ PAR on 1 1:", " ".join(trace(PointedMachine(cc, ("q0", "q0")), ("1", "1"))))

delay2 = compose_moore(u2, u2)
print("two chained delays on 1 1:",
      " ".join(trace(PointedMachine(delay2, ("0", "0")), ("1", "1"))))

# Re-bracketing a triple composite is a machine isomorphism, and the two
# ways of re-bracketing a quadruple agree.
bij = associator(par, par, par)
print("associator maps", len(bij.forward.map), "states bijectively")
print("pentagon for PAR,PAR,PAR,PAR:", check_pentagon(par, par, par, par))
