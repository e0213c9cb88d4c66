"""Agents can't prepare non-orthogonal states conditioned on an outcome.

Measure a source toy bit in the position basis, then try to prepare a target
toy bit in a state that depends on the outcome.  What the target ends up in
depends on a transform (U, a) only through U's two target rows (a symplectic
frame) and their product with the shift, so the exhaustive search walks the
120 frames x 4 values, which cover all 720 symplectic matrices on two toy
bits times all 16 shifts.  It shows: identical targets work, orthogonal
targets work, and nothing else does, even with a memory ancilla.
"""

from toytheory import (
    ConditionalPrepSpec, GF, discrete_space, find_conditional_transform,
    rref, toy_bit,
)

print(__doc__)


def spec_for(a, b):
    return ConditionalPrepSpec(
        source_space=discrete_space(2, 1),
        source_known=rref(GF(2), 2, [(1, 0)]),
        source_valuations=((0, 0), (1, 0)),
        target_initial=toy_bit("0"),
        desired_targets=(toy_bit(a), toy_bit(b)))


for ancilla, pairs in ((0, (("0", "0"), ("0", "1"), ("0", "+"))),
                       (1, (("0", "1"), ("0", "+")))):
    print(f"with {ancilla} pointer ancilla(s):")
    for a, b in pairs:
        result = find_conditional_transform(spec_for(a, b),
                                            ancilla_systems=ancilla,
                                            exhaustive=True)
        verdict = "FOUND" if result.transform is not None else "NOT FOUND"
        print(f"  outcome 0 -> toy{a}, outcome 1 -> toy{b}: {verdict} "
              f"({result.frames} frames searched, covering "
              f"{result.searched} affine maps)")

print("\nThe NOT FOUND lines are the no-go: conditioned on a measurement")
print("outcome, preparable states are forced to be pairwise identical or")
print("orthogonal.")
