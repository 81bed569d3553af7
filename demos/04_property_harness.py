"""
Certifying map properties with seeded trials
============================================

Every check runs reproducible random trials; a failure always returns the
(seed, trial) pair plus a payload that replays the violation.  The classifier
at the end identifies a transformer among the four canonical rearrangements
or proves it is something else by exhibiting a witness.
"""

import numpy as np

import symmkit as sk
from symmkit.rearrange import layer_cake_rearrangement

grid = sk.centered_grid((32, 32), 1 / 8)
plane = sk.axis_plane(1, 2, 0.0, 1)
polar = lambda f: sk.polarize(f, plane)

# one runner, check_laws, scores a law catalog on a dict of named subjects;
# the two-point rearrangement passes every transformer law (the modulus law
# stops at 20 trials)
print("two-point rearrangement:")
for law, r in sk.check_laws(sk.TRANSFORMER_LAWS, {"polar": polar}, 100, seed=7, grid=grid)["polar"].items():
    print(f"  {law:22s}: {r.verdict}")

# the four canonical rearrangements, all scored on one shared draw per trial
canonical = {label: row.transformer(plane) for label, row in sk.CANONICAL_MAPS.items()}
table = sk.check_laws(sk.TRANSFORMER_LAWS, canonical, 20, seed=7, grid=grid)
laws = list(sk.TRANSFORMER_LAWS)
print("\ncanonical transformers (one check_laws call):")
print(f"  {'':19s} " + " ".join(f"{law:>21s}" for law in laws))
for label, reports in table.items():
    print(f"  {label:19s} " + " ".join(f"{reports[law].verdict:>21s}" for law in laws))

# a broken map fails with a replayable counterexample; a catalog cut to one law
# scores only that law
shift = lambda f: f.with_values(f.values + 1.0)
reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"shift": shift}, 10, seed=7, grid=grid, laws=["equimeasurable"])
report = reports["shift"]["equimeasurable"]
print("\nshift map equimeasurable:", report.verdict)
print("  counterexample payload:", {k: report.counterexample[k] for k in ("trial", "seed")})

# set maps get the seven laws of the other catalog, through the same runner
two_point = sk.canonical_set_map("two_point", plane)
bundle = sk.check_laws(sk.SETMAP_LAWS, {"two_point": two_point}, 60, seed=7, grid=grid)
print("\ntwo-point set map bundle:")
for name, r in bundle["two_point"].items():
    print(f"  {name:22s}: {r.verdict}")

# classification: each canonical map moves every mirror pair {x, x'} by one
# rule, read exactly from two set-map images; a sawtooth-driven transformer is
# provably different (watch the pair witness: where x and x' went)
print("\nclassification:")
for label, T in canonical.items():
    got, _ = sk.classify_rearrangement(T, grid, plane, seed=0)
    print(f"  {label:19s} -> {got}")

saw_map = sk.chord_movement_set_map(sk.sawtooth_contraction(1.0, 8.0), plane=plane)
saw_T = lambda f: layer_cake_rearrangement(saw_map, f)
got, witness = sk.classify_rearrangement(saw_T, grid, plane, seed=0)
x, xm = witness["pair"]
print(f"  {'sawtooth':19s} -> {got}, witness: {witness['reason']}")
print(f"  {'':19s}    x = {x} goes to {witness['x_went_to']}, x' = {xm} goes to {witness['mirror_went_to']}")
