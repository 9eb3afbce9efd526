"""The genus-5 obstruction, number by number.

Suppose a principally polarized abelian fivefold has a theta divisor with
at most isolated singularities and its Tannaka data looks like that of a
nonhyperelliptic Jacobian.  Then some cycle with Gauss degree c0 = 8 has an
exterior fourth power matching [4]_* of the theta conormal.  Comparing
degree-one Chern-Mather classes forces a non-integral curve class, so no
such abelian fivefold exists: the locus of fake Jacobians sits inside the
Andreotti-Mayer locus N_1.
"""

import json

from thetacycles.schottky import PpavInput, genus5_obstruction
from thetacycles.symfun import partitions

record = genus5_obstruction(PpavInput(g=5, k=0))

print("candidate curve cycle degree  c0 =", record["c0"])
print("\ndegree-one classes of the convolution powers (units of c1):")
for beta in partitions(4):
    key = ",".join(map(str, beta))
    print(f"  partition {str(beta):>12}: {record['partition_cm1_coefficients'][key]}")
print("\nexterior fourth power combines these to", record["alt4_coefficient"], "* c1")
print("left-hand side 16 * [Theta]^4  =", record["left_side"]["coords"][1], "* mu_1")
print("solved curve class          c1 =", record["c1_coefficient"], "* mu_1")
print("integral?", record["integral"])
print("\nverdict:", record["verdict"])

print("\nfull record:")
print(json.dumps(record, indent=2, sort_keys=True))
