"""Invariants of principally polarized abelian fourfolds.

Every cell is recomputed from first principles: Gauss degrees come from the
ordinary-double-point count, the 20 is the Weyl dimension of the third
fundamental representation of Sl_6, and the hyperelliptic 8 = 14 - 6 falls
out of the quotient character of Sp_6.
"""

from thetacycles.schottky import fourfold_table, fourfold_table_csv

table = fourfold_table()
print(fourfold_table_csv(table))

print("theta-null strata in detail:")
for inst in table["rows"][-1]["instances"]:
    note = f"  ({inst['note']})" if inst["note"] else ""
    print(
        f"  k={inst['k']:>2}: Gauss degree {inst['gauss_degree']:>2}, "
        f"group {inst['group']}{note}"
    )
