"""Seeded scans for semidefiniteness of h-matrices in dimensions 3 and 4.

Two scan families, the entries of positivity.SCAN_FAMILIES: 'psd' classifies
every rank-2 h-vector entry of random polytopes; 'hibi' classifies the
differences h_i - h_1 (for polytopes with an interior lattice point) on the
index range 1 <= i < dim+2, with the top index reported separately.
Violations are findings with exact witnesses, and the same seed always
reproduces the same report.

The shipped seed exhibits a genuine finding: a 4-dimensional polytope whose
difference h_5 - h_1 is indefinite, located at trial 95 below.  Its witness
survives independent brute-force verification, so the difference inequality
fails at index dim+1 in general.
"""
from ehrtensor import conjecture_scan
from ehrtensor.positivity import SCAN_FAMILIES

print("dimension 3, both scans, 60 trials each:")
for which in SCAN_FAMILIES:
    rep = conjecture_scan(3, 60, 3, 8, seed=42, which=which)
    print(f"  {which}: completed {rep.completed}, skipped {rep.skipped_no_interior},"
          f" violations {len(rep.violations)}"
          f" (top-index violations: {len(rep.violations_last_index)})")

print("\ndimension 4, difference scan with the finding (seed 42, 100 trials):")
rep = conjecture_scan(4, 100, 2, 8, seed=42, which="hibi")
print(f"  completed {rep.completed}, skipped {rep.skipped_no_interior},"
      f" violations {len(rep.violations)}")
for v in rep.violations:
    print(f"  trial {v.trial}: index {v.index} is {v.classification}")
    print(f"    vertices {list(map(list, v.vertices))}")
    print(f"    witness {[str(x) for x in v.witness]} gives form value {v.witness_value}")

print("\nsame seed, same report:",
      rep.to_json() == conjecture_scan(4, 100, 2, 8, seed=42, which='hibi').to_json())
