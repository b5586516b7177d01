"""Run the teleported parity measurement end to end and inspect every branch."""

from biphoton import (
    basis_ket,
    compare_reports,
    oracle_report,
    parity_family,
    run_protocol,
    superpose,
)

beta = superpose(
    [(0.6, basis_ket((1, 2), "HH")), (0.8, basis_ket((1, 2), "VV"))]
)
family = parity_family()

# Five-photon scheme: both Bell analyzers fire, the register photon is
# measured in H/V, and three of the four accepted Bell pairs need local
# phase flips before the residual matches the reference branch.
report = run_protocol(beta, family, mode="parity5")
print(f"mode={report.mode}  analyzer={report.analyzer.name}")
print("success probability :", report.success_probability)
print("P(j|success)        :", report.conditional_j)
print("inconclusive weight :", report.inconclusive_probability)
print()
print(f"{'bell15':9s} {'bell26':9s} {'reg':4s} {'prob':8s} classification")
for b in report.branches:
    reg = b.register_result or "-"
    fixes = ",".join(f"Z{p}" for p, _ in b.corrections) or "-"
    print(
        f"{b.bell15.value:9s} {b.bell26.value:9s} {reg:4s}"
        f" {b.probability:8.5f} {b.classification}  [{fixes}]"
    )

# Every run is checked against a projector-algebra oracle.
verdict = compare_reports(report, oracle_report(beta, family))
print()
print("oracle verdict:", "PASS" if verdict.passed else verdict.mismatches)

# Four-photon scheme: no register photon, no recoverable branches -- the
# odd-parity component is filtered out instead of measured.
filtered = run_protocol(beta, family, mode="parity4")
print()
print("parity4 success probability:", filtered.success_probability)
success = [b for b in filtered.branches if b.is_success]
print("accepted residual:", dict(success[0].residual.items()))
