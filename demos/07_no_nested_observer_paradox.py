"""The four-agent nested-measurement search: no paradox exists.

Four agents measure systems R, S and each other's labs in sequence.  A
paradox would need: U=ok implies B=1, B=1 implies A=1, A=1 implies W=fail,
and yet P(ok, ok) > 0 for Ursula and Wigner - with ok and fail genuinely
distinct outcomes for Wigner.  The exhaustive scan over every pure state of
four toy bits and every block-local measurement finds none; whenever the
full set of necessary conditions holds, Wigner's two labels collapse to the
same outcome.  Weakening the inference conditions immediately produces false
positives, so the search would see a paradox if one existed.

This demo runs the full scan (a few seconds) plus a reduced cross-check
sample; the acceptance suite runs the full battery.
"""

from toytheory import search_fr_paradox

print(__doc__)

report = search_fr_paradox(d=2, exhaustive=True, workers=1, spot_checks=40,
                           sequential_checks=8)
scan = [e for e in report.events if e["kind"] == "scan"][0]
print(f"pure states covered:            {scan['states']}")
print(f"orbit representatives scanned:  {scan['representatives']}")
print(f"candidate space:                {report.config['candidate_space']}")
print(f"paradoxes found:                {scan['paradox_count']}")
print(f"benign all-conditions configs:  {scan['benign_all_seven']}")
print(f"verdict: {dict(report.verdict)}")

mutated = search_fr_paradox(d=2, exhaustive=True, workers=1, spot_checks=0,
                            weaken_condition1=True, stop_after=3)
print(f"\nsensitivity control (weakened conditions): "
      f"{mutated.verdict}")
