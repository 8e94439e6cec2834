"""Section 8 (future work): fingerprinting validator implementations.

The paper proposes using the collective per-policy behaviours to
"classify and even fingerprint an SPF validator implementation, to learn
how many distinct implementations are deployed."  No reference numbers
exist — this bench runs the proposed analysis and sanity-checks its
structure: the fleet clusters into far fewer profiles than MTAs, and the
biggest clusters are the compliant mainstream configurations.
"""

from benchmarks.conftest import emit
from repro.core.fingerprint import fingerprint_fleet


def test_section8_fingerprints(benchmark, notifymx):
    report = benchmark(fingerprint_fleet, notifymx.result)

    text = report.to_table().render()
    text += "\nMTAs fingerprinted: %d; too little signal: %d" % (
        report.total_mtas, len(report.skipped)
    )
    emit("Section 8: validator fingerprints", text)

    assert report.total_mtas > 0
    # Far fewer behaviour profiles than MTAs: fingerprinting compresses.
    assert report.distinct_profiles < report.total_mtas
    # ...but the wild is diverse: more than a handful of profiles exist.
    assert report.distinct_profiles >= 5
    # The dominant profile is serial + within-limits (the compliant
    # mainstream), mirroring every Section 7 majority.
    top_vector, top_size = report.largest(1)[0]
    assert top_vector.feature("lookup_order") == "serial"
    assert top_vector.feature("lookup_limit") == "<=10"
