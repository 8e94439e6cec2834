"""Table 4: SPF x DKIM x DMARC validation combinations (NotifyEmail).

Paper: YYY 53%, YY- 24%, --- 17%, Y-- 8.1%, -Y- 5.4%, --Y 0.79%,
Y-Y 0.63%, -YY 0.0%; plus the Section 6.1 partial-validator note
(690 of 22,703 SPF validators = 3.0% fetch the policy but never resolve
its 'a' target).
"""

from benchmarks.conftest import emit
from repro.core import analysis as A


def test_table4_validation_breakdown(benchmark, notify_analysis):
    analysis = notify_analysis
    table = benchmark(A.validation_breakdown_table, analysis)
    emit("Table 4: validation breakdown", table.render())

    counts = analysis.combo_counts()
    total = analysis.total
    share = {combo: count / total for combo, count in counts.items()}

    # Ranking shape: full validation first, SPF+DKIM second, nothing third.
    assert share.get((True, True, True), 0) == max(share.values())
    assert share.get((True, True, False), 0) > share.get((False, False, False), 0) / 2
    # Bands around the paper's percentages.
    assert 0.40 < share.get((True, True, True), 0) < 0.65  # 53%
    assert 0.15 < share.get((True, True, False), 0) < 0.32  # 24%
    assert 0.08 < share.get((False, False, False), 0) < 0.25  # 17%
    assert share.get((False, True, True), 0) < 0.01  # 0.0%

    # Partial validators (s6.1): around 3% of SPF validators.
    partial = len(analysis.partial_spf_validators())
    spf_total = len(analysis.validating("spf"))
    assert 0.005 < partial / spf_total < 0.08


def test_partial_validators_rarely_dkim_free(benchmark, notify_analysis):
    """Paper s6.1: of the 690 partial validators, only 12% relied on SPF
    exclusively (no DKIM query)."""
    analysis = notify_analysis
    partial = benchmark(analysis.partial_spf_validators)
    if not partial:
        return
    spf_only = {
        domainid
        for domainid in partial
        if not analysis.observations[domainid].dkim
    }
    assert len(spf_only) / len(partial) < 0.5
