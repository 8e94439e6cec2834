"""Table 7: validation rates by Alexa membership (NotifyEmail).

Paper: SPF 82% -> 88% -> 93%, DKIM 82% -> 84% -> 90%, DMARC 54% -> 67% ->
79% going All -> Top 1M -> Top 1K.  The shape under test is the monotone
gradient: more popular domains validate more.
"""

from benchmarks.conftest import emit
from repro.core import analysis as A


def _rates(universe, analysis, mechanism):
    tiers = {"all": [], "top1m": [], "top1k": []}
    by_id = {domain.domainid: domain for domain in universe.domains}
    validating = analysis.validating(mechanism)
    for domainid in analysis.observations:
        domain = by_id[domainid]
        tiers["all"].append(domainid)
        if domain.alexa_rank is not None:
            tiers["top1m"].append(domainid)
            if domain.alexa_rank <= 1000:
                tiers["top1k"].append(domainid)
    return {
        tier: sum(1 for d in ids if d in validating) / len(ids) if ids else 0.0
        for tier, ids in tiers.items()
    }


def test_table7_alexa_gradient(benchmark, notifyemail, notify_analysis):
    universe, analysis = notifyemail.universe, notify_analysis
    table = benchmark(A.alexa_table, universe, analysis)
    emit("Table 7: Alexa tiers", table.render())

    # DMARC shows the steepest gradient in the paper (54% -> 67% -> 79%).
    dmarc = _rates(universe, analysis, "dmarc")
    assert dmarc["all"] < dmarc["top1m"]
    assert 0.40 < dmarc["all"] < 0.70
    spf = _rates(universe, analysis, "spf")
    assert spf["all"] > 0.72
    # The Top-1K tier is tiny at bench scale (the paper had 87 domains, a
    # 2% universe has ~20, largely the forced popular providers — three of
    # which famously validate nothing).  Only check its gradient when the
    # tier is big enough to mean something.
    top1k_size = sum(
        1 for d in universe.domains
        if d.alexa_rank is not None and d.alexa_rank <= 1000 and d.domainid in analysis.observations
    )
    if top1k_size >= 40:
        assert dmarc["top1m"] <= dmarc["top1k"] + 0.05
        assert spf["top1k"] > 0.85
