"""Figure 2: distribution of t(SPF lookup) - t(email delivery).

Paper: 83% of domains have a negative difference (the SPF policy was
fetched before delivery completed), 91% of differences fall within +/-30
seconds, and sub-second differences (8.6% of emails) are excluded because
of Exim's one-second log granularity.
"""

from benchmarks.conftest import emit
from repro.core import analysis as A
from repro.core.report import render_histogram


def test_figure2_timing_distribution(benchmark, notifyemail):
    timing = benchmark(A.timing_analysis, notifyemail.result)

    text = render_histogram(
        timing.buckets,
        title="t(SPF) - t(delivery), per-domain averages (n=%d)" % timing.domains_used,
    )
    text += "\nnegative (validated before delivery): %.0f%% (paper: 83%%)" % (
        100 * timing.negative_fraction
    )
    text += "\nwithin +/-30 s:                        %.0f%% (paper: 91%%)" % (
        100 * timing.within_30s_fraction
    )
    emit("Figure 2: SPF-lookup vs delivery timing", text)

    assert 0.70 < timing.negative_fraction < 0.95  # paper: 83%
    assert timing.within_30s_fraction > 0.75  # paper: 91%
    # The dominant bucket is the -15..0 one, as in the paper's histogram.
    dominant = max(timing.buckets, key=lambda bucket: bucket[1])
    assert dominant[0] == "-15..0"
