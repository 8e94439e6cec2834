"""Table 2: data sets used for experimentation.

Paper: NotifyEmail 26,695 domains / 17,252 IPv4 / 1,599 IPv6; NotifyMX
26,390 / 26,196 / 2,700; TwoWeekMX 22,548 / 10,666 / 471.  Absolute counts
scale with REPRO_BENCH_SCALE; the shape checks are on the ratios: MTA
addresses below domain counts, and IPv6 a small minority everywhere.
"""

from benchmarks.conftest import SCALE, emit
from repro.core import analysis as A


def test_table2_dataset_counts(benchmark, notifyemail, notifymx, twoweekmx):
    def build():
        return [
            A.notify_email_counts(notifyemail.result),
            A.probe_counts("NotifyMX", notifymx.universe, notifymx.result),
            A.probe_counts("TwoWeekMX", twoweekmx.universe, twoweekmx.result),
        ]

    counts = benchmark(build)
    table = A.dataset_table(counts)
    table.notes.append("scale factor %.3f of the paper's population" % SCALE)
    emit("Table 2: data sets", table.render())

    notify, notifymx, twoweek = counts
    for entry in counts:
        assert entry.ipv6 < entry.ipv4  # IPv6 is the minority everywhere
    # Delivery goes to one MTA per domain, so NotifyEmail's address count
    # sits below the domain count, as in the paper.
    assert notify.ipv4 + notify.ipv6 <= notify.domains
    # TwoWeekMX shares MTAs most aggressively (0.49 addresses per domain).
    assert (twoweek.ipv4 + twoweek.ipv6) / twoweek.domains < 0.9
