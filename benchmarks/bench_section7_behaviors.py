"""Section 7: SPF validation behaviours, measured vs the paper.

Covers 7.1 (serial vs parallel lookups), 7.2 (lookup limits, also bench
figure5), and every 7.3 statistic: HELO policy checks, syntax-error
tolerance, void-lookup limits, the illegal MX->A fallback, multiple-record
handling, TCP fallback, IPv6-only retrieval, and the per-mx address-lookup
ceiling.
"""

from benchmarks.conftest import emit
from repro.core import analysis as A


def test_section7_behavior_suite(benchmark, notifymx):
    stats = benchmark(A.behavior_stats, notifymx.result)
    table = A.behavior_table(stats)
    emit("Section 7: behaviour statistics", table.render())

    by_label = {stat.label: stat for stat in stats}

    def within(label, low, high):
        stat = by_label[label]
        assert low <= stat.percent <= high, "%s: %.1f%% outside [%s, %s]" % (
            stat.label, stat.percent, low, high,
        )

    # 7.1: overwhelmingly serial.
    within("serial DNS lookups (t01)", 90.0, 100.0)  # paper: 97%
    # 7.3: HELO checks are rare, and checkers always proceed.
    within("checked HELO policy (t03)", 1.0, 12.0)  # paper: 5.0%
    within("ignored HELO verdict (of checkers)", 99.0, 100.0)
    # 7.3: syntax-error tolerance.
    within("continued past syntax error in main policy (t04)", 1.0, 12.0)  # 5.5%
    within("continued past syntax error in child policy (t05)", 5.0, 22.0)  # 12.3%
    # 7.3: void lookups — near-universal violation.
    within("exceeded two void lookups (t06)", 90.0, 100.0)  # 97%
    within("chased all five void names (t06)", 50.0, 80.0)  # 64%
    # 7.3: illegal MX->A fallback.
    within("illegal A/AAAA fallback after MX (t07)", 6.0, 24.0)  # 14%
    # 7.3: multiple records — most permerror, none follow both.
    within("ignored both duplicate policies (t08)", 65.0, 90.0)  # 77%
    within("followed both duplicate policies (t08)", 0.0, 1.0)  # 0%
    # 7.3: TCP fallback nearly universal.
    within("retried truncated response over TCP (t09)", 95.0, 100.0)
    # 7.3: IPv6 retrieval around half.
    within("retrieved IPv6-only policy (t10)", 35.0, 62.0)  # 49%
    # 7.3: mx address limit — few compliant, most resolve all 20.
    within("stopped at <=10 MX address lookups (t11)", 2.0, 18.0)  # 7.7%
    within("resolved all 20 MX exchanges (t11)", 48.0, 80.0)  # 64%
