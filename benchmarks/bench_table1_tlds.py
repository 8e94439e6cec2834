"""Table 1: ten most prevalent TLDs per data set.

Paper (left / right columns): com 26%/49%, net 13%/6.3%, ru 8.3%, org 17%,
edu 9.0%, ...  The bench regenerates both columns from the generated
universes and checks the headline ordering.
"""

from benchmarks.conftest import emit
from repro.core import analysis as A


def test_table1_tld_distribution(benchmark, notifyemail, twoweekmx):
    table = benchmark(
        A.tld_table, {"NotifyEmail": notifyemail.universe, "TwoWeekMX": twoweekmx.universe}
    )
    emit("Table 1: TLD distribution", table.render())

    notify_rows = [row for row in table.rows if row[2] == "NotifyEmail"]
    twoweek_rows = [row for row in table.rows if row[2] == "TwoWeekMX"]
    # Shape checks against the paper: com leads both lists; net is second
    # for NotifyEmail and org second for TwoWeekMX.
    assert notify_rows[0][0] == "com"
    assert notify_rows[1][0] == "net"
    assert twoweek_rows[0][0] == "com"
    assert twoweek_rows[1][0] == "org"
    com_share = float(twoweek_rows[0][1].rstrip("%"))
    assert 40.0 < com_share < 58.0  # paper: 49%
