"""Table 3: ten most prevalent ASes by share of domains.

Paper: NotifyEmail is extremely long-tailed (top AS = Amazon at 2.3%,
10,937 ASes total); TwoWeekMX is provider-concentrated (Google 32%,
Microsoft 20%, 1,795 ASes total).
"""

from benchmarks.conftest import emit
from repro.core import analysis as A


def test_table3_as_distribution(benchmark, notifyemail, twoweekmx):
    table = benchmark(
        A.as_table, {"NotifyEmail": notifyemail.universe, "TwoWeekMX": twoweekmx.universe}
    )
    emit("Table 3: AS distribution", table.render())

    twoweek_rows = [row for row in table.rows if row[2] == "TwoWeekMX"]
    notify_rows = [row for row in table.rows if row[2] == "NotifyEmail"]
    # Google and Microsoft dominate TwoWeekMX, in that order.
    assert "Google" in twoweek_rows[0][0]
    assert "Microsoft" in twoweek_rows[1][0]
    google_share = float(twoweek_rows[0][1].rstrip("%"))
    assert 24.0 < google_share < 40.0  # paper: 32%
    # NotifyEmail's top AS holds only a few percent of domains.
    top_notify_share = float(notify_rows[0][1].rstrip("%"))
    assert top_notify_share < 8.0  # paper: 2.3%
