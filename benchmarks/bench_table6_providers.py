"""Table 6: validation by popular mail providers (NotifyEmail).

Paper: 16 of 19 providers SPF-validate (84%); 13 of 19 run all three
mechanisms (68%); qq.com, 163.com, and att.net show no validation at all.
"""

from benchmarks.conftest import emit
from repro.core import analysis as A


def test_table6_popular_providers(benchmark, notify_analysis):
    table = benchmark(A.provider_table, notify_analysis)
    emit("Table 6: popular providers", table.render())

    rows = {row[0]: row[1:] for row in table.rows}
    assert len(rows) == 19
    # The three silent providers of the paper.
    for silent in ("qq.com", "163.com", "att.net"):
        assert rows[silent] == ["-", "-", "-"]
    spf_count = sum(1 for cells in rows.values() if cells[0] == "Y")
    full_count = sum(1 for cells in rows.values() if cells == ["Y", "Y", "Y"])
    assert spf_count == 16  # paper: 16 of 19
    assert full_count == 13  # paper: 13 of 19
    # gmx.de / web.de / daum.net validate SPF+DKIM but not DMARC.
    for trial_mode in ("gmx.de", "web.de", "daum.net"):
        assert rows[trial_mode] == ["Y", "Y", "-"]
