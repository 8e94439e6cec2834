"""The headline artefact: every paper statistic vs. its measured value.

Folds the runner's three experiments into one scorecard through
``repro.core.compare.collect_measurements``, the fold behind the
``scorecard.txt`` of ``runner --experiment all`` (see
``repro.core.compare.PAPER_REFERENCE`` for the bands) and asserts that at
least 85% of the statistics land inside their tolerance bands — the
repository's single-number answer to "does the reproduction hold?".
"""

from benchmarks.conftest import emit
from repro.core.compare import build_scorecard, collect_measurements


def test_paper_scorecard(benchmark, experiments):
    def build():
        triples = ((name, e.universe, e.result) for name, e in experiments.items())
        return build_scorecard(collect_measurements(triples))

    scorecard = benchmark(build)
    emit("Scorecard: paper vs measured", scorecard.to_table().render())

    evaluated = scorecard.evaluated
    assert len(evaluated) == len(scorecard.entries), "every statistic must be measured"
    misses = [entry for entry in evaluated if not entry.within_band]
    for entry in misses:
        print("OUT OF BAND: %s (paper %.1f, measured %.1f)" % (
            entry.reference.description, entry.reference.paper_value, entry.measured))
    assert scorecard.hit_rate >= 0.85, "only %d/%d statistics within band" % (
        scorecard.hits, len(evaluated),
    )
