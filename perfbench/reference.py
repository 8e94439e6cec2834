"""Reference outputs: what a correct run writes, per experiment and seed.

A repetition is correct when every runner artefact has the recorded
sha256 and every operation's record has the recorded digest.  An
operation is one probe, keyed ``mtaid/testid``, or one NotifyEmail
delivery, keyed by the domain id.  Its record is its line in
``<name>_probes.jsonl`` (probes) or its delivery record (NotifyEmail),
followed by every line of ``<name>_queries.jsonl`` attributed to it.

``probe-serial`` and ``probe-sharded`` check against the same reference.
The one exception is the span dump, which the runner writes only for
serial runs.  Artefacts the reference does not list are reported, not
failed.

Record the references (on a commit whose outputs are known good)::

    python3 perfbench/reference.py                        # scale 0.01, every seed
    python3 perfbench/reference.py --scale 0.002 --count 1  # for the self-test
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Runner seeds the benchmark maps ``--seed`` onto, per experiment.  At
# scale 0.01 the seeds 2021..2060 differ up to 5x in the DNS work their
# universe generates (717 to 4,044 synthesizer queries for TwoWeekMX),
# and the testbed's 1024-bit RSA key generation, seeded from the runner
# seed, takes 0.04 to 0.5 s depending on it, so seed-to-seed spread
# would swamp the program's.  The TwoWeekMX seeds lie near the median of
# the forty in span count, query count and set-up time, and in the
# queries of the busier of two shards, which sets the sharded campaign's
# time.  The NotifyEmail seeds, whose key generation is part of
# ``setup_s``, all generate their key in 0.06 to 0.08 s (on a 2-vCPU
# x86-64 host) and make 1,470 to 1,584 DNS queries and 8,610 to 8,924
# spans.
SEEDS = {
    "twoweekmx": (2024, 2035, 2041, 2045, 2050, 2056),
    "notifyemail": (2029, 2048, 2050, 2051, 2052, 2053),
}

SPANS_SUFFIX = "_spans.jsonl"


def runner_seed(experiment: str, seed: int) -> int:
    pool = SEEDS[experiment]
    return pool[seed % len(pool)]


def path_for(experiment: str, scale: float, seed: int) -> Path:
    return REFERENCE_DIR / ("%s-%g-%d.json" % (experiment, scale, seed))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def artefact_digests(out: Path) -> Dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file()
    }


def _data_lines(path: Path) -> List[str]:
    """The JSONL records of an artefact, without its format header."""
    return path.read_text(encoding="utf-8").splitlines()[1:]


def delivery_record(delivery) -> str:
    """One NotifyEmail delivery as canonical text."""
    return json.dumps(
        {
            "domain": delivery.domain.name,
            "from": delivery.from_domain,
            "delivery": dataclasses.asdict(delivery.delivery),
        },
        sort_keys=True,
        default=repr,
    )


def op_records(experiment: str, out: Path, result) -> Dict[str, List[str]]:
    """Operation id -> its record lines, from the run's artefacts (and,
    for NotifyEmail, the campaign's returned delivery records)."""
    records: Dict[str, List[str]] = {}
    if experiment == "notifyemail":
        for delivery in result.deliveries:
            records[delivery.domain.domainid] = [delivery_record(delivery)]
    else:
        for line in _data_lines(out / ("%s_probes.jsonl" % experiment)):
            probe = json.loads(line)
            records["%s/%s" % (probe["mtaid"], probe["testid"])] = [line]
    for line in _data_lines(out / ("%s_queries.jsonl" % experiment)):
        query = json.loads(line)
        key = op_key(experiment, query["mtaid"], query["testid"])
        if key in records:
            records[key].append(line)
    return records


def op_key(experiment: str, mtaid: str, testid: str) -> Optional[str]:
    """The operation an attributed (mtaid, testid) pair belongs to."""
    if experiment == "notifyemail":
        return mtaid if testid == "notify" else None
    return "%s/%s" % (mtaid, testid)


def op_digests(experiment: str, out: Path, result) -> Dict[str, str]:
    return {
        key: _digest("\n".join(lines))
        for key, lines in op_records(experiment, out, result).items()
    }


def load(experiment: str, scale: float, seed: int) -> Optional[dict]:
    path = path_for(experiment, scale, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def compare_artefacts(
    reference: dict, artefacts: Dict[str, str], sharded: bool
) -> Tuple[List[str], List[str]]:
    """(problems, unreferenced artefact names)."""
    problems = []
    for name, digest in sorted(reference["artefacts"].items()):
        if name not in artefacts:
            if not (sharded and name.endswith(SPANS_SUFFIX)):
                problems.append("missing artefact %s" % name)
        elif artefacts[name] != digest:
            problems.append("artefact %s differs from the reference" % name)
    extra = sorted(set(artefacts) - set(reference["artefacts"]))
    return problems, extra


def failed_ops(reference: dict, digests: Dict[str, str]) -> Set[str]:
    """Operations missing, extra, or whose record differs."""
    expected: Dict[str, str] = reference["ops"]
    keys = set(expected) | set(digests)
    return {key for key in keys if expected.get(key) != digests.get(key)}


# -- recording ----------------------------------------------------------------


def record(scale: float, count: int) -> int:
    import run

    REFERENCE_DIR.mkdir(exist_ok=True)
    for experiment, pool in SEEDS.items():
        for seed in pool[:count]:
            work = run.work_dir()
            try:
                rep = run.repetition(work, experiment, 1, scale, seed, trace=False)
            finally:
                run.remove(work)
            if rep.get("error"):
                print(rep["error"], file=sys.stderr)
                return 1
            problems = rep["unclean"]
            if problems:
                print("refusing to record %s seed %d: %s" % (experiment, seed, problems), file=sys.stderr)
                return 1
            data = {
                "experiment": experiment,
                "scale": scale,
                "seed": seed,
                "source": run.source_digest(),
                "artefacts": rep["artefacts"],
                "ops": rep["op_digests"],
            }
            path = path_for(experiment, scale, seed)
            path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
            print("%s: %d artefacts, %d operations" % (path.name, len(data["artefacts"]), len(rep["op_digests"])))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--count", type=int, default=len(SEEDS["twoweekmx"]),
                        help="record the first COUNT seeds of each pool")
    args = parser.parse_args(argv)
    return record(args.scale, args.count)


if __name__ == "__main__":
    sys.exit(main())
