"""The bench harness's ``emit`` keeps every section of a shared bench file.

Several benches write more than one section to one ``benchmarks/out``
file (``fault overhead: ...``, ``Ablation: ...``); each ``emit`` rebuilds
that file from all of its sections in ``report.txt``, not just the last.
"""

from benchmarks import conftest


def test_emit_keeps_every_section_of_a_bench_file(tmp_path, monkeypatch):
    monkeypatch.setattr(conftest, "_OUT_DIR", tmp_path)
    conftest.emit("fault overhead: empty plan", "gated reading")
    conftest.emit("Table 9: unrelated", "other file")
    conftest.emit("fault overhead: faulted", "faulted reading")
    assert (tmp_path / "fault_overhead.txt").read_text() == "gated reading\n\nfaulted reading\n"
    # Re-emitting a section replaces it in place, in report order.
    conftest.emit("fault overhead: empty plan", "gated again")
    assert (tmp_path / "fault_overhead.txt").read_text() == "gated again\n\nfaulted reading\n"
    assert (tmp_path / "table_9.txt").read_text() == "other file\n"
