"""Whole checks run side by side and back to back."""

import gc
import sys
import threading
from pathlib import Path

from shapecheck.checker import CheckOptions, check_source

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ("case_list", "closure_chain", "heterogeneous", "sexp_assign", "sort")


def _summary(report) -> tuple:
    return report.verdict, report.message, report.render_bindings(), report.stats


def test_checks_in_two_threads_at_once_report_as_run_alone():
    # Reading an older version of a substitution reroots the dict its
    # versions share, so one map read from two threads could see a
    # half-undone diff. No map is shared: each check's run builds its own
    # (`engine.empty_state`, `solver.entail_all`), and the only map kept at
    # module level, `types._NO_SUBST`, is never extended, so reading it
    # never reroots. Frequent thread switches interleave the two runs
    # finely: with one map shared by every run, 30 rounds fail at once.
    programs = [
        ((ROOT / "corpus" / "sort.lama").read_text(encoding="utf-8"), CheckOptions()),
        ((ROOT / "tests" / "golden" / "mixed.lama").read_text(encoding="utf-8"), CheckOptions(max_answers=7)),
        ((ROOT / "tests" / "golden" / "mixed.lama").read_text(encoding="utf-8"), CheckOptions(prune=False, max_answers=7)),
        ((ROOT / "corpus" / "self_array.lama").read_text(encoding="utf-8"), CheckOptions(fuel=5_000)),
    ]
    alone = [_summary(check_source(source, options)) for source, options in programs]
    together = [[None] * len(programs) for _ in range(2)]
    errors = []

    def work(out, order):
        try:
            for _ in range(30):
                for i in order:
                    out[i] = _summary(check_source(*programs[i]))
        except Exception as exc:  # reported in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(together[0], [0, 1, 2, 3])),
            threading.Thread(target=work, args=(together[1], [3, 2, 1, 0])),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert together == [alone, alone]


def test_repeated_corpus_checks_leave_the_gc_object_count_flat():
    # The checker keeps nothing from one check to the next: after a warm
    # up, 20 more rounds of the corpus leave as many tracked objects. (The
    # collector does not track a tuple of atoms, so this sees a kept
    # state, term, counter or report, not a kept tuple of numbers.)
    sources = [(ROOT / "corpus" / f"{name}.lama").read_text(encoding="utf-8") for name in CORPUS]

    def rounds(n):
        for _ in range(n):
            for source in sources:
                check_source(source)
        gc.collect()
        return len(gc.get_objects())

    rounds(3)
    before = rounds(1)
    after = rounds(20)
    assert after - before <= 0
