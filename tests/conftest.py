import functools
import signal

import pytest

from sombortree.sweep import evaluate_sequence, generate_degree_sequences


@pytest.fixture(scope="session")
def audit_n12():
    """Constructor-vs-oracle audit of every feasible sequence with n <= 12.

    Maps degree tuple -> (SweepRecord, constructed Tree, OracleResult).
    Computed once; shared by the acceptance criteria.
    """
    results = {}
    for d in generate_degree_sequences(12):
        record, constructed, oracle = evaluate_sequence(d)
        results[d.degrees] = (record, constructed, oracle)
    return results


class Hung(BaseException):
    """Raised by time_limit.  Not an Exception, so hypothesis does not catch
    it and shrink by rerunning the example that hung, with no timer left."""


def time_limit(seconds):
    """Fail the decorated test from inside it after `seconds` of wall time.

    A wrong validity test in anneal_search can leave a cycle in its parent
    array, and the ancestor walk then never ends: without this, such a
    change hangs the run instead of failing it.  The alarm reaches only
    this process, not the pool workers a test may spawn."""

    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")

    def wrap(test):
        @functools.wraps(test)
        def guarded(*args, **kwargs):
            old = signal.signal(signal.SIGALRM, expire)
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                return test(*args, **kwargs)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)

        return guarded

    return wrap
