"""Timer utilities."""

import time

import pytest

from repro.exceptions import UsageError
from repro.utils.timing import Timer, time_callable


def test_timer_accumulates():
    t = Timer()
    with t:
        time.sleep(0.001)
    with t:
        time.sleep(0.001)
    assert t.calls == 2
    assert t.elapsed >= 0.002
    assert t.mean == pytest.approx(t.elapsed / 2)


def test_timer_reset():
    t = Timer()
    with t:
        pass
    t.reset()
    assert t.calls == 0
    assert t.elapsed == 0.0
    assert t.mean == 0.0


def test_time_callable_returns_result():
    best, result = time_callable(lambda x: x * 2, 21, repeats=3)
    assert result == 42
    assert best >= 0


def test_time_callable_rejects_zero_repeats():
    with pytest.raises(ValueError):
        time_callable(lambda: None, repeats=0)


def test_exit_without_enter_is_a_named_error():
    t = Timer()
    with pytest.raises(UsageError, match="without __enter__"):
        t.__exit__(None, None, None)
    assert t.calls == 0
