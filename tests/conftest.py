import sys

import pytest


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on integer string digits, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
