import pytest

from ptqlab.errors import ParameterError, require_count


@pytest.mark.parametrize("value", [True, 2.0, "3"])
def test_require_count_takes_only_an_int(value):
    with pytest.raises(ParameterError, match=r"n must be an integer >= 1, got"):
        require_count("n", value)

