import pytest

# The invariant suites in ``support`` get pytest's assertion reports too.
pytest.register_assert_rewrite("support")
