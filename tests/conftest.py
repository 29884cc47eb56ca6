import hypothesis
import pytest

from scdkit import alignment

hypothesis.settings.register_profile("ci", max_examples=200, deadline=None)
hypothesis.settings.register_profile("fast", max_examples=25, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def key_rows_calls(monkeypatch):
    """Number of pure-Python ``_key_rows`` DPs run, in a one-item list."""
    calls = [0]
    key_rows = alignment._key_rows

    def counted(*args, **kwargs):
        calls[0] += 1
        return key_rows(*args, **kwargs)

    monkeypatch.setattr(alignment, "_key_rows", counted)
    return calls
