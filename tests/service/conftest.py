"""Fixtures for the service suite.

The HTTP-level tests run against the builtin ASGI application and
drive it through ``httpx.ASGITransport`` when httpx is available — the CI service job
installs it — falling back to the in-repo ASGI client on bare
containers. Both speak the same ASGI protocol to the same app.
"""

from __future__ import annotations

import pytest

from repro.data import Dataset
from repro.service.app import ServiceConfig, ServiceCore, \
    builtin_asgi_app


def small_dataset(name: str = "svc-small",
                  shuffle_seed=None) -> Dataset:
    """A deterministic 60-record dataset with real structure.

    Attribute A predicts the class strongly, B weakly, C not at all —
    enough signal that BH keeps some rules at min_sup=10. With
    ``shuffle_seed`` the same *content* arrives in a different record
    order (fingerprint tests).
    """
    records = []
    labels = []
    for index in range(60):
        a = "a1" if index % 3 else "a0"
        b = "b" + str(index % 2)
        c = "c" + str(index % 5)
        label = "pos" if (index % 3 != 0) == (index % 7 != 0) else "neg"
        records.append([a, b, c])
        labels.append(label)
    if shuffle_seed is not None:
        import random

        order = list(range(len(records)))
        random.Random(shuffle_seed).shuffle(order)
        records = [records[i] for i in order]
        labels = [labels[i] for i in order]
    return Dataset.from_records(records, labels, ["A", "B", "C"],
                                name=name)


@pytest.fixture
def core():
    """A ServiceCore with no background workers (tests drain the
    queue explicitly for deterministic scheduling) and the small
    dataset pre-registered."""
    service = ServiceCore(ServiceConfig(workers=0))
    service.registry.register("small", small_dataset())
    yield service
    service.close()


@pytest.fixture
def app(core):
    """The app under test: the builtin ASGI application."""
    return builtin_asgi_app(core)


class _HttpxClient:
    """httpx-backed client with the same verbs as ServiceClient."""

    def __init__(self, app, token=None):
        import httpx

        headers = ({"Authorization": f"Bearer {token}"}
                   if token is not None else {})
        self._client = httpx.Client(
            transport=httpx.ASGITransport(app=app),
            base_url="http://service.test", headers=headers)

    def get(self, url, headers=None):
        return self._client.get(url, headers=headers)

    def post(self, url, json_body=None, headers=None):
        return self._client.post(url, json=json_body, headers=headers)

    def delete(self, url, headers=None):
        return self._client.delete(url, headers=headers)


def make_client(app, token=None):
    """An HTTP client for ``app``: httpx when installed, else the
    in-repo ASGI client."""
    try:
        import httpx  # noqa: F401
    except ImportError:
        from repro.service.testing import ServiceClient

        return ServiceClient(app, token=token)
    return _HttpxClient(app, token=token)


@pytest.fixture
def client(app):
    return make_client(app)
