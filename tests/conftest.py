"""Shared fixtures."""

from dataclasses import dataclass

import numpy as np
import pytest

from loopbundle import holonomy, sections
from loopbundle.laurent import SampledLoop, certify, fourier_project


@dataclass
class Certified:
    """One `certify` call made by the library: its sampler, its degree and the samples it certified."""

    path: object
    degree: object
    samples: np.ndarray

    @property
    def loop(self):
        """The certified loop of a single path: `fourier_project` of the samples at the degree."""
        return fourier_project(SampledLoop(values=self.samples), int(self.degree))[0]


@pytest.fixture
def certified(monkeypatch):
    """The `Certified` record of each certificate the `sections` and `holonomy` functions take, in call order."""
    calls = []

    def recording(path, degree):
        def sampled(ts):
            values = path(ts)
            calls.append(Certified(path, degree, values.copy()))
            return values

        return certify(sampled, degree)

    for module in (sections, holonomy):
        monkeypatch.setattr(module, "certify", recording)
    return calls
