"""Certificate registry: golden fixture, coverage, and lookup."""

from __future__ import annotations

import json

import numpy as np

from repro.analysis.certificates import (
    CERTIFICATE_VERSION,
    CertificateRegistry,
    build_registry,
    certify_type,
    registered_operator_classes,
)
from repro.operators.base import Operator, WorkProfile
from repro.storage import LNG, Scalar

from .conftest import GOLDEN_CERTIFICATES


class SelfMutatingOperator(Operator):
    """Visibly impure: bumps instance state on every call."""

    kind = "self_mutating"

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def evaluate(self, inputs):
        self.calls += 1
        return Scalar(self.calls, LNG)

    def work_profile(self, inputs, output) -> WorkProfile:
        return WorkProfile(tuples_out=1)


class PureScalarOperator(Operator):
    """Trivially pure: fresh scalar, no state, no views."""

    kind = "pure_scalar"

    def evaluate(self, inputs):
        return Scalar(int(np.int64(7)), LNG)

    def work_profile(self, inputs, output) -> WorkProfile:
        return WorkProfile(tuples_out=1)


class TestGoldenRegistry:
    def test_registry_matches_golden_fixture(self, request):
        document = build_registry().to_document()
        if request.config.getoption("--regen-golden"):
            GOLDEN_CERTIFICATES.write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            )
        golden = json.loads(GOLDEN_CERTIFICATES.read_text())
        assert document == golden, (
            "certificate registry drifted from the golden fixture; "
            "inspect the diff and run pytest --regen-golden if intended"
        )

    def test_golden_version_matches(self):
        golden = json.loads(GOLDEN_CERTIFICATES.read_text())
        assert golden["version"] == CERTIFICATE_VERSION


class TestRegistryCoverage:
    def test_every_registered_operator_is_certified(self):
        registry = build_registry()
        names = {c.operator for c in registry.certificates()}
        for cls in registered_operator_classes():
            assert cls.__name__ in names

    def test_every_registered_operator_is_pure(self):
        # The repo invariant behind memo reuse of intermediates: every
        # shipped kernel certifies pure.
        for cert in build_registry().certificates():
            assert cert.pure, f"{cert.operator}: {cert.issues}"
            assert cert.picklable_params
            assert cert.shared_memory_eligible

    def test_view_returning_is_a_strict_subset(self):
        certs = build_registry().certificates()
        views = {c.operator for c in certs if c.view_returning}
        # Scan returns ColumnSlice views by design; Join builds fresh
        # pairs. Spot-check both directions to pin the analysis down.
        assert "Scan" in views
        assert "Join" not in views


class TestCertifyType:
    def test_impure_operator_scores_issues(self):
        cert = certify_type(SelfMutatingOperator)
        assert not cert.pure
        assert not cert.shared_memory_eligible
        assert any("instance state" in issue for issue in cert.issues)

    def test_pure_operator_scores_clean(self):
        cert = certify_type(PureScalarOperator)
        assert cert.pure
        assert cert.issues == ()

    def test_locally_defined_class_is_not_picklable(self):
        class Local(PureScalarOperator):
            pass

        cert = certify_type(Local)
        assert not cert.picklable_params
        assert not cert.shared_memory_eligible

    def test_round_trip_through_json(self):
        registry = build_registry()
        doc = json.loads(registry.to_json())
        loaded = CertificateRegistry.from_document(doc)
        assert [c.to_dict() for c in loaded.certificates()] == [
            c.to_dict() for c in registry.certificates()
        ]


class TestRegistryLookup:
    def test_unknown_class_is_certified_on_demand(self):
        registry = CertificateRegistry()
        assert registry.get(PureScalarOperator).pure
        # Second lookup hits the cache (same object back).
        assert registry.get(PureScalarOperator) is registry.get(
            PureScalarOperator
        )

    def test_loaded_certificates_are_found_by_name(self):
        doc = {
            "version": CERTIFICATE_VERSION,
            "certificates": [
                {
                    "operator": "PureScalarOperator",
                    "module": "anywhere",
                    "pure": False,
                    "picklable_params": True,
                    "shared_memory_eligible": False,
                    "view_returning": False,
                    "issues": ["revoked by test"],
                }
            ],
        }
        registry = CertificateRegistry.from_document(doc)
        cert = registry.get(PureScalarOperator)
        assert not cert.pure
        assert cert.issues == ("revoked by test",)
