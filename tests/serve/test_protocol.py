"""Canonicalisation: equivalent requests must hash identically."""

import pytest

from repro.serve.protocol import (
    STATUS_HTTP,
    ProtocolError,
    canonicalize,
)


class TestCanonicalKeys:
    def test_defaults_and_spelled_out_defaults_coalesce(self):
        from dataclasses import asdict

        from repro.pg.modes import OperatingConditions

        implicit = canonicalize("characterize", {})
        explicit = canonicalize("characterize", {
            "kind": "nv", "cond": asdict(OperatingConditions())})
        assert implicit.key == explicit.key
        assert implicit.params == explicit.params

    def test_different_params_different_key(self):
        base = canonicalize("characterize", {})
        other = canonicalize("characterize",
                             {"cond": {"frequency": 1e9}})
        assert base.key != other.key

    def test_policy_fields_stay_out_of_the_key(self):
        patient = canonicalize("characterize", {"deadline_s": 200.0})
        hurried = canonicalize("characterize", {"deadline_s": 1.0})
        assert patient.key == hurried.key
        assert patient.deadline_s == 200.0
        assert hurried.deadline_s == 1.0

    def test_routes_never_share_keys(self):
        assert (canonicalize("nvff", {}).key
                != canonicalize("characterize", {}).key)

    def test_integral_float_field_shares_the_default_key(self):
        """A JSON integer on a float field is the same point: the same
        request key and the same disk-cache key as the default."""
        base = canonicalize("characterize", {})
        spelled = canonicalize("characterize",
                               {"cond": {"frequency": 300000000}})
        assert spelled.key == base.key
        assert spelled.params == base.params
        assert spelled.point.key == base.point.key

    def test_passthrough_params_hash_by_content(self):
        a = canonicalize("demo", {"params": {"x": 2.0}})
        b = canonicalize("demo", {"params": {"x": 2.0}})
        c = canonicalize("demo", {"params": {"x": 3.0}})
        assert a.key == b.key
        assert a.key != c.key


class TestValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            canonicalize("characterize", {"vdd": 0.9})

    def test_unknown_nested_field_rejected(self):
        with pytest.raises(ProtocolError, match="bad 'cond'"):
            canonicalize("characterize", {"cond": {"not_a_field": 1}})

    def test_non_integral_int_field_rejected(self):
        with pytest.raises(ProtocolError, match="bad 'domain'"):
            canonicalize("characterize", {"domain": {"n_wordlines": 512.5}})

    def test_boolean_number_rejected(self):
        with pytest.raises(ProtocolError, match="bad 'cond'"):
            canonicalize("characterize", {"cond": {"vdd": True}})

    def test_bad_kind_rejected(self):
        with pytest.raises(ProtocolError, match="kind"):
            canonicalize("characterize", {"kind": "sram9t"})

    def test_bad_class_rejected(self):
        with pytest.raises(ProtocolError, match="class"):
            canonicalize("characterize", {"class": "batch"})

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            canonicalize("characterize", [1, 2])

    def test_non_object_params_rejected(self):
        with pytest.raises(ProtocolError, match="params"):
            canonicalize("demo", {"params": 7})

    def test_deadline_clamped_not_rejected(self):
        assert canonicalize("demo", {"deadline_s": 1e9}).deadline_s == 300.0
        assert canonicalize("demo", {"deadline_s": 0.0}).deadline_s == 0.05

    def test_unparseable_deadline_rejected(self):
        with pytest.raises(ProtocolError, match="deadline_s"):
            canonicalize("demo", {"deadline_s": "soon"})


class TestStatusVocabulary:
    def test_every_status_maps_to_a_real_http_code(self):
        for status, code in STATUS_HTTP.items():
            assert 200 <= code < 600, status

    def test_result_bearing_statuses_are_200(self):
        assert STATUS_HTTP["ok"] == 200
        assert STATUS_HTTP["degraded"] == 200

    def test_backpressure_statuses(self):
        assert STATUS_HTTP["shed"] == 429
        assert STATUS_HTTP["draining"] == 503
        assert STATUS_HTTP["deadline"] == 504
