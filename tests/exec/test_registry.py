"""Named campaign builders behind ``repro campaign run``."""

import pytest

from repro.exec import CampaignError, available_campaigns, build_campaign


class TestRegistry:
    def test_catalog(self):
        names = available_campaigns()
        assert "demo" in names
        assert "store-yield" in names
        assert "snm" in names
        assert "chaos" in names

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(CampaignError, match="available:"):
            build_campaign("no-such-campaign")

    def test_demo_builder_options(self):
        campaign = build_campaign("demo", tasks=3)
        assert len(campaign) == 3
        assert campaign.name == "demo"

    def test_same_options_same_key(self):
        """Content addressing is what makes CLI --resume line up."""
        assert build_campaign("demo", tasks=3).key == \
            build_campaign("demo", tasks=3).key
        assert build_campaign("demo", tasks=3).key != \
            build_campaign("demo", tasks=4).key

    def test_store_yield_builder(self):
        campaign = build_campaign("store-yield", samples=5, seed=1)
        assert len(campaign) == 5

    def test_chaos_builder_requires_scratch(self):
        with pytest.raises(CampaignError, match="scratch"):
            build_campaign("chaos")

    def test_chaos_builder(self, tmp_path):
        campaign = build_campaign("chaos", scratch=str(tmp_path))
        assert campaign.name == "exec-chaos"


class TestTaskFunctionRefs:
    """Every named campaign ships a task reference its workers can
    import: the executor resolves it in the parent before spawning."""

    def test_refs_resolve_to_real_functions(self, tmp_path):
        for name in available_campaigns():
            campaign = build_campaign(name, tasks=1, samples=1,
                                      scratch=str(tmp_path))
            assert callable(campaign.resolve_fn()), name
