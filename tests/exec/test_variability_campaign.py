"""Per-sample seeding of the Monte-Carlo analyses.

``sample_rng`` makes each sample's variates a function of its index
alone, so a larger run repeats a smaller one's samples bit for bit
(``tests/characterize/test_variability.py`` checks the analyses end to
end).
"""

import numpy as np

from repro.characterize.variability import sample_rng


class TestSampleRng:
    def test_streams_depend_only_on_index(self):
        a = sample_rng(2015, 3).standard_normal(4)
        b = sample_rng(2015, 3).standard_normal(4)
        c = sample_rng(2015, 4).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
