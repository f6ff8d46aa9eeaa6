import numpy as np

from grf import selfcheck


def test_contraction_check_fails_on_an_overbudget_block(monkeypatch):
    draw, drawn = selfcheck.random_feature_block, []

    def first_one_overbudget(*args, **kwargs):
        block, p = draw(*args, **kwargs)
        if not drawn:
            w = block.weights[0]
            w *= 1.5 / np.linalg.norm(w, 2)
        drawn.append(block)
        return block, p

    monkeypatch.setattr(selfcheck, "random_feature_block", first_one_overbudget)
    result = selfcheck.check_gcn_contraction(n_blocks=2, pairs_per_block=5)
    assert len(drawn) == 2
    assert not result.passed
    assert "max certified bound 1.500000" in result.detail
