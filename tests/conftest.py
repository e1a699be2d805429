import numpy as np
import pytest

from curlearn.dataset_io import Dataset, Example


@pytest.fixture
def tiny_dataset():
    examples = [
        Example(id=0, text="great fun movie", label=1),
        Example(id=1, text="dull and boring", label=0),
        Example(id=2, text="a fine effort", label=1),
        Example(id=3, text="rather bad", label=0),
        Example(id=4, text="what a delight", label=1),
    ]
    return Dataset(examples=examples, class_count=2)


def dataset_from_scores(scores):
    """Dataset + ScoreTable pair with the given per-example scores."""
    from curlearn.scoring import ScoreTable

    n = len(scores)
    examples = [Example(id=i, text=f"w{i}", label=i % 2) for i in range(n)]
    ds = Dataset(examples=examples, class_count=2)
    scores = np.asarray(scores, dtype=np.float64)
    dists = np.stack([(1 + scores) / 2, (1 - scores) / 2], axis=1)
    table = ScoreTable(ids=ds.ids, scores=scores, distributions=dists)
    return ds, table
