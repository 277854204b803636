import numpy as np
import pytest

from augbench.resources import EmbeddingStore
from oracles import synonym_map_from_dict


@pytest.fixture
def synmap():
    return synonym_map_from_dict({
        "bom": ["otimo"],
        "otimo": ["bom", "excelente"],
        "carro": ["automovel", "veiculo"],
        "produto": ["item"],
    })


@pytest.fixture
def tiny_store():
    words = ("a", "b", "c")
    matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return EmbeddingStore(words=words, matrix=matrix)


def write_csv(path, rows, header="text,label"):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)
