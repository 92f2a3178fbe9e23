import copy
import pickle

import pytest

from bistoch import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = [errors.BistochError, *_subclasses(errors.BistochError)]

# constructor arguments of each error; one without its own __init__ takes a message
ARGUMENTS = {
    "BistochError": ("a message",),
    "DegenerateEdge": (1, 2),
    "AbsorbingState": (3,),
    "Reducible": ("the rate graph has 2 components",),
    "ZeroConductanceCrossing": (4, 1),
    "InsufficientReplicas": (10, 1000),
    "NotPositiveDefinite": (-1.5e-3,),
    "DenseCapExceeded": (2048, 1024),
    "NoConvergence": (3, 1e-3),
    "InconsistentRHS": (0.25,),
    "NonzeroFlux": (1, 0.5),
    "NotDivergenceFree": (7, 2.5e-9),
    "InvalidEnvironment": ("bad file",),
    "ConfigError": ("a.b", "bad"),
}


def test_every_error_has_arguments():
    assert sorted(cls.__name__ for cls in ERRORS) == sorted(ARGUMENTS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_an_error_survives_pickle_and_copy(cls):
    # a worker process sends its error to the caller pickled, and reports
    # print the message: both must come back unchanged
    error = cls(*ARGUMENTS[cls.__name__])
    copies = [pickle.loads(pickle.dumps(error, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for got in [*copies, copy.copy(error)]:
        assert type(got) is cls
        assert vars(got) == vars(error)
        assert str(got) == str(error)
