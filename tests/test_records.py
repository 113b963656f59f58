"""The package's record classes: construction, validation, equality, hash,
repr and immutability, one table row per class.

The records are plain classes; importing the package must not load
``dataclasses`` (or ``inspect``, which it pulls in).
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import raagcrypt
from raagcrypt.auth import (
    AuthError,
    HomKeyPair,
    RoundState,
    SubKeyPair,
    Transcript,
    hom_keygen,
    sub_keygen,
)
from raagcrypt.bench import BenchPoint, BenchResult
from raagcrypt.graphs import GraphError, SimplicialGraph, VertexMap, VertexSubset
from raagcrypt.raag import Piling, Raag
from raagcrypt.sharing import DealerSetupNN, ShamirSetup, ShareNN, ShareTN, SharingError

# a triangle a-b-c and an isolated d
G = SimplicialGraph(("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("a", "c")])
P2 = SimplicialGraph(("x", "y"), [("x", "y")])
HOM = hom_keygen(4, 4, 1)
SUB = sub_keygen(6, 2, 1)
WORDS = ((("a", 1), ("a", -1)), (("b", 1),))

# class, field names in declaration order, positional arguments, frozen
RECORDS = [
    (VertexSubset, ("parent", "members"), (G, frozenset({"a", "b"})), True),
    (VertexMap, ("source", "target", "assignment"), (P2, G, {"x": "a", "y": "b"}), True),
    (Piling, ("stacks",), (((), (1, 2), (), ()),), True),
    (Raag, ("graph",), (G,), True),
    (HomKeyPair, ("g1", "g2", "alpha"), (HOM.g1, HOM.g2, HOM.alpha), True),
    (SubKeyPair, ("ambient", "s1", "s2", "alpha"), (SUB.ambient, SUB.s1, SUB.s2, SUB.alpha),
     True),
    (RoundState, ("commitment", "session", "challenge", "response", "verdict"),
     (P2, {"x": "a"}, 1, {"x": "b"}, True), False),
    (Transcript, ("scheme", "rounds", "accept"), ("hom", (RoundState(P2, None),), False), True),
    (ShamirSetup, ("p", "t", "n", "k", "secret", "coefficients"), (11, 2, 3, 4, 5, (5, 3)),
     True),
    (DealerSetupNN, ("n", "k", "generators", "participant_graphs"),
     (2, 3, G.vertices, (G, G)), True),
    (ShareNN, ("participant", "graph", "words"), (2, G, WORDS), True),
    (ShareTN, ("participant", "graph", "words", "p", "t"), (2, G, WORDS, 11, 2), True),
    (BenchPoint, ("length", "samples"), (400, (0.25, 0.75)), True),
    (BenchResult, ("points", "slope"), ((BenchPoint(400, (0.5,)),), 1.0), True),
]
IDS = [row[0].__name__ for row in RECORDS]


def field_values(record, fields):
    return tuple(getattr(record, f) for f in fields)


@pytest.mark.parametrize("cls, fields, args, frozen", RECORDS, ids=IDS)
def test_construct_by_position_and_keyword(cls, fields, args, frozen):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert field_values(by_position, fields) == field_values(by_keyword, fields)
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})


def test_round_state_defaults():
    state = RoundState(P2, None)
    assert (state.challenge, state.response, state.verdict) == (None, None, None)
    assert RoundState(commitment=P2, session=None) == state
    with pytest.raises(TypeError):
        RoundState(P2)
    # the only record with defaults
    for cls, fields, args, _ in RECORDS:
        if cls is not RoundState:
            with pytest.raises(TypeError):
                cls(*args[:-1])


@pytest.mark.parametrize("cls, fields, args, frozen", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, args, frozen):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    try:
        hash(field_values(a, fields))
    except TypeError:
        hashable = False
    else:
        hashable = cls is not RoundState
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, fields, args, frozen", RECORDS, ids=IDS)
def test_other_classes_never_compare_equal(cls, fields, args, frozen):
    record = cls(*args)
    subclass = type("Sub" + cls.__name__, (cls,), {})
    assert record != subclass(*args) and subclass(*args) != record
    assert record != field_values(record, fields)
    assert record != object()
    for other_cls, _, other_args, _ in RECORDS:
        if other_cls is not cls:
            assert record != other_cls(*other_args)


@pytest.mark.parametrize("cls, fields, args, frozen", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, fields, args, frozen):
    record = cls(*args)
    body = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{cls.__qualname__}({body})"


def test_repr_literal():
    assert repr(Piling(((), (1,)))) == "Piling(stacks=((), (1,)))"
    assert repr(BenchPoint(3, (0.5,))) == "BenchPoint(length=3, samples=(0.5,))"
    assert repr(RoundState(P2, None)) == (
        "RoundState(commitment=SimplicialGraph(2 vertices, 1 edges), session=None, "
        "challenge=None, response=None, verdict=None)")


@pytest.mark.parametrize("cls, fields, args, frozen", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(cls, fields, args, frozen):
    record = cls(*args)
    for f, value in zip(fields, args):
        if frozen:
            with pytest.raises(AttributeError):
                setattr(record, f, value)
            with pytest.raises(AttributeError):
                delattr(record, f)
        else:
            setattr(record, f, None)
            assert getattr(record, f) is None
    assert field_values(record, fields) == (args if frozen else (None,) * len(fields))


@pytest.mark.parametrize("cls, fields, args, frozen", RECORDS, ids=IDS)
def test_copy_and_pickle_keep_the_fields(cls, fields, args, frozen):
    record = cls(*args)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


def test_raag_generators_are_the_graph_vertices():
    assert Raag(G).generators == G.vertices


def test_record_conveniences():
    s = VertexSubset(G, iter(["c", "a"]))
    assert s.members == frozenset({"a", "c"}) and len(s) == 2
    assert s.ordered() == ("a", "c") and s.ordered() is s.ordered()
    f = VertexMap(P2, G, {"x": "a", "y": "b"})
    assert f("y") == "b"
    assert f.compose(VertexMap(G, G, {v: v for v in G.vertices})) == f
    assert Piling(((), ())).is_empty() and not Piling(((1,), ())).is_empty()
    assert BenchPoint(1, (0.25, 0.75)).mean == 0.5
    assert ShamirSetup(11, 2, 3, 4, 5, (5, 3)).evaluate(2) == 0
    assert (ShareNN.scheme, ShareNN.header) == ("nn", ("participant", "k"))
    assert (ShareTN.scheme, ShareTN.header) == ("tn", ("participant", "k", "p", "t"))


@pytest.mark.parametrize("build, error, message", [
    (lambda: VertexSubset(G, ["a", "zz"]), GraphError, "subset member 'zz' is not a vertex"),
    (lambda: VertexMap(P2, G, {"x": "a"}), GraphError, "missing source vertex 'y'"),
    (lambda: VertexMap(P2, G, {"x": "a", "y": "b", "q": "a"}), GraphError,
     "key 'q' is not a source vertex"),
    (lambda: VertexMap(P2, G, {"x": "a", "y": "zz"}), GraphError,
     "image 'zz' of 'y' is not a target vertex"),
    (lambda: HomKeyPair(HOM.g2, HOM.g2, HOM.alpha), AuthError,
     "private map must go from g1 to g2"),
    (lambda: HomKeyPair(P2, G, VertexMap(P2, G, {"x": "d", "y": "a"})), AuthError,
     "private map is not a graph homomorphism"),
    (lambda: HomKeyPair(P2, P2, VertexMap(P2, P2, {"x": "y", "y": "x"})), AuthError,
     "g2 must contain a triangle"),
    (lambda: SubKeyPair(SUB.ambient, SUB.s1, VertexSubset(SUB.ambient, ["v0"]), SUB.alpha),
     AuthError, "subgroup generating sets must have equal size"),
    (lambda: SubKeyPair(SUB.ambient, SUB.s1, SUB.s2, {}), AuthError,
     "private bijection is malformed"),
    (lambda: SubKeyPair(G, VertexSubset(G, ["a", "b"]), VertexSubset(G, ["c", "d"]),
                        {"a": "c", "b": "d"}),
     AuthError, "private bijection does not preserve the induced structure"),
    (lambda: ShamirSetup(12, 2, 3, 4, 5, (5,)), SharingError, "12 is not prime"),
    (lambda: ShamirSetup(11, 1, 3, 4, 5, (5,)), SharingError, "threshold must be at least 2"),
    (lambda: ShamirSetup(11, 4, 3, 4, 5, (5,)), SharingError, "threshold must not exceed n"),
    (lambda: ShamirSetup(11, 2, 3, 4, 11, (11,)), SharingError, "secret must lie in Z_p"),
    (lambda: ShamirSetup(11, 2, 3, 3, 5, (5,)), SharingError, "k=3 too small"),
    (lambda: ShamirSetup(11, 2, 3, 4, 5, (5, 1, 1)), SharingError,
     "polynomial degree exceeds t-1"),
    (lambda: ShamirSetup(11, 2, 3, 4, 5, (4,)), SharingError,
     "constant term must equal the secret"),
    (lambda: DealerSetupNN(1, 3, G.vertices, (G,)), SharingError,
     "need at least 2 participants"),
    (lambda: DealerSetupNN(2, 0, G.vertices, (G, G)), SharingError,
     "column length must be at least 1"),
    (lambda: DealerSetupNN(2, 3, G.vertices, (G,)), SharingError,
     "need one secret graph per participant"),
    (lambda: DealerSetupNN(2, 3, (), (G, G)), SharingError,
     "need at least one public generator"),
    (lambda: DealerSetupNN(2, 3, G.vertices, (G, P2)), GraphError,
     "participant graph must use exactly the public generators"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_import_loads_no_dataclasses():
    root = str(Path(raagcrypt.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {root!r}); import raagcrypt.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    # -I ignores the environment and user site; -S skips site, which may preload modules
    result = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
