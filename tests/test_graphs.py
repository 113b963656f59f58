import hashlib
import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations

import pytest

from conftest import (
    brute_force_homomorphism_exists,
    brute_force_induced_isomorphism_exists,
    brute_force_three_colorable,
    reference_forward_check,
)
from raagcrypt import auth, graphs
from raagcrypt.graphs import (
    GraphError,
    SearchBudgetExceeded,
    SimplicialGraph,
    VertexMap,
    VertexSubset,
    find_graph_homomorphism,
    find_induced_subgraph_isomorphism,
    format_graph,
    induced_subgraph,
    parse_graph,
    random_graph,
    triangle_vertices,
    validate_graph,
    verify_graph_homomorphism,
    verify_induced_subgraph_isomorphism,
)


def triangle() -> SimplicialGraph:
    return SimplicialGraph(("t0", "t1", "t2"), [("t0", "t1"), ("t1", "t2"), ("t0", "t2")])


def cycle(n: int) -> SimplicialGraph:
    verts = tuple(f"c{i}" for i in range(n))
    return SimplicialGraph(verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)])


def complete(n: int) -> SimplicialGraph:
    verts = tuple(f"k{i}" for i in range(n))
    return SimplicialGraph(verts, [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)])


class TestValidateGraph:
    def test_minimal_valid_edge(self):
        assert validate_graph(["a", "b"], [("a", "b")]) == []

    def test_loop_rejected(self):
        violations = validate_graph(["a"], [("a", "a")])
        assert len(violations) == 1 and "loop" in violations[0]

    def test_dangling_endpoint(self):
        violations = validate_graph(["a"], [("a", "b")])
        assert len(violations) == 1 and "undeclared" in violations[0]

    def test_edge_with_three_endpoints(self):
        violations = validate_graph(["a", "b", "c"], [("a", "b", "c")])
        assert violations == ["edge ('a', 'b', 'c') does not have exactly two endpoints"]

    def test_duplicates(self):
        assert any("duplicate vertex" in v for v in validate_graph(["a", "a"], []))
        assert any("duplicate edge" in v
                   for v in validate_graph(["a", "b"], [("a", "b"), ("b", "a")]))

    def test_bad_labels(self):
        assert validate_graph(["a b"], [])
        assert validate_graph(["a^x"], [])
        assert validate_graph([""], [])

    def test_constructor_enforces(self):
        with pytest.raises(GraphError):
            SimplicialGraph(("a",), [("a", "a")])


class TestInducedSubgraph:
    def test_triangle_pair(self):
        g = triangle()
        sub = induced_subgraph(g, ["t0", "t1"])
        assert sub.vertices == ("t0", "t1")
        assert sub.edges == frozenset({frozenset(("t0", "t1"))})

    def test_identity_case(self):
        g = SimplicialGraph(("v0", "v1"), [("v0", "v1")])
        assert induced_subgraph(g, ["v0", "v1"]) == g

    def test_path_endpoints_lose_edge(self):
        g = SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
        sub = induced_subgraph(g, ["a", "c"])
        assert sub.vertices == ("a", "c") and not sub.edges

    def test_outside_member_rejected(self):
        with pytest.raises(GraphError):
            induced_subgraph(triangle(), ["t0", "zz"])

    def test_subset_of_wrong_parent_rejected(self):
        s = VertexSubset(triangle(), ["t0"])
        with pytest.raises(GraphError):
            induced_subgraph(cycle(4), s)


class TestFullSubgraph:
    def test_induced_is_always_full(self):
        rng = random.Random(4)
        for _ in range(200):
            g = random_graph(rng.randint(0, 7), rng.random(), rng.getrandbits(32))
            members = [v for v in g.vertices if rng.random() < 0.5]
            assert induced_subgraph(g, members).edges == {e for e in g.edges if e <= set(members)}


class TestVerifyHomomorphism:
    def test_identity(self):
        g = cycle(5)
        f = VertexMap(g, g, {v: v for v in g.vertices})
        assert verify_graph_homomorphism(f)

    def test_five_cycle_to_triangle(self):
        c5, t = cycle(5), triangle()
        f = VertexMap(c5, t, {"c0": "t0", "c1": "t1", "c2": "t2", "c3": "t0", "c4": "t1"})
        assert verify_graph_homomorphism(f)

    def test_collapsing_an_edge_fails(self):
        g = SimplicialGraph(("a", "b"), [("a", "b")])
        f = VertexMap(g, triangle(), {"a": "t0", "b": "t0"})
        assert not verify_graph_homomorphism(f)

    def test_closed_under_composition(self):
        rng = random.Random(11)
        found = 0
        while found < 50:
            a = random_graph(rng.randint(1, 5), rng.random(), rng.getrandbits(32))
            b = random_graph(rng.randint(3, 6), rng.random() * 0.5 + 0.5, rng.getrandbits(32))
            c = complete(rng.randint(3, 5))
            f = find_graph_homomorphism(a, b, budget=200_000)
            h = find_graph_homomorphism(b, c, budget=200_000)
            if f is None or h is None:
                continue
            found += 1
            composite = f.compose(h)
            assert composite.source == a and composite.target == c
            assert verify_graph_homomorphism(composite)

    def test_empty_map_verifies(self):
        empty = SimplicialGraph(())
        assert verify_graph_homomorphism(VertexMap(empty, triangle(), {}))

    def test_map_errors_name_the_first_culprit(self):
        c3, t = cycle(3), triangle()
        with pytest.raises(GraphError, match="^assignment missing source vertex 'c1'$"):
            VertexMap(c3, t, {"c0": "t0", "x": "t1", "c2": "t2"})
        with pytest.raises(GraphError, match="^assignment key 'x' is not a source vertex$"):
            VertexMap(c3, t, {"x": "t0", "c0": "t0", "c1": "t1", "c2": "t2"})
        with pytest.raises(GraphError, match="^image 'c0' of 'c1' is not a target vertex$"):
            VertexMap(c3, t, {"c0": "t0", "c1": "c0", "c2": "x"})


class TestFindHomomorphism:
    def test_five_cycle_is_three_colorable(self):
        f = find_graph_homomorphism(cycle(5), triangle())
        assert f is not None and verify_graph_homomorphism(f)

    def test_k4_is_not_three_colorable(self):
        assert find_graph_homomorphism(complete(4), triangle()) is None

    def test_graph_to_itself(self):
        g = cycle(6)
        f = find_graph_homomorphism(g, g)
        assert f is not None and verify_graph_homomorphism(f)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            find_graph_homomorphism(cycle(5), triangle(), budget=0)

    def test_budget_exhaustion_is_distinct(self):
        with pytest.raises(SearchBudgetExceeded):
            find_graph_homomorphism(complete(5), triangle(), budget=3)

    def test_empty_source(self):
        f = find_graph_homomorphism(SimplicialGraph(()), triangle())
        assert f is not None and f.assignment == {}

    def test_search_deeper_than_the_recursion_limit(self):
        # one search depth per source vertex, past Python's default limit of 1,000 frames
        source = SimplicialGraph(tuple(f"x{i}" for i in range(1100)))
        f = find_graph_homomorphism(source, triangle())
        assert f is not None and verify_graph_homomorphism(f)
        assert set(f.assignment.values()) == {"t0"}  # lowest target index first
        with pytest.raises(SearchBudgetExceeded):
            find_graph_homomorphism(source, triangle(), budget=1050)

    def test_agrees_with_brute_force_search(self):
        rng = random.Random(21)
        for _ in range(200):
            source = random_graph(rng.randint(1, 5), rng.random(), rng.getrandbits(32))
            target = random_graph(rng.randint(1, 4), rng.random(), rng.getrandbits(32))
            f = find_graph_homomorphism(source, target, budget=10**6)
            assert (f is not None) == brute_force_homomorphism_exists(source, target)
            if f is not None:
                assert verify_graph_homomorphism(f)

    def test_search_verify_agreement_on_random_instances(self):
        rng = random.Random(33)
        for _ in range(1000):
            source = random_graph(rng.randint(0, 7), rng.random(), rng.getrandbits(32))
            f = find_graph_homomorphism(source, triangle(), budget=10**6)
            if f is not None:
                assert verify_graph_homomorphism(f)
            else:
                assert not brute_force_three_colorable(source)


class TestInducedIsomorphism:
    def test_disjoint_edges(self):
        g = SimplicialGraph(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        assert verify_induced_subgraph_isomorphism(g, ["a", "b"], ["c", "d"],
                                                   {"a": "c", "b": "d"})

    def test_edge_to_nonedge_fails(self):
        g = SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
        assert not verify_induced_subgraph_isomorphism(g, ["a", "b"], ["a", "c"],
                                                       {"a": "a", "b": "c"})

    def test_identity(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng.randint(1, 6), rng.random(), rng.getrandbits(32))
            members = [v for v in g.vertices if rng.random() < 0.6]
            ident = {v: v for v in members}
            assert verify_induced_subgraph_isomorphism(g, members, members, ident)

    def test_non_bijection_rejected(self):
        g = SimplicialGraph(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        with pytest.raises(GraphError):
            verify_induced_subgraph_isomorphism(g, ["a", "b"], ["c", "d"],
                                                {"a": "c", "b": "c"})
        with pytest.raises(GraphError):
            verify_induced_subgraph_isomorphism(g, ["a", "b"], ["c", "d"], {"a": "c"})

    def test_verify_agrees_with_pairwise_check(self):
        # overlapping subsets and bijections that are not isomorphisms
        rng = random.Random(77)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            g = random_graph(rng.randint(1, 12), rng.random(), rng.getrandbits(32))
            k = rng.randint(0, len(g.vertices))
            s1, s2 = rng.sample(g.vertices, k), rng.sample(g.vertices, k)
            f = dict(zip(s1, s2))
            pairwise = all(g.has_edge(u, v) == g.has_edge(f[u], f[v])
                           for u, v in combinations(s1, 2))
            assert verify_induced_subgraph_isomorphism(g, s1, s2, f) == pairwise
            assert verify_induced_subgraph_isomorphism(g, VertexSubset(g, s1),
                                                       VertexSubset(g, s2), f) == pairwise
            verdicts[pairwise] += 1
        assert min(verdicts.values()) > 100  # both verdicts are exercised

    def test_verify_errors(self):
        g = SimplicialGraph(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        for s1, s2, f, needle in [
                (["a", "b"], ["c", "d"], {"a": "c", "b": "d", "c": "a"}, "first subset"),
                (["a", "b"], ["c", "d"], {"a": "c", "b": "a"}, "bijection"),
                (["a", "b"], ["c", "d", "a"], {"a": "c", "b": "d"}, "bijection"),
                (["a", "b"], ["c"], {"a": "c", "b": "c"}, "bijection"),
                (["a", "zz"], ["c", "d"], {"a": "c", "zz": "d"}, "'zz' is not a vertex"),
                (["a", "b"], ["c", "yy"], {"a": "c", "b": "yy"}, "'yy' is not a vertex"),
                (VertexSubset(cycle(4), ["c0"]), ["c"], {"c0": "c"}, "different parent")]:
            with pytest.raises(GraphError, match=needle):
                verify_induced_subgraph_isomorphism(g, s1, s2, f)

    def test_subset_member_errors(self):
        g = SimplicialGraph(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        for s in (["a", "zz", "b", "yy"], ("a", "zz", "yy"), iter(["zz", "a", "yy"])):
            with pytest.raises(GraphError, match="'zz' is not a vertex"):
                find_induced_subgraph_isomorphism(g, s, ["a", "b"])
        foreign = VertexSubset(SimplicialGraph(("a", "b")), ["a", "b"])
        with pytest.raises(GraphError, match="different parent"):
            find_induced_subgraph_isomorphism(g, foreign, ["c", "d"])
        with pytest.raises(GraphError, match="different parent"):
            find_induced_subgraph_isomorphism(g, ["c", "d"], foreign)
        # an iterator is read once: a valid one still gives its members
        assert find_induced_subgraph_isomorphism(g, iter(["b", "a"]), iter(["d", "c"])) == {
            "a": "c", "b": "d"}

    def test_bare_string_is_not_a_subset(self):
        # a string is refused, not read as its characters, even where they are vertices
        g = SimplicialGraph(("a", "b", "c", "d", "v0"), [("a", "b"), ("c", "d")])
        needle = "is a string, not a collection of vertex labels"
        for subset in ("v0", "ab"):
            with pytest.raises(GraphError, match=f"subset '{subset}' {needle}"):
                VertexSubset(g, subset)
            with pytest.raises(GraphError, match=needle):
                induced_subgraph(g, subset)
        with pytest.raises(GraphError, match="subset 'ab' " + needle):
            find_induced_subgraph_isomorphism(g, "ab", ["c", "d"])
        with pytest.raises(GraphError, match="subset 'cd' " + needle):
            find_induced_subgraph_isomorphism(g, ["a", "b"], "cd")
        with pytest.raises(GraphError, match=needle):
            verify_induced_subgraph_isomorphism(g, "ab", "cd", {"a": "c", "b": "d"})
        # a one-label list still names the label
        assert VertexSubset(g, ["v0"]).members == frozenset({"v0"})

    def test_stranger_named_in_the_order_given(self):
        # a frozenset's order follows the hash seed; the error, which a key
        # file's reader passes on, must not
        code = textwrap.dedent("""\
            from raagcrypt.auth import AuthError, parse_public_key
            from raagcrypt.graphs import GraphError, VertexSubset, random_graph
            try:
                VertexSubset(random_graph(3, 0.5, 1), ["v0", "zz", "yy", "xx"])
            except GraphError as e:
                print(e)
            try:
                parse_public_key("scheme sub\\ngraph ambient\\nvertices a b\\n"
                                 "subset s1 a zz yy xx\\nsubset s2 b\\n")
            except AuthError as e:
                print(e)
            """)
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(graphs.__file__)))
        inherited = os.environ.get("PYTHONPATH")
        path = package_root + (os.pathsep + inherited if inherited else "")
        message = "subset member 'zz' is not a vertex of the parent graph"
        for seed in ("0", "4242"):
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                                 check=True).stdout
            assert out == f"{message}\nbad subset in key file: {message}\n"

    def test_find_size_mismatch_returns_none(self):
        g = cycle(5)
        assert find_induced_subgraph_isomorphism(g, ["c0", "c1"], ["c2"]) is None

    def test_find_identity_on_equal_subsets(self):
        g = cycle(6)
        members = ["c0", "c2", "c3"]
        assert find_induced_subgraph_isomorphism(g, members, members) == {v: v for v in members}

    def test_find_result_verifies(self):
        rng = random.Random(17)
        hits = 0
        for _ in range(300):
            g = random_graph(rng.randint(2, 7), rng.random(), rng.getrandbits(32))
            k = rng.randint(1, max(1, len(g.vertices) // 2))
            picks = rng.sample(list(g.vertices), min(2 * k, len(g.vertices)))
            s1, s2 = picks[:k], picks[k:2 * k]
            if len(s2) < k:
                continue
            f = find_induced_subgraph_isomorphism(g, s1, s2, budget=10**6)
            if f is not None:
                hits += 1
                assert verify_induced_subgraph_isomorphism(g, s1, s2, f)
        assert hits > 20  # the corpus really exercises the success path

    def test_find_agrees_with_brute_force(self):
        # completeness as well as soundness: a search that prunes a
        # solvable instance to None fails here
        rng = random.Random(29)
        outcomes = {True: 0, False: 0}
        for _ in range(400):
            g = random_graph(rng.randint(2, 8), rng.random(), rng.getrandbits(32))
            k = rng.randint(1, min(4, len(g.vertices) // 2))
            picks = rng.sample(list(g.vertices), 2 * k)
            s1, s2 = picks[:k], picks[k:]
            f = find_induced_subgraph_isomorphism(g, s1, s2, budget=10**6)
            exists = brute_force_induced_isomorphism_exists(g, s1, s2)
            assert (f is not None) == exists, (format_graph(g), s1, s2)
            if f is not None:
                assert verify_induced_subgraph_isomorphism(g, s1, s2, f)
            outcomes[exists] += 1
        assert min(outcomes.values()) > 50  # both outcomes are exercised

    def test_find_deeper_than_the_recursion_limit(self):
        # a path on 1,050 vertices onto itself: forward checking forces the
        # identity from the first endpoint, one search depth per member
        path = SimplicialGraph(tuple(f"p{i}" for i in range(1050)),
                               [(f"p{i}", f"p{i + 1}") for i in range(1049)])
        members = list(path.vertices)
        f = find_induced_subgraph_isomorphism(path, members, members[::-1])
        assert f == {v: v for v in members}

    def test_find_budget(self):
        g = complete(8)
        with pytest.raises(SearchBudgetExceeded):
            find_induced_subgraph_isomorphism(g, list(g.vertices[:4]), list(g.vertices[4:]),
                                              budget=2)
        with pytest.raises(ValueError):
            find_induced_subgraph_isomorphism(g, ["k0"], ["k1"], budget=0)


class TestSearchGolden:
    # a digest over the maps both searches return on planted and random
    # instances, their None outcomes, and which calls run out of a small
    # budget: a change that only speeds the searches up leaves it as is
    DIGEST = "b8cd9a4cf42415c13426cf61ee6db9ae504eafff8f6c5e58f71313e9b40881cb"

    def test_search_outcomes_are_pinned(self):
        h = hashlib.sha256()

        def add(call):
            try:
                out = call()
            except SearchBudgetExceeded:
                out = "budget"
            if isinstance(out, VertexMap):
                out = out.assignment
            if isinstance(out, dict):
                out = " ".join(f"{u}>{v}" for u, v in out.items())
            h.update(f"{out}\n".encode())

        rng = random.Random(1313)
        budgets = (1, 2, 3, 5, 8, 13, 40, 120)
        for n1, n2, seeds in [(8, 8, 8), (16, 16, 6), (24, 32, 2)]:
            for seed in range(1, seeds + 1):
                key = auth.hom_keygen(n1, n2, seed)
                for budget in (10**6, rng.choice(budgets)):
                    add(lambda: find_graph_homomorphism(key.g1, key.g2, budget=budget))
        for n, m, seeds in [(16, 7, 6), (32, 12, 6), (64, 24, 2)]:
            for seed in range(1, seeds + 1):
                key = auth.sub_keygen(n, m, seed)
                given = (key.s1, key.s2), (sorted(key.s1.members, reverse=True), key.s2.members)
                for s1, s2 in given:
                    for budget in (10**6, rng.choice(budgets)):
                        add(lambda: find_induced_subgraph_isomorphism(key.ambient, s1, s2,
                                                                      budget=budget))
        for _ in range(300):
            source = random_graph(rng.randint(0, 8), rng.random(), rng.getrandbits(32))
            target = random_graph(rng.randint(1, 6), rng.random(), rng.getrandbits(32))
            for budget in (10**6, rng.choice(budgets)):
                add(lambda: find_graph_homomorphism(source, target, budget=budget))
        for _ in range(300):
            g = random_graph(rng.randint(1, 14), rng.random(), rng.getrandbits(32))
            k = rng.randint(0, len(g.vertices))
            # overlapping subsets, and now and then sizes that differ
            s1 = rng.sample(g.vertices, k)
            s2 = rng.sample(g.vertices, k if rng.random() < 0.9 else rng.randint(0, k))
            for budget in (10**6, rng.choice(budgets)):
                add(lambda: find_induced_subgraph_isomorphism(g, s1, s2, budget=budget))
        assert h.hexdigest() == self.DIGEST


class TestForwardCheckReference:
    """The search reproduces ``reference_forward_check`` on the inputs both finders build."""

    @staticmethod
    def _outcome(search, args, budget):
        try:
            return search(*args, budget, "test")
        except SearchBudgetExceeded as e:
            return str(e)

    def test_forward_check_matches_reference(self, monkeypatch):
        rng = random.Random(2424)
        calls = []  # (masks, domains, on, off) as each finder passes them
        monkeypatch.setattr(graphs, "_forward_check",
                            lambda *args: calls.append(args[:4]) or (None, 0))
        for _ in range(350):  # all-ones domains; none at all on an empty target
            source = random_graph(rng.randint(0, 14), rng.random(), rng.getrandbits(32))
            target = random_graph(rng.randint(0, 20), rng.random(), rng.getrandbits(32))
            find_graph_homomorphism(source, target)
        for _ in range(175):  # planted keys: degree-filtered domains that hold a map
            m = rng.randint(1, 14)
            key = auth.sub_keygen(rng.randint(2 * m, 40), m, rng.getrandbits(32))
            find_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2)
        for _ in range(175):  # overlapping random subsets: often an empty domain
            g = random_graph(rng.randint(2, 40), rng.random(), rng.getrandbits(32))
            k = rng.randint(0, min(14, len(g.vertices)))
            find_induced_subgraph_isomorphism(g, rng.sample(g.vertices, k),
                                              rng.sample(g.vertices, k))
        monkeypatch.undo()
        assert len(calls) == 700
        for args in calls:
            for budget in (1, rng.randint(2, 12), 10**5):
                assert (self._outcome(graphs._forward_check, args, budget)
                        == self._outcome(reference_forward_check, args, budget))


class TestRandomGraph:
    def test_empty(self):
        g = random_graph(0, 0.7, 1)
        assert g.vertices == () and not g.edges

    def test_probability_one_gives_complete(self):
        g = random_graph(5, 1.0, 99)
        assert len(g.edges) == 10

    def test_probability_zero_gives_isolated(self):
        g = random_graph(5, 0.0, 99)
        assert not g.edges

    def test_reproducible_bytes(self):
        a = format_graph(random_graph(9, 0.4, 1234))
        b = format_graph(random_graph(9, 0.4, 1234))
        assert a == b
        assert format_graph(random_graph(9, 0.4, 1235)) != a

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_graph(-1, 0.5, 0)
        with pytest.raises(ValueError):
            random_graph(3, 1.5, 0)

    def test_triangle_helper(self):
        assert triangle_vertices(complete(4)) is not None
        assert triangle_vertices(cycle(5)) is None


class TestTextFormats:
    def test_graph_round_trip(self):
        rng = random.Random(8)
        for _ in range(50):
            g = random_graph(rng.randint(0, 8), rng.random(), rng.getrandbits(32))
            assert parse_graph(format_graph(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nvertices a b c\n# another\nedge a b\n\nedge b c\n"
        g = parse_graph(text)
        assert g.vertices == ("a", "b", "c") and len(g.edges) == 2

    def test_parse_errors(self):
        with pytest.raises(GraphError):
            parse_graph("edge a b\n")  # no vertices line
        with pytest.raises(GraphError):
            parse_graph("vertices a\nvertices b\n")
        with pytest.raises(GraphError):
            parse_graph("vertices a b\nedge a\n")
        with pytest.raises(GraphError):
            parse_graph("vertices a b\nfrobnicate a b\n")
        with pytest.raises(GraphError):
            parse_graph("vertices a\nedge a a\n")


def _reference_case(rng: random.Random):
    """Random graph data as plain sets: 0-40 vertices, density 0.1-0.9,
    declared in shuffled label order, edges listed in random order and
    orientation."""
    n = rng.randint(0, 40)
    p = rng.uniform(0.1, 0.9)
    vertices = [f"x{k}" for k in range(n)]
    rng.shuffle(vertices)
    edges = {frozenset((vertices[i], vertices[j]))
             for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    listed = [tuple(e) if rng.random() < 0.5 else tuple(e)[::-1] for e in edges]
    rng.shuffle(listed)
    return tuple(vertices), edges, listed


class TestMaskCore:
    """The int bitmasks are the only edge store; every other view is derived."""

    def test_views_match_plain_set_reference(self):
        rng = random.Random(606)
        for _ in range(300):
            vertices, edges, listed = _reference_case(rng)
            g = SimplicialGraph(vertices, listed)
            index = {v: i for i, v in enumerate(vertices)}
            adjacency = {v: frozenset(u for u in vertices if frozenset((u, v)) in edges)
                         for v in vertices}
            assert g.edges == frozenset(edges)
            assert g.adjacency == adjacency
            assert g.nonneighbors() == tuple(
                tuple(j for j, u in enumerate(vertices) if u != v and u not in adjacency[v])
                for v in vertices)
            assert g.adjacency_masks() == tuple(sum(1 << index[u] for u in adjacency[v])
                                                for v in vertices)
            assert g.edge_list() == sorted((tuple(sorted(e, key=index.__getitem__)) for e in edges),
                                           key=lambda e: (index[e[0]], index[e[1]]))
            for u in vertices[:5]:
                for v in vertices[:5]:
                    assert g.has_edge(u, v) == (frozenset((u, v)) in edges)
                assert not g.has_edge(u, "unknown") and not g.has_edge("unknown", u)
            same = SimplicialGraph(vertices, reversed(listed))
            assert g == same and hash(g) == hash(same)
            if len(vertices) >= 2:
                u, v = vertices[0], vertices[1]
                toggled = edges ^ {frozenset((u, v))}
                assert g != SimplicialGraph(vertices, [tuple(e) for e in toggled])
                assert g != SimplicialGraph(vertices[::-1], listed)

    def test_never_equal_to_another_type(self):
        g = SimplicialGraph(("a", "b"), [("a", "b")])
        assert g.__eq__(g.vertices) is NotImplemented
        assert g != g.vertices and g != g.edges and g != object()

    @staticmethod
    def _pulled_back(g, labels):
        """The plain reference for ``_induced_masks``: one ``has_edge`` per position pair."""
        return tuple(sum(1 << j for j, w in enumerate(labels) if g.has_edge(v, w))
                     for v in labels)

    def test_induced_masks_match_has_edge_reference(self):
        rng = random.Random(707)
        cases = [SimplicialGraph(vertices, listed)
                 for vertices, _, listed in (_reference_case(rng) for _ in range(200))]
        # both sides of the 256-vertex split: translate tables below it, the bit walk above
        cases += [random_graph(n, 0.3, n) for n in (255, 256, 257, 300)]
        for g in cases:
            vs = g.vertices
            drawn = [rng.choice(vs) for _ in range(rng.randint(1, 2 * len(vs)))] if vs else []
            for labels in (drawn, list(vs), list(vs[:1]), list(vs[:1]) * 3, []):
                expected = self._pulled_back(g, labels)
                assert g._induced_masks(labels) == expected
                assert g._induced_masks(iter(labels)) == expected  # read once

    def test_row_tables_outlive_the_memo(self):
        # a graph keeps its own rows' tables from its first pullback; a later pullback must
        # give the same masks after the memo is emptied, and above 256 vertices no tuple is kept
        rng = random.Random(808)
        for n in (1, 255, 256, 257):
            g = random_graph(n, 0.3, n)
            for _ in range(2):
                labels = [rng.choice(g.vertices) for _ in range(rng.randint(1, 2 * n))]
                assert g._induced_masks(labels) == self._pulled_back(g, labels)
                graphs._row_table.cache_clear()
            assert ("_row_tables" in vars(g)) == (n <= 256)

    def test_edge_list_is_a_fresh_list(self):
        g = cycle(5)
        first = g.edge_list()
        first.append(("c0", "c2"))
        first.reverse()
        assert g.edge_list() == [("c0", "c1"), ("c0", "c4"), ("c1", "c2"), ("c2", "c3"),
                                 ("c3", "c4")]
        assert len(g.edges) == 5 and not g.has_edge("c0", "c2")

    def test_trusted_builds_equal_validated_builds(self):
        rng = random.Random(11)
        built = []
        for seed in range(6):
            hom = auth.hom_keygen(3 + seed, 3 + 2 * seed, seed)
            sub = auth.sub_keygen(8 + 3 * seed, 2 + seed, seed)
            built += [hom.g1, hom.g2, sub.ambient, random_graph(seed * 7, 0.4, seed),
                      auth.hom_commit(hom.g1, 2 + seed, seed)[0],
                      auth._pullback_graph(hom.g2, auth._random_images(hom.g2, 9, rng), "c",
                                           rng, keep_prob=0.5)[0],
                      auth.sub_commit(sub.ambient, sub.s1, seed)[0],
                      auth.sub_commit(sub.ambient, sub.s2, seed)[0],
                      induced_subgraph(sub.ambient, rng.sample(sub.ambient.vertices, 5))]
        for g in built:
            assert g == SimplicialGraph(g.vertices, g.edge_list())

    TRUSTED_FAILURES = [
        (("a", "b"), (0b10, 0b00), "asymmetric"),
        (("a", "b"), (0b01, 0b00), "loop"),
        (("a", "b"), (0b100, 0b00), "bit >= 2"),
        (("a", "b"), (-1, 0b00), "bit >= 2"),
        (("a", "a"), (0, 0), "duplicate vertex"),
        (("a", "b c"), (0, 0), "whitespace"),
        (("a#", "b"), (0, 0), "forbidden character"),
        (("a", ""), (0, 0), "empty"),
        (("a", 7), (0, 0), "non-string"),
        (("a", "b"), (0,), "masks for 2 vertices"),
    ]

    @pytest.mark.parametrize("vertices,masks,needle", TRUSTED_FAILURES)
    def test_trusted_structural_check(self, vertices, masks, needle):
        with pytest.raises(GraphError, match=needle):
            SimplicialGraph._trusted(vertices, masks)

    @pytest.mark.parametrize("vertices,masks,needle", TRUSTED_FAILURES)
    def test_trusted_check_survives_the_label_memo(self, vertices, masks, needle):
        # the label check runs once per label tuple: a failure must not be
        # remembered as a pass, and an accepted tuple must not excuse its masks
        SimplicialGraph._trusted(("a", "b"), (0b10, 0b01))
        for _ in range(2):
            with pytest.raises(GraphError, match=needle):
                SimplicialGraph._trusted(vertices, masks)

    def test_trusted_checks_the_masks_of_commitment_labels(self):
        labels = auth._labels("c", 3)
        assert SimplicialGraph._trusted(labels, (0b010, 0b001, 0)).has_edge("c0", "c1")
        for masks, needle in [((0b010, 0, 0), "asymmetric"), ((0b011, 0b001, 0), "loop"),
                              ((0b1010, 0b001, 0), "bit >= 3"), ((0b010, 0b001), "3 vertices")]:
            for _ in range(2):
                with pytest.raises(GraphError, match=needle):
                    SimplicialGraph._trusted(labels, masks)

    def test_trusted_accepts_valid_masks(self):
        g = SimplicialGraph._trusted(("a", "b", "c"), (0b110, 0b001, 0b001))
        assert g == SimplicialGraph(("a", "b", "c"), [("a", "b"), ("a", "c")])
