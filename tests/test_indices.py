import decimal
import math
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degbound.formulas import (
    complete_values,
    cycle_values,
    path_values,
    regular_values,
    star_values,
)
from degbound.enumeration import connected_graphs
from degbound.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree_pair_counts,
    double_star,
    path_graph,
    star_graph,
)
from degbound.indices import (
    _AZI_UNDEFINED,
    ALL_INDICES,
    UndefinedIndexError,
    _pair_terms,
    all_indices,
    edge_term,
    index_sums,
)
from degbound.ratios import F_T6, line_samples

from conftest import random_graph

R, H, ABC, X, GA, AZI, M2 = ALL_INDICES


def test_edge_term_examples():
    assert edge_term(GA, (2, 2)) == pytest.approx(1.0, abs=0)
    assert edge_term(AZI, (2, 2)) == pytest.approx(8.0, abs=0)
    assert edge_term(ABC, (1, 1)) == 0.0
    assert edge_term(X, (1, 8)) == pytest.approx(1 / 3, rel=1e-15)


def test_edge_term_normalizes_pair_order():
    for idx in ALL_INDICES:
        assert edge_term(idx, (5, 2)) == edge_term(idx, (2, 5))


# The seven textbook expressions, written out apart from indices.EDGE_TERMS,
# at endpoint degrees a <= b.
TEXTBOOK_TERMS = {
    R: lambda a, b: 1.0 / math.sqrt(a * b),
    H: lambda a, b: 2.0 / (a + b),
    ABC: lambda a, b: math.sqrt((a + b - 2) / (a * b)),
    X: lambda a, b: 1.0 / math.sqrt(a + b),
    GA: lambda a, b: math.sqrt(a * b) / (0.5 * (a + b)),
    AZI: lambda a, b: ((a * b) / (a + b - 2)) ** 3,
    M2: lambda a, b: 1.0 / (a * b),
}


def test_edge_term_is_the_textbook_expression_bit_for_bit():
    grid = [(a, b) for a in range(1, 62) for b in range(a, 62)]
    line = [(1.0, t) for t, _ in line_samples(F_T6, "a", 1.0, 7.0, 8.0)]
    assert len(line) == 65
    for a, b in grid + line:
        for idx in ALL_INDICES:
            if idx is AZI and (a, b) == (1, 1):
                continue
            want = TEXTBOOK_TERMS[idx](a, b).hex()
            assert edge_term(idx, (a, b)).hex() == want, (idx, a, b)
            assert edge_term(idx, (b, a)).hex() == want, (idx, b, a)


def test_pair_terms_are_the_edge_terms():
    for a in range(1, 62):
        for b in range(a, 62):
            terms = _pair_terms(a, b)
            want = [0.0 if idx is AZI and (a, b) == (1, 1) else edge_term(idx, (a, b))
                    for idx in ALL_INDICES]
            assert [t.hex() for t in terms] == [t.hex() for t in want], (a, b)
            assert (terms[ALL_INDICES.index(AZI)] == 0.0) == ((a, b) == (1, 1))


def test_edge_term_errors_keep_their_type_and_message():
    cases = [
        ("R", (1, 2), ValueError, "unknown index 'R'"),
        (None, (1, 1), ValueError, "unknown index None"),
        (R, (0, 3), ValueError, "degrees must be >= 1, got (0, 3)"),
        (AZI, (3, 0), ValueError, "degrees must be >= 1, got (3, 0)"),
        ("R", (0, 1), ValueError, "degrees must be >= 1, got (0, 1)"),
        (AZI, (1, 1), UndefinedIndexError, _AZI_UNDEFINED),
        (AZI, (1.0, 1.0), UndefinedIndexError, _AZI_UNDEFINED),
    ]
    for idx, pair, kind, message in cases:
        with pytest.raises(ValueError) as err:
            edge_term(idx, pair)
        assert type(err.value) is kind and str(err.value) == message, (idx, pair)


def test_azi_undefined_at_isolated_edge():
    with pytest.raises(UndefinedIndexError):
        edge_term(AZI, (1, 1))
    assert all_indices(path_graph(2))[AZI] is None
    assert all_indices(path_graph(3))[AZI] is not None


def test_index_value_examples():
    assert all_indices(path_graph(2))[R] == pytest.approx(1.0, abs=0)
    for n in (3, 5, 11, 60):
        assert all_indices(cycle_graph(n))[AZI] == pytest.approx(8 * n, rel=1e-14)
        assert all_indices(cycle_graph(n))[GA] == pytest.approx(n, rel=1e-14)
    assert all_indices(path_graph(3))[M2] == pytest.approx(1.0, abs=0)
    assert all_indices(path_graph(3))[ABC] == pytest.approx(math.sqrt(2), rel=1e-15)
    assert all_indices(star_graph(8))[AZI] == pytest.approx(4096 / 343, rel=1e-14)
    assert all_indices(star_graph(8))[X] == pytest.approx(8 / 3, rel=1e-15)
    # the excluded double star has ABC above GA
    assert all_indices(double_star())[ABC] == pytest.approx(
        3 * math.sqrt(3) + math.sqrt(6) / 4, rel=1e-14)
    assert all_indices(double_star())[GA] == pytest.approx(5.8, rel=1e-14)


def test_all_indices_k3():
    vals = all_indices(complete_graph(3))
    expected = {
        R: 1.5, H: 1.5, X: 1.5,
        ABC: 3 / math.sqrt(2), GA: 3.0, AZI: 24.0, M2: 0.75,
    }
    for idx, want in expected.items():
        assert vals[idx] == pytest.approx(want, rel=1e-14)


def test_all_indices_p2_marks_azi_undefined():
    vals = all_indices(path_graph(2))
    assert vals[AZI] is None
    assert vals[R] == pytest.approx(1.0)
    assert vals[H] == pytest.approx(1.0)
    assert vals[X] == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert vals[ABC] == 0.0
    assert vals[GA] == pytest.approx(1.0)
    assert vals[M2] == pytest.approx(1.0)


def test_all_indices_star4():
    vals = all_indices(star_graph(4))
    expected = {
        R: 2.0, H: 1.6, X: 4 / math.sqrt(5),
        ABC: 2 * math.sqrt(3), GA: 3.2, AZI: 4 * (4 / 3) ** 3, M2: 1.0,
    }
    for idx, want in expected.items():
        assert vals[idx] == pytest.approx(want, rel=1e-14)


def test_linearity_against_direct_edge_sum():
    rng = random.Random(41)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(2, 11))
        degs = g.degrees
        for idx in ALL_INDICES:
            if idx is AZI and all_indices(g)[AZI] is None:
                continue
            direct = sum(edge_term(idx, (degs[u], degs[v])) for u, v in g.edges)
            assert all_indices(g)[idx] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_cached_terms_sum_in_sorted_pair_order():
    """all_indices reads each degree pair's terms from a cache; every value
    must equal, exactly, a left-to-right sum of count * edge_term in
    sorted-pair order."""
    rng = random.Random(11)
    graphs = [g for n in range(2, 8) for g in connected_graphs(n)]
    assert len(graphs) == 995
    graphs += [random_graph(rng, rng.randrange(1, 13)) for _ in range(200)]
    for g in graphs:
        counts = degree_pair_counts(g)
        part = dict(zip(zip(counts[::3], counts[1::3]), counts[2::3]))
        vals = all_indices(g)
        for idx in ALL_INDICES:
            if idx is AZI and (1, 1) in part:
                assert vals[idx] is None
                continue
            total = 0.0
            for pair in sorted(part):
                total += part[pair] * edge_term(idx, pair)
            assert vals[idx] == total, (idx, part)


def _exact_sums(counts):
    """The seven index sums of flat pair counts in 40-digit decimal, each
    term the textbook expression; AZI is None at a (1,1) pair."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        sums = [Decimal(0)] * 7
        triples = iter(counts)
        for a, b, count in zip(triples, triples, triples):
            a, b = Decimal(a), Decimal(b)
            terms = [1 / (a * b).sqrt(), 2 / (a + b), ((a + b - 2) / (a * b)).sqrt(),
                     1 / (a + b).sqrt(), 2 * (a * b).sqrt() / (a + b),
                     (a * b / (a + b - 2)) ** 3 if a + b > 2 else None, 1 / (a * b)]
            sums = [None if s is None or t is None else s + count * t
                    for s, t in zip(sums, terms)]
        return sums


def test_index_sums_against_an_exact_oracle():
    """index_sums on every distinct connected partition of order 2..8 is
    within 4 ulp of the exact sum; the largest error is 2.5 ulp."""
    partitions = {degree_pair_counts(g) for n in range(2, 9) for g in connected_graphs(n)}
    assert len(partitions) == 5425
    worst = 0.0
    for counts in partitions:
        for got, want in zip(index_sums(counts), _exact_sums(counts)):
            assert (got is None) == (want is None), counts
            if want is not None:
                error = abs(Decimal(got) - want) / Decimal(math.ulp(float(want)))
                worst = max(worst, float(error))
    assert 1.0 < worst <= 4.0, worst


def test_isomorphism_invariance_bit_identical():
    rng = random.Random(43)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(2, 10))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        assert all_indices(g) == all_indices(h)  # exact float equality


def test_regular_closed_forms():
    for g, d in [(cycle_graph(6), 2), (cycle_graph(9), 2),
                 (complete_graph(5), 4), (complete_graph(7), 6),
                 (complete_bipartite(3, 3), 3)]:
        vals = all_indices(g)
        for idx, want in zip(ALL_INDICES, regular_values(d, g.m)):
            if want is None:
                assert vals[idx] is None
            else:
                assert vals[idx] == pytest.approx(want, rel=1e-12)


def test_family_closed_forms():
    for n in (2, 3, 4, 9, 30):
        vals = all_indices(path_graph(n))
        for idx, want in zip(ALL_INDICES, path_values(n)):
            if want is None:
                assert vals[idx] is None
            else:
                assert vals[idx] == pytest.approx(want, rel=1e-12)
    for k in (1, 2, 8, 25):
        vals = all_indices(star_graph(k))
        for idx, want in zip(ALL_INDICES, star_values(k)):
            if want is None:
                assert vals[idx] is None
            else:
                assert vals[idx] == pytest.approx(want, rel=1e-12)


# The closed forms as one expression per index, written out apart from
# degbound.formulas; None where AZI is undefined.
def _regular_reference(d, m):
    return {
        R: m / d,
        H: m / d,
        X: m / math.sqrt(2 * d),
        ABC: m * math.sqrt(2 * d - 2) / d,
        GA: float(m),
        AZI: None if d == 1 else m * d**6 / (8 * (d - 1) ** 3),
        M2: m / d**2,
    }


def _star_reference(k):
    return {
        R: math.sqrt(k),
        H: 2 * k / (k + 1),
        X: k / math.sqrt(k + 1),
        ABC: math.sqrt(k * (k - 1)),
        GA: 2 * k**1.5 / (k + 1),
        AZI: None if k == 1 else k**4 / (k - 1) ** 3,
        M2: 1.0,
    }


def _path_reference(n):
    if n == 2:
        return {R: 1.0, H: 1.0, ABC: 0.0, X: 1 / math.sqrt(2), GA: 1.0,
                AZI: None, M2: 1.0}
    inner = n - 3
    return {
        R: 2 / math.sqrt(2) + inner / 2,
        H: 2 * (2 / 3) + inner / 2,
        ABC: (n - 1) / math.sqrt(2),
        X: 2 / math.sqrt(3) + inner / 2,
        GA: 2 * (2 * math.sqrt(2) / 3) + inner,
        AZI: 8.0 * (n - 1),
        M2: 1.0 + inner / 4,
    }


def _hex(values):
    return [None if v is None else float.hex(v) for v in values]


def test_closed_forms_are_the_per_index_expressions_bit_for_bit():
    cases = [(path_values(n), _path_reference(n)) for n in range(2, 401)]
    cases += [(cycle_values(n), _regular_reference(2, n)) for n in range(3, 401)]
    cases += [(complete_values(n), _regular_reference(n - 1, n * (n - 1) // 2))
              for n in range(2, 401)]
    cases += [(star_values(k), _star_reference(k)) for k in range(1, 400)]
    cases += [(regular_values(d, m), _regular_reference(d, m))
              for d in range(1, 200) for m in (1, 5, 7 * d)]
    for got, ref in cases:
        assert _hex(got) == _hex(ref[idx] for idx in ALL_INDICES), ref


def test_closed_form_errors_keep_their_type_and_message():
    cases = [
        (regular_values, (0, 3), "regular degree must be >= 1, got 0"),
        (cycle_values, (2,), "cycle needs n >= 3, got 2"),
        (complete_values, (1,), "closed forms for complete graphs need n >= 2, got 1"),
        (star_values, (0,), "star needs k >= 1 leaves, got 0"),
        (path_values, (1,), "closed forms for paths need n >= 2, got 1"),
    ]
    for fn, args, message in cases:
        with pytest.raises(ValueError) as err:
            fn(*args)
        assert type(err.value) is ValueError and str(err.value) == message, fn


@given(st.integers(1, 61), st.integers(1, 61))
def test_terms_nonnegative_and_abc_zero_only_at_11(a, b):
    for idx in ALL_INDICES:
        if idx is AZI and a == b == 1:
            continue
        value = edge_term(idx, (a, b))
        assert value >= 0
        if idx is ABC:
            assert (value == 0) == (a == b == 1)


@settings(max_examples=300)
@given(st.integers(1, 60), st.integers(1, 60))
def test_ga_over_x_squared_monotone_increasing(a, b):
    # 4ab/(a+b) grows in each coordinate on the whole grid
    lo, hi = min(a, b), max(a, b)

    def f(x, y):
        return (edge_term(GA, (x, y)) / edge_term(X, (x, y))) ** 2

    assert f(lo + 1, hi) > f(lo, hi)
    assert f(lo, hi + 1) > f(lo, hi)
