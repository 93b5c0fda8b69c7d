import itertools
import math
import re
import warnings

import numpy as np
import pytest

from isofokker.grid import (
    GridFunction,
    _solve_per_node,
    cumulative_integral,
    derivative,
    divide,
    hold_edges,
    integrate,
    interior_sign_changes,
    log_derivative,
    make_grid,
    read_csv_columns,
    sample,
    simpson_weights,
    sup_diff,
    sup_norm,
    write_csv,
)


def _stack(support=None):
    """Three functions on one 41-node grid, as one stack and as its rows."""
    g = make_grid(-1.0, 1.0, 41)
    values = np.array([np.exp(g.x), np.sin(3.0 * g.x), 1.0 + g.x**2])
    return GridFunction(g, values, support), [GridFunction(g, row, support) for row in values]


def _assert_rows_match(stack, rows):
    """Each stack row equals the single-row result in support and in bytes."""
    assert stack.values.shape == (len(rows), stack.grid.n_points)
    for got, ref in zip(stack.values, rows):
        assert got.tobytes() == ref.values.tobytes() and stack.support == ref.support


class TestMakeGrid:
    def test_three_point_nodes(self):
        g = make_grid(0.0, 1.0, 3)
        assert np.allclose(g.x, [0.0, 0.5, 1.0])

    def test_default_domain_spacing(self):
        g = make_grid(-12.0, 12.0, 2001)
        assert g.h == pytest.approx(0.012)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            make_grid(2.0, 1.0, 11)

    def test_even_node_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            make_grid(0.0, 1.0, 10)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            make_grid(0.0, 1.0, 1)

    @pytest.mark.parametrize(
        "c1, c2, shown",
        [(-math.inf, 12.0, "-inf, 12.0"), (0.0, math.inf, "0.0, inf"), (math.nan, 1.0, "nan, 1.0"),
         (0.0, math.nan, "0.0, nan"), (-math.inf, math.inf, "-inf, inf")],
    )
    def test_non_finite_ends_rejected_naming_the_grid(self, c1, c2, shown):
        with pytest.raises(ValueError, match=re.escape(f"grid [{shown}] needs finite ends")):
            make_grid(c1, c2, 2001)

    @pytest.mark.parametrize("c1, c2, h", [(-1e308, 1e308, "inf"), (0.0, 5e-324, "0.0")])
    def test_spacing_must_be_finite_and_positive(self, c1, c2, h):
        with pytest.raises(ValueError, match=re.escape(f"grid [{c1}, {c2}] with 3 nodes has spacing {h}")):
            make_grid(c1, c2, 3)


class TestIntegrate:
    def test_constant(self):
        g = make_grid(0.0, 1.0, 101)
        assert integrate(sample(g, lambda x: np.ones_like(x))) == pytest.approx(1.0, abs=1e-14)

    def test_linear(self):
        g = make_grid(0.0, 1.0, 101)
        assert integrate(sample(g, lambda x: x)) == pytest.approx(0.5, abs=1e-14)

    def test_cubic_exact(self):
        g = make_grid(-1.0, 2.0, 61)
        got = integrate(sample(g, lambda x: x**3))
        assert got == pytest.approx((2.0**4 - 1.0) / 4.0, abs=1e-13)

    def test_gaussian(self):
        g = make_grid(-10.0, 10.0, 2001)
        got = integrate(sample(g, lambda x: np.exp(-(x**2))))
        assert abs(got - math.sqrt(math.pi)) < 1e-10


class TestSimpsonWeights:
    def test_formula(self):
        g = make_grid(-1.0, 2.0, 9)
        expected = np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]) * (g.h / 3.0)
        assert np.array_equal(simpson_weights(g), expected)

    def test_cached_and_read_only(self):
        g = make_grid(0.0, 1.0, 101)
        w = simpson_weights(g)
        assert simpson_weights(g) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0


class TestCumulativeIntegral:
    def test_constant_gives_x(self):
        g = make_grid(0.0, 1.0, 101)
        got = cumulative_integral(sample(g, lambda x: np.ones_like(x)))
        assert np.max(np.abs(got.values - g.x)) < 1e-14

    def test_zero(self):
        g = make_grid(-3.0, 3.0, 51)
        got = cumulative_integral(sample(g, lambda x: np.zeros_like(x)))
        assert np.all(got.values == 0.0)

    def test_endpoint_matches_integrate(self):
        g = make_grid(-10.0, 10.0, 2001)
        f = sample(g, lambda x: np.exp(-(x**2)) * (1.0 + np.sin(x)))
        total = integrate(f)
        assert abs(cumulative_integral(f).values[-1] - total) <= 1e-12 * abs(total)

    def test_ou_ground_density_reaches_one(self, ou_spectrum):
        phi0 = ou_spectrum.state(0)
        I0 = cumulative_integral(phi0 * phi0)
        # independent high-resolution quadrature of the analytic density
        fine = make_grid(-12.0, 12.0, 16001)
        ref = integrate(sample(fine, lambda x: np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi)))
        assert abs(I0.values[-1] - ref) < 1e-8

    def test_stack_rows_match_single_calls(self):
        stack, rows = _stack()
        _assert_rows_match(cumulative_integral(stack), [cumulative_integral(r) for r in rows])


class TestDerivative:
    def test_quadratic_exact_everywhere(self):
        g = make_grid(-2.0, 3.0, 201)
        got = derivative(sample(g, lambda x: x**2))
        assert np.max(np.abs(got.values - 2.0 * g.x)) < 1e-10

    def test_sin_interior(self):
        g = make_grid(-math.pi, math.pi, 629)  # h ~ 0.01
        got = derivative(sample(g, np.sin))
        interior = slice(2, -2)
        assert np.max(np.abs(got.values[interior] - np.cos(g.x)[interior])) < 1e-8

    def test_constant_is_zero(self):
        g = make_grid(0.0, 5.0, 51)
        got = derivative(sample(g, lambda x: np.full_like(x, 2.7)))
        assert np.max(np.abs(got.values)) < 1e-12

    def test_linearity(self):
        g = make_grid(-1.0, 1.0, 201)
        f = sample(g, lambda x: np.exp(x))
        h = sample(g, lambda x: np.sin(3 * x))
        lhs = derivative(2.5 * f + (-1.25) * h)
        rhs = 2.5 * derivative(f) + (-1.25) * derivative(h)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12

    def test_support_shrinks_on_cut_sides_only(self):
        # a cut side moves in by the stencil half-width; a side at the wall
        # keeps its one-sided edge rows, which read only reliable nodes
        g = make_grid(0.0, 1.0, 21)
        f = sample(g, np.exp)
        assert derivative(f).support == (0, 21)
        assert derivative(GridFunction(g, f.values, (3, 21))).support == (5, 21)
        assert derivative(GridFunction(g, f.values, (0, 17))).support == (0, 15)
        with pytest.raises(ValueError, match="unreliable on every node"):
            derivative(GridFunction(g, f.values, (8, 12)))

    @pytest.mark.parametrize("support", [None, (3, 41), (0, 37), (4, 35)])
    def test_stack_rows_match_single_calls(self, support):
        stack, rows = _stack(support)
        _assert_rows_match(derivative(stack), [derivative(r) for r in rows])

    def test_stack_edge_rows_match_single_calls(self):
        # the one-sided rows at both walls, on many random rows: a 5-term
        # dot product would round differently for one function and a stack
        g = make_grid(-1.0, 1.0, 41)
        values = np.random.default_rng(7).standard_normal((2000, g.n_points))
        got = derivative(GridFunction(g, values)).values
        for row, single in zip(got, values):
            assert row.tobytes() == derivative(GridFunction(g, single)).values.tobytes()

    def test_three_nodes_rejected(self):
        with pytest.raises(ValueError, match="stencil reads 5 nodes"):
            derivative(sample(make_grid(0.0, 1.0, 3), np.exp))

    def test_fundamental_theorem(self):
        # integrate(derivative F) reproduces F(c2) - F(c1) within O(h^4)
        g = make_grid(-1.0, 2.0, 301)
        F = sample(g, lambda x: np.sin(2 * x) * np.exp(-x))
        got = integrate(derivative(F))
        exact = math.sin(4.0) * math.exp(-2.0) - math.sin(-2.0) * math.exp(1.0)
        assert abs(got - exact) < 10 * g.h**4


class TestLogDerivative:
    def test_gaussian(self):
        g = make_grid(-6.0, 6.0, 1201)
        got = log_derivative(sample(g, lambda x: np.exp(-(x**2) / 4.0)))
        a, z = got.support
        err = np.abs(got.values - (-g.x / 2.0))
        assert np.max(err[a:z]) < 1e-6  # one-sided boundary rows dominate
        assert np.max(err[max(a, 2) : min(z, g.n_points - 2)]) < 1e-7  # h^4 (x/2)^5 / 30 at the domain edge

    def test_pure_exponential(self):
        g = make_grid(0.0, 3.0, 301)
        got = log_derivative(sample(g, lambda x: np.exp(3.0 * x)))
        err = np.abs(got.values - 3.0)
        assert np.max(err) < 1e-6
        assert np.max(err[2:-2]) < 1e-7

    def test_ou_first_excited_raises(self):
        # phi_1 ~ x e^{-x^2/4}: its zero at x = 0 cuts one full lobe off the
        # run around the peak, so no one support interval holds the ratio
        g = make_grid(-12.0, 12.0, 4001)
        phi1 = sample(g, lambda x: x * np.exp(-(x**2) / 4.0))
        with pytest.raises(ValueError, match="zero inside"):
            log_derivative(phi1)

    def test_everywhere_below_floor_rejected(self):
        # the floor is relative to max|f|, so only a vanishing f is below it everywhere
        g = make_grid(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            log_derivative(sample(g, lambda x: np.zeros_like(x)))

    def test_below_floor_on_every_node_of_the_support_rejected(self):
        # the peak lies outside the numerator's support, where the denominator is 1e-20 of it
        g = make_grid(0.0, 1.0, 41)
        den = GridFunction(g, np.where(np.arange(41) == 30, 1.0, 1e-20))
        with pytest.raises(ValueError, match="below floor on every node"):
            divide(GridFunction(g, np.ones(41), (0, 10)), den)

    def test_floor_must_be_positive(self):
        g = make_grid(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="vanishes"):
            divide(sample(g, np.exp), sample(g, lambda x: np.zeros_like(x)))


class TestGridFunction:
    @pytest.mark.parametrize("values", [np.zeros(7), np.zeros((11, 2)), 0.0])
    def test_length_mismatch_rejected(self, values):
        g = make_grid(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="grid's 11 nodes"):
            GridFunction(g, values)

    def test_non_finite_rejected(self):
        g = make_grid(0.0, 1.0, 11)
        vals = np.zeros(11)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            GridFunction(g, vals)

    @pytest.mark.parametrize("shape", [(11,), (2, 11)])
    def test_values_outside_support_zeroed(self, shape):
        g = make_grid(0.0, 1.0, 11)
        f = GridFunction(g, np.ones(shape), (3, 10))
        assert f.support == (3, 10) and not f.values.flags.writeable
        assert np.array_equal(f.values, np.broadcast_to([0.0] * 3 + [1.0] * 7 + [0.0], shape))
        assert GridFunction(g, np.ones(shape)).support == (0, 11)

    @pytest.mark.parametrize("shape", [(11,), (2, 11)])
    def test_adopted_values_match_a_copy_without_copying(self, shape):
        g = make_grid(0.0, 1.0, 11)
        built = np.arange(float(np.prod(shape))).reshape(shape) + 1.0
        copied = GridFunction(g, built, (3, 10))
        adopted = GridFunction._adopt(g, built, (3, 10))
        assert adopted.values is built and not built.flags.writeable
        assert adopted.support == copied.support and adopted.values.tobytes() == copied.values.tobytes()
        with pytest.raises(ValueError, match="non-finite"):
            GridFunction._adopt(g, np.full(shape, np.nan))
        with pytest.raises(ValueError, match="unreliable on every node"):
            GridFunction._adopt(g, np.ones(shape), (4, 4))

    @pytest.mark.parametrize("shape", [(11,), (2, 11)])
    def test_read_only_values_shared_when_zero_outside_the_support(self, shape):
        g = make_grid(0.0, 1.0, 11)
        f = GridFunction(g, np.ones(shape), (3, 10))
        assert GridFunction._adopt(g, f.values, (3, 10)).values is f.values
        assert GridFunction._adopt(g, f.values, (2, 11)).values is f.values  # a wider support holds the zeros
        with pytest.raises(ValueError, match="not 0 outside the support"):
            GridFunction._adopt(g, f.values, (4, 10))

    @pytest.mark.parametrize("support", [(4, 4), (5, 3), (-1, 5), (0, 12)])
    def test_support_without_nodes_rejected(self, support):
        with pytest.raises(ValueError, match="unreliable on every node"):
            GridFunction(make_grid(0.0, 1.0, 11), np.ones(11), support)

    def test_supports_intersect_in_arithmetic(self):
        g = make_grid(0.0, 1.0, 11)
        f, h = GridFunction(g, np.ones(11), (2, 11)), GridFunction(g, np.ones(11), (0, 9))
        for r in (f + h, f - h, f * h, f / h):
            assert r.support == (2, 9)
        assert (f + h).values.tolist() == [0.0] * 2 + [2.0] * 7 + [0.0] * 2
        assert (f + 1.0).support == (2, 11) and (-h).support == (0, 9)
        with pytest.raises(ValueError, match="unreliable on every node"):
            GridFunction(g, np.ones(11), (0, 3)) + GridFunction(g, np.ones(11), (5, 11))

    def test_stack_arithmetic_rows_match_single_calls(self):
        stack, rows = _stack((2, 41))
        g = stack.grid
        other = GridFunction(g, np.cos(g.x), (0, 38))
        _assert_rows_match(stack + other, [r + other for r in rows])
        _assert_rows_match(other - stack, [other - r for r in rows])
        _assert_rows_match(stack * other, [r * other for r in rows])
        _assert_rows_match(stack / 4.0, [r / 4.0 for r in rows])
        _assert_rows_match(2.5 * stack, [2.5 * r for r in rows])
        _assert_rows_match(-stack, [-r for r in rows])
        _assert_rows_match(stack / other, [r / other for r in rows])

    def test_divide_stack_over_one_row(self):
        stack, rows = _stack((0, 39))
        den = GridFunction(stack.grid, np.exp(-(stack.grid.x**2)), (1, 41))
        _assert_rows_match(divide(stack, den), [divide(r, den) for r in rows])
        with pytest.raises(ValueError, match="denominator must be one function"):
            divide(den, stack)
        with pytest.raises(ValueError, match="denominator must be one function"):
            1.0 / stack

    @pytest.mark.parametrize("op", ["integrate", "interior_sign_changes", "write_csv"])
    def test_one_function_operations_refuse_a_stack(self, op, tmp_path):
        g = make_grid(-5.0, 5.0, 41)
        phi = np.exp(-(g.x**2))
        # two node-free rows; read as one array, they change sign at the row boundary
        stack = GridFunction(g, [phi, -phi])
        call = {
            "integrate": integrate,
            "interior_sign_changes": interior_sign_changes,
            "write_csv": lambda f: write_csv(tmp_path / "stack.csv", {"phi": f}),
        }[op]
        with pytest.raises(ValueError, match=rf"^{op}\b.*takes one function, got a stack of shape \(2, 41\)"):
            call(stack)
        assert not (tmp_path / "stack.csv").exists()

    def test_stack_sup_norm_and_sup_diff(self):
        # a support that cuts more nodes than the stack has rows: slicing the
        # row axis instead of the node axis would find no node at all
        g = make_grid(0.0, 1.0, 11)
        values = np.array([np.arange(11.0), -np.arange(11.0) / 2.0])
        stack = GridFunction(g, values, (3, 10))
        assert sup_norm(stack) == 9.0
        assert sup_norm(stack, window=(0.0, 0.5)) == 5.0
        assert sup_diff(stack, GridFunction(g, np.zeros(11))) == 9.0
        assert sup_diff(stack, GridFunction(g, values[::-1])) == max(abs(values[0] - values[1])[3:10])

    def test_stack_hold_edges(self):
        g = make_grid(0.0, 1.0, 11)
        stack = GridFunction(g, np.array([np.arange(11.0), 10.0 - np.arange(11.0)]), (3, 10))
        held = hold_edges(stack)
        assert np.array_equal(held[0], [3.0] * 3 + list(range(3, 10)) + [9.0])
        assert np.array_equal(held[1], [7.0] * 3 + list(range(7, 0, -1)) + [1.0])
        for row, ref in zip(held, stack.values):
            assert held.shape == (2, 11) and np.array_equal(row, hold_edges(GridFunction(g, ref, (3, 10))))

    def test_divide_by_a_zero_crossing_raises(self):
        g = make_grid(-1.0, 1.0, 201)
        num = sample(g, lambda x: np.ones_like(x))
        den = sample(g, lambda x: x)
        with pytest.raises(ValueError, match="zero inside"):
            divide(num, den)

    def test_divide_support_ends_at_a_tail_node_below_floor(self):
        # a decaying tail that dips below the floor at one node and then
        # stays near it (~1e-12 of the peak) is cut at that node, silently
        g = make_grid(-10.4, 10.4, 1041)
        den = np.exp(-(g.x**2) / 4.0)
        dip = int(np.argmin(np.abs(g.x - 10.2)))
        den[dip] = 1e-13
        assert np.all(den[dip + 1 :] > 1e-12) and np.all(den[dip + 1 :] < 1e-11)
        out = divide(sample(g, np.ones_like), GridFunction(g, den))
        assert out.support == (0, dip)
        assert np.array_equal(out.values[:dip], 1.0 / den[:dip])
        assert np.all(out.values[dip:] == 0.0)

    def test_divide_across_grids_rejected(self):
        # equal node counts on different domains: the arithmetic operators
        # refuse these operands, and so does divide
        num = sample(make_grid(-12.0, 12.0, 101), np.exp)
        den = sample(make_grid(-10.0, 10.0, 101), lambda x: 1.0 + x**2)
        with pytest.raises(ValueError, match="different grids"):
            divide(num, den)
        with pytest.raises(ValueError, match="different grids"):
            num / den

    def test_sign_changes(self):
        g = make_grid(-1.0, 1.0, 201)
        assert interior_sign_changes(sample(g, lambda x: x)) == 1
        assert interior_sign_changes(sample(g, lambda x: x**2 - 0.25)) == 2
        assert interior_sign_changes(sample(g, lambda x: np.exp(x))) == 0


class TestCsv:
    def test_roundtrip_17_digits(self, tmp_path):
        g = make_grid(-1.0, 1.0, 11)
        f = sample(g, lambda x: np.exp(x) / 3.0)
        path = tmp_path / "out.csv"
        write_csv(path, {"f": f})
        cols = read_csv_columns(path)
        assert set(cols) == {"x", "f"}
        assert np.array_equal(cols["x"], g.x)  # 17 significant digits round-trip exactly
        assert np.array_equal(cols["f"], f.values)

    @pytest.mark.parametrize("ncols, special", [(1, False), (3, False), (8, False), (3, True)])
    def test_bytes_equal_savetxt(self, tmp_path, ncols, special):
        rng = np.random.default_rng(ncols)
        g = make_grid(-3.0, 3.0, 41)
        values = rng.standard_normal((ncols, g.n_points)) * 10.0 ** rng.integers(-20, 20, (ncols, g.n_points))
        if special:
            values[0, :6] = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300]
        columns = {f"f{j}": GridFunction(g, row) for j, row in enumerate(values)}
        write_csv(tmp_path / "table.csv", columns)
        np.savetxt(
            tmp_path / "savetxt.csv", np.column_stack([g.x, *values]), fmt="%.17g", delimiter=",",
            header=",".join(["x", *columns]), comments="",
        )
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_headerless_columns_are_numbered(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("0.5,1.5,2.5\n")
        cols = read_csv_columns(path)
        assert list(cols) == ["col0", "col1", "col2"]
        assert [c.tolist() for c in cols.values()] == [[0.5], [1.5], [2.5]]

    @pytest.mark.parametrize("text", ["x,P\n", "x,P\n\n", ""])
    def test_header_without_data_rows_rejected(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty.csv: no data rows"):
                read_csv_columns(path)

    @pytest.mark.parametrize("text", ["x,P\n0,1\n1,nan\n", "0,1\n1,inf\n", "x,P\n0,1\n1,abc\n"])
    def test_non_finite_entry_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="non-finite"):
            read_csv_columns(path)

    def test_sup_norm_window(self):
        g = make_grid(-2.0, 2.0, 401)
        f = sample(g, lambda x: x)
        assert sup_norm(f) == pytest.approx(2.0)
        assert sup_norm(f, window=(-1.0, 0.5)) == pytest.approx(1.0)
        assert sup_diff(f, sample(g, lambda x: x + 1.0)) == pytest.approx(1.0)

    def test_sup_norm_window_without_supported_node_rejected(self):
        g = make_grid(-2.0, 2.0, 401)
        f = GridFunction(g, g.x, (0, 150))
        with pytest.raises(ValueError, match="no reliable nodes"):
            sup_norm(f, window=(0.0, 1.0))

    def test_no_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no columns"):
            write_csv(tmp_path / "none.csv", {})
        assert not (tmp_path / "none.csv").exists()

    @pytest.mark.parametrize(
        "text, match",
        [
            ("x,P\n0,1,2\n1,2,3\n", "3 columns, 2 names in data row 1"),
            ("x,D\n0,1,2\n", "3 columns, 2 names in data row 1"),  # one row
            ("x,D\n0\n1\n2\n", "1 columns, 2 names in data row 1"),  # one column
            ("x,D\n0\n1\n", "1 columns, 2 names in data row 1"),  # would reshape to one row
            ("x,D\n0,1\n1,2,3\n2,3\n", "3 columns, 2 names in data row 2"),  # a middle row
        ],
    )
    def test_rows_of_another_column_count_than_the_header_rejected(self, tmp_path, text, match):
        path = tmp_path / "wide.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^malformed CSV {re.escape(str(path))}: {match}$"):
            read_csv_columns(path)

    def test_comment_rows_and_tails_skipped(self, tmp_path):
        path = tmp_path / "commented.csv"
        path.write_text("x,P\n0,1\n# a note\n1,2 # a tail\n")
        assert {k: v.tolist() for k, v in read_csv_columns(path).items()} == {"x": [0.0, 1.0], "P": [1.0, 2.0]}


def _nodes_last(stack):
    """(N, n, n) matrices or (N, n) vectors in the kernel's node-last layout."""
    return np.moveaxis(stack, 0, -1)


class TestSolvePerNode:
    """The per-node elimination against LAPACK's det and solve."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_numpy_on_well_conditioned_nodes(self, n):
        rng = np.random.default_rng(100 + n)
        a = rng.standard_normal((2001, n, n))
        b = rng.standard_normal((2001, n))
        a_in, b_in = _nodes_last(a).copy(), _nodes_last(b).copy()
        det, x = _solve_per_node(a_in, b_in)
        assert np.array_equal(a_in, _nodes_last(a)) and np.array_equal(b_in, _nodes_last(b))
        good = np.linalg.cond(a) < 1e2
        assert good.sum() > 1000
        ref_det = np.linalg.det(a)[good]
        ref_x = np.linalg.solve(a, b[..., None])[..., 0][good]
        assert np.all(np.abs(det[good] - ref_det) <= 1e-12 * np.abs(ref_det))
        err = np.max(np.abs(x.T[good] - ref_x), axis=1)
        assert np.all(err <= 1e-12 * np.max(np.abs(ref_x), axis=1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_permutation_matrix(self, n):
        perms = list(itertools.permutations(range(n)))
        a = np.array([np.eye(n)[list(p)] for p in perms])
        b = np.arange(1.0, n + 1.0) * np.ones((len(perms), 1))
        det, x = _solve_per_node(_nodes_last(a), _nodes_last(b))
        assert np.array_equal(det, np.round(np.linalg.det(a)))
        assert np.array_equal(x.T, np.einsum("Nji,Nj->Ni", a, b))

    def test_zero_leading_entries(self):
        a = np.array(
            [
                [[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [3.0, 0.0, 1.0]],
                [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [2.0, 5.0, 7.0]],
            ]
        )
        b = np.array([[1.0, -2.0, 0.5], [3.0, 1.0, 4.0]])
        det, x = _solve_per_node(_nodes_last(a), _nodes_last(b))
        assert det == pytest.approx(np.linalg.det(a), rel=1e-14)
        assert x.T == pytest.approx(np.linalg.solve(a, b[..., None])[..., 0], rel=1e-14)

    def test_one_by_one_is_plain_division(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(4001) * np.exp(rng.uniform(-40.0, 40.0, 4001))
        b = rng.standard_normal(4001)
        det, x = _solve_per_node(a[None, None], b[None])
        assert np.array_equal(det, a)
        assert np.array_equal(x[0], b / a)

    @pytest.mark.parametrize(
        "a",
        [
            np.zeros((3, 3)),
            np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 1.0], [0.0, -1.0, 4.0]]),
            np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [-1.0, 0.0, 4.0]]),
            np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 0.0], [-1.0, 4.0, 0.0]]),
            np.array([[0.0]]),
        ],
        ids=["all-zero", "first-column-zero", "middle-column-zero", "last-column-zero", "one-by-one-zero"],
    )
    def test_zero_column_gives_zero_det_without_warning(self, a):
        n = len(a)
        stack = np.stack([a, np.eye(n)])
        b = np.ones((2, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            det, x = _solve_per_node(_nodes_last(stack), _nodes_last(b))
        assert det[0] == 0.0 and det[1] == 1.0
        assert np.all(np.isfinite(x))
        assert np.array_equal(x[:, 1], np.ones(n))
