import numpy as np
import pytest
from conftest import exact_cell_oracle, near_edge_doubles

from hardcoreboost import (
    ExplicitClass,
    FeatureMatrix,
    LatticeCellClass,
    ProjectionClass,
    ResourceLimitError,
    Sample,
    lsrm_schedule,
    margins,
    parse_class_spec,
)


def h_lam(cls, lam, xs):
    """(H lam)(x) on each row of xs, through the materialized features."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    fm = cls.materialize(Sample(xs, np.ones(len(xs))))
    return margins(fm, lam)


def one_hot_of_oracle(cls, xs):
    rows = np.zeros((len(xs), cls.n))
    for j, x in enumerate(xs):
        k = exact_cell_oracle(x, cls.resolution)
        if k >= 0:
            rows[j, k] = 1.0
    return rows


class TestApply:
    def test_projection(self):
        cls = ProjectionClass(2)
        assert h_lam(cls, np.array([-1.0, 1.0]), [0.3, 0.8])[0] == pytest.approx(0.5)

    def test_zero_weighting(self):
        cls = ProjectionClass(3)
        assert h_lam(cls, np.zeros(3), [0.1, -0.4, 0.9])[0] == 0.0

    def test_lattice_one_hot(self):
        cls = LatticeCellClass(1, 1)
        # the 2 cells of [-1, 1) at i=1 are [-1, 0) and [0, 1)
        lam = np.zeros(cls.n)
        lam[cls.cells([[0.5]])[0]] = 1.0
        assert h_lam(cls, lam, [[0.5], [-0.5]]).tolist() == [1.0, 0.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length 2"):
            h_lam(ProjectionClass(2), np.zeros(3), [0.0, 0.0])
        with pytest.raises(ValueError, match="dimension 2"):
            h_lam(ProjectionClass(2), np.zeros(2), [0.0, 0.0, 0.0])

    def test_apply_bounded_by_l1_norm(self):
        rng = np.random.default_rng(0)
        for cls, dim in ((ProjectionClass(4), 4), (LatticeCellClass(2, 2), 2)):
            for _ in range(50):
                lam = rng.normal(size=cls.n)
                x = rng.uniform(-1, 1, size=dim)
                assert abs(h_lam(cls, lam, x)[0]) <= np.abs(lam).sum() + 1e-12


class TestMaterialize:
    def test_projection_row(self):
        fm = ProjectionClass(2).materialize(Sample(np.array([[1.0, -1.0]]), np.array([1.0])))
        assert np.array_equal(fm.features, [[1.0, -1.0]])
        assert fm.labels[0] == 1.0

    def test_lattice_row(self):
        fm = LatticeCellClass(1, 1).materialize(Sample(np.array([[0.5]]), np.array([1.0])))
        assert np.array_equal(fm.features, [[0.0, 1.0]])

    def test_projection_passthrough(self):
        table = np.array([[0.2, -0.3], [0.9, 0.1]])
        fm = ProjectionClass(2).materialize(Sample(table, np.array([1.0, -1.0])))
        assert np.array_equal(fm.features, table)

    def test_explicit_table_replaces_the_instances(self):
        table = np.array([[0.2, -0.3], [0.9, 0.1]])
        cls = ExplicitClass(table)
        assert cls.n == 2
        fm = cls.materialize(Sample(np.zeros((2, 5)), np.array([1.0, -1.0]), [0.25, 0.75]))
        assert np.array_equal(fm.features, table) and fm.weights.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError, match="row count"):
            cls.materialize(Sample(np.zeros((3, 2)), np.ones(3)))

    def test_explicit_class_compares_by_identity(self):
        table = np.array([[0.5]])
        assert ExplicitClass(table) != ExplicitClass(table)
        cls = ExplicitClass(table)
        assert cls == cls and len({cls, cls}) == 1

    def test_lattice_rows_match_the_cell_oracle_in_3d(self):
        rng = np.random.default_rng(1)
        cls = LatticeCellClass(1, 3)
        edges = near_edge_doubles(1)
        xs = np.vstack([rng.choice(edges, size=(300, 3)), rng.uniform(-2, 2, size=(100, 3))])
        fm = cls.materialize(Sample(xs, rng.choice([-1.0, 1.0], size=len(xs))))
        assert fm.features.tobytes() == one_hot_of_oracle(cls, xs).tobytes()


class TestLattice:
    def test_cell_counts(self):
        assert [c.n for c in lsrm_schedule(1, 2)] == [2, 8]
        assert [c.n for c in lsrm_schedule(2, 1)] == [4]
        assert lsrm_schedule(1, 1)[0].n == 2

    def test_strictly_increasing_sizes(self):
        sizes = [c.n for c in lsrm_schedule(1, 6)]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            LatticeCellClass(10, 4)

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        for cls in (LatticeCellClass(1, 1), LatticeCellClass(2, 1), LatticeCellClass(2, 2)):
            i = cls.resolution
            inside = rng.uniform(-i, i - 1e-9, size=(50, cls.dim))
            rows = cls.materialize(Sample(inside, np.ones(50))).features
            assert np.all(rows.sum(axis=1) == 1.0) and np.all((rows == 0) | (rows == 1))
            outside = rng.uniform(i + 0.1, i + 3, size=(10, cls.dim))
            assert np.all(cls.materialize(Sample(outside, np.ones(10))).features == 0.0)

    def test_half_open_boundaries(self):
        cls = LatticeCellClass(1, 1)
        # [-1, 1) excludes the right edge
        assert cls.cells([[1.0], [-1.0], [0.0]]).tolist() == [-1, 0, 1]

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 7])
    def test_cells_agree_with_cell_index_1d(self, resolution):
        # every double within 3 ulps of an edge, then the far outside
        cls = LatticeCellClass(resolution, 1)
        i = resolution
        xs = np.concatenate([
            near_edge_doubles(i), [i + 0.5, -i - 0.5, 1e9, -1e9, np.inf, -np.inf],
        ])
        cells = cls.cells(xs[:, None])
        assert cells.dtype.kind == "i"
        assert cells.tolist() == [exact_cell_oracle([x], i) for x in xs]
        if i in (1, 2, 4):  # edges are exact doubles, so each opens its own cell
            edges = -i + np.arange(cls.n + 1) / i
            assert cls.cells(edges[:-1, None]).tolist() == list(range(cls.n))

    def test_cells_agree_with_cell_index_2d(self):
        rng = np.random.default_rng(5)
        for resolution in (2, 3):
            cls = LatticeCellClass(resolution, 2)
            edges = near_edge_doubles(resolution)
            xs = np.vstack([
                np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2),
                rng.uniform(-4, 4, size=(200, 2)),
                [[np.inf, 0.0], [0.0, -np.inf]],
            ])
            assert cls.cells(xs).tolist() == [exact_cell_oracle(x, resolution) for x in xs]

    def test_cells_reject_nan(self):
        cls = LatticeCellClass(1, 2)
        with pytest.raises(ValueError, match="NaN"):
            cls.cells([[0.0, 0.5], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="NaN"):
            cls.materialize(Sample(np.array([[0.5, np.nan]]), np.ones(1)))

    @pytest.mark.parametrize("resolution, dim", [(1, 1), (3, 1), (2, 2)])
    def test_materialize_is_one_hot_of_cell_index(self, resolution, dim):
        rng = np.random.default_rng(6)
        cls = LatticeCellClass(resolution, dim)
        xs = np.vstack([
            rng.uniform(-resolution - 1, resolution + 1, size=(300, dim)),
            rng.choice(near_edge_doubles(resolution), size=(300, dim)),
        ])
        fm = cls.materialize(Sample(xs, rng.choice([-1.0, 1.0], size=len(xs))))
        assert fm.features.tobytes() == one_hot_of_oracle(cls, xs).tobytes()

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4])
    def test_largest_double_below_the_top_edge_is_in_the_last_cell(self, resolution):
        # (x + i) * i rounds up to 2 i^2 for x = nextafter(i, 0)
        i = resolution
        top = np.nextafter(float(i), 0.0)
        line = LatticeCellClass(i, 1)
        last = line.cells_per_axis - 1
        assert line.cells([[top], [float(i)]]).tolist() == [last, -1]
        plane = LatticeCellClass(i, 2)
        xs = np.array([[top, top], [top, -i], [-i, top], [top, float(i)]])
        assert plane.cells(xs).tolist() == [plane.n - 1, last * plane.cells_per_axis, last, -1]
        fm = plane.materialize(Sample(xs, np.ones(4)))
        assert fm.features.sum(axis=1).tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_cells_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension 2"):
            LatticeCellClass(1, 2).cells(np.zeros((3, 1)))

    def test_span_expressiveness_1d(self):
        # a piecewise-constant target on the cells is exactly H lam with
        # lam = the cell values
        cls = LatticeCellClass(2, 1)
        rng = np.random.default_rng(3)
        target = rng.normal(size=cls.n)
        xs = rng.uniform(-2, 2 - 1e-9, size=(100, 1))
        assert np.array_equal(h_lam(cls, target, xs), target[cls.cells(xs)])


def test_range_invariant_fuzz():
    rng = np.random.default_rng(4)
    classes = [
        ProjectionClass(3),
        LatticeCellClass(1, 2),
        LatticeCellClass(3, 1),
        ExplicitClass(rng.uniform(-1, 1, size=(20, 4))),
    ]
    checked = 0
    while checked < 10**4:
        cls = classes[rng.integers(len(classes))]
        if isinstance(cls, LatticeCellClass):
            x = rng.uniform(-5, 5, size=(20, cls.dim))
        else:
            x = rng.uniform(-1, 1, size=(20, cls.n))
        vals = cls.materialize(Sample(x, np.ones(20))).features
        assert np.all(np.abs(vals) <= 1.0)
        checked += vals.size


class TestFeatureMatrix:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[2.0]]), np.array([1.0]))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[0.5]]), np.array([0.0]))
        with pytest.raises(ValueError, match="empty"):
            FeatureMatrix(np.zeros((0, 1)), np.zeros(0))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[0.5]]), np.array([1.0]), np.array([0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        x, y, w = np.array([[0.5], [0.5]]), np.array([1.0, -1.0]), np.array([bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            FeatureMatrix(x, y, w)
        with pytest.raises(ValueError, match="finite"):
            Sample(x, y, w)

    def test_shapes(self):
        fm = FeatureMatrix(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]))
        assert fm.m == 3 and fm.n == 2
        assert fm.weights.sum() == pytest.approx(1.0)


class TestParseClassSpec:
    def test_proj(self):
        cls = parse_class_spec("proj:3")
        assert isinstance(cls, ProjectionClass) and cls.n == 3

    def test_lattice(self):
        cls = parse_class_spec("lattice:2x1")
        assert isinstance(cls, LatticeCellClass) and cls.n == 8

    def test_explicit(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("0.5,-0.5\n1.0,0.0\n")
        cls = parse_class_spec(f"explicit:{path}")
        assert isinstance(cls, ExplicitClass) and cls.n == 2
        assert cls.table.shape == (2, 2)

    @pytest.mark.parametrize("header", ["", "h1,h2\n", '"h1","h2"\n'])
    def test_explicit_table_with_or_without_header(self, tmp_path, header):
        path = tmp_path / "table.csv"
        path.write_text(header + '0.5,"-0.5"\n\n1.0,0.0\n')
        cls = parse_class_spec(f"explicit:{path}")
        assert np.array_equal(cls.table, [[0.5, -0.5], [1.0, 0.0]])

    @pytest.mark.parametrize("text", ["0.5,-0.5\n1.0\n", "h1,h2\n", "h1,h2,h3\n0.5,-0.5\n"])
    def test_explicit_malformed_table(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            parse_class_spec(f"explicit:{path}")

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("0.5,-0.5\n1.0,0.0\n1.0\n", "line 3: the number of columns is 1, not 2"),
            ("h1,h2\n0.5,-0.5\n1.0,?\n", "line 3: could not convert string '?'"),
        ],
        ids=["ragged-row", "non-numeric"],
    )
    def test_explicit_malformed_table_names_its_line(self, tmp_path, text, reason):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            parse_class_spec(f"explicit:{path}")
        assert str(info.value).startswith(f"{path}: {reason}")

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_class_spec("stumps:3")
