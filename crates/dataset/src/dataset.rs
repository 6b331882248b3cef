//! The [`Dataset`] table type and borrowed row-subset views.

use crate::error::DatasetError;
use crate::schema::{AttrId, GroupId, GroupIndex, Schema};

/// An immutable labeled dataset: `n` rows of `d` `f64` attributes (stored
/// row-major), a binary label per row, and the precomputed sensitive group
/// of every row.
///
/// All FALCC-side algorithms treat rows as opaque numeric vectors; categorical
/// attributes are expected to be integer-coded (as the paper's preprocessing
/// does for Adult, COMPAS, …).
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    group_index: GroupIndex,
    x: Vec<f64>,
    y: Vec<u8>,
    g: Vec<GroupId>,
}

impl Dataset {
    /// Builds a dataset from row vectors and binary labels.
    ///
    /// # Errors
    /// * [`DatasetError::ShapeMismatch`] if row widths differ from the schema
    ///   or `rows.len() != labels.len()`;
    /// * [`DatasetError::ValueOutOfDomain`] if a sensitive value is outside
    ///   its declared domain;
    /// * [`DatasetError::Empty`] for zero rows.
    pub fn from_rows(
        schema: Schema,
        rows: Vec<Vec<f64>>,
        labels: Vec<u8>,
    ) -> Result<Self, DatasetError> {
        if rows.is_empty() {
            return Err(DatasetError::Empty);
        }
        if rows.len() != labels.len() {
            return Err(DatasetError::ShapeMismatch {
                detail: format!("{} rows but {} labels", rows.len(), labels.len()),
            });
        }
        let d = schema.n_attrs();
        let mut x = Vec::with_capacity(rows.len() * d);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != d {
                return Err(DatasetError::ShapeMismatch {
                    detail: format!("row {i} has {} attributes, schema declares {d}", r.len()),
                });
            }
            x.extend_from_slice(r);
        }
        Self::from_flat(schema, x, labels)
    }

    /// Builds a dataset from an already-flattened row-major buffer.
    ///
    /// # Errors
    /// Same conditions as [`Self::from_rows`].
    pub fn from_flat(schema: Schema, x: Vec<f64>, y: Vec<u8>) -> Result<Self, DatasetError> {
        let d = schema.n_attrs();
        if d == 0 || x.len() != y.len() * d {
            return Err(DatasetError::ShapeMismatch {
                detail: format!("flat buffer of {} values, {} labels, {d} attrs", x.len(), y.len()),
            });
        }
        if y.is_empty() {
            return Err(DatasetError::Empty);
        }
        if let Some(bad) = y.iter().find(|&&v| v > 1) {
            return Err(DatasetError::ShapeMismatch {
                detail: format!("label {bad} is not binary"),
            });
        }
        // Non-finite features would silently corrupt every downstream
        // consumer (tree splits, kd-tree ordering, k-means); reject here.
        if let Some(pos) = x.iter().position(|v| !v.is_finite()) {
            return Err(DatasetError::NonFiniteFeature { row: pos / d, column: pos % d });
        }
        let group_index = schema.group_index();
        let mut g = Vec::with_capacity(y.len());
        for row in x.chunks_exact(d) {
            g.push(group_index.group_of(row)?);
        }
        Ok(Self { schema, group_index, x, y, g })
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// `true` when the dataset holds no rows (never true for a constructed
    /// dataset, but required for idiomatic emptiness checks on views).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of attributes per row.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.schema.n_attrs()
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The sensitive-group enumeration.
    #[inline]
    pub fn group_index(&self) -> &GroupIndex {
        &self.group_index
    }

    /// Row `i` as a slice of all attributes.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let d = self.n_attrs();
        &self.x[i * d..(i + 1) * d]
    }

    /// Label of row `i` (0 or 1).
    #[inline]
    pub fn label(&self, i: usize) -> u8 {
        self.y[i]
    }

    /// Sensitive group of row `i`.
    #[inline]
    pub fn group(&self, i: usize) -> GroupId {
        self.g[i]
    }

    /// All labels.
    #[inline]
    pub fn labels(&self) -> &[u8] {
        &self.y
    }

    /// All precomputed group ids.
    #[inline]
    pub fn groups(&self) -> &[GroupId] {
        &self.g
    }

    /// The raw row-major feature buffer.
    #[inline]
    pub fn flat(&self) -> &[f64] {
        &self.x
    }

    /// Value of attribute `a` in row `i`.
    #[inline]
    pub fn value(&self, i: usize, a: AttrId) -> f64 {
        self.x[i * self.n_attrs() + a]
    }

    /// One full column, copied out.
    pub fn column(&self, a: AttrId) -> Vec<f64> {
        (0..self.len()).map(|i| self.value(i, a)).collect()
    }

    /// Overall positive label rate `P(y=1)`.
    pub fn positive_rate(&self) -> f64 {
        self.y.iter().map(|&v| v as usize).sum::<usize>() as f64 / self.len() as f64
    }

    /// Per-group row counts, indexed by [`GroupId`].
    pub fn group_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.group_index.len()];
        for g in &self.g {
            counts[g.index()] += 1;
        }
        counts
    }

    /// Per-group positive label rates `P(y=1 | G=g)`; `None` for groups with
    /// no rows.
    pub fn group_positive_rates(&self) -> Vec<Option<f64>> {
        let mut pos = vec![0usize; self.group_index.len()];
        let mut tot = vec![0usize; self.group_index.len()];
        for i in 0..self.len() {
            tot[self.g[i].index()] += 1;
            pos[self.g[i].index()] += self.y[i] as usize;
        }
        pos.iter()
            .zip(&tot)
            .map(|(&p, &t)| if t == 0 { None } else { Some(p as f64 / t as f64) })
            .collect()
    }

    /// Copies out the subset of rows in `indices` as a new dataset.
    ///
    /// # Errors
    /// [`DatasetError::Empty`] when `indices` is empty.
    ///
    /// # Panics
    /// Panics if an index is out of bounds (programmer error).
    pub fn subset(&self, indices: &[usize]) -> Result<Self, DatasetError> {
        if indices.is_empty() {
            return Err(DatasetError::Empty);
        }
        let d = self.n_attrs();
        let mut x = Vec::with_capacity(indices.len() * d);
        let mut y = Vec::with_capacity(indices.len());
        let mut g = Vec::with_capacity(indices.len());
        for &i in indices {
            x.extend_from_slice(self.row(i));
            y.push(self.y[i]);
            g.push(self.g[i]);
        }
        Ok(Self {
            schema: self.schema.clone(),
            group_index: self.group_index.clone(),
            x,
            y,
            g,
        })
    }

    /// Projects selected attributes of every row into a flat row-major
    /// matrix, optionally multiplying each projected column by a weight
    /// (FALCC's proxy-mitigation *reweighing*, paper §3.4).
    ///
    /// `weights`, when given, must be parallel to `attrs`.
    ///
    /// # Panics
    /// Panics if `weights` is provided with a different length than `attrs`.
    pub fn project(&self, attrs: &[AttrId], weights: Option<&[f64]>) -> ProjectedMatrix {
        if let Some(w) = weights {
            assert_eq!(w.len(), attrs.len(), "one weight per projected attribute");
        }
        let mut data = Vec::with_capacity(self.len() * attrs.len());
        for i in 0..self.len() {
            let row = self.row(i);
            match weights {
                Some(w) => data.extend(attrs.iter().zip(w).map(|(&a, &wa)| row[a] * wa)),
                None => data.extend(attrs.iter().map(|&a| row[a])),
            }
        }
        ProjectedMatrix { data, n_cols: attrs.len(), n_rows: self.len() }
    }

    /// Projects a single (possibly external) full-width row with the same
    /// attribute selection and weights as [`Self::project`]. Used in the
    /// online phase to process new samples consistently with the offline
    /// projection.
    pub fn project_row(row: &[f64], attrs: &[AttrId], weights: Option<&[f64]>) -> Vec<f64> {
        match weights {
            Some(w) => {
                assert_eq!(w.len(), attrs.len(), "one weight per projected attribute");
                attrs.iter().zip(w).map(|(&a, &wa)| row[a] * wa).collect()
            }
            None => attrs.iter().map(|&a| row[a]).collect(),
        }
    }

    /// A borrowed view of the rows in `indices`.
    pub fn view<'a>(&'a self, indices: &'a [usize]) -> DatasetView<'a> {
        DatasetView { ds: self, indices }
    }

    /// Indices of rows belonging to group `g`.
    pub fn indices_of_group(&self, g: GroupId) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.g[i] == g).collect()
    }
}

/// A flat row-major projection of selected dataset columns, as consumed by
/// the clustering substrate.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProjectedMatrix {
    /// Row-major values, `n_rows * n_cols` long.
    pub data: Vec<f64>,
    /// Number of projected columns.
    pub n_cols: usize,
    /// Number of rows.
    pub n_rows: usize,
}

impl ProjectedMatrix {
    /// Row `i` of the projection.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Iterator over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.n_cols.max(1))
    }
}

/// Borrowed view over a subset of a dataset's rows (e.g. one cluster).
#[derive(Debug, Clone, Copy)]
pub struct DatasetView<'a> {
    ds: &'a Dataset,
    indices: &'a [usize],
}

impl<'a> DatasetView<'a> {
    /// Number of rows in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` when the view selects no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The underlying dataset.
    #[inline]
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// The selected row indices (into the underlying dataset).
    #[inline]
    pub fn indices(&self) -> &'a [usize] {
        self.indices
    }

    /// `i`-th selected row.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        self.ds.row(self.indices[i])
    }

    /// Label of the `i`-th selected row.
    #[inline]
    pub fn label(&self, i: usize) -> u8 {
        self.ds.label(self.indices[i])
    }

    /// Group of the `i`-th selected row.
    #[inline]
    pub fn group(&self, i: usize) -> GroupId {
        self.ds.group(self.indices[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn toy() -> Dataset {
        let schema = Schema::with_binary_sensitive(
            vec!["s".into(), "f1".into(), "f2".into()],
            0,
            "y",
        )
        .unwrap();
        Dataset::from_rows(
            schema,
            vec![
                vec![0.0, 1.0, 2.0],
                vec![1.0, 3.0, 4.0],
                vec![0.0, 5.0, 6.0],
                vec![1.0, 7.0, 8.0],
            ],
            vec![1, 0, 0, 1],
        )
        .unwrap()
    }

    #[test]
    fn accessors_are_consistent() {
        let ds = toy();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.n_attrs(), 3);
        assert_eq!(ds.row(2), &[0.0, 5.0, 6.0]);
        assert_eq!(ds.label(3), 1);
        assert_eq!(ds.group(1), GroupId(1));
        assert_eq!(ds.value(1, 2), 4.0);
        assert_eq!(ds.column(1), vec![1.0, 3.0, 5.0, 7.0]);
        assert!((ds.positive_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn group_statistics() {
        let ds = toy();
        assert_eq!(ds.group_counts(), vec![2, 2]);
        let rates = ds.group_positive_rates();
        assert_eq!(rates[0], Some(0.5));
        assert_eq!(rates[1], Some(0.5));
        assert_eq!(ds.indices_of_group(GroupId(1)), vec![1, 3]);
    }

    #[test]
    fn subset_copies_selected_rows() {
        let ds = toy();
        let sub = ds.subset(&[3, 0]).unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.row(0), &[1.0, 7.0, 8.0]);
        assert_eq!(sub.label(1), 1);
        assert!(ds.subset(&[]).is_err());
    }

    #[test]
    fn projection_selects_and_weighs() {
        let ds = toy();
        let p = ds.project(&[1, 2], None);
        assert_eq!(p.n_rows, 4);
        assert_eq!(p.row(1), &[3.0, 4.0]);
        let pw = ds.project(&[1, 2], Some(&[2.0, 0.5]));
        assert_eq!(pw.row(1), &[6.0, 2.0]);
        assert_eq!(
            Dataset::project_row(&[1.0, 3.0, 4.0], &[1, 2], Some(&[2.0, 0.5])),
            vec![6.0, 2.0]
        );
    }

    #[test]
    fn views_borrow_rows() {
        let ds = toy();
        let idx = [1usize, 2];
        let v = ds.view(&idx);
        assert_eq!(v.len(), 2);
        assert_eq!(v.row(0), ds.row(1));
        assert_eq!(v.label(1), 0);
        assert_eq!(v.group(0), GroupId(1));
    }

    #[test]
    fn shape_errors() {
        let schema =
            Schema::with_binary_sensitive(vec!["s".into(), "f".into()], 0, "y").unwrap();
        assert!(matches!(
            Dataset::from_rows(schema.clone(), vec![vec![0.0]], vec![1]),
            Err(DatasetError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Dataset::from_rows(schema.clone(), vec![], vec![]),
            Err(DatasetError::Empty)
        ));
        assert!(matches!(
            Dataset::from_rows(schema.clone(), vec![vec![0.0, 1.0]], vec![2]),
            Err(DatasetError::ShapeMismatch { .. })
        ));
        // Sensitive value 5 is outside {0,1}.
        assert!(matches!(
            Dataset::from_rows(schema, vec![vec![5.0, 1.0]], vec![1]),
            Err(DatasetError::ValueOutOfDomain { .. })
        ));
    }

    #[test]
    fn non_finite_features_are_rejected() {
        let schema =
            Schema::with_binary_sensitive(vec!["s".into(), "f".into()], 0, "y").unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Dataset::from_rows(
                schema.clone(),
                vec![vec![0.0, 1.0], vec![1.0, bad]],
                vec![1, 0],
            );
            match err {
                Err(DatasetError::NonFiniteFeature { row, column }) => {
                    assert_eq!(row, 1);
                    assert_eq!(column, 1);
                }
                other => panic!("expected rejection of {bad}, got {other:?}"),
            }
        }
    }
}
