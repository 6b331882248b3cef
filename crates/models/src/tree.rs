//! CART decision trees with per-sample weights.
//!
//! This is the base estimator of both AdaBoost (which needs weighted
//! training) and the random forest (which needs per-node feature
//! subsampling), mirroring scikit-learn's `DecisionTreeClassifier` in the
//! parameters the paper's grid search varies: maximum depth and the
//! splitting criterion (gini or entropy).
//!
//! Two builders produce **bit-identical** trees:
//!
//! * [`DecisionTree::fit`] — the production *presorted* builder: every
//!   candidate feature's sample order is sorted **once** per training set
//!   (O(d·n log n), a `Presort` that boosting rounds and grid points
//!   share) and threaded through the recursion by stable partitioning of
//!   a per-tree copy, so each node costs O(d·m) instead of O(d·m log m).
//! * [`DecisionTree::fit_naive`] — the textbook builder that re-sorts at
//!   every node and scores every candidate exactly; kept as the reference
//!   implementation for the proof-of-equivalence proptests.
//!
//! Equivalence holds exactly (not just approximately) because both
//! builders visit candidate splits in the same order with the same
//! floating-point summation sequence: stable sorts and *fully stable*
//! partitions keep tied feature values in original-slot order in both
//! paths, so every weight prefix sum accumulates in the same order.
//!
//! Once a node has a best split, the presorted builder scans each
//! attribute's cuts in blocks of `SPLIT_BLOCK`: it first sums the block's
//! weights and skips the whole block when an exact bound over the block's
//! four corners (see `block_gain_bound`) proves no cut in it can beat the
//! best. A block that survives is bounded again in sub-blocks of
//! `SPLIT_SUB_BLOCK`, and only the sub-blocks that survive are scored cut
//! by cut; under entropy each of those cuts first faces a cheap chord
//! bound that can spare its four `ln` calls (see `entropy_lower_bound`).
//! The screens skip only cuts that could not win, and the exact gains the
//! builder does compute are the naive builder's floats, so the chosen
//! split is the same. The screens rely on sample weights being
//! non-negative.
//!
//! Splitting a node partitions the item order and every attribute's order
//! without a data-dependent branch (`partition_slots`), and skips the
//! attribute orders when both children must be leaves.

use crate::traits::Classifier;
use falcc_dataset::{AttrId, Dataset};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::LazyLock;

/// Split impurity criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SplitCriterion {
    /// Gini impurity `2·p·(1−p)`.
    Gini,
    /// Shannon entropy `−p·ln p − (1−p)·ln(1−p)`.
    Entropy,
}

impl SplitCriterion {
    #[inline]
    fn impurity(self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        match self {
            Self::Gini => 2.0 * p * (1.0 - p),
            Self::Entropy => {
                if p <= 0.0 || p >= 1.0 {
                    0.0
                } else {
                    -(p * p.ln() + (1.0 - p) * (1.0 - p).ln())
                }
            }
        }
    }

    /// Short name used in model identifiers.
    pub fn short_name(self) -> &'static str {
        match self {
            Self::Gini => "gini",
            Self::Entropy => "entropy",
        }
    }
}

/// Knots of the entropy chord bound: a power of two, so placing `p` on the
/// knot grid is exact.
const ENTROPY_KNOTS: usize = 256;

/// `SplitCriterion::Entropy.impurity(j / ENTROPY_KNOTS)` for every knot j.
static ENTROPY_AT_KNOTS: LazyLock<[f64; ENTROPY_KNOTS + 1]> = LazyLock::new(|| {
    std::array::from_fn(|j| SplitCriterion::Entropy.impurity(j as f64 / ENTROPY_KNOTS as f64))
});

/// Slack added to a gain upper bound before it may screen a candidate out:
/// far above the rounding in either gain (~1e-15), so the screen never
/// skips a candidate whose computed gain could exceed the best.
const GAIN_BOUND_SLACK: f64 = 1e-9;

/// A lower bound on `SplitCriterion::Entropy.impurity(p)` for every `p`,
/// computed from the knot table `h` without `ln`.
///
/// Entropy `H(p) = −p·ln p − (1−p)·ln(1−p)` is concave on `[0, 1]`
/// (`H'' = −1/(p(1−p)) < 0`), so on every knot interval the chord between
/// the interval's two knots lies at or below the curve. Both `impurity`
/// and this function clamp `p` to `[0, 1]` first, so they agree on which
/// point of the curve is meant even when `p` rounded just outside it. With
/// `x = p·256` (exact: a power-of-two scale), `j = min(⌊x⌋, 255)` and
/// `t = x − j` (exact: `j ≤ x`, and `x − j ≤ 1` is a multiple of `x`'s
/// ulp), the chord value is `h[j] + t·(h[j+1] − h[j])`. The table
/// entries, the chord arithmetic and `impurity` itself each round within
/// a few ulps of values below `ln 2`, about 1e-15 in all, so subtracting
/// 1e-12 keeps the computed bound strictly below the computed entropy.
#[inline]
fn entropy_lower_bound(h: &[f64; ENTROPY_KNOTS + 1], p: f64) -> f64 {
    let x = p.clamp(0.0, 1.0) * ENTROPY_KNOTS as f64;
    let j = (x as usize).min(ENTROPY_KNOTS - 1);
    let t = x - j as f64;
    h[j] + t * (h[j + 1] - h[j]) - 1e-12
}

/// Cuts per block of the presorted builder's split scan. Larger blocks
/// skip more cuts per bound but fail the bound more often.
const SPLIT_BLOCK: usize = 64;

/// Cuts per sub-block: a block whose bound fails is bounded again in
/// sub-blocks of this size before its cuts are scored one by one. On the
/// paper grid this was faster than single-level blocks of 16, 32, 64 or
/// 128 cuts (DESIGN §5d.5).
const SPLIT_SUB_BLOCK: usize = 16;

/// The box that holds every cut of one block of a node's scan, as
/// `([a_lo, a_hi], [b_lo, b_hi])`: `a` is a cut's left positive weight
/// and `b` its left negative weight, and `first` and `last` are the block's
/// first and last cut as `(left_pos, left_w − left_pos)`. The node has
/// positive weight `pos_w` and total weight `total_w`.
///
/// `left_pos` is a running sum of non-negative addends, and rounding is
/// monotone, so it never shrinks and `[a_first, a_last]` holds every cut's
/// `a` exactly. `b` is not summed: each of the block's at most 64 pairs of
/// rounded additions can move `left_w − left_pos` by up to `ε·left_w`
/// against its true increment, so the `b` range is widened by
/// `4·64·ε·total_w`, which covers that with room to spare. The box is then
/// projected onto `[0, P] × [0, N]`, where rounding of `left_pos` or
/// `left_w` past the node's totals can put a cut; that moves each corner
/// by no more than the rounding.
fn block_box(
    (pos_w, total_w): (f64, f64),
    (a_first, b_first): (f64, f64),
    (a_last, b_last): (f64, f64),
) -> ([f64; 2], [f64; 2]) {
    let neg_w = total_w - pos_w;
    let b_widen = 4.0 * SPLIT_BLOCK as f64 * f64::EPSILON * total_w;
    let on_b = |b: f64| b.max(0.0).min(neg_w);
    (
        [a_first.min(pos_w), a_last.min(pos_w)],
        [on_b(b_first - b_widen), on_b(b_last + b_widen)],
    )
}

/// An upper bound on the gain of every cut in one block of a node's scan,
/// `GAIN_BOUND_SLACK` included, given the node's impurity `parent_imp` and
/// the arguments of [`block_box`]. The corners' `φ` is evaluated with an
/// impurity `imp` that never exceeds the criterion's `I`: Gini's own, and
/// for entropy the chord bound `entropy_lower_bound`.
///
/// A cut's weighted child impurity is `F(a, b) = φ(a, b) + φ(P − a,
/// N − b)` with `φ(x, y) = (x + y)·I(x / (x + y))`, `P` and `N` the node's
/// positive and negative weight. Each `φ` is the perspective of a concave
/// impurity (for Gini `2xy / (x + y)`), so it is jointly concave, and so
/// is `F` on `[0, P] × [0, N]`.
///
/// Within a block both `a` and `b` only grow, cut by cut, so every cut
/// lies in the box spanned by the first cut's `(a, b)` and the last's, and
/// a concave function's minimum over a box is at one of its four corners.
/// All four are needed: a block whose positives come first passes through
/// `(a_last, b_first)`. This lifts to blocks the "the best cut lies on a
/// boundary" argument of Fayyad & Irani (1992) and Elomaa & Rousu (1999).
/// Evaluating the corners with `imp ≤ I` only lowers them further.
///
/// A cut's computed gain reads the rounded right-side weights and
/// proportions, which sit within a few `ε·total_w` of `(P − a, N − b)`.
/// That, the box's widening and projection, the continuity of `φ`, and the
/// rounding of the evaluations here and in the exact gain all stay below
/// 1e-11 of `total_w`, which the slack covers.
fn block_gain_bound(
    criterion: SplitCriterion,
    parent_imp: f64,
    (pos_w, total_w): (f64, f64),
    first: (f64, f64),
    last: (f64, f64),
) -> f64 {
    let h = &*ENTROPY_AT_KNOTS;
    let imp = |p: f64| match criterion {
        SplitCriterion::Gini => criterion.impurity(p),
        // Exact corners would skip under 0.1% more blocks, for sixteen
        // `ln` calls per block.
        SplitCriterion::Entropy => entropy_lower_bound(h, p),
    };
    let phi = |x: f64, y: f64| if x + y > 0.0 { (x + y) * imp(x / (x + y)) } else { 0.0 };
    let ([a0, a1], [b0, b1]) = block_box((pos_w, total_w), first, last);
    let neg_w = total_w - pos_w;
    let f = |a: f64, b: f64| phi(a, b) + phi(pos_w - a, neg_w - b);
    let lower = f(a0, b0).min(f(a0, b1)).min(f(a1, b0)).min(f(a1, b1));
    parent_imp - lower / total_w + GAIN_BOUND_SLACK
}

/// Decision-tree hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0); a depth-1 tree is a stump.
    pub max_depth: usize,
    /// Minimum number of samples in each leaf.
    pub min_samples_leaf: usize,
    /// Split criterion.
    pub criterion: SplitCriterion,
    /// When set, each node considers only a random subset of this many
    /// candidate features (random-forest style).
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 7,
            min_samples_leaf: 1,
            criterion: SplitCriterion::Gini,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf { proba: f64 },
    Split { attr: AttrId, threshold: f64, left: u32, right: u32 },
}

/// A trained CART decision tree.
///
/// Its nodes are stored in post-order: children before parents, the left
/// subtree before the right, the root last. Both builders push nodes in
/// that order, and the serialised form relies on it (see the `Serialize`
/// impl below).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    name: String,
}

fn check_fit_inputs(attrs: &[AttrId], indices: &[usize], weights: Option<&[f64]>) {
    assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
    assert!(!attrs.is_empty(), "cannot fit a tree on zero features");
    if let Some(w) = weights {
        assert_eq!(w.len(), indices.len(), "one weight per training sample");
    }
}

fn tree_name(params: &TreeParams) -> String {
    format!("cart[d={},{}]", params.max_depth, params.criterion.short_name())
}

impl DecisionTree {
    /// Fits a tree on the rows of `ds` selected by `indices`, using only
    /// the attributes in `attrs`. `weights`, when given, is parallel to
    /// `indices`.
    ///
    /// Uses the presorted builder; [`Self::fit_naive`] produces a
    /// bit-identical tree by re-sorting at every node. Weights must be
    /// non-negative: the builder's split screens rely on it.
    ///
    /// # Panics
    /// Panics if `indices` is empty, `attrs` is empty, or `weights` has the
    /// wrong length.
    pub fn fit(
        ds: &Dataset,
        attrs: &[AttrId],
        indices: &[usize],
        weights: Option<&[f64]>,
        params: &TreeParams,
        seed: u64,
    ) -> Self {
        Self::fit_presorted(&Presort::new(ds, attrs, indices), weights, params, seed)
    }

    /// [`Self::fit`] over a presort the caller may share between trees
    /// fitted on the same rows; `weights`, when given, is parallel to the
    /// presort's `indices`.
    ///
    /// # Panics
    /// Panics if `weights` has the wrong length.
    pub(crate) fn fit_presorted(
        presort: &Presort<'_>,
        weights: Option<&[f64]>,
        params: &TreeParams,
        seed: u64,
    ) -> Self {
        if let Some(w) = weights {
            assert_eq!(w.len(), presort.len(), "one weight per training sample");
        }
        let mut builder = FastBuilder::new(presort, weights, params, seed);
        builder.build(0, presort.len(), 0);
        Self { nodes: builder.nodes, name: tree_name(params) }
    }

    /// Reference implementation of [`Self::fit`]: the textbook CART loop
    /// that re-sorts the node's samples for every candidate feature at
    /// every node. Kept for the equivalence proptests; produces a
    /// bit-identical tree.
    ///
    /// # Panics
    /// Same conditions as [`Self::fit`].
    pub fn fit_naive(
        ds: &Dataset,
        attrs: &[AttrId],
        indices: &[usize],
        weights: Option<&[f64]>,
        params: &TreeParams,
        seed: u64,
    ) -> Self {
        check_fit_inputs(attrs, indices, weights);
        let owned_weights: Vec<f64> = match weights {
            Some(w) => w.to_vec(),
            None => vec![1.0; indices.len()],
        };
        let mut builder = Builder {
            ds,
            attrs,
            params,
            rng: StdRng::seed_from_u64(seed ^ 0xa076_1d64_78bd_642f),
            nodes: Vec::new(),
        };
        // Working set: (dataset row index, weight).
        let mut items: Vec<(usize, f64)> =
            indices.iter().copied().zip(owned_weights).collect();
        builder.build(&mut items, 0);
        Self { nodes: builder.nodes, name: tree_name(params) }
    }

    /// Number of nodes (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node slab, for compilation into [`crate::flat::NodeArena`]
    /// form (children precede parents; the root is the last node).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Depth of the tree (diagnostics; 0 = single leaf).
    pub fn depth(&self) -> usize {
        // Children precede parents, so one forward pass sees both of a
        // split's children before the split itself.
        let mut depths: Vec<usize> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            depths.push(match *node {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depths[left as usize].max(depths[right as usize])
                }
            });
        }
        depths.last().copied().unwrap_or(0)
    }

    /// The largest attribute any split reads; `None` for a single leaf.
    pub fn max_split_attr(&self) -> Option<AttrId> {
        self.nodes
            .iter()
            .filter_map(|node| match *node {
                Node::Split { attr, .. } => Some(attr),
                Node::Leaf { .. } => None,
            })
            .max()
    }
}

/// A tree serialises as `{"attr":[…],"value":[…],"name":…}` over its
/// post-order node slab: `attr[i]` is node `i`'s split attribute, or
/// `null` for a leaf, and `value[i]` its threshold, or the leaf's
/// probability. The child links are not stored; deserialising rebuilds
/// them from the order alone.
impl Serialize for DecisionTree {
    fn to_value(&self) -> Value<'_> {
        let (attr, value): (Vec<_>, Vec<_>) = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Leaf { proba } => (Value::Null, proba.to_value()),
                Node::Split { attr, threshold, .. } => (attr.to_value(), threshold.to_value()),
            })
            .unzip();
        Value::Object(vec![
            ("attr".into(), Value::Array(attr)),
            ("value".into(), Value::Array(value)),
            ("name".into(), self.name.to_value()),
        ])
    }
}

/// Replays the post-order on a stack: a leaf pushes itself, and a split
/// pops its right subtree, then its left, and pushes itself. Any sequence
/// that is not exactly one tree — unequal `attr` and `value` lengths, no
/// node at all, a split without two complete subtrees before it, or more
/// than one root left at the end — is an error.
impl Deserialize for DecisionTree {
    fn from_value(v: &Value<'_>) -> Result<Self, DeError> {
        let field = |key: &str| {
            v.get(key).ok_or_else(|| DeError::custom(format!("tree has no {key:?} field")))
        };
        let (Value::Array(attrs), Value::Array(values)) = (field("attr")?, field("value")?) else {
            return Err(DeError::custom("tree \"attr\" and \"value\" must be arrays"));
        };
        if attrs.len() != values.len() {
            return Err(DeError::custom(format!(
                "tree has {} attributes for {} values",
                attrs.len(),
                values.len()
            )));
        }
        let mut nodes = Vec::with_capacity(attrs.len());
        let mut roots: Vec<u32> = Vec::new();
        for (i, (attr, value)) in attrs.iter().zip(values).enumerate() {
            let index =
                u32::try_from(i).map_err(|_| DeError::custom("tree has over 2^32 nodes"))?;
            let value = f64::from_value(value)?;
            nodes.push(match Option::<AttrId>::from_value(attr)? {
                None => Node::Leaf { proba: value },
                Some(attr) => {
                    let (Some(right), Some(left)) = (roots.pop(), roots.pop()) else {
                        return Err(DeError::custom(format!(
                            "tree split {i} lacks two subtrees before it"
                        )));
                    };
                    Node::Split { attr, threshold: value, left, right }
                }
            });
            roots.push(index);
        }
        match roots.len() {
            1 => Ok(Self { nodes, name: String::from_value(field("name")?)? }),
            0 => Err(DeError::custom("tree has no nodes")),
            n => Err(DeError::custom(format!("tree nodes form {n} trees, not one"))),
        }
    }
}

impl Classifier for DecisionTree {
    fn to_spec(&self) -> Option<crate::persist::ModelSpec> {
        Some(crate::persist::ModelSpec::Tree(self.clone()))
    }

    fn predict_proba_row(&self, row: &[f64]) -> f64 {
        let mut at = self.nodes.len() - 1; // root is the last-built node
        loop {
            match &self.nodes[at] {
                Node::Leaf { proba } => return *proba,
                Node::Split { attr, threshold, left, right } => {
                    at = if row[*attr] <= *threshold { *left as usize } else { *right as usize };
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

struct Builder<'a> {
    ds: &'a Dataset,
    attrs: &'a [AttrId],
    params: &'a TreeParams,
    rng: StdRng,
    nodes: Vec<Node>,
}

impl Builder<'_> {
    /// Builds the subtree over `items`, returning its node id. Children are
    /// pushed before parents, so the subtree root is always the last node.
    fn build(&mut self, items: &mut [(usize, f64)], depth: usize) -> u32 {
        let total_w: f64 = items.iter().map(|&(_, w)| w).sum();
        let pos_w: f64 =
            items.iter().filter(|&&(i, _)| self.ds.label(i) == 1).map(|&(_, w)| w).sum();
        let p = if total_w > 0.0 { pos_w / total_w } else { 0.5 };

        let stop = depth >= self.params.max_depth
            || items.len() < 2 * self.params.min_samples_leaf
            || p <= 0.0
            || p >= 1.0
            || total_w <= 0.0;
        if stop {
            self.nodes.push(Node::Leaf { proba: p });
            return (self.nodes.len() - 1) as u32;
        }

        let candidates = self.candidate_features();
        let parent_imp = self.params.criterion.impurity(p);
        let mut best: Option<(AttrId, f64, f64)> = None; // (attr, threshold, gain)
        let mut evaluated = 0u64;

        for &attr in &candidates {
            // Sort items by this attribute's value.
            let mut sorted: Vec<(f64, f64, bool)> = items
                .iter()
                .map(|&(i, w)| (self.ds.value(i, attr), w, self.ds.label(i) == 1))
                .collect();
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
            let mut left_w = 0.0;
            let mut left_pos = 0.0;
            for cut in 1..sorted.len() {
                let (v_prev, w_prev, y_prev) = sorted[cut - 1];
                left_w += w_prev;
                left_pos += if y_prev { w_prev } else { 0.0 };
                let v_here = sorted[cut].0;
                if v_here <= v_prev {
                    continue; // no boundary between equal values
                }
                if cut < self.params.min_samples_leaf
                    || sorted.len() - cut < self.params.min_samples_leaf
                {
                    continue;
                }
                let right_w = total_w - left_w;
                if left_w <= 0.0 || right_w <= 0.0 {
                    continue;
                }
                let right_pos = pos_w - left_pos;
                let imp_l = self.params.criterion.impurity(left_pos / left_w);
                let imp_r = self.params.criterion.impurity(right_pos / right_w);
                let gain =
                    parent_imp - (left_w * imp_l + right_w * imp_r) / total_w;
                evaluated += 1;
                // Accept the best split even at zero gain (scikit-learn
                // semantics): XOR-like concepts have zero first-level gain
                // and are only separable if we split anyway.
                if gain > best.map_or(f64::NEG_INFINITY, |(_, _, g)| g) {
                    best = Some((attr, 0.5 * (v_prev + v_here), gain));
                }
            }
        }
        falcc_telemetry::counters::SPLITS_EVALUATED.add(evaluated);

        let Some((attr, threshold, _)) = best else {
            self.nodes.push(Node::Leaf { proba: p });
            return (self.nodes.len() - 1) as u32;
        };

        // Partition in place around the threshold.
        let split_at = partition(items, |&(i, _)| self.ds.value(i, attr) <= threshold);
        // A degenerate partition can only happen through floating-point
        // pathologies; guard by emitting a leaf.
        if split_at == 0 || split_at == items.len() {
            self.nodes.push(Node::Leaf { proba: p });
            return (self.nodes.len() - 1) as u32;
        }
        let (left_items, right_items) = items.split_at_mut(split_at);
        let left = self.build(left_items, depth + 1);
        let right = self.build(right_items, depth + 1);
        self.nodes.push(Node::Split { attr, threshold, left, right });
        (self.nodes.len() - 1) as u32
    }

    fn candidate_features(&mut self) -> Vec<AttrId> {
        sample_candidates(self.attrs, self.params.max_features, &mut self.rng)
    }
}

/// Per-node candidate features, shared by both builders so they consume
/// the RNG identically: all attributes, or a shuffled subset of
/// `max_features` (random-forest style).
fn sample_candidates(
    attrs: &[AttrId],
    max_features: Option<usize>,
    rng: &mut StdRng,
) -> Vec<AttrId> {
    match max_features {
        Some(m) if m < attrs.len() => {
            let mut pool: Vec<AttrId> = attrs.to_vec();
            pool.shuffle(rng);
            pool.truncate(m.max(1));
            pool
        }
        _ => attrs.to_vec(),
    }
}

/// Fully stable partition: moves items satisfying `pred` to the front,
/// preserving the relative order of **both** sides, and returns the
/// boundary. Full stability is what makes the presorted builder's
/// summation order provably equal to the naive builder's.
fn partition<T: Copy>(items: &mut [T], mut pred: impl FnMut(&T) -> bool) -> usize {
    let mut right: Vec<T> = Vec::new();
    let mut store = 0;
    for i in 0..items.len() {
        let item = items[i];
        if pred(&item) {
            items[store] = item;
            store += 1;
        } else {
            right.push(item);
        }
    }
    items[store..].copy_from_slice(&right);
    store
}

/// The weight-independent half of the presorted builder: the training
/// rows' candidate attribute values, each attribute's slots sorted by
/// value, and the labels. Sample "slots" are positions into `indices`.
///
/// Every tree fitted on the same rows and attributes can share one
/// presort read-only — all boosting rounds of an ensemble, and all
/// AdaBoost points of the hyperparameter grid — so the O(d·n log n)
/// sort runs once per training set instead of once per tree.
pub(crate) struct Presort<'a> {
    ds: &'a Dataset,
    attrs: &'a [AttrId],
    indices: &'a [usize],
    /// `vals[a_idx * n + slot]` — candidate attribute values per slot.
    vals: Vec<f64>,
    /// `orders[a_idx * n ..][..n]` — slots sorted by attribute value
    /// (ties in original slot order, matching the naive stable sort).
    orders: Vec<u32>,
    /// Per slot: `label == 1`.
    is_pos: Vec<bool>,
}

impl<'a> Presort<'a> {
    /// Sorts the rows of `ds` in `indices` on every attribute in `attrs`.
    ///
    /// # Panics
    /// Panics if `indices` or `attrs` is empty.
    pub(crate) fn new(ds: &'a Dataset, attrs: &'a [AttrId], indices: &'a [usize]) -> Self {
        check_fit_inputs(attrs, indices, None);
        let n = indices.len();
        let d = attrs.len();
        let mut vals = Vec::with_capacity(d * n);
        for &attr in attrs {
            vals.extend(indices.iter().map(|&row| ds.value(row, attr)));
        }
        let mut orders = Vec::with_capacity(d * n);
        for a_idx in 0..d {
            let base = a_idx * n;
            let mut order: Vec<u32> = (0..n as u32).collect();
            // Stable: tied values keep ascending slot order, exactly like
            // the naive builder's per-node stable sort.
            order.sort_by(|&s1, &s2| {
                vals[base + s1 as usize]
                    .partial_cmp(&vals[base + s2 as usize])
                    .expect("finite features")
            });
            orders.extend_from_slice(&order);
        }
        let is_pos = indices.iter().map(|&row| ds.label(row) == 1).collect();
        Self {
            ds,
            attrs,
            indices,
            vals,
            orders,
            is_pos,
        }
    }

    /// The dataset the presort was built from.
    pub(crate) fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// The presorted rows of [`Self::dataset`], in slot order.
    pub(crate) fn indices(&self) -> &'a [usize] {
        self.indices
    }

    /// Number of slots (training rows).
    pub(crate) fn len(&self) -> usize {
        self.indices.len()
    }
}

/// The per-tree half of the presorted builder behind
/// [`DecisionTree::fit`].
///
/// Every node owns a contiguous segment `[lo, hi)` of all per-attribute
/// orders plus the naive builder's item order. Splitting a node stably
/// partitions each of those arrays in O(d·m) — no re-sorting below the
/// root. The orders start as a copy of the shared [`Presort`], so the
/// presort itself is never modified.
struct FastBuilder<'a> {
    presort: &'a Presort<'a>,
    params: &'a TreeParams,
    rng: StdRng,
    nodes: Vec<Node>,
    /// This tree's working copy of `presort.orders`, partitioned in place.
    orders: Vec<u32>,
    /// Slots in the naive builder's item order (original order filtered by
    /// the path predicates); the weight/label sums iterate this order.
    items: Vec<u32>,
    /// Per slot: sample weight.
    weights: Vec<f64>,
    /// Per slot: the sample weight if the label is positive, else `0.0`.
    /// Adding `0.0` leaves every sum as the naive builder's select does.
    pos_weights: Vec<f64>,
    /// Per slot scratch: side of the current split.
    goes_left: Vec<bool>,
    /// Partition scratch (right side), one slot per sample.
    scratch: Vec<u32>,
}

impl<'a> FastBuilder<'a> {
    fn new(
        presort: &'a Presort<'a>,
        weights: Option<&[f64]>,
        params: &'a TreeParams,
        seed: u64,
    ) -> Self {
        let n = presort.len();
        let weights = match weights {
            Some(w) => w.to_vec(),
            None => vec![1.0; n],
        };
        debug_assert!(weights.iter().all(|&w| w >= 0.0), "sample weights must be non-negative");
        let pos_weights = weights
            .iter()
            .zip(&presort.is_pos)
            .map(|(&w, &pos)| if pos { w } else { 0.0 })
            .collect();
        Self {
            presort,
            params,
            rng: StdRng::seed_from_u64(seed ^ 0xa076_1d64_78bd_642f),
            nodes: Vec::new(),
            orders: presort.orders.clone(),
            items: (0..n as u32).collect(),
            weights,
            pos_weights,
            goes_left: vec![false; n],
            scratch: vec![0; n],
        }
    }

    /// Position of `attr` within the candidate attribute list.
    fn attr_index(&self, attr: AttrId) -> usize {
        self.presort
            .attrs
            .iter()
            .position(|&a| a == attr)
            .expect("candidate attribute")
    }

    /// Builds the subtree over segment `[lo, hi)`, returning its node id.
    /// Children are pushed before parents, exactly like the naive builder.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        let presort = self.presort;
        let (n, vals) = (presort.len(), &presort.vals);
        let (weights, pos_weights) = (&self.weights, &self.pos_weights);
        let m = hi - lo;
        let mut total_w = 0.0;
        let mut pos_w = 0.0;
        for &slot in &self.items[lo..hi] {
            total_w += weights[slot as usize];
            pos_w += pos_weights[slot as usize];
        }
        let p = if total_w > 0.0 { pos_w / total_w } else { 0.5 };

        let stop = depth >= self.params.max_depth
            || m < 2 * self.params.min_samples_leaf
            || p <= 0.0
            || p >= 1.0
            || total_w <= 0.0;
        if stop {
            self.nodes.push(Node::Leaf { proba: p });
            return (self.nodes.len() - 1) as u32;
        }

        let candidates = sample_candidates(presort.attrs, self.params.max_features, &mut self.rng);
        let criterion = self.params.criterion;
        let parent_imp = criterion.impurity(p);
        // Gini has no `ln` to save, so only entropy is screened per cut.
        let knots = (criterion == SplitCriterion::Entropy).then(|| &*ENTROPY_AT_KNOTS);
        let mut best: Option<(AttrId, f64, f64)> = None; // (attr, threshold, gain)
        let mut evaluated = 0u64;
        let mut screened = 0u64;
        let mut blocks_bounded = 0u64;
        let mut blocks_screened = 0u64;

        for &attr in &candidates {
            let base = self.attr_index(attr) * n;
            let order = &self.orders[base + lo..base + hi];
            let vals = &vals[base..base + n];
            let mut left_w = 0.0;
            let mut left_pos = 0.0;
            let mut start = 1;
            // Cuts before this one are bounded in sub-blocks.
            let mut sub_blocks_until = 0;
            while start < m {
                let size = if start < sub_blocks_until { SPLIT_SUB_BLOCK } else { SPLIT_BLOCK };
                let end = (start + size).min(m);
                if let Some((_, _, best_gain)) = best {
                    // Sum the block with the same additions, in the same
                    // order, as the cut-by-cut loop below, so a skipped
                    // block leaves both sums as that loop would.
                    let before = (left_w, left_pos);
                    let s = order[start - 1] as usize;
                    left_w += weights[s];
                    left_pos += pos_weights[s];
                    let first = (left_pos, left_w - left_pos);
                    for &s in &order[start..end - 1] {
                        left_w += weights[s as usize];
                        left_pos += pos_weights[s as usize];
                    }
                    let last = (left_pos, left_w - left_pos);
                    let bound =
                        block_gain_bound(criterion, parent_imp, (pos_w, total_w), first, last);
                    blocks_bounded += 1;
                    // The update below is strict, so no cut in a block
                    // whose bound cannot beat the best can ever win.
                    if bound <= best_gain {
                        blocks_screened += 1;
                        start = end;
                        continue;
                    }
                    (left_w, left_pos) = before;
                    if size == SPLIT_BLOCK && end - start > SPLIT_SUB_BLOCK {
                        sub_blocks_until = end;
                        continue;
                    }
                }
                for cut in start..end {
                    let s_prev = order[cut - 1] as usize;
                    let v_prev = vals[s_prev];
                    left_w += weights[s_prev];
                    left_pos += pos_weights[s_prev];
                    let v_here = vals[order[cut] as usize];
                    if v_here <= v_prev {
                        continue; // no boundary between equal values
                    }
                    if cut < self.params.min_samples_leaf
                        || m - cut < self.params.min_samples_leaf
                    {
                        continue;
                    }
                    let right_w = total_w - left_w;
                    if left_w <= 0.0 || right_w <= 0.0 {
                        continue;
                    }
                    let right_pos = pos_w - left_pos;
                    // The bound and the exact path read the same proportions.
                    let (p_l, p_r) = (left_pos / left_w, right_pos / right_w);
                    evaluated += 1;
                    if let (Some(h), Some((_, _, best_gain))) = (knots, best) {
                        // Lower child impurities give an upper bound on the
                        // gain; the update below is strict, so a candidate
                        // whose bound cannot beat the best can never win.
                        let lower = left_w * entropy_lower_bound(h, p_l)
                            + right_w * entropy_lower_bound(h, p_r);
                        if parent_imp - lower / total_w + GAIN_BOUND_SLACK <= best_gain {
                            screened += 1;
                            continue;
                        }
                    }
                    let imp_l = criterion.impurity(p_l);
                    let imp_r = criterion.impurity(p_r);
                    let gain =
                        parent_imp - (left_w * imp_l + right_w * imp_r) / total_w;
                    if gain > best.map_or(f64::NEG_INFINITY, |(_, _, g)| g) {
                        best = Some((attr, 0.5 * (v_prev + v_here), gain));
                    }
                }
                start = end;
            }
        }
        falcc_telemetry::counters::SPLITS_EVALUATED.add(evaluated);
        falcc_telemetry::counters::SPLITS_SCREENED.add(screened);
        falcc_telemetry::counters::SPLIT_BLOCKS_BOUNDED.add(blocks_bounded);
        falcc_telemetry::counters::SPLIT_BLOCKS_SCREENED.add(blocks_screened);

        let Some((attr, threshold, _)) = best else {
            self.nodes.push(Node::Leaf { proba: p });
            return (self.nodes.len() - 1) as u32;
        };

        // Mark each slot's side, then stably partition the item order and
        // every per-attribute order around the same boundary.
        let split_base = self.attr_index(attr) * n;
        let mut n_left = 0;
        for &slot in &self.items[lo..hi] {
            let left = vals[split_base + slot as usize] <= threshold;
            self.goes_left[slot as usize] = left;
            n_left += usize::from(left);
        }
        // Degenerate partitions can only happen through floating-point
        // pathologies; guard by emitting a leaf (as the naive builder does).
        if n_left == 0 || n_left == m {
            self.nodes.push(Node::Leaf { proba: p });
            return (self.nodes.len() - 1) as u32;
        }
        partition_slots(&mut self.items[lo..hi], &self.goes_left, &mut self.scratch);
        // A leaf reads only the item order, so when both children must be
        // leaves the attribute orders are left as they are.
        if depth + 1 < self.params.max_depth
            && n_left.max(m - n_left) >= 2 * self.params.min_samples_leaf
        {
            for a_idx in 0..presort.attrs.len() {
                let base = a_idx * n;
                partition_slots(
                    &mut self.orders[base + lo..base + hi],
                    &self.goes_left,
                    &mut self.scratch,
                );
            }
        }

        let mid = lo + n_left;
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        self.nodes.push(Node::Split { attr, threshold, left, right });
        (self.nodes.len() - 1) as u32
    }
}

/// Stable in-place partition of a slot segment by the `goes_left` flags,
/// using `scratch` (at least as long as the segment) to hold the right
/// side. Each slot is written to both sides and only the side it belongs
/// to advances, so the loop has no data-dependent branch; the left write
/// never overtakes the read, because `store <= i`.
fn partition_slots(segment: &mut [u32], goes_left: &[bool], scratch: &mut [u32]) {
    let (mut store, mut right) = (0, 0);
    for i in 0..segment.len() {
        let slot = segment[i];
        let left = goes_left[slot as usize];
        segment[store] = slot;
        scratch[right] = slot;
        store += usize::from(left);
        right += usize::from(!left);
    }
    segment[store..].copy_from_slice(&scratch[..right]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcc_dataset::Schema;
    use rand::Rng;

    fn xor_dataset() -> Dataset {
        // Label = a XOR b: needs depth ≥ 2.
        let schema = Schema::new(
            vec!["a".into(), "b".into()],
            vec![],
            "y",
        )
        .unwrap();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..10 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                rows.push(vec![a, b]);
                labels.push(u8::from((a as u8) ^ (b as u8) == 1));
            }
        }
        Dataset::from_rows(schema, rows, labels).unwrap()
    }

    fn all_indices(ds: &Dataset) -> Vec<usize> {
        (0..ds.len()).collect()
    }

    #[test]
    fn learns_xor_with_sufficient_depth() {
        let ds = xor_dataset();
        let idx = all_indices(&ds);
        let params = TreeParams { max_depth: 3, ..Default::default() };
        let tree = DecisionTree::fit(&ds, &[0, 1], &idx, None, &params, 0);
        for i in 0..ds.len() {
            assert_eq!(tree.predict_row(ds.row(i)), ds.label(i));
        }
    }

    #[test]
    fn stump_cannot_learn_xor() {
        let ds = xor_dataset();
        let idx = all_indices(&ds);
        let params = TreeParams { max_depth: 1, ..Default::default() };
        let tree = DecisionTree::fit(&ds, &[0, 1], &idx, None, &params, 0);
        let correct = (0..ds.len())
            .filter(|&i| tree.predict_row(ds.row(i)) == ds.label(i))
            .count();
        // On balanced XOR data every single split leaves both sides at
        // p = 0.5, so a stump classifies exactly half the rows correctly.
        assert!(correct <= ds.len() / 2, "stump got {correct}/{}", ds.len());
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn respects_max_depth() {
        let ds = xor_dataset();
        let idx = all_indices(&ds);
        for d in 0..4 {
            let params = TreeParams { max_depth: d, ..Default::default() };
            let tree = DecisionTree::fit(&ds, &[0, 1], &idx, None, &params, 0);
            assert!(tree.depth() <= d, "depth {} exceeds {d}", tree.depth());
        }
    }

    #[test]
    fn weights_steer_the_split() {
        // One feature; labels disagree with the feature on a minority of
        // rows. With huge weights on the minority, the tree must flip.
        let schema = Schema::new(vec!["f".into()], vec![], "y").unwrap();
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        // Majority rule: f >= 5 → 1. Minority (rows 0,1): also labeled 1.
        let labels = vec![1, 1, 0, 0, 0, 1, 1, 1, 1, 1];
        let ds = Dataset::from_rows(schema, rows, labels).unwrap();
        let idx = all_indices(&ds);
        let params = TreeParams { max_depth: 1, ..Default::default() };

        let unweighted = DecisionTree::fit(&ds, &[0], &idx, None, &params, 0);
        // Unweighted stump splits around f=4.5 and predicts 0 for row 0.
        assert_eq!(unweighted.predict_row(&[0.0]), 0);

        let mut w = vec![1.0; 10];
        w[0] = 100.0;
        w[1] = 100.0;
        let weighted = DecisionTree::fit(&ds, &[0], &idx, Some(&w), &params, 0);
        // With rows 0/1 dominating, the left side must predict 1.
        assert_eq!(weighted.predict_row(&[0.0]), 1);
    }

    #[test]
    fn pure_node_is_a_leaf() {
        let schema = Schema::new(vec!["f".into()], vec![], "y").unwrap();
        let ds = Dataset::from_rows(
            schema,
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![1, 1, 1],
        )
        .unwrap();
        let tree =
            DecisionTree::fit(&ds, &[0], &[0, 1, 2], None, &TreeParams::default(), 0);
        assert_eq!(tree.n_nodes(), 1);
        assert!((tree.predict_proba_row(&[9.9]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_features_yield_leaf() {
        let schema = Schema::new(vec!["f".into()], vec![], "y").unwrap();
        let ds = Dataset::from_rows(
            schema,
            vec![vec![5.0], vec![5.0], vec![5.0], vec![5.0]],
            vec![1, 0, 1, 0],
        )
        .unwrap();
        let tree =
            DecisionTree::fit(&ds, &[0], &[0, 1, 2, 3], None, &TreeParams::default(), 0);
        assert_eq!(tree.n_nodes(), 1);
        assert!((tree.predict_proba_row(&[5.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_is_enforced() {
        let schema = Schema::new(vec!["f".into()], vec![], "y").unwrap();
        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let labels = vec![1, 0, 0, 0, 0, 0, 0, 0];
        let ds = Dataset::from_rows(schema, rows, labels).unwrap();
        let params = TreeParams { max_depth: 5, min_samples_leaf: 3, ..Default::default() };
        let tree = DecisionTree::fit(&ds, &[0], &(0..8).collect::<Vec<_>>(), None, &params, 0);
        // Separating the single positive (row 0) would need a leaf of
        // size < 3, so no split can isolate it.
        assert!(tree.predict_proba_row(&[0.0]) < 0.5);
    }

    #[test]
    fn entropy_criterion_also_learns() {
        let ds = xor_dataset();
        let idx = all_indices(&ds);
        let params = TreeParams {
            max_depth: 3,
            criterion: SplitCriterion::Entropy,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&ds, &[0, 1], &idx, None, &params, 0);
        for i in 0..ds.len() {
            assert_eq!(tree.predict_row(ds.row(i)), ds.label(i));
        }
    }

    #[test]
    fn feature_subsampling_uses_allowed_features_only() {
        let ds = xor_dataset();
        let idx = all_indices(&ds);
        let params = TreeParams {
            max_depth: 3,
            max_features: Some(1),
            ..Default::default()
        };
        // With one random feature per node it may or may not solve XOR, but
        // it must run and produce a valid tree.
        let tree = DecisionTree::fit(&ds, &[0, 1], &idx, None, &params, 42);
        assert!(tree.n_nodes() >= 1);
        let p = tree.predict_proba_row(&[1.0, 0.0]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = xor_dataset();
        let idx = all_indices(&ds);
        let params = TreeParams { max_depth: 3, max_features: Some(1), ..Default::default() };
        let a = DecisionTree::fit(&ds, &[0, 1], &idx, None, &params, 7);
        let b = DecisionTree::fit(&ds, &[0, 1], &idx, None, &params, 7);
        for i in 0..ds.len() {
            assert_eq!(a.predict_row(ds.row(i)), b.predict_row(ds.row(i)));
        }
    }

    #[test]
    fn entropy_chord_bound_never_exceeds_entropy() {
        let h = &*ENTROPY_AT_KNOTS;
        let smallest_subnormal = 0.0f64.next_up();
        let mut ps = vec![
            0.0,
            -0.0,
            1.0,
            1e-300,
            smallest_subnormal,
            // Just outside [0, 1]: the right child's positive weight is a
            // difference of sums and can round below zero.
            -smallest_subnormal,
            -1e-17,
            1.0f64.next_up(),
            1.0 + 1e-9,
        ];
        for j in 0..=ENTROPY_KNOTS {
            let knot = j as f64 / ENTROPY_KNOTS as f64;
            ps.extend([knot.next_down(), knot, knot.next_up()]);
        }
        // A dense grid whose step is not a power of two, so its points
        // fall everywhere between the knots.
        let steps = 999_983;
        ps.extend((0..=steps).map(|i| i as f64 / steps as f64));
        let mut widest_gap = 0.0f64;
        for p in ps {
            let (lower, exact) = (entropy_lower_bound(h, p), SplitCriterion::Entropy.impurity(p));
            assert!(lower <= exact, "bound {lower:e} above entropy {exact:e} at p = {p:e}");
            widest_gap = widest_gap.max(exact - lower);
        }
        // The bound is also tight enough to screen: the chord's worst gap
        // is 1/(256·e) ≈ 1.44e-3, on the first and last knot intervals.
        assert!(widest_gap < 1.5e-3, "chord gap {widest_gap}");
    }

    #[test]
    fn block_bound_covers_every_cut_in_the_block() {
        // Random nodes scanned with the builder's arithmetic up to the end
        // of one block of 1–64 cuts. Each block's box must hold every cut
        // in it, and its gain bound must be at least every computed gain.
        let mut rng = StdRng::seed_from_u64(0xb10c);
        let (mut right_pos_below_zero, mut right_neg_below_zero) = (0, 0);
        for _ in 0..20_000 {
            // Weights of one to four magnitudes between 1e-300 and 1e3,
            // with some exact zeros.
            let lo_exp: f64 = rng.gen_range(-300.0..=3.0);
            let hi_exp = rng.gen_range(lo_exp..=(lo_exp + 4.0).min(3.0));
            let zeros = rng.gen_range(0.0..=0.3);
            let weight = |rng: &mut StdRng| {
                if rng.gen_bool(zeros) {
                    0.0
                } else {
                    10f64.powf(rng.gen_range(lo_exp..=hi_exp))
                }
            };
            // Labels: a random prefix, then the block's run (all positive,
            // all negative, sorted either way, or mixed), then a short
            // suffix that is often all one label, so the right side's
            // other class holds nothing and its weight rounds about zero.
            let k = rng.gen_range(0..=150);
            let len = rng.gen_range(1..=SPLIT_BLOCK);
            let r: usize = rng.gen_range(1..=3);
            let run = rng.gen_range(0..5);
            let tail = rng.gen_range(0..3);
            let mut slots: Vec<(f64, bool)> = Vec::with_capacity(k + len + r);
            for i in 0..k + len + r {
                let pos = if i < k {
                    rng.gen_bool(0.5)
                } else if i < k + len {
                    let j = i - k;
                    match run {
                        0 => true,
                        1 => false,
                        2 => j < len / 2,
                        3 => j >= len / 2,
                        _ => rng.gen_bool(0.5),
                    }
                } else {
                    match tail {
                        0 => true,
                        1 => false,
                        _ => rng.gen_bool(0.5),
                    }
                };
                slots.push((weight(&mut rng), pos));
            }
            let pos_weight = |&(w, pos): &(f64, bool)| if pos { w } else { 0.0 };
            // The node's totals are summed in another order than the scan,
            // as the builder's item order differs from an attribute's.
            let mut item_order = slots.clone();
            item_order.shuffle(&mut rng);
            let total_w: f64 = item_order.iter().fold(0.0, |t, s| t + s.0);
            let pos_w: f64 = item_order.iter().fold(0.0, |t, s| t + pos_weight(s));
            if !(total_w > 0.0 && pos_w > 0.0 && pos_w < total_w) {
                continue; // a leaf: the builder never bounds it
            }
            let (mut left_w, mut left_pos) = (0.0, 0.0);
            let mut cuts = Vec::with_capacity(len);
            for (i, s) in slots[..k + len].iter().enumerate() {
                left_w += s.0;
                left_pos += pos_weight(s);
                if i >= k {
                    cuts.push((left_pos, left_w - left_pos, left_w));
                }
            }
            let (first, last) = (cuts[0], cuts[len - 1]);
            right_pos_below_zero += usize::from(pos_w - last.0 < 0.0);
            right_neg_below_zero += usize::from(total_w - pos_w - last.1 < 0.0);
            let ([a0, a1], [b0, b1]) =
                block_box((pos_w, total_w), (first.0, first.1), (last.0, last.1));
            for &(a, b, _) in &cuts {
                let (a, b) = (a.min(pos_w), b.max(0.0).min(total_w - pos_w));
                assert!(a0 <= a && a <= a1, "a = {a:e} outside [{a0:e}, {a1:e}]");
                assert!(b0 <= b && b <= b1, "b = {b:e} outside [{b0:e}, {b1:e}]");
            }
            for criterion in [SplitCriterion::Gini, SplitCriterion::Entropy] {
                let parent_imp = criterion.impurity(pos_w / total_w);
                let bound = block_gain_bound(
                    criterion,
                    parent_imp,
                    (pos_w, total_w),
                    (first.0, first.1),
                    (last.0, last.1),
                );
                for &(left_pos, _, left_w) in &cuts {
                    let right_w = total_w - left_w;
                    if left_w <= 0.0 || right_w <= 0.0 {
                        continue;
                    }
                    let imp_l = criterion.impurity(left_pos / left_w);
                    let imp_r = criterion.impurity((pos_w - left_pos) / right_w);
                    let gain = parent_imp - (left_w * imp_l + right_w * imp_r) / total_w;
                    assert!(gain <= bound, "{criterion:?} gain {gain:e} above bound {bound:e}");
                }
            }
        }
        // Both ways a right side rounds below zero were drawn.
        assert!(right_pos_below_zero > 0 && right_neg_below_zero > 0);
    }

    #[test]
    fn screen_keeps_a_winner_by_a_hair() {
        // Attribute 1 separates the labels perfectly; attribute 0 does too,
        // except for one row of weight 1e-9 on the wrong side. Attribute 0
        // is scanned first, so attribute 1's split must beat it by only
        // ~3e-9 — within reach of a loosened screen, never of the real one.
        let schema = Schema::new(vec!["a".into(), "b".into()], vec![], "y").unwrap();
        let mut rows: Vec<Vec<f64>> = (0..8).map(|i| vec![f64::from(i < 4); 2]).collect();
        rows.push(vec![1.0, 0.0]);
        let labels = vec![1, 1, 1, 1, 0, 0, 0, 0, 0];
        let ds = Dataset::from_rows(schema, rows, labels).unwrap();
        let idx = all_indices(&ds);
        let mut w = vec![1.0; 9];
        w[8] = 1e-9;
        let params = TreeParams {
            max_depth: 1,
            criterion: SplitCriterion::Entropy,
            ..Default::default()
        };
        let fast = DecisionTree::fit(&ds, &[0, 1], &idx, Some(&w), &params, 0);
        let naive = DecisionTree::fit_naive(&ds, &[0, 1], &idx, Some(&w), &params, 0);
        assert_eq!(fast, naive);
        assert!(
            matches!(fast.nodes.last(), Some(Node::Split { attr: 1, .. })),
            "root should split on the perfect attribute: {:?}",
            fast.nodes
        );
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_training_set_panics() {
        let ds = xor_dataset();
        DecisionTree::fit(&ds, &[0, 1], &[], None, &TreeParams::default(), 0);
    }

    #[test]
    fn json_form_is_the_post_order_slab() {
        let schema = Schema::new(vec!["x".into()], vec![], "y").unwrap();
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let labels: Vec<u8> = (0..10).map(|i| u8::from(i >= 5)).collect();
        let ds = Dataset::from_rows(schema, rows, labels).unwrap();
        let stump = DecisionTree::fit(&ds, &[0], &all_indices(&ds), None, &TreeParams::default(), 0);
        let json = serde_json::to_string(&stump).unwrap();
        assert_eq!(json, r#"{"attr":[null,null,0],"value":[0.0,1.0,4.5],"name":"cart[d=7,gini]"}"#);
        assert_eq!(serde_json::from_str::<DecisionTree>(&json).unwrap(), stump);

        // Two splits: the root's left subtree is itself a split, so the
        // root's children are nodes 2 and 3, not its two predecessors.
        let deep: DecisionTree = serde_json::from_str(
            r#"{"attr":[null,null,1,null,0],"value":[0.1,0.2,0.5,0.9,2.0],"name":"t"}"#,
        )
        .unwrap();
        assert_eq!(deep.nodes[2], Node::Split { attr: 1, threshold: 0.5, left: 0, right: 1 });
        assert_eq!(deep.nodes[4], Node::Split { attr: 0, threshold: 2.0, left: 2, right: 3 });
        assert_eq!((deep.depth(), deep.max_split_attr()), (2, Some(1)));
        assert_eq!(deep.predict_proba_row(&[3.0, 0.0]), 0.9);
        assert_eq!(deep.predict_proba_row(&[1.0, 0.7]), 0.2);

        // The nested node form of earlier snapshots is not read.
        let nested = r#"{"nodes":[{"Leaf":{"proba":0.5}}],"name":"t"}"#;
        assert!(serde_json::from_str::<DecisionTree>(nested).is_err());
    }
}
