//! Weighted global minimum cut via the Stoer–Wagner algorithm.
//!
//! The fusion algorithm of the paper (Section III-A) bisects an illegal
//! partition block along a set of edges with minimum total weight. Because
//! the total edge weight of a block is constant, removing a minimum-weight
//! set of crossing edges maximizes the weight retained inside the two halves
//! (Eq. 13), i.e. the fusion benefit that is kept.
//!
//! The paper uses the deterministic algorithm by Stoer and Wagner,
//! *A Simple Min-Cut Algorithm*, J. ACM 44(4), 1997, applied to the
//! undirected view of the dependence graph. This module implements it with
//! the same tie-breaking the paper specifies: among equal-weight cuts, the
//! first one encountered is selected.

/// Rejected input detected by [`MinCutGraph::stoer_wagner`].
///
/// Maximum-adjacency orderings silently mis-order on NaN connectivities
/// (every comparison is false) and negative weights break the cut-of-the-
/// phase optimality argument, so instead of returning a wrong cut the
/// algorithm refuses the graph up front. The fusion layer guarantees
/// validity by clamping every weight to `ε` (Eq. 12) before construction;
/// this error surfaces models that fail to do so.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MinCutError {
    /// The accumulated weight between vertices `u` and `v` is NaN,
    /// infinite, or negative.
    BadWeight {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
        /// The offending accumulated weight.
        weight: f64,
    },
}

impl std::fmt::Display for MinCutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinCutError::BadWeight { u, v, weight } => write!(
                f,
                "edge ({u}, {v}) has weight {weight}; min-cut needs finite non-negative weights"
            ),
        }
    }
}

impl std::error::Error for MinCutError {}

/// Result of a global minimum cut: the cut weight and one side of the
/// bipartition (as vertex indices of the [`MinCutGraph`]).
///
/// The complement of [`Cut::side`] is the other side. `side` is always a
/// proper non-empty subset of the vertices and is sorted.
#[derive(Clone, Debug, PartialEq)]
pub struct Cut {
    /// Total weight of the edges crossing the cut.
    pub weight: f64,
    /// Sorted vertex indices of one side of the cut.
    pub side: Vec<usize>,
}

/// An undirected edge-weighted graph for minimum-cut queries.
///
/// Vertices are dense indices `0..n`. Parallel edges are merged by summing
/// their weights, which matches the undirected view of a dependence
/// multigraph. Weights must be non-negative; the fusion layer guarantees
/// strictly positive weights by clamping to `ε` (Eq. 12).
///
/// # Examples
///
/// ```
/// use kfuse_graph::MinCutGraph;
///
/// // A square with one heavy diagonal: the min cut isolates a corner.
/// let mut g = MinCutGraph::new(4);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 1.0);
/// g.add_edge(2, 3, 1.0);
/// g.add_edge(3, 0, 1.0);
/// g.add_edge(0, 2, 10.0);
/// let cut = g.stoer_wagner(0).expect("weights are valid").unwrap();
/// assert_eq!(cut.weight, 2.0);
/// ```
#[derive(Clone, Debug)]
pub struct MinCutGraph {
    n: usize,
    /// Dense symmetric adjacency matrix of accumulated weights.
    adj: Vec<f64>,
}

impl MinCutGraph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            adj: vec![0.0; n * n],
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Accumulated weight between `u` and `v`.
    pub fn weight(&self, u: usize, v: usize) -> f64 {
        self.adj[u * self.n + v]
    }

    /// Adds an undirected edge, accumulating onto any existing weight.
    ///
    /// Self-loops are ignored: they can never cross a cut. NaN, infinite,
    /// and negative weights are accepted here (accumulation might even
    /// cancel a negative one) but rejected by [`Self::stoer_wagner`] with
    /// a typed [`MinCutError`] before any cut is computed.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) {
        assert!(u < self.n && v < self.n, "endpoint out of range");
        if u == v {
            return;
        }
        self.adj[u * self.n + v] += w;
        self.adj[v * self.n + u] += w;
    }

    /// Returns the first invalid accumulated weight, scanning pairs in
    /// `(u, v)` lexicographic order.
    fn validate_weights(&self) -> Result<(), MinCutError> {
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                let weight = self.weight(u, v);
                if !weight.is_finite() || weight < 0.0 {
                    return Err(MinCutError::BadWeight { u, v, weight });
                }
            }
        }
        Ok(())
    }

    /// Total weight of all edges in the graph.
    pub fn total_weight(&self) -> f64 {
        let mut sum = 0.0;
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                sum += self.weight(u, v);
            }
        }
        sum
    }

    /// Weight of the cut separating `side` from its complement.
    pub fn cut_weight(&self, side: &[usize]) -> f64 {
        let mut inside = vec![false; self.n];
        for &v in side {
            inside[v] = true;
        }
        let mut sum = 0.0;
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                if inside[u] != inside[v] {
                    sum += self.weight(u, v);
                }
            }
        }
        sum
    }

    /// Computes a global minimum cut with the Stoer–Wagner algorithm.
    ///
    /// `start` selects the initial vertex of every minimum-cut phase, which
    /// makes the run fully deterministic (the paper starts the Harris example
    /// at kernel `dx`). Returns `Ok(None)` if the graph has fewer than two
    /// vertices — a cut needs both sides non-empty — and
    /// [`MinCutError::BadWeight`] if any accumulated weight is NaN,
    /// infinite, or negative (the algorithm would silently return a wrong
    /// cut otherwise).
    ///
    /// Ties between equal-weight cuts-of-the-phase keep the **first**
    /// encountered, per the paper. On disconnected graphs the algorithm
    /// returns a zero-weight cut separating components.
    ///
    /// Complexity is `O(|V|·|E| + |V|² log |V|)` in the original statement;
    /// this dense implementation is `O(|V|³)`, ample for fusion graphs.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range (and the graph has ≥ 2 vertices).
    pub fn stoer_wagner(&self, start: usize) -> Result<Option<Cut>, MinCutError> {
        self.validate_weights()?;
        if self.n < 2 {
            return Ok(None);
        }
        assert!(start < self.n, "start vertex out of range");

        // `groups[i]` is the set of original vertices merged into supernode i.
        let mut groups: Vec<Vec<usize>> = (0..self.n).map(|v| vec![v]).collect();
        // Active supernodes, in a stable order with `start`'s supernode first.
        let mut active: Vec<usize> = std::iter::once(start)
            .chain((0..self.n).filter(|&v| v != start))
            .collect();
        let mut adj = self.adj.clone();
        let at = |a: &Vec<f64>, u: usize, v: usize| a[u * self.n + v];

        let mut best: Option<Cut> = None;
        // Per-phase state, allocated once and reset by each phase.
        let mut in_a = vec![false; self.n];
        let mut conn = vec![0.0f64; self.n]; // connectivity to A
        let mut order = Vec::with_capacity(self.n);

        while active.len() > 1 {
            // --- one minimum-cut phase -----------------------------------
            // Maximum adjacency ordering starting from `active[0]`.
            in_a.fill(false);
            order.clear();

            let first = active[0];
            in_a[first] = true;
            order.push(first);
            for &v in &active {
                if v != first {
                    conn[v] = at(&adj, first, v);
                }
            }
            while order.len() < active.len() {
                // Most tightly connected vertex; strict `>` keeps the first
                // maximum in `active` order (deterministic tie-break).
                let mut next = None;
                let mut best_conn = f64::NEG_INFINITY;
                for &v in &active {
                    if !in_a[v] && conn[v] > best_conn {
                        best_conn = conn[v];
                        next = Some(v);
                    }
                }
                let v = next.expect("active vertices remain");
                in_a[v] = true;
                order.push(v);
                for &u in &active {
                    if !in_a[u] {
                        conn[u] += at(&adj, v, u);
                    }
                }
            }

            let t = *order.last().expect("phase order non-empty");
            let s = order[order.len() - 2];
            let cut_of_phase = conn[t];

            // Cut of the phase separates the vertices merged into `t`.
            // Strict `<` keeps the first minimum encountered.
            let is_better = match &best {
                None => true,
                Some(b) => cut_of_phase < b.weight,
            };
            if is_better {
                let mut side = groups[t].clone();
                side.sort_unstable();
                best = Some(Cut {
                    weight: cut_of_phase,
                    side,
                });
            }

            // Merge t into s.
            let moved = std::mem::take(&mut groups[t]);
            groups[s].extend(moved);
            for &u in &active {
                if u != s && u != t {
                    let w = at(&adj, t, u);
                    adj[s * self.n + u] += w;
                    adj[u * self.n + s] += w;
                }
            }
            active.retain(|&u| u != t);
        }

        Ok(best)
    }

    /// Exhaustive minimum cut over all `2^(n-1) - 1` proper bipartitions.
    ///
    /// Intended as a test oracle for small graphs; ties keep the first side
    /// in subset enumeration order (vertex 0 fixed on the complement side).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than 24 vertices (the enumeration would
    /// be unreasonably large) or fewer than 2.
    pub fn brute_force_min_cut(&self) -> Cut {
        assert!(
            (2..=24).contains(&self.n),
            "brute force needs 2..=24 vertices"
        );
        let mut best: Option<Cut> = None;
        // Vertex 0 stays on the complement side, halving the enumeration.
        for mask in 1u64..(1 << (self.n - 1)) {
            let side: Vec<usize> = (1..self.n).filter(|&v| mask >> (v - 1) & 1 == 1).collect();
            let w = self.cut_weight(&side);
            if best.as_ref().is_none_or(|b| w < b.weight) {
                best = Some(Cut { weight: w, side });
            }
        }
        best.expect("at least one bipartition exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn too_small_graphs_have_no_cut() {
        assert!(MinCutGraph::new(0).stoer_wagner(0).unwrap().is_none());
        assert!(MinCutGraph::new(1).stoer_wagner(0).unwrap().is_none());
    }

    #[test]
    fn two_vertices_single_edge() {
        let mut g = MinCutGraph::new(2);
        g.add_edge(0, 1, 3.5);
        let cut = g.stoer_wagner(0).unwrap().unwrap();
        assert_eq!(cut.weight, 3.5);
        assert!(cut.side == vec![0] || cut.side == vec![1]);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut g = MinCutGraph::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 2.0);
        assert_eq!(g.weight(0, 1), 3.0);
        assert_eq!(g.stoer_wagner(0).unwrap().unwrap().weight, 3.0);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = MinCutGraph::new(2);
        g.add_edge(0, 0, 100.0);
        g.add_edge(0, 1, 1.0);
        assert_eq!(g.stoer_wagner(0).unwrap().unwrap().weight, 1.0);
    }

    /// NaN and negative weights must surface as typed errors, not as a
    /// panic or a silently wrong cut (NaN makes every comparison in the
    /// maximum-adjacency ordering false).
    #[test]
    fn invalid_weights_are_typed_errors() {
        let mut g = MinCutGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, f64::NAN);
        assert!(matches!(
            g.stoer_wagner(0),
            Err(MinCutError::BadWeight { u: 1, v: 2, weight }) if weight.is_nan()
        ));

        let mut g = MinCutGraph::new(3);
        g.add_edge(0, 1, -0.5);
        g.add_edge(1, 2, 1.0);
        let err = g.stoer_wagner(0).unwrap_err();
        assert!(matches!(
            err,
            MinCutError::BadWeight { u: 0, v: 1, weight } if weight == -0.5
        ));
        assert!(err.to_string().contains("finite non-negative"));

        let mut g = MinCutGraph::new(2);
        g.add_edge(0, 1, f64::INFINITY);
        assert!(g.stoer_wagner(0).is_err());

        // Accumulation can cancel a negative contribution; the summed
        // weight is what gets validated.
        let mut g = MinCutGraph::new(2);
        g.add_edge(0, 1, -1.0);
        g.add_edge(0, 1, 3.0);
        assert_eq!(g.stoer_wagner(0).unwrap().unwrap().weight, 2.0);
    }

    #[test]
    fn stoer_wagner_classic_example() {
        // The 8-vertex example from the Stoer–Wagner paper; min cut = 4,
        // separating {3,4,7,8} (1-indexed) i.e. {2,3,6,7} 0-indexed.
        let edges = [
            (0, 1, 2.0),
            (0, 4, 3.0),
            (1, 2, 3.0),
            (1, 4, 2.0),
            (1, 5, 2.0),
            (2, 3, 4.0),
            (2, 6, 2.0),
            (3, 6, 2.0),
            (3, 7, 2.0),
            (4, 5, 3.0),
            (5, 6, 1.0),
            (6, 7, 3.0),
        ];
        let mut g = MinCutGraph::new(8);
        for (u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        let cut = g.stoer_wagner(0).unwrap().unwrap();
        assert_eq!(cut.weight, 4.0);
        let mut side = cut.side.clone();
        if side.contains(&0) {
            side = (0..8).filter(|v| !side.contains(v)).collect();
        }
        assert_eq!(side, vec![2, 3, 6, 7]);
    }

    #[test]
    fn disconnected_graph_yields_zero_cut() {
        let mut g = MinCutGraph::new(4);
        g.add_edge(0, 1, 5.0);
        g.add_edge(2, 3, 7.0);
        let cut = g.stoer_wagner(0).unwrap().unwrap();
        assert_eq!(cut.weight, 0.0);
    }

    #[test]
    fn cut_weight_helper_matches_manual() {
        let mut g = MinCutGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(0, 2, 4.0);
        assert_eq!(g.cut_weight(&[1]), 3.0);
        assert_eq!(g.cut_weight(&[0]), 5.0);
        assert_eq!(g.cut_weight(&[2]), 6.0);
        assert_eq!(g.total_weight(), 7.0);
    }

    #[test]
    fn brute_force_star() {
        let mut g = MinCutGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 2, 2.0);
        g.add_edge(0, 3, 3.0);
        let cut = g.brute_force_min_cut();
        assert_eq!(cut.weight, 1.0);
        assert_eq!(cut.side, vec![1]);
    }

    /// Deterministic random graph of `n` vertices with integer weights in
    /// `0..=10` (SplitMix64-driven; replaces the former proptest strategy).
    fn random_graph(n: usize, seed: u64) -> MinCutGraph {
        let mut state = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(n as u64);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut g = MinCutGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v, (next() % 11) as f64);
            }
        }
        g
    }

    /// Stoer–Wagner returns a cut of globally minimum weight on a sweep of
    /// deterministic random graphs.
    #[test]
    fn stoer_wagner_is_optimal() {
        for n in 2..=7 {
            for seed in 0..24 {
                let g = random_graph(n, seed);
                let sw = g.stoer_wagner(0).unwrap().unwrap();
                let bf = g.brute_force_min_cut();
                assert!(
                    (sw.weight - bf.weight).abs() < 1e-9,
                    "n={n} seed={seed}: stoer-wagner {} vs brute force {}",
                    sw.weight,
                    bf.weight
                );
                // And the reported side realises the reported weight.
                assert!((g.cut_weight(&sw.side) - sw.weight).abs() < 1e-9);
            }
        }
    }

    /// The reported side is a proper, sorted, duplicate-free subset.
    #[test]
    fn cut_side_is_proper_subset() {
        for n in 2..=7 {
            for seed in 0..12 {
                let g = random_graph(n, seed);
                for start in 0..g.vertex_count() {
                    let cut = g.stoer_wagner(start).unwrap().unwrap();
                    assert!(!cut.side.is_empty());
                    assert!(cut.side.len() < g.vertex_count());
                    let mut sorted = cut.side.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(&sorted, &cut.side);
                    assert!(cut.side.iter().all(|&v| v < g.vertex_count()));
                }
            }
        }
    }

    /// Optimality holds regardless of the chosen start vertex.
    #[test]
    fn start_vertex_does_not_affect_weight() {
        for n in 2..=6 {
            for seed in 100..112 {
                let g = random_graph(n, seed);
                let bf = g.brute_force_min_cut().weight;
                for start in 0..g.vertex_count() {
                    let sw = g.stoer_wagner(start).unwrap().unwrap();
                    assert!(
                        (sw.weight - bf).abs() < 1e-9,
                        "n={n} seed={seed} start={start}"
                    );
                }
            }
        }
    }
}
