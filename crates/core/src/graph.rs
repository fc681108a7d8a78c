//! Region adjacency graph (RAG) over a superpixel label map.
//!
//! Superpixel segmentation exists to "reduce the complexity of image
//! processing tasks later in the computer vision pipeline" (paper §1) —
//! and the first thing most downstream algorithms build on top of a label
//! map is its adjacency structure. This module provides it: nodes are
//! superpixels, edges connect 4-adjacent superpixels and carry the shared
//! boundary length.

use std::collections::{HashMap, HashSet};

use sslic_image::Plane;

/// The region adjacency graph of a label map.
///
/// # Example
///
/// ```
/// use sslic_core::graph::RegionAdjacency;
/// use sslic_image::Plane;
///
/// // Two vertical halves: one edge, shared boundary of `height` pixels.
/// let labels = Plane::from_fn(8, 6, |x, _| if x < 4 { 0u32 } else { 1 });
/// let rag = RegionAdjacency::build(&labels);
/// assert_eq!(rag.region_count(), 2);
/// assert_eq!(rag.edges(), vec![((0, 1), 6)]);
/// ```
#[derive(Debug, Clone)]
pub struct RegionAdjacency {
    /// The labels present in the map.
    regions: HashSet<u32>,
    /// `(a, b) -> shared boundary length`, with `a < b`.
    edges: HashMap<(u32, u32), u64>,
}

impl RegionAdjacency {
    /// Builds the graph from a label map in one scan.
    pub fn build(labels: &Plane<u32>) -> Self {
        let (w, h) = (labels.width(), labels.height());
        let mut regions: HashSet<u32> = HashSet::new();
        let mut edges: HashMap<(u32, u32), u64> = HashMap::new();
        for y in 0..h {
            for x in 0..w {
                let l = labels[(x, y)];
                regions.insert(l);
                if x + 1 < w {
                    let r = labels[(x + 1, y)];
                    if r != l {
                        *edges.entry(ordered(l, r)).or_insert(0) += 1;
                    }
                }
                if y + 1 < h {
                    let b = labels[(x, y + 1)];
                    if b != l {
                        *edges.entry(ordered(l, b)).or_insert(0) += 1;
                    }
                }
            }
        }
        RegionAdjacency { regions, edges }
    }

    /// Number of distinct superpixels present.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// All adjacency edges as `((a, b), shared boundary length)` with
    /// `a < b`, in unspecified order.
    pub fn edges(&self) -> Vec<((u32, u32), u64)> {
        self.edges.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Mean neighbour count — the "complexity reduction" number downstream
    /// stages care about (a few dozen edges instead of millions of pixel
    /// pairs).
    pub fn mean_degree(&self) -> f64 {
        if self.regions.is_empty() {
            0.0
        } else {
            2.0 * self.edges.len() as f64 / self.regions.len() as f64
        }
    }
}

#[inline]
fn ordered(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_region_split() {
        let labels = Plane::from_fn(8, 6, |x, _| if x < 4 { 0u32 } else { 1 });
        let rag = RegionAdjacency::build(&labels);
        assert_eq!(rag.region_count(), 2);
        assert_eq!(rag.edges(), vec![((0, 1), 6)]);
        assert_eq!(rag.mean_degree(), 1.0);
    }

    #[test]
    fn quadrant_grid_adjacency() {
        let labels = Plane::from_fn(8, 8, |x, y| ((x / 4) + 2 * (y / 4)) as u32);
        let rag = RegionAdjacency::build(&labels);
        assert_eq!(rag.region_count(), 4);
        // 4 side-sharing pairs; diagonal quadrants are NOT 4-adjacent.
        let mut edges = rag.edges();
        edges.sort_unstable();
        assert_eq!(
            edges,
            vec![((0, 1), 4), ((0, 2), 4), ((1, 3), 4), ((2, 3), 4)]
        );
    }

    #[test]
    fn uniform_map_has_no_edges() {
        let labels = Plane::filled(5, 5, 3u32);
        let rag = RegionAdjacency::build(&labels);
        assert_eq!(rag.region_count(), 1);
        assert!(rag.edges().is_empty());
        assert_eq!(rag.mean_degree(), 0.0);
    }
}
