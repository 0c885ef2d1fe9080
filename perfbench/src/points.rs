//! Seeded request points for the evaluation workloads.
//!
//! A point is one `/v1/evaluate` request: (layout, benchmark, frequency,
//! active cores). Points are drawn without replacement from a product
//! lattice whose layouts are deduplicated by the evaluator's canonical
//! cache key ([`layout_key`]), so two points never alias in the daemon's
//! memo: `sym4:s` and `uniform:2,s`, or a grid-degenerate `sym16`, are one
//! layout here. Every distinct point therefore costs the daemon exactly
//! one exact coupled solve on its first request.

use std::collections::HashSet;

use tac25d_core::evaluator::{layout_key, LayoutKey};
use tac25d_core::prelude::{Benchmark, SystemSpec};
use tac25d_floorplan::organization::{enumerate_symmetric16, symmetric4_for_edge, ChipletLayout};
use tac25d_floorplan::units::Mm;
use tac25d_serve::protocol::layout_grammar;

/// SplitMix64: a tiny deterministic generator, so the inputs depend on
/// the seed alone and not on any crate's RNG implementation.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One evaluation request.
#[derive(Debug, Clone)]
pub struct Point {
    /// Organization.
    pub layout: ChipletLayout,
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Clock frequency, a VF-table point.
    pub freq_mhz: f64,
    /// Active core count.
    pub cores: u16,
}

impl Point {
    /// The `/v1/evaluate` request body.
    pub fn body(&self) -> String {
        format!(
            r#"{{"benchmark": "{}", "layout": "{}", "freq_mhz": {}, "cores": {}}}"#,
            self.benchmark.name(),
            layout_grammar(&self.layout),
            self.freq_mhz,
            self.cores
        )
    }

    /// The evaluator's memo key for this point.
    pub fn key(&self) -> (LayoutKey, Benchmark, u32, u16) {
        (
            layout_key(&self.layout),
            self.benchmark,
            self.freq_mhz as u32,
            self.cores,
        )
    }
}

/// Every valid 2.5D layout the organizer can visit under `spec`: the
/// 4-chiplet and 16-chiplet organizations on each interposer edge of the
/// spec's edge lattice, 16-chiplet spacings on the packaging-rule step,
/// one per canonical key.
pub fn layout_lattice(spec: &SystemSpec) -> Vec<ChipletLayout> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let steps = ((spec.edge_max.value() - spec.edge_min.value()) / spec.edge_step.value()).round();
    for i in 0..=steps as u32 {
        let edge = Mm(spec.edge_min.value() + f64::from(i) * spec.edge_step.value());
        let sym4 = symmetric4_for_edge(&spec.chip, &spec.rules, edge)
            .map(|s3| ChipletLayout::Symmetric4 { s3 });
        let sym16 = enumerate_symmetric16(&spec.chip, &spec.rules, edge)
            .into_iter()
            .map(|spacing| ChipletLayout::Symmetric16 { spacing });
        for layout in sym4.into_iter().chain(sym16) {
            if layout.validate(&spec.chip, &spec.rules).is_ok() && seen.insert(layout_key(&layout))
            {
                out.push(layout);
            }
        }
    }
    out
}

/// The layout lattice in a seeded random order. Disjoint slices of it
/// give disjoint point sets.
pub fn shuffled_layouts(spec: &SystemSpec, seed: u64) -> Vec<ChipletLayout> {
    let mut lattice = layout_lattice(spec);
    let n = lattice.len();
    shuffle_prefix(&mut lattice, n, &mut Rng::new(seed, 0));
    lattice
}

/// Draws `n` distinct points over `layouts`, every benchmark, every VF
/// point and the paper's core counts. Points whose interposer links
/// cannot close timing at their frequency are left out (the daemon
/// rejects them with 422 by design).
///
/// # Panics
///
/// Panics if the layouts hold fewer than `n` valid points: asking for
/// more distinct points than exist is a sizing error, not a reason to
/// loop.
pub fn draw(spec: &SystemSpec, layouts: &[ChipletLayout], rng: &mut Rng, n: usize) -> Vec<Point> {
    let mut valid = Vec::new();
    for layout in layouts {
        for op in spec.vf.points() {
            if spec
                .noc
                .power(&spec.chip, layout, &spec.rules, *op, 1.0)
                .is_err()
            {
                continue;
            }
            for benchmark in Benchmark::all() {
                for &cores in &spec.core_counts {
                    valid.push(Point {
                        layout: *layout,
                        benchmark,
                        freq_mhz: op.freq_mhz,
                        cores,
                    });
                }
            }
        }
    }
    assert!(
        valid.len() >= n,
        "asked for {n} distinct points, {} layouts hold {}",
        layouts.len(),
        valid.len()
    );
    shuffle_prefix(&mut valid, n, rng);
    valid.truncate(n);
    let keys: HashSet<_> = valid.iter().map(Point::key).collect();
    assert_eq!(keys.len(), n, "drawn points alias in the evaluator memo");
    valid
}

/// Fisher–Yates over the first `k` slots only: a uniform random
/// `k`-subset in random order, in `O(k)` swaps.
fn shuffle_prefix<T>(items: &mut [T], k: usize, rng: &mut Rng) {
    let k = k.min(items.len());
    for i in 0..k {
        let j = i + rng.below(items.len() - i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac25d_floorplan::organization::Spacing;

    #[test]
    fn lattice_holds_one_layout_per_canonical_key() {
        let spec = SystemSpec::fast();
        let lattice = layout_lattice(&spec);
        let keys: HashSet<_> = lattice.iter().map(layout_key).collect();
        assert_eq!(keys.len(), lattice.len());
        assert!(lattice.len() > 1000, "{} layouts", lattice.len());
        // A grid-degenerate 16-chiplet spacing is the 4×4 uniform grid:
        // the lattice holds one of the pair only.
        let grid = ChipletLayout::Symmetric16 {
            spacing: Spacing::uniform(Mm(2.0)),
        };
        let alias = ChipletLayout::Uniform { r: 4, gap: Mm(2.0) };
        assert_eq!(layout_key(&grid), layout_key(&alias));
    }

    #[test]
    fn points_depend_on_the_seed_alone() {
        let spec = SystemSpec::fast();
        let draw_with = |seed| {
            let layouts = shuffled_layouts(&spec, seed);
            let pts = draw(&spec, &layouts[..8], &mut Rng::new(seed, 1), 50);
            pts.iter().map(Point::body).collect::<Vec<_>>()
        };
        assert_eq!(draw_with(3), draw_with(3));
        assert_ne!(draw_with(3), draw_with(4));
    }

    #[test]
    fn disjoint_layout_slices_never_alias() {
        let spec = SystemSpec::fast();
        let layouts = shuffled_layouts(&spec, 9);
        let mut rng = Rng::new(9, 1);
        let a = draw(&spec, &layouts[..4], &mut rng, 200);
        let b = draw(&spec, &layouts[4..8], &mut rng, 200);
        let keys: HashSet<_> = a.iter().chain(&b).map(Point::key).collect();
        assert_eq!(keys.len(), 400);
    }

    #[test]
    #[should_panic(expected = "distinct points")]
    fn asking_for_more_points_than_exist_is_an_error() {
        let spec = SystemSpec::fast();
        let layouts = shuffled_layouts(&spec, 1);
        draw(&spec, &layouts[..1], &mut Rng::new(1, 1), 100_000);
    }
}
