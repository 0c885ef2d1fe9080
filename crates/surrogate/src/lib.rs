//! Two-tier multi-fidelity thermal predictor for the chiplet-organization
//! optimizer.
//!
//! **Tier 1 — Green's-function superposition.** The package RC network is
//! linear, so the die temperature rise of any power map is a weighted sum
//! of per-chiplet unit responses. Those unit responses are precomputed
//! once per (interposer edge, chiplet count) on a maximally-symmetric
//! reference layout — one exact solve per symmetry class (1 for 2×2, 3
//! for 4×4) — and any candidate spacing at that edge is then estimated in
//! O(chiplets²) bilinear samples, plus a cheap per-chiplet
//! temperature–leakage fixed point for the nonlinear part. Kernels depend
//! on geometry alone, so every surrogate of one package family shares
//! them process-wide ([`cache`]).
//!
//! **Tier 2 — online residual corrector.** The superposition is biased
//! (translated boundary fields, uniform in-chiplet power). A per-benchmark
//! k-nearest-neighbor regressor over the (f, V, p, n, edge, s1, s2, s3)
//! embedding learns that bias from every exact solve the evaluator
//! performs, and reports a confidence radius so callers can fall back to
//! the exact solver off the training manifold.
//!
//! The surrogate never *asserts* feasibility: the optimizer verifies every
//! candidate predicted near or below the threshold with the exact solver,
//! so all reported organizations remain exact-solver-backed. See
//! `tac25d_core::optimizer::Fidelity` for the screening rule.

pub mod analytic;
pub mod cache;
pub mod config;
pub mod corrector;
pub mod features;
pub mod kernel;
mod superpose;

pub use cache::{FamilyKernels, PackageFamily, Served};
pub use config::SurrogateConfig;
pub use kernel::KernelSet;

use corrector::Corrector;
use features::feature_vector;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use superpose::superpose;
use tac25d_floorplan::chip::ChipSpec;
use tac25d_floorplan::layers::StackSpec;
use tac25d_floorplan::organization::{ChipletLayout, PackageRules};
use tac25d_floorplan::units::{Celsius, Mm};
use tac25d_obs as obs;
use tac25d_power::benchmarks::Benchmark;
use tac25d_power::dvfs::OperatingPoint;
use tac25d_thermal::model::ThermalConfig;

/// One evaluation point handed to the surrogate. Chiplet-indexed slices
/// are row-major over the layout's r×r grid, matching
/// [`ChipletLayout::chiplet_rects`].
#[derive(Debug, Clone)]
pub struct SurrogateInput {
    /// The candidate organization.
    pub layout: ChipletLayout,
    /// Benchmark (selects the residual corrector).
    pub benchmark: Benchmark,
    /// Operating point.
    pub op: OperatingPoint,
    /// Total active cores.
    pub active_cores: u16,
    /// Active cores hosted by each chiplet.
    pub active_per_chiplet: Vec<u16>,
    /// NoC watts dissipated in each chiplet.
    pub noc_per_chiplet: Vec<f64>,
}

/// A surrogate peak-temperature estimate.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Tier-1 estimate (superposition + leakage refinement), °C.
    pub raw_peak_c: f64,
    /// Tier-2 estimate: raw plus the learned residual, °C.
    pub corrected_peak_c: f64,
    /// Feature-space distance to the nearest training sample
    /// (∞ before the first observation).
    pub confidence: f64,
    /// Whether the corrector has enough nearby evidence for the
    /// prediction to stand in for an exact solve outside the guard band.
    pub trusted: bool,
}

/// The shared, thread-safe surrogate. Cheap to use behind an [`Arc`]:
/// kernel sets live in the process-wide family cache, correctors behind
/// an interior mutex of this instance (so each instance's decisions
/// depend on its own training history alone).
pub struct ThermalSurrogate {
    cfg: SurrogateConfig,
    kernels: Arc<FamilyKernels>,
    correctors: Mutex<HashMap<Benchmark, Corrector>>,
    kernel_solves: AtomicUsize,
    kernel_cache_hits: AtomicUsize,
    predictions: AtomicUsize,
    observations: AtomicUsize,
}

impl std::fmt::Debug for ThermalSurrogate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThermalSurrogate")
            .field("predictions", &self.predictions())
            .field("observations", &self.observations())
            .field("kernel_solves", &self.kernel_solves())
            .field("kernel_cache_hits", &self.kernel_cache_hits())
            .finish_non_exhaustive()
    }
}

impl ThermalSurrogate {
    /// Creates a surrogate for one package family (chip, rules, 2.5D
    /// stack, thermal configuration — everything that shapes the kernels).
    pub fn new(
        chip: ChipSpec,
        rules: PackageRules,
        stack: StackSpec,
        thermal: ThermalConfig,
        cfg: SurrogateConfig,
    ) -> Self {
        ThermalSurrogate {
            cfg,
            kernels: FamilyKernels::shared(&PackageFamily {
                chip,
                rules,
                stack,
                thermal,
            }),
            correctors: Mutex::new(HashMap::new()),
            kernel_solves: AtomicUsize::new(0),
            kernel_cache_hits: AtomicUsize::new(0),
            predictions: AtomicUsize::new(0),
            observations: AtomicUsize::new(0),
        }
    }

    /// The surrogate configuration.
    pub fn config(&self) -> &SurrogateConfig {
        &self.cfg
    }

    /// Exact solves spent on the kernel sets this instance built
    /// (reported separately from the evaluator's per-candidate simulation
    /// count — kernels amortize over every spacing probed at their edge,
    /// and over every surrogate of the package family in the process).
    pub fn kernel_solves(&self) -> usize {
        self.kernel_solves.load(Ordering::Relaxed)
    }

    /// Kernel lookups served from the process-wide cache, built earlier
    /// or concurrently by another caller. Every lookup is either a hit
    /// or a build, so hits plus builds do not depend on what ran before.
    pub fn kernel_cache_hits(&self) -> usize {
        self.kernel_cache_hits.load(Ordering::Relaxed)
    }

    /// Predictions served.
    pub fn predictions(&self) -> usize {
        self.predictions.load(Ordering::Relaxed)
    }

    /// Residual observations absorbed.
    pub fn observations(&self) -> usize {
        self.observations.load(Ordering::Relaxed)
    }

    fn kernels_for(&self, edge: Mm, r: u16) -> Option<Arc<KernelSet>> {
        let (set, served) = self.kernels.get(edge, r);
        match served {
            Served::Built => {
                let solves = set.as_ref().map_or(0, |s| s.solves());
                self.kernel_solves.fetch_add(solves, Ordering::Relaxed);
            }
            Served::Hit => {
                self.kernel_cache_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        set
    }

    /// Tier-1 peak estimate: superposition with `refine_iters` rounds of
    /// the per-chiplet temperature–leakage fixed point (temperatures start
    /// at the evaluator's 60 °C convention and are clamped below the
    /// runaway limit so diverging leakage shows up as a huge — but finite
    /// and correctly *infeasible* — prediction).
    fn raw_peak(
        &self,
        kernels: &KernelSet,
        input: &SurrogateInput,
        power_of_core: &dyn Fn(Celsius) -> f64,
    ) -> Option<f64> {
        let family = self.kernels.family();
        let rects = input.layout.chiplet_rects(&family.chip, &family.rules);
        let n = rects.len();
        if input.active_per_chiplet.len() != n || input.noc_per_chiplet.len() != n {
            return None;
        }
        let ambient = kernels.ambient();
        let mut temps = vec![60.0f64; n];
        let mut peak = ambient;
        for _ in 0..self.cfg.refine_iters.max(1) {
            let watts: Vec<f64> = (0..n)
                .map(|j| {
                    f64::from(input.active_per_chiplet[j]) * power_of_core(Celsius(temps[j]))
                        + input.noc_per_chiplet[j]
                })
                .collect();
            if watts.iter().any(|w| !w.is_finite()) {
                return None;
            }
            let field = superpose(kernels, &rects, &watts, self.cfg.probes_per_axis);
            peak = ambient + field.peak_rise;
            if !peak.is_finite() {
                return None;
            }
            for (t, rise) in temps.iter_mut().zip(&field.chiplet_mean_rise) {
                *t = (ambient + rise).clamp(ambient, 400.0);
            }
        }
        Some(peak)
    }

    /// Predicts the peak temperature of one evaluation point, or `None`
    /// when the surrogate does not cover it (single chip, unbuildable
    /// kernel, mismatched inputs) and the caller must use the exact
    /// solver. `power_of_core` is the per-active-core power at a given
    /// chiplet temperature (dynamic + leakage).
    pub fn predict(
        &self,
        input: &SurrogateInput,
        power_of_core: &dyn Fn(Celsius) -> f64,
    ) -> Option<Prediction> {
        let r = input.layout.r();
        if input.layout.is_single_chip() || (r != 2 && r != 4) {
            return None;
        }
        let family = self.kernels.family();
        let edge = input.layout.footprint_edge(&family.chip, &family.rules);
        let kernels = self.kernels_for(edge, r)?;
        let raw = self.raw_peak(&kernels, input, power_of_core)?;
        self.predictions.fetch_add(1, Ordering::Relaxed);
        obs::counter!("surrogate.predictions").inc();
        let x = feature_vector(&input.layout, input.op, input.active_cores, edge.value());
        let correction = self
            .correctors
            .lock()
            .expect("lock poisoned")
            .get(&input.benchmark)
            .and_then(|c| c.correction(&x, self.cfg.knn_k, self.cfg.kernel_bandwidth));
        if correction.is_some() {
            obs::counter!("surrogate.knn_corrector_hits").inc();
        }
        Some(match correction {
            Some(c) => Prediction {
                raw_peak_c: raw,
                corrected_peak_c: raw + c.offset,
                confidence: c.nearest,
                trusted: c.samples >= self.cfg.min_samples && c.nearest <= self.cfg.trust_radius,
            },
            None => Prediction {
                raw_peak_c: raw,
                corrected_peak_c: raw,
                confidence: f64::INFINITY,
                trusted: false,
            },
        })
    }

    /// Trains the corrector with the exact peak of one evaluation point.
    /// Call after every converged exact solve; points the surrogate does
    /// not cover are ignored.
    pub fn observe(
        &self,
        input: &SurrogateInput,
        power_of_core: &dyn Fn(Celsius) -> f64,
        exact_peak: Celsius,
    ) {
        let r = input.layout.r();
        if input.layout.is_single_chip() || (r != 2 && r != 4) {
            return;
        }
        let family = self.kernels.family();
        let edge = input.layout.footprint_edge(&family.chip, &family.rules);
        let Some(kernels) = self.kernels_for(edge, r) else {
            return;
        };
        let Some(raw) = self.raw_peak(&kernels, input, power_of_core) else {
            return;
        };
        let x = feature_vector(&input.layout, input.op, input.active_cores, edge.value());
        self.correctors
            .lock()
            .expect("lock poisoned")
            .entry(input.benchmark)
            .or_default()
            .observe(x, exact_peak.value() - raw, self.cfg.max_samples);
        self.observations.fetch_add(1, Ordering::Relaxed);
        obs::counter!("surrogate.observations").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac25d_thermal::model::PackageModel;

    fn surrogate() -> ThermalSurrogate {
        ThermalSurrogate::new(
            ChipSpec::scc_256(),
            PackageRules::default(),
            StackSpec::system_25d(),
            ThermalConfig {
                grid: 16,
                ..ThermalConfig::default()
            },
            SurrogateConfig {
                min_samples: 3,
                ..SurrogateConfig::default()
            },
        )
    }

    fn input(s3: f64) -> SurrogateInput {
        SurrogateInput {
            layout: ChipletLayout::Symmetric4 { s3: Mm(s3) },
            benchmark: Benchmark::Cholesky,
            op: OperatingPoint::new(1000.0, 1.0),
            active_cores: 256,
            active_per_chiplet: vec![64; 4],
            noc_per_chiplet: vec![1.0; 4],
        }
    }

    #[test]
    fn prediction_tracks_the_exact_solve() {
        // Constant per-core power makes the exact answer a single linear
        // solve the tier-1 kernel should approximate closely (the 2×2
        // reference layout *is* the candidate layout here).
        let s = surrogate();
        let inp = input(6.0);
        let per_core = 0.35;
        let pred = s
            .predict(&inp, &|_t| per_core)
            .expect("4-chiplet layouts are covered");
        let model = PackageModel::new(
            &ChipSpec::scc_256(),
            &inp.layout,
            &PackageRules::default(),
            &StackSpec::system_25d(),
            ThermalConfig {
                grid: 16,
                ..ThermalConfig::default()
            },
        )
        .unwrap();
        let rects = inp
            .layout
            .chiplet_rects(&ChipSpec::scc_256(), &PackageRules::default());
        let sources: Vec<_> = rects.iter().map(|r| (*r, 64.0 * per_core + 1.0)).collect();
        let exact = model.solve(&sources).unwrap().peak().value();
        assert!(
            (pred.raw_peak_c - exact).abs() < 2.0,
            "raw {} vs exact {exact}",
            pred.raw_peak_c
        );
        assert!(!pred.trusted, "no observations yet");
        assert_eq!(s.predictions(), 1);
    }

    #[test]
    fn observations_build_trust_and_shrink_the_residual() {
        let s = surrogate();
        let power = |_t: Celsius| 0.35;
        // Pretend the exact solver runs 1.5 °C hotter than tier 1.
        for s3 in [4.0, 5.0, 6.0] {
            let inp = input(s3);
            let raw = s.predict(&inp, &power).unwrap().raw_peak_c;
            s.observe(&inp, &power, Celsius(raw + 1.5));
        }
        let pred = s.predict(&input(5.5), &power).unwrap();
        assert!(pred.trusted, "3 nearby samples with min_samples = 3");
        assert!(
            (pred.corrected_peak_c - pred.raw_peak_c - 1.5).abs() < 0.2,
            "learned offset {}",
            pred.corrected_peak_c - pred.raw_peak_c
        );
        assert_eq!(s.observations(), 3);
    }

    #[test]
    fn far_queries_are_untrusted() {
        let s = surrogate();
        let power = |_t: Celsius| 0.35;
        for s3 in [4.0, 4.5, 5.0] {
            let inp = input(s3);
            let raw = s.predict(&inp, &power).unwrap().raw_peak_c;
            s.observe(&inp, &power, Celsius(raw + 1.0));
        }
        // Same benchmark, very different operating point and core count.
        let mut far = input(4.5);
        far.op = OperatingPoint::new(533.0, 0.8);
        far.active_cores = 64;
        far.active_per_chiplet = vec![16; 4];
        let pred = s.predict(&far, &power).unwrap();
        assert!(
            !pred.trusted,
            "confidence {} should exceed the radius",
            pred.confidence
        );
    }

    #[test]
    fn single_chip_is_not_covered() {
        let s = surrogate();
        let mut inp = input(4.0);
        inp.layout = ChipletLayout::SingleChip;
        inp.active_per_chiplet = vec![256];
        inp.noc_per_chiplet = vec![0.0];
        assert!(s.predict(&inp, &|_t| 0.3).is_none());
    }

    /// A surrogate of a package family no other test in this process
    /// touches (the kernel cache is process-wide), told apart by `grid`.
    fn isolated_surrogate(grid: usize) -> ThermalSurrogate {
        ThermalSurrogate::new(
            ChipSpec::scc_256(),
            PackageRules::default(),
            StackSpec::system_25d(),
            ThermalConfig {
                grid,
                ..ThermalConfig::default()
            },
            SurrogateConfig::default(),
        )
    }

    #[test]
    fn kernel_sets_are_cached_per_edge() {
        let s = isolated_surrogate(15);
        let power = |_t: Celsius| 0.3;
        let _ = s.predict(&input(6.0), &power);
        assert_eq!(s.kernel_solves(), 1, "2x2 grid has one symmetry class");
        assert_eq!(s.kernel_cache_hits(), 0);
        // Same edge: cache hit. (s3 fixes the edge for 4-chiplet layouts.)
        let _ = s.predict(&input(6.0), &power);
        assert_eq!((s.kernel_solves(), s.kernel_cache_hits()), (1, 1));
        // New edge: one more class solve.
        let _ = s.predict(&input(8.0), &power);
        assert_eq!((s.kernel_solves(), s.kernel_cache_hits()), (2, 1));
        // A fresh surrogate of the same family builds nothing: the same
        // three lookups are all hits.
        let fresh = isolated_surrogate(15);
        for s3 in [6.0, 6.0, 8.0] {
            let _ = fresh.predict(&input(s3), &power);
        }
        assert_eq!((fresh.kernel_solves(), fresh.kernel_cache_hits()), (0, 3));
    }

    #[test]
    fn concurrent_fresh_surrogates_build_each_kernel_once() {
        const THREADS: usize = 4;
        let barrier = std::sync::Barrier::new(THREADS);
        let got: Vec<(Arc<KernelSet>, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let s = isolated_surrogate(13);
                        barrier.wait();
                        let set = s.kernels_for(Mm(30.0), 4).expect("30 mm fits 4x4");
                        assert_eq!(s.kernel_solves() / 3 + s.kernel_cache_hits(), 1);
                        (set, s.kernel_solves())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            got.iter().map(|g| g.1).sum::<usize>(),
            3,
            "one KernelSet::build (3 class solves) across all threads"
        );
        assert!(got.iter().all(|g| Arc::ptr_eq(&g.0, &got[0].0)));
    }

    #[test]
    fn families_differing_in_grid_solver_or_stack_never_alias() {
        use tac25d_thermal::model::SolverKind;
        let base = PackageFamily {
            chip: ChipSpec::scc_256(),
            rules: PackageRules::default(),
            stack: StackSpec::system_25d(),
            thermal: ThermalConfig {
                grid: 10,
                solver: SolverKind::Ic0,
                ..ThermalConfig::default()
            },
        };
        let mut grid = base.clone();
        grid.thermal.grid = 11;
        let mut solver = base.clone();
        solver.thermal.solver = SolverKind::Jacobi;
        let mut stack = base.clone();
        stack.stack = StackSpec::stacked_3d();
        let families: Vec<_> = [&base, &grid, &solver, &stack]
            .into_iter()
            .map(FamilyKernels::shared)
            .collect();
        for (i, a) in families.iter().enumerate() {
            for b in &families[i + 1..] {
                assert!(
                    !Arc::ptr_eq(a, b),
                    "{:?} aliases {:?}",
                    a.family(),
                    b.family()
                );
            }
        }
        assert!(Arc::ptr_eq(
            &families[0],
            &FamilyKernels::shared(&base.clone())
        ));
        // The same (edge, r) is a separate build in every family.
        let sets: Vec<_> = families
            .iter()
            .map(|f| {
                let (set, served) = f.get(Mm(20.0), 2);
                assert_eq!(served, Served::Built);
                set.expect("20 mm fits 2x2")
            })
            .collect();
        for (i, a) in sets.iter().enumerate() {
            for b in &sets[i + 1..] {
                assert!(!Arc::ptr_eq(a, b));
            }
        }
        assert_eq!(families[0].get(Mm(20.0), 2).1, Served::Hit);
    }

    #[test]
    fn an_edge_that_does_not_fit_is_cached_as_none() {
        let s = isolated_surrogate(9);
        // 10 mm cannot fit 4×4 chiplets of 4.5 mm plus guards.
        assert!(s.kernels_for(Mm(10.0), 4).is_none());
        assert!(s.kernels_for(Mm(10.0), 4).is_none());
        assert_eq!((s.kernel_solves(), s.kernel_cache_hits()), (0, 1));
    }
}
