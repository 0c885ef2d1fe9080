//! The process-wide, single-flight cache of unit-response kernels.
//!
//! A kernel set is a pure function of package geometry: the chip, the
//! package rules, the layer stack, the whole thermal configuration (grid,
//! tolerances and solver included), the interposer edge and the chiplet
//! count. Every surrogate and evaluator of one package family therefore
//! shares one [`FamilyKernels`], registered once per process and never
//! evicted, so memory is bounded by the edge lattice the specification's
//! search can reach. Within a family each `(half-mm edge, r)` key is one
//! cell: the first caller builds it while every concurrent caller of the
//! same key waits, and no registry lock is held across a build.

use crate::kernel::KernelSet;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use tac25d_floorplan::chip::ChipSpec;
use tac25d_floorplan::layers::StackSpec;
use tac25d_floorplan::organization::PackageRules;
use tac25d_floorplan::units::Mm;
use tac25d_obs as obs;
use tac25d_thermal::model::ThermalConfig;

/// Locks a mutex whose data stays consistent even if a holder panicked:
/// the cache maps below are insert-only, so a poisoned guard is safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a cache lookup was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// This caller ran the build.
    Built,
    /// The value was already cached, or another caller built it while
    /// this one waited.
    Hit,
}

/// One key's slot: the value once built, and the lock its builder holds.
struct Cell<V> {
    value: OnceLock<V>,
    building: Mutex<()>,
}

impl<V> Default for Cell<V> {
    fn default() -> Self {
        Cell {
            value: OnceLock::new(),
            building: Mutex::new(()),
        }
    }
}

/// An insert-only memo that builds each key at most once.
///
/// Concurrent first touches of one key run a single build; the others
/// block on the cell and then read its value. A build that fails or
/// panics stores nothing, so the key stays retryable (the next caller
/// builds it again).
pub(crate) struct SingleFlight<K, V> {
    cells: Mutex<HashMap<K, Arc<Cell<V>>>>,
}

impl<K: Eq + Hash, V: Clone> SingleFlight<K, V> {
    pub(crate) fn new() -> Self {
        SingleFlight {
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// The cached value of `key`, running `build` if no caller has built
    /// it yet.
    ///
    /// # Errors
    ///
    /// Returns the error of this caller's own failed build.
    pub(crate) fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, Served), E> {
        let cell = Arc::clone(lock(&self.cells).entry(key).or_default());
        if let Some(v) = cell.value.get() {
            return Ok((v.clone(), Served::Hit));
        }
        let _building = lock(&cell.building);
        if let Some(v) = cell.value.get() {
            return Ok((v.clone(), Served::Hit));
        }
        let v = build()?;
        Ok((cell.value.get_or_init(|| v).clone(), Served::Built))
    }
}

/// Everything a kernel set depends on besides its `(edge, r)` key.
/// Families are told apart by equality of every field, never by a hash.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageFamily {
    /// The chip being split into chiplets.
    pub chip: ChipSpec,
    /// Packaging rules (guard band, interposer bound).
    pub rules: PackageRules,
    /// The layer stack the kernels are solved on.
    pub stack: StackSpec,
    /// Grid, materials, tolerances and solver of the exact solves.
    pub thermal: ThermalConfig,
}

/// The process-wide kernel sets of one package family.
pub struct FamilyKernels {
    family: PackageFamily,
    sets: SingleFlight<(i64, u16), Option<Arc<KernelSet>>>,
}

impl std::fmt::Debug for FamilyKernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FamilyKernels")
            .field("family", &self.family)
            .finish_non_exhaustive()
    }
}

/// Every family this process has touched. A process sees a handful, so a
/// linear scan by equality is the whole index.
static FAMILIES: Mutex<Vec<Arc<FamilyKernels>>> = Mutex::new(Vec::new());

impl FamilyKernels {
    /// The process-wide kernels of `family`, registered on first use.
    pub fn shared(family: &PackageFamily) -> Arc<FamilyKernels> {
        let mut families = lock(&FAMILIES);
        if let Some(f) = families.iter().find(|f| f.family == *family) {
            return Arc::clone(f);
        }
        let f = Arc::new(FamilyKernels {
            family: family.clone(),
            sets: SingleFlight::new(),
        });
        families.push(Arc::clone(&f));
        f
    }

    /// The package family these kernels belong to.
    pub fn family(&self) -> &PackageFamily {
        &self.family
    }

    /// The kernel set for interposer edge `edge` and an r×r chiplet grid
    /// (`r = 1`: the single chip), built on first use. `None` when the
    /// chiplets do not fit that edge (cached) or the build failed (not
    /// cached: the next lookup retries).
    pub fn get(&self, edge: Mm, r: u16) -> (Option<Arc<KernelSet>>, Served) {
        let key = ((edge.value() * 2.0).round() as i64, r);
        let f = &self.family;
        let looked_up = self.sets.get_or_build(key, || {
            let _span = obs::span!("surrogate.kernel_build");
            let set = KernelSet::build(&f.chip, &f.rules, &f.stack, &f.thermal, edge, r)?;
            if let Some(set) = &set {
                obs::counter!("surrogate.kernel_solves").add(set.solves() as u64);
            }
            Ok::<_, tac25d_thermal::model::ThermalError>(set.map(Arc::new))
        });
        match looked_up {
            Ok((set, served)) => {
                if served == Served::Hit {
                    obs::counter!("surrogate.kernel_cache_hits").inc();
                }
                (set, served)
            }
            Err(_) => (None, Served::Built),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn concurrent_first_touches_build_once() {
        let cache: SingleFlight<u8, Arc<u64>> = SingleFlight::new();
        let builds = AtomicUsize::new(0);
        let barrier = Barrier::new(6);
        let got: Vec<(Arc<u64>, Served)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache
                            .get_or_build(7, || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                // The count holds for every interleaving;
                                // the pause only makes the others arrive
                                // mid-build and wait on the cell.
                                std::thread::sleep(Duration::from_millis(20));
                                Ok::<_, ()>(Arc::new(42))
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(got.iter().filter(|g| g.1 == Served::Built).count(), 1);
        assert!(got.iter().all(|g| Arc::ptr_eq(&g.0, &got[0].0)));
    }

    #[test]
    fn a_build_in_progress_does_not_block_other_keys() {
        let cache: SingleFlight<u8, u64> = SingleFlight::new();
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let cache = &cache;
        std::thread::scope(|s| {
            let slow = s.spawn(move || {
                cache.get_or_build(1, || {
                    started_tx.send(()).unwrap();
                    // Times out (and the test fails) if the lookup of key
                    // 2 below cannot get past the map while this builds.
                    release_rx.recv_timeout(Duration::from_secs(10)).map(|()| 1)
                })
            });
            started_rx.recv().unwrap();
            assert_eq!(
                cache.get_or_build(2, || Ok::<_, RecvTimeoutError>(2)),
                Ok((2, Served::Built))
            );
            release_tx.send(()).unwrap();
            assert_eq!(slow.join().unwrap(), Ok((1, Served::Built)));
        });
    }

    #[test]
    fn failed_and_panicking_builds_leave_the_key_retryable() {
        let cache: SingleFlight<u8, u64> = SingleFlight::new();
        assert_eq!(
            cache.get_or_build(1, || Err("solver failed")),
            Err("solver failed")
        );
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_build(1, || -> Result<u64, ()> {
                panic!("injected builder panic")
            })
        }));
        assert!(panicked.is_err());
        // Neither the error nor the panic cached anything or wedged the
        // cell's build lock, and other keys are unaffected.
        assert_eq!(
            cache.get_or_build(2, || Ok::<_, ()>(2)),
            Ok((2, Served::Built))
        );
        assert_eq!(
            cache.get_or_build(1, || Ok::<_, ()>(1)),
            Ok((1, Served::Built))
        );
        assert_eq!(
            cache.get_or_build(1, || -> Result<u64, ()> { unreachable!("cached") }),
            Ok((1, Served::Hit))
        );
    }

    #[test]
    fn a_panic_under_the_registry_lock_does_not_take_it_down() {
        let cache: SingleFlight<u8, u64> = SingleFlight::new();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.cells.lock().unwrap();
            panic!("poison the map");
        }));
        assert!(cache.cells.is_poisoned());
        assert_eq!(
            cache.get_or_build(3, || Ok::<_, ()>(3)),
            Ok((3, Served::Built))
        );
        assert_eq!(
            cache.get_or_build(3, || Ok::<_, ()>(0)),
            Ok((3, Served::Hit))
        );
    }
}
