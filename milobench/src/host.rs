//! Host-speed normalization.
//!
//! Shared hosts drift in speed by up to 1.5x over tens of seconds, and
//! CPU time drifts with wall time, so neither clock alone gives a steady
//! figure. Every timed unit (a pass over a design set, a flow, or a
//! block of service requests) is therefore scaled by a fixed kernel that
//! contains no program code: a sort and an ordered-map build over seeded
//! keys, then a chain of dependent loads through a ring larger than a
//! core's caches, the mix of branchy comparisons, pointer chasing and
//! shared-cache traffic the synthesis code does. A unit's time is scaled
//! by `NOMINAL_MS / kernel_ms`, with `kernel_ms` the mean of the kernel
//! samples around the unit and of those a background thread took while
//! it ran.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel time every measurement is scaled to: a normalized time
/// reads as if each kernel sample had taken exactly this long. It is the
/// kernel's mean while flows run on the 2-core x86-64 VM the bounds were
/// set on, so normalized times there read close to wall time.
pub const NOMINAL_MS: f64 = 7.9;

/// Keys per kernel repetition.
const KERNEL_KEYS: u64 = 26_000;

/// Slots of the pointer-chase ring (16 MiB): larger than the caches a
/// core owns, so the kernel feels the shared-cache and memory contention
/// that slows the flows on a shared host.
const CHASE_SLOTS: u32 = 1 << 22;

/// Dependent loads per kernel repetition.
const CHASE_STEPS: usize = 30_000;

/// Repetitions per kernel sample; their median is the sample, so one
/// preempted repetition does not skew the unit it brackets.
const KERNEL_REPS: usize = 3;

/// A random single-cycle permutation of the chase slots (Sattolo's
/// algorithm), built once per process.
fn chase_ring() -> &'static [u32] {
    static RING: OnceLock<Vec<u32>> = OnceLock::new();
    RING.get_or_init(|| {
        let mut ring: Vec<u32> = (0..CHASE_SLOTS).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..ring.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ring.swap(i, (x % i as u64) as usize);
        }
        ring
    })
}

/// One repetition of the fixed kernel, in milliseconds: a sort and an
/// ordered-map build over seeded keys, then a chain of dependent loads
/// through a 16 MiB ring.
fn kernel_once() -> f64 {
    let ring = chase_ring();
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut keys: Vec<u64> = (0..KERNEL_KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut map = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        *map.entry(k % (KERNEL_KEYS / 2)).or_insert(0u64) += i as u64;
    }
    black_box(map.values().fold(0u64, |a, &v| a.wrapping_add(v)));
    let mut at = black_box(0u32);
    for _ in 0..CHASE_STEPS {
        at = ring[at as usize];
    }
    black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}

/// One kernel sample: the median of [`KERNEL_REPS`] repetitions, in ms.
pub fn kernel_ms() -> f64 {
    let reps: Vec<f64> = (0..KERNEL_REPS).map(|_| kernel_once()).collect();
    crate::stats::median(&reps)
}

/// Scales a raw time by the adjacent kernel time.
pub fn normalize(raw: f64, kernel_ms: f64) -> f64 {
    raw * NOMINAL_MS / kernel_ms
}

/// Pause between background kernel repetitions: the sampler keeps
/// about 3 % of one core busy.
const SAMPLE_PERIOD: Duration = Duration::from_millis(100);

/// Background kernel repetitions, with the instant each finished.
type SampleLog = Arc<Mutex<Vec<(Instant, f64)>>>;

/// A chain of kernel samples bracketing consecutive timed units: each
/// [`Normalizer::close`] ends one unit, and its kernel sample also opens
/// the next. A background thread repeats the kernel every
/// [`SAMPLE_PERIOD`] as well, so a unit lasting seconds is scaled by the
/// host speed throughout it, not only at its ends.
pub struct Normalizer {
    last: f64,
    opened: Instant,
    samples: Vec<f64>,
    background: SampleLog,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl Default for Normalizer {
    fn default() -> Self {
        Self::new()
    }
}

impl Normalizer {
    /// Starts the background sampler and takes the opening sample.
    pub fn new() -> Self {
        let background = SampleLog::default();
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (log, stop) = (background.clone(), stop.clone());
            std::thread::Builder::new()
                .name("milobench-host-sampler".to_owned())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let ms = kernel_once();
                        log.lock()
                            .expect("sampler log lock is never held across a panic")
                            .push((Instant::now(), ms));
                        std::thread::sleep(SAMPLE_PERIOD);
                    }
                })
                .ok()
        };
        let k = kernel_ms();
        Self {
            last: k,
            opened: Instant::now(),
            samples: vec![k],
            background,
            stop,
            sampler,
        }
    }

    /// Re-opens the chain with a fresh kernel sample, for a unit that
    /// does not directly follow the previous one.
    pub fn reopen(&mut self) {
        self.last = kernel_ms();
        self.samples.push(self.last);
        self.opened = Instant::now();
    }

    /// Ends the current unit: takes a kernel sample and returns the
    /// factor that scales the unit's raw times to nominal host speed.
    /// The unit's kernel time is the mean of the samples bracketing it
    /// and the background samples taken while it ran.
    pub fn close(&mut self) -> f64 {
        let ended = Instant::now();
        let during: Vec<f64> = self
            .background
            .lock()
            .expect("sampler log lock is never held across a panic")
            .iter()
            .filter(|(at, _)| *at >= self.opened && *at <= ended)
            .map(|(_, ms)| *ms)
            .collect();
        let after = kernel_ms();
        let factor = normalize(1.0, adjacent_kernel_ms(self.last, after, &during));
        self.last = after;
        self.samples.push(after);
        self.opened = Instant::now();
        factor
    }

    /// Runs `f` as one unit; returns its result, raw seconds, and
    /// normalized seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        self.opened = Instant::now();
        let out = f();
        let raw = self.opened.elapsed().as_secs_f64();
        let factor = self.close();
        (out, raw, raw * factor)
    }

    /// Median bracketing kernel sample so far (`host.ref_ms`).
    pub fn ref_ms(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

impl Drop for Normalizer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.sampler.take() {
            let _ = t.join();
        }
    }
}

/// A unit's kernel time: the mean of its bracketing samples and of the
/// background samples taken while it ran.
fn adjacent_kernel_ms(before: f64, after: f64, during: &[f64]) -> f64 {
    (before + after + during.iter().sum::<f64>()) / (2 + during.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_scales_to_nominal_speed() {
        // A host running the kernel at twice the nominal time is half
        // speed: a 3 s unit there counts as 1.5 s.
        assert!((normalize(3.0, 2.0 * NOMINAL_MS) - 1.5).abs() < 1e-12);
        assert!((normalize(3.0, NOMINAL_MS) - 3.0).abs() < 1e-12);
        assert!((normalize(1.0, NOMINAL_MS / 4.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn adjacent_kernel_time_weighs_every_sample() {
        assert!((adjacent_kernel_ms(2.0, 4.0, &[]) - 3.0).abs() < 1e-12);
        // A long unit is dominated by the samples taken while it ran.
        let during = [6.0; 98];
        assert!((adjacent_kernel_ms(2.0, 2.0, &during) - 5.92).abs() < 1e-12);
    }

    #[test]
    fn units_get_finite_positive_factors() {
        let mut n = Normalizer::new();
        let factor = n.close();
        assert!(factor > 0.0 && factor.is_finite());
        assert_eq!(n.samples.len(), 2);
        let (_, raw, scaled) = n.time(|| std::thread::sleep(Duration::from_millis(5)));
        assert!(raw >= 0.005);
        assert!(scaled > 0.0 && scaled.is_finite());
        assert!(n.ref_ms() > 0.0);
    }
}
