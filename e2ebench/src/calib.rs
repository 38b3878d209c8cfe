//! One CPU and a calibrated clock: what makes a timing taken on a shared
//! host comparable with the same timing taken ten minutes later.
//!
//! The sandbox gives the benchmark two virtual CPUs of a shared host.
//! How fast they run changes for seconds or minutes at a time: a single
//! thread loses up to 1.4x, and two threads running at once can each run
//! at half speed (the two virtual CPUs then share one core's worth of the
//! host). The same code then acknowledges 45 or 66 commits/s, and no run
//! length the driver's time limit allows averages that out.
//!
//! Two measures, both in this file:
//!
//! * [`pin_to_one_cpu`]: the load generator and the server (which inherits
//!   the affinity) run on one virtual CPU. What a run measures is then
//!   the CPU work per request of everything involved, plus the waits for
//!   the disk; how much the *second* CPU is worth at the moment no longer
//!   matters.
//! * [`Calibrator`]: a thread that, every few milliseconds, does a fixed
//!   piece of work (churn in a `BTreeSet`, the product's own kind of work)
//!   and notes how much CPU time it took. From that the [`Clock`] tells
//!   for every instant of the run how fast the machine was, and every
//!   duration the benchmark reports is in *calibrated* seconds: the time
//!   the same work takes on a machine that does the reference burst in
//!   [`NOMINAL_BURST_US`] (see [`SENSITIVITY`] for how burst times map to
//!   the product's speed). Waits that are not CPU work (an fsync, a
//!   wake-up from idle) are scaled along with the rest; where they are a
//!   large part of a duration the correction overshoots, which is why the
//!   spread of `sync_small` stays wider than that of the CPU-bound
//!   workloads.

use crate::stats::median;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// CPU time of one reference burst on the machine the calibrated second
/// is defined by (this sandbox when it is quiet), in µs. Only a scale.
pub const NOMINAL_BURST_US: f64 = 215.0;
/// How much more than the burst the product slows down when the machine
/// does: slowdown of the product = (slowdown of the burst) ^ this. Fitted,
/// not derived: over 140 runs of the four workloads during two hours in
/// which the burst took between 212 and 313 µs, the logarithm of a
/// latency regressed on the logarithm of the run's median burst gave
/// slopes between 1.0 and 1.9 (median 1.4) for commit and read latencies,
/// with bursts of other kinds (a set that fits the first-level cache, one
/// of 1.5 million entries, random reads in 64 MB, string formatting and
/// hashing) no closer to 1 and pure arithmetic not slowed at all. What
/// slows the machine slows memory accesses, and the product makes more of
/// them per instruction than the burst does.
const SENSITIVITY: f64 = 1.4;
/// Set insertions or removals per burst.
const BURST_STEPS: usize = 500;
/// Sleep between two bursts. With the burst this keeps the calibrator
/// at about 5 % of the CPU.
const BURST_PAUSE: Duration = Duration::from_millis(4);
/// The clock assumes one machine speed for this long, s: the median of
/// the ≈50 bursts inside.
const BUCKET_S: f64 = 0.2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// Words of a CPU mask: room for 1024 CPUs, what `cpu_set_t` holds.
const MASK_WORDS: usize = 16;

/// Restricts this process to the highest-numbered CPU it may run on
/// (interrupts are mostly served by the lowest) and returns its number.
/// Threads and child processes started afterwards inherit the
/// restriction. `None` when the kernel refuses; the run then goes on
/// unpinned and says so.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of `bytes` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rfind(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of `bytes` bytes.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// CPU time this thread has used, ns.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`. The call cannot fail
    // for this clock id on Linux; if it did, `ts` stays zero and the
    // burst reads as zero, which `Clock::new` ignores.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The reference burst: xorshift-drawn keys inserted into or removed from
/// an ordered set of pairs that stays about 40 000 entries large, and a
/// prefix range counted after each step.
fn burst(set: &mut BTreeSet<(u32, u32)>, x: &mut u64) -> u64 {
    let mut counted = 0u64;
    for _ in 0..BURST_STEPS {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let key = ((*x >> 32) as u32 % 5000, *x as u32 % 16);
        if !set.insert(key) {
            set.remove(&key);
        }
        counted += set.range((key.0, 0)..(key.0 + 1, 0)).count() as u64;
    }
    counted
}

/// The thread that takes the bursts, from `start` until `finish`.
pub struct Calibrator {
    start: Instant,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(Instant, f64)>>,
}

impl Calibrator {
    /// Fills the burst's set (≈40 ms, on the calling thread, so that it
    /// does not compete with what is timed next) and starts the thread.
    pub fn start() -> Calibrator {
        let mut set = BTreeSet::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            std::hint::black_box(burst(&mut set, &mut x));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let start = Instant::now();
        let thread = std::thread::spawn(move || {
            let mut bursts = Vec::new();
            // `Relaxed`: the flag publishes nothing but itself.
            while !stopped.load(Ordering::Relaxed) {
                let at = Instant::now();
                let before = thread_cpu_ns();
                std::hint::black_box(burst(&mut set, &mut x));
                let us = thread_cpu_ns().saturating_sub(before) as f64 / 1e3;
                bursts.push((at, us));
                std::thread::sleep(BURST_PAUSE);
            }
            bursts
        });
        Calibrator {
            start,
            stop,
            thread,
        }
    }

    /// Stops the thread and returns the clock of the time it ran.
    pub fn finish(self) -> Clock {
        self.stop.store(true, Ordering::Relaxed);
        let bursts = self.thread.join().expect("the calibrator does not panic");
        let at: Vec<(f64, f64)> = bursts
            .iter()
            .map(|(t, us)| (t.duration_since(self.start).as_secs_f64(), *us))
            .collect();
        Clock::new(self.start, &at)
    }
}

/// Calibrated time: for every instant since `start`, how many seconds a
/// machine of nominal speed would have needed to get as far.
pub struct Clock {
    start: Instant,
    /// Per bucket of [`BUCKET_S`]: how much slower than nominal the product
    /// ran, (burst time ÷ nominal burst time) ^ [`SENSITIVITY`].
    slowdown: Vec<f64>,
    /// Calibrated seconds elapsed at the start of each bucket.
    elapsed: Vec<f64>,
}

impl Clock {
    /// `bursts`: (seconds since `start`, CPU time in µs) of every burst.
    fn new(start: Instant, bursts: &[(f64, f64)]) -> Clock {
        let buckets = bursts
            .iter()
            .map(|(at, _)| (at / BUCKET_S) as usize + 1)
            .max()
            .unwrap_or(1);
        let mut times = vec![Vec::new(); buckets];
        for (at, us) in bursts.iter().filter(|(_, us)| *us > 0.0) {
            times[(at / BUCKET_S) as usize].push(*us);
        }
        // The median, not the mean: when the host takes the virtual CPU
        // away for 100 ms, the one burst it hits reads 500 times too long
        // and the others not at all; such stalls stay in the measurements
        // as the noise they are. A bucket without a burst (the calibrator
        // was kept off the CPU for that long) takes the speed of the one
        // before it, the first that of the next with one, and a run
        // without any burst runs at nominal speed.
        let mut slowdown: Vec<Option<f64>> = times
            .iter_mut()
            .map(|t| (!t.is_empty()).then(|| (median(t) / NOMINAL_BURST_US).powf(SENSITIVITY)))
            .collect();
        let first = slowdown.iter().flatten().next().copied().unwrap_or(1.0);
        let mut last = first;
        for s in &mut slowdown {
            last = *s.get_or_insert(last);
        }
        let slowdown: Vec<f64> = slowdown.into_iter().flatten().collect();
        let mut elapsed = Vec::with_capacity(slowdown.len());
        let mut total = 0.0;
        for s in &slowdown {
            elapsed.push(total);
            total += BUCKET_S / s;
        }
        Clock {
            start,
            slowdown,
            elapsed,
        }
    }

    /// Calibrated seconds from the start of the clock to `t`. Past the
    /// last bucket the machine is taken to keep that bucket's speed.
    pub fn at(&self, t: Instant) -> f64 {
        let x = t.saturating_duration_since(self.start).as_secs_f64();
        let b = ((x / BUCKET_S) as usize).min(self.slowdown.len() - 1);
        self.elapsed[b] + (x - b as f64 * BUCKET_S) / self.slowdown[b]
    }

    /// Calibrated seconds between two instants.
    pub fn between(&self, from: Instant, to: Instant) -> f64 {
        self.at(to) - self.at(from)
    }

    /// Mean slowdown over the clock's buckets, and the lowest and highest:
    /// how the machine did during the run, for the notes.
    pub fn slowdown_summary(&self) -> (f64, f64, f64) {
        let n = self.slowdown.len() as f64;
        (
            self.slowdown.iter().sum::<f64>() / n,
            self.slowdown.iter().copied().fold(f64::INFINITY, f64::min),
            self.slowdown.iter().copied().fold(0.0, f64::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(bursts: &[(f64, f64)]) -> Clock {
        Clock::new(Instant::now(), bursts)
    }

    #[test]
    fn a_slow_spell_shortens_calibrated_time() {
        // Nominal speed in the first bucket, half speed in the second.
        let half = 2f64.powf(1.0 / SENSITIVITY) * NOMINAL_BURST_US;
        let c = clock(&[
            (0.05, NOMINAL_BURST_US),
            (0.15, NOMINAL_BURST_US),
            (0.25, half),
            (0.35, half),
        ]);
        let at = |x: f64| c.at(c.start + Duration::from_secs_f64(x));
        assert!((at(0.1) - 0.1).abs() < 1e-9);
        assert!((at(0.2) - 0.2).abs() < 1e-9);
        assert!((at(0.4) - 0.3).abs() < 1e-9);
        // Past the last burst the last speed holds.
        assert!((at(0.6) - 0.4).abs() < 1e-9);
        let t = |x: f64| c.start + Duration::from_secs_f64(x);
        assert!((c.between(t(0.1), t(0.3)) - 0.15).abs() < 1e-9);
    }

    #[test]
    fn buckets_without_bursts_take_a_neighbours_speed() {
        let third = 3f64.powf(1.0 / SENSITIVITY) * NOMINAL_BURST_US;
        let c = clock(&[(0.45, third), (0.9, NOMINAL_BURST_US)]);
        // Buckets 0 and 1 have none: the first measured speed; bucket 3
        // has none: that of bucket 2.
        let rounded: Vec<f64> = c.slowdown.iter().map(|s| (s * 1e9).round() / 1e9).collect();
        assert_eq!(rounded, vec![3.0, 3.0, 3.0, 3.0, 1.0]);
        assert_eq!(clock(&[]).slowdown, vec![1.0]);
        // A burst whose CPU time could not be read is left out.
        assert_eq!(
            clock(&[(0.1, 0.0), (0.3, NOMINAL_BURST_US)]).slowdown,
            vec![1.0, 1.0]
        );
    }

    #[test]
    fn the_calibrator_takes_bursts() {
        let cal = Calibrator::start();
        std::thread::sleep(Duration::from_millis(300));
        let began = cal.start;
        let c = cal.finish();
        assert!(c.slowdown.iter().all(|s| s.is_finite() && *s > 0.0));
        let quarter = c.between(began, began + Duration::from_millis(250));
        assert!(quarter > 0.0 && quarter.is_finite());
    }
}
