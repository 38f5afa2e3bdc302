//! Host-speed normalisation of timed samples.
//!
//! The benchmark runs on a few cores of a host shared with other guests,
//! and what they run slows this process's cache-heavy code by up to a third
//! for seconds to minutes at a time: identical cold passes in one run took
//! 1.24–1.95 s, and the medians of back-to-back runs moved by a fifth. So
//! every timed sample is bracketed by a fixed reference kernel, a small
//! set-associative cache simulation that is the benchmark's own code (no
//! change to the repository can speed it up), and reported at the kernel's
//! nominal speed: `wall seconds × NOMINAL_KERNEL_S / kernel seconds`, with
//! the kernel's time the mean of the runs just before and just after the
//! sample. A change that makes the program faster or slower moves the
//! normalised figure by the same share as the wall time; a slow spell of the
//! host moves both the sample and the kernel, and mostly cancels.

use std::time::Instant;

/// Lines the reference kernel looks up.
const KERNEL_STEPS: u32 = 1_000_000;
/// Sets of the kernel's cache (8 ways each): 24 KiB of tags and ages, so
/// it lives in L1/L2 as the simulator's hot structures do.
const KERNEL_SETS_LOG2: u32 = 8;
const KERNEL_WAYS: usize = 8;

/// The kernel's wall time on a quiet host: the fastest of 200 runs on the
/// 2-vCPU Xeon VM this benchmark was tuned on. Only a unit: the normalised
/// figures compare with each other, not with this host.
pub const NOMINAL_KERNEL_S: f64 = 0.0125;

/// Runs the reference kernel once and returns its wall seconds: an LRU
/// cache simulation over a fixed address stream of sequential runs and
/// pseudo-random jumps, as an instruction fetch stream looks.
#[must_use]
pub fn kernel() -> f64 { kernel_x(KERNEL_SETS_LOG2) }
pub fn kernel_x(sets_log2: u32) -> f64 {
    let sets = 1usize << sets_log2;
    let mut tags = vec![u64::MAX; sets * KERNEL_WAYS];
    let mut age = vec![0u32; sets * KERNEL_WAYS];
    let mut x: u64 = 0x1234_5678_9ABC_DEF1;
    let mut pc: u64 = 0x40_0000;
    let mut hits = 0u64;
    let t = Instant::now();
    for clock in 1..=KERNEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        pc = if x & 15 == 0 {
            (x >> 8) & 0xFFF_FFFF
        } else {
            pc + 4
        };
        let line = pc >> 5;
        let base = (line as usize & (sets - 1)) * KERNEL_WAYS;
        let tag = line >> sets_log2;
        let mut victim = base;
        let mut hit = false;
        for w in base..base + KERNEL_WAYS {
            if tags[w] == tag {
                age[w] = clock;
                hit = true;
                break;
            }
            if age[w] < age[victim] {
                victim = w;
            }
        }
        if hit {
            hits += 1;
        } else {
            tags[victim] = tag;
            age[victim] = clock;
        }
    }
    std::hint::black_box(hits);
    t.elapsed().as_secs_f64()
}

/// One timed sample.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
    /// Host speed over the sample: nominal ÷ measured kernel time.
    pub speed: f64,
}

impl Timed {
    /// Wall seconds at the kernel's nominal speed.
    #[must_use]
    pub fn norm_s(&self) -> f64 {
        self.wall_s * self.speed
    }
}

/// Runs `f` between two runs of the reference kernel and returns its timing
/// and result.
pub fn time<R>(f: impl FnOnce() -> R) -> (Timed, R) {
    let xb = if std::env::var("XK").is_ok() { Some((kernel_x(13), kernel_x(16))) } else { None };
    let before = kernel();
    let cpu = cpu_seconds();
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu;
    let after = kernel();
    if let Some((m0, b0)) = xb {
        let (m1, b1) = (kernel_x(13), kernel_x(16));
        println!("# XK {wall_s:.5} {:.6} {:.6} {:.6}", (before + after) / 2.0, (m0 + m1) / 2.0, (b0 + b1) / 2.0);
    }
    let timed = Timed {
        wall_s,
        cpu_s,
        speed: NOMINAL_KERNEL_S / ((before + after) / 2.0),
    };
    (timed, out)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time (all threads, user + system), in seconds, to the
/// nanosecond.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &raw mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_scaled_to_nominal_host_speed() {
        let (timed, answer) = time(|| 42);
        assert_eq!(answer, 42);
        assert!(timed.speed > 0.0 && timed.speed.is_finite());
        assert_eq!(timed.norm_s(), timed.wall_s * timed.speed);
        let slow = Timed {
            wall_s: 3.0,
            cpu_s: 3.0,
            speed: NOMINAL_KERNEL_S / (2.0 * NOMINAL_KERNEL_S),
        };
        assert_eq!(slow.norm_s(), 1.5, "a host at half speed halves the time");
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let start = cpu_seconds();
        let _ = kernel();
        assert!(cpu_seconds() > start);
    }
}
