//! Shared plumbing: statistics, the seeded generator, digests, host facts
//! and the result record every workload fills in.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// splitmix64: a small seeded generator, so the same `--seed` always
/// yields the same inputs and schedules.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE9C_0FFE_E000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap_s(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// FNV-1a 64, folded incrementally.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

pub fn fnv64(b: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(b);
    h.0
}

/// Quantile by nearest rank over an ascending slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let i = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[i.min(sorted.len() - 1)]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` (peak resident set) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_mb(pid, "VmHWM:")
}

/// `VmRSS` (current resident set) of a process, in MB.
pub fn rss_mb(pid: &str) -> Option<f64> {
    status_mb(pid, "VmRSS:")
}

fn status_mb(pid: &str, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Start a new peak: from here on `VmHWM` of `pid` counts from its
/// current resident set (`5` to `/proc/<pid>/clear_refs`, Linux 4.0+).
/// Each workload calls this right before its timed loop, so its
/// `peak_rss_mb` covers the work it times and not its preparation.
pub fn reset_peak_rss(pid: &str) -> Result<(), String> {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
        .map_err(|e| format!("cannot reset the peak resident set of {pid}: {e}"))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the heap this process has freed back to the kernel, so memory
/// the untimed preparation used and freed is not resident when the peak
/// is reset: the timed loop's own allocations then show in `VmHWM`
/// instead of reusing pages that were already counted.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim only releases free heap memory; it
    // takes no pointers and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Records `setup_s`, the median of a run's set-up samples, and notes
/// their range.
pub fn setup_metric(out: &mut Outcome, setups: &[f64]) {
    let s = sorted(setups.to_vec());
    out.metric("setup_s", median(&s), "s", s.len());
    out.note(format!(
        "setup_s samples: min {:.4} s, max {:.4} s",
        s.first().copied().unwrap_or(f64::NAN),
        s.last().copied().unwrap_or(f64::NAN)
    ));
}

/// The peak resident set of a run's timed part: [`PeakWindow::start`]
/// right before it, [`PeakWindow::finish`] right after.
pub struct PeakWindow {
    pid: String,
    base_mb: f64,
}

impl PeakWindow {
    /// Trims this process's heap (when `pid` is `self`), resets the peak
    /// of `pid` and notes what is resident at that point.
    pub fn start(pid: &str) -> Result<PeakWindow, String> {
        if pid == "self" {
            trim_heap();
        }
        reset_peak_rss(pid)?;
        Ok(PeakWindow {
            pid: pid.to_string(),
            base_mb: rss_mb(pid).unwrap_or(f64::NAN),
        })
    }

    /// Records `peak_rss_mb`: `VmHWM` since [`PeakWindow::start`].
    /// `what` names the process and the span, e.g. "the daemon over the
    /// saturation step".
    pub fn finish(&self, out: &mut Outcome, what: &str) {
        if let Some(mb) = peak_rss_mb(&self.pid) {
            out.metric("peak_rss_mb", mb, "MB", 1);
            out.note(format!(
                "peak_rss_mb: VmHWM of {what}; {:.1} MB were resident at its start",
                self.base_mb
            ));
        }
    }
}

/// CPU seconds (user + system, all threads) a process has used so far,
/// from `/proc/<pid>/stat`. The kernel leaves out time the hypervisor
/// stole from the vCPU, so on a shared host this is steadier than wall
/// time.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in clock ticks.
    let rest = stat.rsplit_once(')')?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks / CLOCK_TICKS_PER_S)
}

/// `USER_HZ`, the unit of `/proc/<pid>/stat` CPU times on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Host facts every result carries.
pub struct Host {
    pub nproc: usize,
    pub available_parallelism: usize,
}

impl Host {
    pub fn probe() -> Host {
        let available_parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let nproc = std::process::Command::new("nproc")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(available_parallelism);
        Host {
            nproc,
            available_parallelism,
        }
    }
}

/// Wall-clock spans recorded around the benchmark's own calls into a
/// layer's public functions (traced runs only). Kept in memory and
/// written out once at exit, so recording costs one clock read and one
/// push per call. Spans of one operation (a page, an engine build, a
/// request) share its id.
pub struct Spans {
    origin: Instant,
    op: u64,
    /// (layer, operation id, start ns, duration ns).
    pub spans: Vec<(&'static str, u64, u64, u64)>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            op: 0,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Attribute the spans recorded from now on to operation `id`.
    pub fn op(&mut self, id: u64) {
        self.op = id;
    }

    /// Time `f` as one span of `layer`; returns its result and the span
    /// length in microseconds.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let r = f();
        let end = Instant::now();
        let start_ns = t.duration_since(self.origin).as_nanos() as u64;
        let dur_ns = end.duration_since(t).as_nanos() as u64;
        self.spans.push((layer, self.op, start_ns, dur_ns));
        (r, dur_ns as f64 / 1e3)
    }

    /// JSON lines: `{"layer": .., "op": .., "start_ns": .., "dur_ns": ..}`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 72);
        for (layer, op, s, d) in &self.spans {
            let _ = writeln!(
                out,
                "{{\"layer\":\"{layer}\",\"op\":{op},\"start_ns\":{s},\"dur_ns\":{d}}}"
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// One printed metric: value, unit and the number of samples behind it.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload hands back to `main`: metrics keyed by name, the
/// operation counts, a correctness verdict and free-form report lines.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output mismatches found by the identity checks; any makes the
    /// process exit non-zero.
    pub mismatches: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn mismatch(&mut self, s: impl Into<String>) {
        self.mismatches.push(s.into());
    }
}
